"""The three benchmark workloads, their inputs and their correctness gates.

Every workload is a closed loop with one client: a fixed, seeded list of
items run back to back, each started only after the previous one returned.
A workload provides

* ``setup()``: the reference invocation, plus a self-check that each gate
  rejects a corrupted output, so no gate can pass vacuously;
* ``items()``: an endless iterator of inputs made from the seed;
* ``invoke(item)``: the program call that is timed;
* ``check(item, raw)``: the gate, returning (passed, detail, info).

A gate failure is counted and reported; it never stops the run, and no
draw is filtered or drawn again to avoid one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import sys

import numpy as np

from tracing import layer_module


def package():
    """The landen_kdv package, resolved at call time so tracing wrappers apply."""
    return sys.modules["landen_kdv"]


def memo_caches() -> dict[str, object]:
    """Every functools cache bound at module level in the package, by qualified name.

    Found by shape rather than by name, so a cache that is renamed or bounded
    is still cleared; at this commit these are the caches on landen_map,
    _modulus_ladder, _plan and _speed_probe.
    """
    found: dict[str, object] = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "landen_kdv" or name.startswith("landen_kdv.")):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and \
                    callable(getattr(value, "cache_info", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


class BenchError(RuntimeError):
    """The benchmark itself cannot run: a reference failed or a gate is blind."""


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process: (exit code, stdout, stderr), as a process would give."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = layer_module("cli").main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _exit_detail(rc: int, err: str) -> str:
    last = err.strip().splitlines()[-1:] or [""]
    return f"exit code {rc}: {last[0]}"


class Workload:
    name = ""
    # True: every item starts with the package's memo caches empty, as each
    # CLI process does.  False: caches persist across items.
    cold_items = True

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.caches = memo_caches()

    def clear_caches(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()

    def trace_info(self, item, raw, info: dict) -> dict:
        """Extra per-item observations made outside the timed call (traced run only)."""
        return {}

    def close(self) -> None:
        """Remove files the workload wrote."""


# ---------------------------------------------------------------------------
# verify-all


class VerifyAll(Workload):
    name = "verify-all"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.report_path = os.path.join(scratch, f"verify-report-{os.getpid()}.jsonl")
        self.argv = ["verify", "--suite", "all", "--report", self.report_path]
        self.reference = b""

    def items(self):
        # the command has no input besides its flags; the seed changes nothing
        while True:
            yield None

    def invoke(self, item):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report_path)  # a stale report must not pass the gate
        rc, _, err = _call_cli(self.argv)
        return rc, err

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report_path)

    def _read_report(self) -> bytes:
        try:
            with open(self.report_path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def gate(self, rc, report: bytes, err: str = "") -> tuple[bool, str]:
        if rc != 0:
            return False, _exit_detail(rc, err)
        if report != self.reference:
            return False, "report differs from the reference invocation"
        return True, ""

    def setup(self) -> None:
        self.clear_caches()
        rc, _ = self.invoke(None)
        report = self._read_report()
        lines = [json.loads(line) for line in report.decode("utf-8").splitlines()]
        if rc != 0 or not lines or not all(line["pass"] for line in lines):
            raise BenchError(f"reference verify invocation failed: exit {rc}, "
                             f"{sum(not line['pass'] for line in lines)} of "
                             f"{len(lines)} checks failed")
        self.reference = report
        self.report_sha256 = hashlib.sha256(report).hexdigest()
        corrupted = bytearray(report)
        corrupted[len(corrupted) // 2] ^= 0x01
        if self.gate(0, bytes(corrupted))[0] or self.gate(1, report)[0] \
                or not self.gate(0, report)[0]:
            raise BenchError("verify-all gate does not trip on a perturbed report byte")

    def check(self, item, raw):
        rc, err = raw
        ok, detail = self.gate(rc, self._read_report(), err)
        return ok, detail, {}

    def trace_info(self, item, raw, info):
        report = self._read_report()
        lines = [json.loads(line) for line in report.decode("utf-8").splitlines()]
        worst = 0.0
        abstained = 0
        for line in lines:
            metric, tol = float(line["metric"]), float(line["tol"])
            if line["params"].get("bound") == "lower":
                margin = tol / metric if metric > 0.0 else math.inf
            else:
                margin = metric / tol
            worst = max(worst, margin)
            if line["check"] == "dual_oracle_A" and metric == 0.0:
                abstained += 1
        return {"verify.checks": len(lines), "verify.worst_margin": worst,
                "cli.report_bytes": len(report), "landen.fit_abstentions": abstained}


# ---------------------------------------------------------------------------
# landen-sweep


class LandenSweep(Workload):
    name = "landen-sweep"
    cold_items = False  # m never repeats, so every map is a cold build anyway

    REFERENCE = (3, 0.5, 1.0, 0.0)

    def items(self):
        rng = random.Random(self.seed)
        j = 0
        while True:
            p = rng.randint(1, 16)
            alpha = rng.uniform(0.5, 2.0)
            beta = rng.uniform(-1.0, 1.0)
            # m: half uniform on (0, 1), a quarter log-uniform in 1e-8..1e-2,
            # a quarter with 1 - m log-uniform in 1e-12..1e-2
            branch = j % 4
            if branch < 2:
                m = rng.random()
            elif branch == 2:
                m = 10.0 ** rng.uniform(-8.0, -2.0)
            else:
                m = 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)
            j += 1
            yield (p, m, alpha, beta)

    def invoke(self, item):
        p, m, alpha, beta = item
        pkg = package()
        lmap = pkg.landen_map(p, m)
        tp = pkg.transform_params(alpha, beta, lmap)
        params = pkg.DnWaveParams(alpha=alpha, beta=beta, m=m, p=p)
        gap = pkg.equivalence_check(params, lmap, params.natural_grid(512, periods=2))
        residual = pkg.kdv_residual(params, params.natural_grid(256)).normalized
        return gap, tp, residual

    def gate(self, gap: float, tp) -> tuple[bool, str]:
        tol = package().TOLERANCES["equivalence"]
        values = dataclasses.astuple(tp)
        if not all(math.isfinite(v) for v in values):
            return False, f"non-finite transformed parameters {values}"
        if not gap <= tol:
            return False, f"equivalence gap {gap:.3e} > {tol:.0e}"
        return True, ""

    def setup(self) -> None:
        p, m, alpha, beta = self.REFERENCE
        gap, tp, _ = self.invoke(self.REFERENCE)
        if not self.gate(gap, tp)[0]:
            raise BenchError(f"reference draw {self.REFERENCE} fails its gate: gap {gap:.3e}")
        # shifted profile: a velocity offset A off by 1e-3 moves the single
        # wave against the superposition at the later time slices
        pkg = package()
        lmap = pkg.landen_map(p, m)
        params = pkg.DnWaveParams(alpha=alpha, beta=beta, m=m, p=p)
        wrong = dataclasses.replace(lmap, A=lmap.A + 1e-3)
        bad_gap = pkg.equivalence_check(params, wrong, params.natural_grid(512, periods=2))
        if self.gate(bad_gap, pkg.transform_params(alpha, beta, wrong))[0]:
            raise BenchError("landen-sweep gate does not trip on a shifted profile")

    def check(self, item, raw):
        gap, tp, residual = raw
        ok, detail = self.gate(gap, tp)
        return ok, detail, {"verify.residual_normalized": residual}

    def trace_info(self, item, raw, info):
        p, m, _, _ = item
        out = dict(info)
        out["landen.fit_abstentions"] = 0
        if p >= 2:
            try:
                out["landen.fit_abstentions"] = int(package().dual_oracle_gap(p, m) == 0.0)
            except (ArithmeticError, ValueError):
                pass  # the item itself was refused and already counts as failed
        return out


# ---------------------------------------------------------------------------
# evolve-crossing


# additive recurrence for three dimensions: fractional parts of k * g_i are
# evenly spread for every k, so every seed sees the same mix of item costs
_R3 = 1.2207440846057596  # real root of x^4 = x + 1
_R3_STEPS = (1.0 / _R3, 1.0 / _R3**2, 1.0 / _R3**3)


class EvolveCrossing(Workload):
    name = "evolve-crossing"

    N = 256
    PERIODS_CROSSED = 0.01
    DEVIATION_TOL = 1e-6
    MASS_DRIFT_TOL = 1e-12
    # the criterion-7 reference waves: (p, m, alpha, beta)
    REFERENCES = ((1, 0.5, 1.0, 0.0), (3, 0.6, 1.0, -1.0))

    def items(self):
        yield from self.REFERENCES
        rng = random.Random(self.seed)
        offsets = {p: [rng.random() for _ in range(3)] for p in (1, 2, 3)}
        j = 0
        while True:
            # p cycles 1, 2, 3; (m, alpha, b_p) walk a randomly shifted
            # low-discrepancy sequence within each p
            p = 1 + j % 3
            k = j // 3 + 1
            u = [(off + k * g) % 1.0 for off, g in zip(offsets[p], _R3_STEPS)]
            m = 0.2 + 0.7 * u[0]
            alpha = 0.5 + 1.5 * u[1]
            # b_p in [4, 8] keeps every wave moving: with beta = 0 a p = 3
            # wave at m = 0.2 has b_p = 0.05 and barely travels
            b_p = 4.0 + 4.0 * u[2]
            a_const = package().A_constant(p, m) if p > 1 else 0.0
            beta = (8.0 - 4.0 * m + 12.0 * a_const - b_p) / 6.0
            j += 1
            yield (p, m, alpha, beta)

    def argv(self, item) -> list[str]:
        p, m, alpha, beta = item
        # NAME=VALUE, because argparse reads "--beta -1e-05" as two flags
        return ["evolve", "--family", "u1" if p == 1 else "up", f"-p={p}",
                f"-m={m!r}", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--n={self.N}",
                f"--periods-crossed={self.PERIODS_CROSSED!r}", "--json"]

    def invoke(self, item):
        return _call_cli(self.argv(item))

    def gate(self, rc, record, err: str = "") -> tuple[bool, str]:
        if rc != 0:
            return False, _exit_detail(rc, err)
        if record is None:
            return False, "no JSON record"
        dev, drift = record.get("deviation"), record.get("mass_drift")
        if not (isinstance(dev, float) and dev <= self.DEVIATION_TOL):
            return False, f"deviation {dev!r} > {self.DEVIATION_TOL:.0e}"
        if not (isinstance(drift, float) and drift <= self.MASS_DRIFT_TOL):
            return False, f"mass drift {drift!r} > {self.MASS_DRIFT_TOL:.0e}"
        if not record.get("steps", 0) >= 1:
            return False, "no steps taken"
        return True, ""

    @staticmethod
    def _record(out: str):
        try:
            return json.loads(out)
        except json.JSONDecodeError:
            return None

    def setup(self) -> None:
        self.clear_caches()
        rc, out, err = self.invoke(self.REFERENCES[0])
        record = self._record(out)
        ok, detail = self.gate(rc, record, err)
        if not ok:
            raise BenchError(f"reference evolve invocation fails its gate: {detail}")
        if self.gate(0, dict(record, deviation=2.0 * self.DEVIATION_TOL))[0] \
                or self.gate(0, dict(record, mass_drift=1e-11))[0] \
                or self.gate(1, record)[0]:
            raise BenchError("evolve-crossing gate does not trip on a deviation above 1e-6")

    def check(self, item, raw):
        rc, out, err = raw
        record = self._record(out)
        ok, detail = self.gate(rc, record, err)
        return ok, detail, {"record": record}

    def trace_info(self, item, raw, info):
        record = info.get("record")
        if record is None:
            return {}
        p, m, alpha, beta = item
        pkg = package()
        params = pkg.DnWaveParams(alpha=alpha, beta=beta, m=m, p=p)
        u0 = params.sample(pkg.PeriodicGrid(N=record["N"], L=record["L"]), 0.0)
        # nonlinear CFL number of the step the library chose, with the
        # largest wavenumber the 2/3 dealiasing rule keeps
        k_max = (2.0 / 3.0) * math.pi * record["N"] / record["L"]
        cfl = record["dt"] * 6.0 * float(np.max(np.abs(u0))) * k_max
        return {"evolve.steps": record["steps"], "evolve.cfl": cfl,
                "evolve.deviation_margin": record["deviation"] / self.DEVIATION_TOL,
                "evolve.mass_drift": record["mass_drift"]}


WORKLOADS = {cls.name: cls for cls in (VerifyAll, LandenSweep, EvolveCrossing)}
