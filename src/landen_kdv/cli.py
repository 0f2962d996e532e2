"""Command-line interface: Landen tables, verification suites, field dumps, evolution.

Subcommands
-----------
landen   print gamma, m_tilde, shifts, cyclic constants and A for one (p, m)
verify   run a verification suite; JSONL report, per-family summary, exit 0/1
eval     dump (x, u) samples of one wave family as CSV
evolve   integrate a family and compare against its exact translate

Exit codes: 0 success, 1 failed checks / instability / I/O failure,
2 usage or config errors.  Every command accepts --json for machine
output; schemas carry the version tag below.  Outputs contain no
timestamps and floats print at 15 significant digits, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    InstabilityError,
    PeriodMismatchError,
)
from .evolve import (
    EvolverConfig,
    cfl_number,
    choose_step,
    conservation_report,
    evolve_trajectory,
    translation_lag,
)
from .fourier import PeriodicGrid
from .landen import landen_map
from .verify import SUITES, _as_written, run_suite
from .waves import DnWaveParams, PmWaveParams

SCHEMA = "landen-kdv/1"


def _fmt(value: float) -> str:
    return format(float(value), ".15g")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _read_config(path: str) -> tuple[str, dict]:
    """(command, options) from {"schema": ..., "command": ..., "options": {...}}."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("options"), dict):
        raise DomainError(f"config {path} must contain an 'options' object")
    return str(raw.get("command", "")), raw["options"]


def _config_value(flag: argparse.Action, value, default):
    """A config-file value as its flag would parse it; ValueError otherwise.

    Typed flags parse the text JSON gives, so 2.7 is not an int and "abc"
    is not a float.  Switches, repeatable flags and plain strings take the
    default's type.  null keeps an unset default; choices apply as on the
    command line.
    """
    if value is None and default is None:
        return None
    if flag.type is None:
        kind = str if default is None else type(default)
        if not isinstance(value, kind) or (
                kind is list and not all(isinstance(v, str) for v in value)):
            raise ValueError(f"expected a {kind.__name__}, got {value!r}")
        parsed = value
    else:
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            parsed = flag.type(text)
        except ValueError:
            raise ValueError(f"invalid {flag.type.__name__} value: {text!r}") from None
    if flag.choices is not None and parsed not in flag.choices:
        raise ValueError(f"{parsed!r} is not one of {list(flag.choices)}")
    return parsed


def _merge_options(args: argparse.Namespace, command: str, defaults: dict) -> dict:
    """defaults < config file < explicit flags.

    Subparsers register flags with default=SUPPRESS, so the namespace
    contains exactly what the user typed.  Config values meet the same
    type and choices checks as the flags.
    """
    provided = {k: v for k, v in vars(args).items()
                if k not in ("func", "flags", "config", "command_name")}
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        cfg_command, options = _read_config(config_path)
        if cfg_command and cfg_command != command:
            raise DomainError(
                f"config {config_path} is for command {cfg_command!r}, "
                f"not {command!r}")
        unknown = set(options) - set(defaults)
        if unknown:
            raise DomainError(f"config {config_path} has unknown options: "
                              f"{sorted(unknown)}")
        for key, value in options.items():
            try:
                merged[key] = _config_value(args.flags[key], value, defaults[key])
            except ValueError as exc:
                raise DomainError(f"config {config_path}: {key}: {exc}") from None
    merged.update(provided)
    return merged


def _parse_tol(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise DomainError(f"--tol expects NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise DomainError(f"--tol {name}: {value!r} is not a number") from exc
    return out


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# landen


_LANDEN_DEFAULTS = {"p": 1, "m": 0.5, "json": False, "csv": False}


def cmd_landen(args: argparse.Namespace) -> int:
    opts = _merge_options(args, "landen", _LANDEN_DEFAULTS)
    lmap = landen_map(int(opts["p"]), float(opts["m"]))
    if opts["json"]:
        sys.stdout.write(_dump_json({
            "schema": SCHEMA, "p": lmap.p, "m": lmap.m, "gamma": lmap.gamma,
            "m_tilde": lmap.m_tilde, "shifts": list(lmap.shifts),
            "a": list(lmap.a), "A": lmap.A}) + "\n")
        return 0
    rows: list[tuple[str, float]] = [
        ("gamma", lmap.gamma), ("m_tilde", lmap.m_tilde), ("A", lmap.A)]
    rows += [(f"shift_{i + 1}", s) for i, s in enumerate(lmap.shifts)]
    rows += [(f"a_{r + 1}", a) for r, a in enumerate(lmap.a)]
    if opts["csv"]:
        lines = ["name,value"] + [f"{name},{_fmt(value)}" for name, value in rows]
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    width = max(len(name) for name, _ in rows)
    header = f"p = {lmap.p}   m = {_fmt(lmap.m)}"
    lines = [header, "-" * len(header)]
    lines += [f"{name:<{width}}  {_fmt(value)}" for name, value in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


_VERIFY_DEFAULTS = {"suite": "all", "report": None, "tol": [], "json": False}


def _family_table(results) -> str:
    """One row per check family: count, worst metric, tolerance, status.

    The worst metric is the one closest to failing: the largest, or the
    smallest for lower-bound checks, which pass above their tolerance.
    """
    families: dict[str, list] = {}
    for r in results:
        families.setdefault(r.check, []).append(r)
    width = max(len("check"), *map(len, families))
    lines = [f"{'check':<{width}}  {'n':>4}  {'worst metric':>12}  {'tol':>11}  status"]
    for name in sorted(families):
        group = families[name]
        lower = group[0].params.get("bound") == "lower"
        worst = (min if lower else max)(group, key=lambda r: r.metric)
        bound = f"{'>=' if lower else '<='} {worst.tol:.0e}"
        failed = sum(not r.passed for r in group)
        status = f"{failed} FAILED" if failed else "ok"
        lines.append(f"{name:<{width}}  {len(group):>4}  {worst.metric:>12.3e}  "
                     f"{bound:>11}  {status}")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _merge_options(args, "verify", _VERIFY_DEFAULTS)
    overrides = _parse_tol(list(opts["tol"]))
    results = run_suite(str(opts["suite"]), overrides)
    report = "".join(r.json_line() + "\n" for r in results)
    n_pass = sum(r.passed for r in results)
    all_pass = n_pass == len(results)

    report_path = opts["report"]
    _write_text(report_path, report)
    summary_stream = sys.stdout if report_path else sys.stderr
    if opts["json"]:
        failures = [r.check for r in results if not r.passed]
        summary = _dump_json({
            "schema": SCHEMA, "suite": opts["suite"], "total": len(results),
            "passed": n_pass, "failed_checks": failures}) + "\n"
    else:
        summary = _family_table(results) + (
            f"{opts['suite']}: {n_pass}/{len(results)} checks passed\n"
            if all_pass else
            f"{opts['suite']}: {n_pass}/{len(results)} checks passed, "
            f"{len(results) - n_pass} FAILED\n")
    summary_stream.write(summary)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# eval


_EVAL_DEFAULTS = {
    "family": "u1", "p": 3, "m": 0.5, "alpha": 1.0, "beta": 0.0, "sign": 1,
    "scaling": "standard", "n": 256, "periods": 1, "length": None, "t": 0.0,
    "output": None, "json": False,
}


def _build_wave(opts: dict):
    family = str(opts["family"])
    if family in ("u1", "up"):
        p = 1 if family == "u1" else int(opts["p"])
        return DnWaveParams(alpha=float(opts["alpha"]), beta=float(opts["beta"]),
                            m=float(opts["m"]), p=p)
    if family == "upm":
        params = PmWaveParams(alpha=float(opts["alpha"]), m=float(opts["m"]),
                              sign=int(opts["sign"]))
        return _as_written(params) if opts["scaling"] == "as_written" else params
    raise DomainError(f"unknown family {family!r}")


def _eval_grid(wave, opts: dict) -> PeriodicGrid:
    if opts["length"] is not None:
        return PeriodicGrid(N=int(opts["n"]), L=float(opts["length"]))
    try:
        period = wave.spatial_period
    except DomainError as exc:
        raise DomainError(
            f"{exc}; pass --length to sample on an explicit window") from exc
    return PeriodicGrid(N=int(opts["n"]), L=int(opts["periods"]) * period)


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _merge_options(args, "eval", _EVAL_DEFAULTS)
    wave = _build_wave(opts)
    grid = _eval_grid(wave, opts)
    t = float(opts["t"])
    u = wave.sample(grid, t)
    if opts["json"]:
        payload = _dump_json({
            "schema": SCHEMA, "family": opts["family"], "t": t,
            "N": grid.N, "L": grid.L,
            "x": [float(v) for v in grid.x], "u": [float(v) for v in u]}) + "\n"
        _write_text(opts["output"], payload)
        return 0
    lines = ["x,u"] + [f"{_fmt(xv)},{_fmt(uv)}" for xv, uv in zip(grid.x, u)]
    _write_text(opts["output"], "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# evolve


_EVOLVE_DEFAULTS = {
    "family": "u1", "p": 3, "m": 0.5, "alpha": 1.0, "beta": 0.0,
    "n": 256, "periods_crossed": 1.0, "T": None, "dt": None,
    "snapshot_every": 0, "output_dir": None, "json": False,
}


def cmd_evolve(args: argparse.Namespace) -> int:
    opts = _merge_options(args, "evolve", _EVOLVE_DEFAULTS)
    wave = _build_wave(opts)
    grid = wave.natural_grid(int(opts["n"]))

    speed = abs(wave.velocity)
    if opts["T"] is not None:
        duration = float(opts["T"])
    else:
        if speed == 0.0:
            raise DomainError("wave speed is zero; pass --T explicitly")
        duration = float(opts["periods_crossed"]) * grid.L / speed
    u0 = wave.sample(grid, 0.0)
    snapshot_every = int(opts["snapshot_every"])
    if opts["dt"] is not None:
        config = EvolverConfig.for_duration(
            grid, duration, float(opts["dt"]), snapshot_every=snapshot_every)
        error_estimate = None
    else:
        config, error_estimate = choose_step(
            u0, grid, duration, snapshot_every=snapshot_every)
    cfl = cfl_number(u0, grid, config.dt)
    traj = evolve_trajectory(u0, config)
    exact = wave.sample(grid, config.T)
    deviation = float(np.max(np.abs(traj.final - exact)))
    cons = conservation_report(traj)
    lag = translation_lag(u0, traj.final, grid)
    predicted_lag = math.fmod(wave.velocity * config.T, grid.L)
    if predicted_lag < 0.0:
        predicted_lag += grid.L

    out_dir = opts["output_dir"]
    if out_dir:
        _write_snapshots(out_dir, traj, config, deviation, cons, cfl,
                         error_estimate)

    if opts["json"]:
        sys.stdout.write(_dump_json({
            "schema": SCHEMA, "family": opts["family"], "N": grid.N,
            "L": grid.L, "dt": config.dt, "T": config.T,
            "steps": config.steps, "cfl": cfl,
            "error_estimate": error_estimate, "deviation": deviation,
            "mass_drift": cons.mass_drift,
            "momentum_drift": cons.momentum_drift,
            "lag": lag, "predicted_lag": predicted_lag}) + "\n")
    else:
        estimate_text = ("none (--dt given)" if error_estimate is None
                         else _fmt(error_estimate))
        sys.stdout.write(
            f"steps          {config.steps} (dt = {_fmt(config.dt)})\n"
            f"cfl            {_fmt(cfl)}\n"
            f"error estimate {estimate_text}\n"
            f"deviation      {_fmt(deviation)}\n"
            f"mass drift     {_fmt(cons.mass_drift)}\n"
            f"momentum drift {_fmt(cons.momentum_drift)}\n"
            f"lag            {_fmt(lag)} (predicted {_fmt(predicted_lag)})\n")
    return 0


def _write_snapshots(out_dir: str, traj, config: EvolverConfig,
                     deviation: float, cons, cfl: float,
                     error_estimate: float | None) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create {out_dir}: {exc}") from exc
    for idx, (t, u) in enumerate(zip(traj.times, traj.fields)):
        lines = ["x,u"] + [f"{_fmt(xv)},{_fmt(uv)}"
                           for xv, uv in zip(traj.grid.x, u)]
        _write_text(os.path.join(out_dir, f"snapshot_{idx:04d}.csv"),
                    "\n".join(lines) + "\n")
    meta = {
        "schema": SCHEMA, "N": config.grid.N, "L": config.grid.L,
        "dt": config.dt, "T": config.T, "dealias": config.dealias,
        "cfl": cfl, "error_estimate": error_estimate,
        "snapshot_times": list(traj.times), "deviation": deviation,
        "mass_drift": cons.mass_drift, "momentum_drift": cons.momentum_drift,
    }
    _write_text(os.path.join(out_dir, "metadata.json"), _dump_json(meta) + "\n")


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads "-1e-05" as a value, not as a flag.

    Stock argparse recognizes only -1 and -1.5 as negative numbers, so
    "--beta -1e-05" was an unknown option; subparsers inherit this class.
    ``flags`` maps each dest to its action, for checking config values.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="landen-kdv",
        description="Cnoidal KdV waves, p-term Landen maps, and numerical "
                    "verification that superpositions re-express single waves.")
    sub = parser.add_subparsers(dest="command_name", required=True)
    sup = argparse.SUPPRESS

    p_landen = sub.add_parser(
        "landen", help="print the Landen map data for one (p, m)")
    p_landen.add_argument("-p", type=int, default=sup,
                          help="number of superposed terms (default 1)")
    p_landen.add_argument("-m", type=float, default=sup,
                          help="modulus parameter in (0, 1) (default 0.5)")
    p_landen.add_argument("--json", action="store_true", default=sup)
    p_landen.add_argument("--csv", action="store_true", default=sup)
    p_landen.add_argument("--config", help="JSON config file; flags win")
    p_landen.set_defaults(func=cmd_landen, flags=p_landen.flags)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite and emit a JSONL report")
    p_verify.add_argument("--suite", choices=sorted(SUITES) + ["all"],
                          default=sup, help="suite to run (default all)")
    p_verify.add_argument("--report", default=sup,
                          help="write JSONL report here instead of stdout")
    p_verify.add_argument("--tol", action="append", metavar="NAME=VALUE",
                          default=sup, help="override one tolerance; repeatable")
    p_verify.add_argument("--json", action="store_true", default=sup,
                          help="machine-readable summary")
    p_verify.add_argument("--config", help="JSON config file; flags win")
    p_verify.set_defaults(func=cmd_verify, flags=p_verify.flags)

    p_eval = sub.add_parser("eval", help="dump (x, u) samples of one family")
    p_eval.add_argument("--family", choices=("u1", "up", "upm"), default=sup)
    p_eval.add_argument("-p", type=int, default=sup, help="terms for family up")
    p_eval.add_argument("-m", type=float, default=sup)
    p_eval.add_argument("--alpha", type=float, default=sup)
    p_eval.add_argument("--beta", type=float, default=sup)
    p_eval.add_argument("--sign", type=int, choices=(1, -1), default=sup,
                        help="branch for family upm")
    p_eval.add_argument("--scaling", choices=("standard", "as_written"),
                        default=sup, help="upm phase velocity scaling")
    p_eval.add_argument("--n", type=int, default=sup, help="grid points (pow 2)")
    p_eval.add_argument("--periods", type=int, default=sup,
                        help="spatial periods to span (default 1)")
    p_eval.add_argument("--length", type=float, default=sup,
                        help="explicit window length (overrides --periods)")
    p_eval.add_argument("-t", type=float, default=sup, help="time (default 0)")
    p_eval.add_argument("--output", default=sup, help="CSV path (default stdout)")
    p_eval.add_argument("--json", action="store_true", default=sup)
    p_eval.add_argument("--config", help="JSON config file; flags win")
    p_eval.set_defaults(func=cmd_eval, flags=p_eval.flags)

    p_evolve = sub.add_parser(
        "evolve", help="integrate a family and compare to its exact translate")
    p_evolve.add_argument("--family", choices=("u1", "up"), default=sup)
    p_evolve.add_argument("-p", type=int, default=sup)
    p_evolve.add_argument("-m", type=float, default=sup)
    p_evolve.add_argument("--alpha", type=float, default=sup)
    p_evolve.add_argument("--beta", type=float, default=sup)
    p_evolve.add_argument("--n", type=int, default=sup)
    p_evolve.add_argument("--periods-crossed", dest="periods_crossed",
                          type=float, default=sup,
                          help="how many periods the wave travels (default 1)")
    p_evolve.add_argument("--T", dest="T", type=float, default=sup,
                          help="final time (overrides --periods-crossed)")
    p_evolve.add_argument("--dt", type=float, default=sup,
                          help="target step, reduced to land on T exactly "
                               "(default: chosen from the CFL number and an "
                               "error pilot)")
    p_evolve.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                          default=sup, help="keep every s-th step (0: endpoints)")
    p_evolve.add_argument("--output-dir", dest="output_dir", default=sup,
                          help="write snapshot CSVs and metadata.json here")
    p_evolve.add_argument("--json", action="store_true", default=sup)
    p_evolve.add_argument("--config", help="JSON config file; flags win")
    p_evolve.set_defaults(func=cmd_evolve, flags=p_evolve.flags)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, PeriodMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
