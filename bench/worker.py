"""One benchmark process: set up a workload, then run its items for a fixed window.

Started by run.py with the thread variables already pinned, because numpy
reads them at import.  Prints one JSON object on stdout and nothing else.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 bench/worker.py --workload NAME --seed N --setup-only --out DIR

--setup-only stops once the first item is ready and reports the moment
(time.monotonic) it got there, so the launcher can time set-up from spawn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import warnings
from collections import defaultdict

SRC = os.path.join(os.getcwd(), "src")
SETUP_KERNEL_REPEATS = 3


def _import_package():
    """Import landen_kdv from ./src of the checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "landen_kdv", "__init__.py")):
        raise SystemExit(f"worker: no src/landen_kdv under {os.getcwd()}")
    sys.path.insert(0, SRC)
    import numpy
    import landen_kdv
    import landen_kdv.cli  # the entry point; the package does not import it
    if not os.path.abspath(landen_kdv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"worker: landen_kdv imported from {landen_kdv.__file__}, not {SRC}")
    return numpy


def _describe(exc: BaseException, typed: tuple) -> str:
    kind = "refused" if isinstance(exc, typed) else "raised"
    return f"{kind}: {type(exc).__name__}: {exc}"


def execute(wl, item, typed, aliasing, tracer=None):
    """Run one item; returns (seconds, passed, detail, info, raw, aliasing warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            raw = tracer.root(wl.invoke, item) if tracer else wl.invoke(item)
            error = None
        except Exception as exc:  # the item fails; the run goes on
            raw, error = None, exc
        seconds = time.perf_counter() - start
    warned = sum(issubclass(w.category, aliasing) for w in caught)
    if error is not None:
        return seconds, False, _describe(error, typed), {}, raw, warned
    passed, detail, info = wl.check(item, raw)
    return seconds, passed, detail, info, raw, warned


class Run:
    """Latencies and failures of one mode (untraced or traced) of a run."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.aliasing = 0

    def add(self, index: int, item, seconds: float, passed: bool, detail: str,
            warned: int) -> None:
        self.latencies.append(seconds)
        self.aliasing += warned
        if not passed:
            self.failures.append({"index": index, "mode": self.mode, "item": item,
                                  "detail": detail})


def run_untraced(wl, first, items, seconds: float, typed, aliasing):
    """Items alternate with the calibration kernel: kernel, item, kernel, item, ..., kernel.

    Returns the run, the window length and the kernel times, one more than
    the items, so item i lies between kernel times i and i + 1.
    """
    from calibrate import kernel_s

    run = Run("untraced")
    kernel_times = []
    item, index = first, 0
    start = time.perf_counter()
    while True:
        kernel_times.append(kernel_s())
        if wl.cold_items:
            wl.clear_caches()
        dt, ok, detail, _, _, warned = execute(wl, item, typed, aliasing)
        run.add(index, item, dt, ok, detail, warned)
        if time.perf_counter() - start >= seconds:
            break
        item, index = next(items), index + 1
    kernel_times.append(kernel_s())
    return run, time.perf_counter() - start, kernel_times


def run_traced(wl, first, items, seconds: float, typed, aliasing, tracer):
    """Each item runs twice, untraced and traced, in alternating order.

    Both halves start with the memo caches empty, so they do the same work
    and the pair measures the tracing overhead directly.
    """
    plain, traced = Run("untraced"), Run("traced")
    extras: dict[str, list] = defaultdict(list)
    item, index = first, 0
    start = time.perf_counter()
    while True:
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            wl.clear_caches()
            if with_trace:
                tracer.item = index
                tracer.install()
                try:
                    dt, ok, detail, info, raw, warned = execute(
                        wl, item, typed, aliasing, tracer)
                finally:
                    tracer.uninstall()
                traced.add(index, item, dt, ok, detail, warned)
                for key, value in wl.trace_info(item, raw, info).items():
                    extras[key].append((index, value))
            else:
                dt, ok, detail, _, _, warned = execute(wl, item, typed, aliasing)
                plain.add(index, item, dt, ok, detail, warned)
        if time.perf_counter() - start >= seconds:
            break
        item, index = next(items), index + 1
    return plain, traced, extras


def layer_metrics(tracer, plain: Run, traced: Run, extras: dict) -> dict:
    """Per-layer figures, per traced item unless the name says otherwise.

    A value of None means the layer did no such work on this workload.
    """
    from tracing import ROOT

    n = len(traced.latencies)
    item_s = sum(traced.latencies)
    self_s = defaultdict(float, {name: ns / 1e9 for name, ns in tracer.self_ns.items()})
    calls = tracer.calls

    def per_item(value):
        return value / n

    def values(key: str) -> list:
        return [v for _, v in extras.get(key, ())]

    def worst(key: str):
        return max(values(key), default=None)

    def self_per_call_item(name: str):
        return per_item(self_s[name]) if calls[name] else None

    jacobi_points = tracer.points["elliptic.jacobi"]
    map_calls = tracer.map_builds + tracer.map_hits
    abstentions = values("landen.fit_abstentions")
    steps = dict(extras.get("evolve.steps", ()))
    total_steps = sum(steps.values())
    trajectory_s = sum(end - start for _, _, _, name, start, end in tracer.spans
                       if name == "evolve.trajectory") / 1e9
    out = {
        "elliptic.jacobi_calls": per_item(calls["elliptic.jacobi"]),
        "elliptic.jacobi_points": per_item(jacobi_points),
        "elliptic.jacobi_self_s": per_item(self_s["elliptic.jacobi"]),
        "elliptic.jacobi_ns_per_point": (1e9 * self_s["elliptic.jacobi"] / jacobi_points
                                         if jacobi_points else None),
        "elliptic.complete_K_calls": per_item(calls["elliptic.complete_K"]),
        "elliptic.complete_K_self_s": per_item(self_s["elliptic.complete_K"]),
        "landen.map_calls": per_item(map_calls),
        "landen.map_builds": per_item(tracer.map_builds),
        "landen.map_hit_ratio": tracer.map_hits / map_calls if map_calls else None,
        "landen.map_build_self_s": per_item(self_s["landen.map_build"]),
        "landen.refusals": per_item(tracer.refusals),
        "landen.worst_equivalence_margin": max(tracer.equivalence_margins, default=None),
        "landen.fit_abstentions": per_item(sum(abstentions)) if abstentions else None,
        "waves.sample_calls": per_item(calls["waves.sample"]),
        "waves.sample_points": per_item(tracer.points["waves.sample"]),
        "waves.sample_self_s": per_item(self_s["waves.sample"]),
        "fourier.fft_calls": per_item(calls["fourier.fft"]),
        "fourier.fft_self_s": per_item(self_s["fourier.fft"]),
        "fourier.fft_flops_computed": per_item(tracer.fft_flops),
        "fourier.spectral_derivative_calls": per_item(calls["fourier.spectral_derivative"]),
        "fourier.spectral_derivative_self_s": per_item(self_s["fourier.spectral_derivative"]),
        "fourier.aliasing_warnings": per_item(traced.aliasing),
        # steps the library chose for the two criterion-7 reference waves
        "evolve.steps": steps[0] + steps[1] if 0 in steps and 1 in steps else None,
        "evolve.steps_per_item": per_item(total_steps),
        "evolve.step_us": 1e6 * trajectory_s / total_steps if total_steps else None,
        "evolve.trajectory_self_s": self_per_call_item("evolve.trajectory"),
        "evolve.cfl_max": worst("evolve.cfl"),
        "evolve.worst_deviation_margin": worst("evolve.deviation_margin"),
        "evolve.worst_mass_drift": worst("evolve.mass_drift"),
        "verify.checks": per_item(sum(values("verify.checks"))),
        "verify.worst_residual_normalized": worst("verify.residual_normalized"),
        "verify.kdv_residual_self_s": self_per_call_item("verify.kdv_residual"),
        "verify.equivalence_check_self_s": self_per_call_item("verify.equivalence_check"),
        "verify.worst_margin": worst("verify.worst_margin"),
        "cli.main_self_s": self_per_call_item("cli.main"),
        "cli.report_bytes": per_item(sum(values("cli.report_bytes"))),
    }
    for layer in ("elliptic", "landen", "waves", "fourier", "verify", "evolve", "cli"):
        out[f"{layer}.self_s"] = per_item(sum(
            s for name, s in self_s.items() if name.startswith(layer + ".")))
    plain_rate = len(plain.latencies) / sum(plain.latencies)
    traced_rate = n / item_s
    out.update({
        "trace.overhead_frac": (traced_rate - plain_rate) / plain_rate,
        "trace.unattributed_frac": self_s[ROOT] / item_s,
        "trace.item_s": item_s / n,
        "trace.spans": per_item(len(tracer.spans)),
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    numpy = _import_package()
    from tracing import typed_errors
    from workloads import WORKLOADS
    import landen_kdv
    import landen_kdv.cli  # the entry point; the package does not import it

    wl = WORKLOADS[args.workload](args.seed, args.out)
    typed = typed_errors()
    aliasing = landen_kdv.AliasingWarning
    try:
        return _measure(args, wl, typed, aliasing, numpy)
    finally:
        wl.close()


def _measure(args, wl, typed, aliasing, numpy) -> int:
    from calibrate import REFERENCE_KERNEL_S, kernel_s
    from tracing import Tracer

    wl.setup()
    items = wl.items()
    first = next(items)
    ready = time.monotonic()
    # the host's speed at the end of set-up, to express set-up in reference seconds
    result = {"ready_monotonic": ready, "ready_kernel_s": kernel_s(SETUP_KERNEL_REPEATS),
              "reference_kernel_s": REFERENCE_KERNEL_S}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from probes import run_probes
        tracer = Tracer()
        plain, traced, extras = run_traced(wl, first, items, args.seconds, typed,
                                           aliasing, tracer)
        result["per_layer"] = layer_metrics(tracer, plain, traced, extras)
        result["per_layer"].update(run_probes(wl.clear_caches))
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans_path)
        result["spans_path"] = spans_path
        runs = (plain, traced)
    else:
        run, window, kernel_times = run_untraced(wl, first, items, args.seconds, typed,
                                                 aliasing)
        result["window_s"] = window
        result["latencies_s"] = run.latencies
        result["kernel_s"] = kernel_times
        runs = (run,)

    result.update({
        "attempted": sum(len(r.latencies) for r in runs),
        "failures": [f for r in runs for f in r.failures],
        "aliasing_warnings": sum(r.aliasing for r in runs),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches_cleared": sorted(wl.caches),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "report_sha256": getattr(wl, "report_sha256", None),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
