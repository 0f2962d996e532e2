"""Benchmark launcher for landen-kdv.  Run from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics and kernel probes.  Workloads: verify-all and evolve-crossing, which
BENCHMARK.json declares, and landen-sweep, which it does not (see
bench/README.md).  Human-readable lines come first; the last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}
holding the metrics BENCHMARK.json declares for that mode.  Workloads,
metrics and the layer map are described in bench/README.md.

Each workload runs in a fresh worker process (bench/worker.py) started
with one BLAS/OpenMP thread.  Set-up time is measured from spawn to the
first timed item, in the worker and in eight set-up-only processes (four
before the window, four after), and reported as the median of the nine.
The shared host's speed drifts, so the declared times are in reference
seconds (bench/calibrate.py): each wall time is scaled by a fixed kernel
timed beside it.  The raw wall times are printed too.
Records and spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("verify-all", "landen-sweep", "evolve-crossing")
P90_MIN_ITEMS = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# unit of every metric the benchmark can print; BENCHMARK.json declares a subset
UNITS = {
    "setup_s": "s", "items_per_ref_s": "1/s", "item_p50_ref_ms": "ms",
    "setup_wall_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
    "failed_frac": "ratio", "peak_rss_mib": "MiB", "host_speed": "ratio",
    "elliptic.jacobi_calls": "count", "elliptic.jacobi_points": "count",
    "elliptic.jacobi_self_s": "s", "elliptic.jacobi_ns_per_point": "ns",
    "elliptic.complete_K_calls": "count", "elliptic.complete_K_self_s": "s",
    "elliptic.self_s": "s",
    "landen.map_calls": "count", "landen.map_builds": "count", "landen.map_hit_ratio": "ratio",
    "landen.map_build_self_s": "s", "landen.refusals": "count",
    "landen.worst_equivalence_margin": "ratio", "landen.fit_abstentions": "count",
    "landen.self_s": "s",
    "waves.sample_calls": "count", "waves.sample_points": "count", "waves.sample_self_s": "s",
    "waves.self_s": "s",
    "fourier.fft_calls": "count", "fourier.fft_self_s": "s", "fourier.fft_flops_computed": "flop",
    "fourier.spectral_derivative_calls": "count", "fourier.spectral_derivative_self_s": "s",
    "fourier.aliasing_warnings": "count", "fourier.self_s": "s",
    "evolve.steps": "count", "evolve.steps_per_item": "count", "evolve.step_us": "us",
    "evolve.trajectory_self_s": "s", "evolve.cfl_max": "ratio",
    "evolve.worst_deviation_margin": "ratio", "evolve.worst_mass_drift": "ratio",
    "evolve.self_s": "s",
    "verify.checks": "count", "verify.identities_s": "s", "verify.kdv_s": "s",
    "verify.equivalence_s": "s", "verify.limits_s": "s", "verify.kdv_residual_self_s": "s",
    "verify.equivalence_check_self_s": "s", "verify.worst_margin": "ratio", "verify.self_s": "s",
    "verify.worst_residual_normalized": "ratio",
    "cli.main_self_s": "s", "cli.report_bytes": "B", "cli.self_s": "s",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio", "trace.item_s": "s",
    "trace.spans": "count",
    "probe.jacobi_ns_per_point": "ns", "probe.jacobi_residual": "abs",
    "probe.complete_K_us": "us", "probe.landen_map_cold_us.p3": "us",
    "probe.landen_map_cold_us.p8": "us", "probe.kdv_residual_us": "us",
    "probe.kdv_residual_normalized": "ratio", "probe.evolve_step_us.N256": "us",
    "probe.evolve_step_deviation": "abs",
}
for _n in (256, 512, 4096):
    UNITS[f"probe.fft_us.N{_n}"] = "us"
    UNITS[f"probe.fft_max_err.N{_n}"] = "abs"
    UNITS[f"probe.spectral_derivative_us.N{_n}"] = "us"
    UNITS[f"probe.spectral_derivative_max_err.N{_n}"] = "abs"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_declaration() -> dict:
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            decl = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {exc}")
    for entry in decl["end_to_end"] + decl["per_layer"]:
        if UNITS.get(entry["name"]) != entry["unit"]:
            fail(f"BENCHMARK.json metric {entry['name']} has unit {entry['unit']!r}, "
                 f"the benchmark measures {UNITS.get(entry['name'])!r}")
    return decl


def machine_record() -> dict:
    """Facts that make two runs comparable: hardware, versions, code identity."""
    record = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            record["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                  if line.startswith("model name")), None)
    except OSError:
        record["cpu"] = None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        try:
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            record[f"L{level}"] = size
    record["commit"] = None
    if os.path.isdir(".git"):
        try:
            record["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join("src", "landen_kdv")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    record["src_sha256"] = digest.hexdigest()
    record["threads"] = {var: "1" for var in THREAD_VARS}
    return record


def spawn(args: list[str], env: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON result and spawn time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"worker {args} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"worker {args} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"worker {args} printed no result")
    return json.loads(lines[-1]), spawned


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    decl = load_declaration()
    if args.workload not in WORKLOAD_NAMES:
        fail(f"unknown workload {args.workload!r}; choose one of {', '.join(WORKLOAD_NAMES)}")
    declared_workload = args.workload in [w["name"] for w in decl["workloads"]]
    if not os.path.isfile(os.path.join("src", "landen_kdv", "__init__.py")):
        fail(f"{os.getcwd()} holds no src/landen_kdv to benchmark")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", OUT_DIR]
    machine = machine_record()

    # timeouts keep a 35 s run inside 180 s: 8 x 10 s of set-up plus the
    # window and 50 s for the last item, the probes and the spans
    def setup_only() -> tuple[float, float]:
        result, spawned = spawn(common + ["--setup-only"], env, timeout=10)
        return result["ready_monotonic"] - spawned, result["ready_kernel_s"]

    # set-up samples on both sides of the window, so one slow spell of a
    # shared host moves at most half of them
    setup_samples = [setup_only() for _ in range(SETUP_SAMPLES // 2)] if not args.trace else []
    res, spawned = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         env, timeout=args.seconds + 50)
    if not args.trace:
        setup_samples.append((res["ready_monotonic"] - spawned, res["ready_kernel_s"]))
        setup_samples += [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    failures = res["failures"]
    attempted = res["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  (closed loop, one client)")
    if not declared_workload:
        print(f"note: {args.workload} is not declared in BENCHMARK.json; its gate fails on "
              "draws with 1 - m below about 1e-10 (see bench/README.md)")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in machine.items() if k != "threads")
          + f"  python={res['python']}  numpy={res['numpy']}  threads=1")
    print(f"caches cleared per cold item: {', '.join(res['caches_cleared']) or 'none'}")

    if args.trace:
        metrics = res["per_layer"]
        for name in sorted(metrics):
            value = metrics[name]
            note = "" if value is not None else "  (not measured: no such work on this workload)"
            print(f"  {name:<40} {fmt(value):>14} {UNITS[name]}{note}")
        print(f"layers account for {1.0 - metrics['trace.unattributed_frac']:.1%} of traced "
              f"item time; tracing changed items_per_s by {metrics['trace.overhead_frac']:+.1%}")
        print(f"spans written to {res['spans_path']}")
        declared = decl["per_layer"]
    else:
        latencies = res["latencies_s"]
        n = len(latencies)
        # item i ran between kernel times i and i + 1
        kernel = res["kernel_s"]
        reference = res["reference_kernel_s"]
        ref_s = [t * reference / ((kernel[i] + kernel[i + 1]) / 2.0)
                 for i, t in enumerate(latencies)]
        setup_ref = [t * reference / k for t, k in setup_samples]
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "items_per_ref_s": n / sum(ref_s),
            "item_p50_ref_ms": 1e3 * statistics.median(ref_s),
            "setup_wall_s": statistics.median(t for t, _ in setup_samples),
            "items_per_s": n / res["window_s"],
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[-1]
                            if n >= P90_MIN_ITEMS else None),
            "failed_frac": len(failures) / attempted,
            "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
            "host_speed": reference / statistics.median(kernel),
        }
        notes = {
            "setup_s": f"reference seconds, median of {len(setup_samples)} fresh processes: "
                       + ", ".join(f"{s:.3f}" for s in setup_ref),
            "items_per_ref_s": f"{n} items in {sum(ref_s):.2f} reference seconds of item time",
            "item_p50_ref_ms": f"n={n}, reference milliseconds",
            "setup_wall_s": "wall time, median of " + ", ".join(
                f"{t:.3f}" for t, _ in setup_samples),
            "items_per_s": f"wall time: {n} items in {res['window_s']:.2f} s",
            "item_p50_ms": f"wall time, n={n}",
            "item_p90_ms": (f"wall time, n={n}, {n - int(0.9 * n)} beyond"
                            if n >= P90_MIN_ITEMS else f"not reported: n={n} < {P90_MIN_ITEMS}"),
            "failed_frac": f"{len(failures)} of {attempted}",
            "peak_rss_mib": "ru_maxrss of the worker",
            "host_speed": f"reference kernel time / median of {len(kernel)} kernel times",
        }
        for name, value in metrics.items():
            print(f"  {name:<16} {fmt(value):>14} {UNITS[name]:<6} ({notes[name]})")
        declared = decl["end_to_end"]
    print(f"gate {args.workload}: passed {attempted - len(failures)}, failed {len(failures)}"
          + (f"; report sha256 {res['report_sha256']}" if res["report_sha256"] else ""))
    for failure in failures[:20]:
        print(f"  failed item {failure['index']} ({failure['mode']}): {failure['item']}: "
              f"{failure['detail']}")
    if len(failures) > 20:
        print(f"  ... {len(failures) - 20} more in the record file")

    record_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": machine, "metrics": metrics,
                   "setup_samples_s": setup_samples, "worker": res},
                  fh, indent=1, sort_keys=True)
    print(f"record written to {record_path}")

    out = {}
    for entry in declared:
        value = metrics.get(entry["name"])
        if value is None:
            fail(f"declared metric {entry['name']} was not measured on {args.workload}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
