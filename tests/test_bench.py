"""Smoke test of the benchmark's entry points, with bench/ on sys.path.

The benchmark under bench/ drives the package through names it does not
own: ``cli.main`` and its routing, ``EvolverConfig(grid=, dt=, T=)``,
``Trajectory.final``, ``A_constant``, the memo caches and the layer
functions its tracer wraps.  Each workload declared in BENCHMARK.json sets
up, runs and gates its first items here, and one more item runs under the
tracer, so a change that breaks what the benchmark reads fails here and
not only in a benchmark run.
"""

import json
import math
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DECLARED = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import landen_kdv.cli  # noqa: F401  the entry point; the package does not import it
    import tracing
    import workloads
    return tracing, workloads


@pytest.mark.parametrize("name", DECLARED)
def test_declared_workload_runs_and_traces(bench, tmp_path, name):
    tracing, workloads = bench
    wl = workloads.WORKLOADS[name](seed=7, scratch=str(tmp_path))
    try:
        wl.setup()
        items = wl.items()
        for _ in range(3):
            item = next(items)
            wl.clear_caches()
            ok, detail, _ = wl.check(item, wl.invoke(item))
            assert ok, detail

        tracer = tracing.Tracer()
        item = next(items)
        wl.clear_caches()
        tracer.install()
        try:
            raw = tracer.root(wl.invoke, item)
        finally:
            tracer.uninstall()
        ok, detail, _ = wl.check(item, raw)
        assert ok, detail
        assert tracer.calls[tracing.ROOT] == 1
        assert tracer.calls["cli.main"] == 1
        cli = tracing.layer_module("cli")
        assert not hasattr(cli.main, "__wrapped__")
    finally:
        wl.close()


def test_probes_run(bench, monkeypatch):
    # each probe's call once, untimed: the probes build their own inputs,
    # EvolverConfig(grid=, dt=, T=) among them
    import probes

    def once(fn, *args, **kwargs):
        fn()
        return 1.0

    def clear_caches():
        for cache in bench[1].memo_caches().values():
            cache.cache_clear()

    monkeypatch.setattr(probes, "_median_call_s", once)
    out = probes.run_probes(clear_caches)
    assert out and all(math.isfinite(v) for v in out.values())
    assert out["probe.evolve_step_deviation"] < 1e-6
