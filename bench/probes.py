"""Kernel probes for the traced run: each records its accuracy next to its speed.

Timings are medians over repeated blocks of calls, with a fixed input so
every workload's traced run measures the same kernels.  "Cold" means every
memo cache in the package is cleared before the call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracing import layer_module

_BLOCKS = 7


def _median_call_s(fn, budget_s: float = 0.02, blocks: int = _BLOCKS) -> float:
    """Median over blocks of the mean time per call, each block about budget_s long."""
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    reps = max(1, int(budget_s / once))
    per_call = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - start) / reps)
    return statistics.median(per_call)


def run_probes(clear_caches) -> dict[str, float]:
    fourier = layer_module("fourier")
    elliptic = layer_module("elliptic")
    landen = layer_module("landen")
    verify = layer_module("verify")
    evolve = layer_module("evolve")
    waves = layer_module("waves")
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}

    for n in (256, 512, 4096):
        x = rng.standard_normal(n)
        out[f"probe.fft_us.N{n}"] = 1e6 * _median_call_s(lambda: fourier.fft(x))
        out[f"probe.fft_max_err.N{n}"] = float(np.max(np.abs(fourier.fft(x) - np.fft.fft(x))))
        length = 2.0 * np.pi
        grid_x = length * np.arange(n) / n
        field = np.exp(np.sin(grid_x))
        out[f"probe.spectral_derivative_us.N{n}"] = 1e6 * _median_call_s(
            lambda: fourier.spectral_derivative(field, length, 1))
        exact = np.cos(grid_x) * field
        out[f"probe.spectral_derivative_max_err.N{n}"] = float(
            np.max(np.abs(fourier.spectral_derivative(field, length, 1) - exact)))

    points = np.linspace(-20.0, 20.0, 4096)
    out["probe.jacobi_ns_per_point"] = 1e9 * _median_call_s(
        lambda: elliptic.jacobi_sn_cn_dn(points, 0.7)) / points.size
    sn, cn, _ = elliptic.jacobi_sn_cn_dn(points, 0.7)
    out["probe.jacobi_residual"] = float(np.max(np.abs(sn * sn + cn * cn - 1.0)))

    ms = (0.1, 0.5, 0.9, 0.999)
    out["probe.complete_K_us"] = 1e6 * _median_call_s(
        lambda: [elliptic.complete_K(m) for m in ms]) / len(ms)

    for p in (3, 8):
        def cold_map(p=p):
            clear_caches()
            landen.landen_map(p, 0.5)
        out[f"probe.landen_map_cold_us.p{p}"] = 1e6 * _median_call_s(cold_map)

    params = waves.DnWaveParams(alpha=1.0, beta=0.2, m=0.7, p=3)
    grid = params.natural_grid(256)
    out["probe.kdv_residual_us"] = 1e6 * _median_call_s(lambda: verify.kdv_residual(params, grid))
    out["probe.kdv_residual_normalized"] = verify.kdv_residual(params, grid).normalized

    # a short run far inside any step limit: 64 steps of dt = 1e-5
    wave = waves.DnWaveParams(alpha=1.0, beta=0.0, m=0.5)
    grid = wave.natural_grid(256)
    steps = 64
    config = evolve.EvolverConfig(grid=grid, dt=1e-5, T=steps * 1e-5)
    u0 = wave.sample(grid, 0.0)
    out["probe.evolve_step_us.N256"] = 1e6 * _median_call_s(
        lambda: evolve.evolve_trajectory(u0, config), budget_s=0.05) / steps
    final = evolve.evolve_trajectory(u0, config).final
    out["probe.evolve_step_deviation"] = float(np.max(np.abs(final - wave.sample(grid, config.T))))

    for suite in ("identities", "kdv", "equivalence", "limits"):
        def cold_suite(suite=suite):
            clear_caches()
            verify.run_suite(suite)
        out[f"verify.{suite}_s"] = _median_call_s(cold_suite, budget_s=0.0, blocks=3)
    return out
