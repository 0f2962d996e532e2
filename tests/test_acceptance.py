"""Acceptance gate: the eight headline properties, one test and one printed
pass/fail line per criterion, each at its stated tolerance and runtime cap.

Run with ``pytest -v`` for the per-criterion verdict lines; add ``-s`` to see
the metric detail on passing runs too.
"""

import math
import time

import numpy as np

import landen_kdv.landen as landen_module
from landen_kdv import (
    DnWaveParams,
    PmWaveParams,
    complete_K,
    dn2_landen_rhs,
    dn_landen_rhs,
    equivalence_check,
    jacobi_sn_cn_dn,
    kdv_residual,
    landen_map,
    soliton_limit_check,
)
from landen_kdv.cli import main as cli_main
from landen_kdv.evolve import EvolverConfig, conservation_report, evolve_trajectory
from landen_kdv.verify import _as_written


def _criterion(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _agm_oracle(m: float) -> float:
    # independent arithmetic-geometric mean, written here so the library's
    # own loop is not its only witness
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(40):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if a == b:
            break
    return math.pi / (2.0 * a)


def test_criterion_1_elliptic_kernel():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for m in rng.uniform(0.0, 0.99, 200):
        x = rng.uniform(-30.0, 30.0, 50)
        s, c, d = jacobi_sn_cn_dn(x, float(m))
        worst = max(
            worst,
            float(np.max(np.abs(s * s + c * c - 1.0))),
            float(np.max(np.abs(m * s * s + d * d - 1.0))),
        )
    k_gap = abs(complete_K(0.5) - _agm_oracle(0.5)) / _agm_oracle(0.5)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and k_gap < 1e-13 and elapsed < 1.0
    _criterion(
        "criterion 1, elliptic kernel",
        ok,
        f"worst identity deviation {worst:.3g} (tol 1e-12) over 10^4 pairs, "
        f"K(0.5) vs AGM oracle {k_gap:.3g} relative (tol 1e-13), "
        f"{elapsed:.2f} s (cap 1 s)",
    )


_IDENTITY_PS = range(1, 9)
_IDENTITY_MS = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_criterion_2_superposition_identity():
    start = time.perf_counter()
    worst = 0.0
    for p in _IDENTITY_PS:
        for m in _IDENTITY_MS:
            lmap = landen_map(p, m)
            x = np.linspace(0.0, 4.0 * complete_K(lmap.m_tilde), 512, endpoint=False)
            dev = np.max(np.abs(jacobi_sn_cn_dn(x, lmap.m_tilde)[2] - dn_landen_rhs(x, lmap)))
            worst = max(worst, float(dev))
    closed = 0.0
    for m in _IDENTITY_MS:
        kp = math.sqrt(1.0 - m)
        lmap = landen_map(2, m)
        closed = max(
            closed,
            abs(lmap.gamma - 1.0 / (1.0 + kp)),
            abs(lmap.m_tilde - ((1.0 - kp) / (1.0 + kp)) ** 2),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and closed < 1e-12 and elapsed < 5.0
    _criterion(
        "criterion 2, dn superposition identity",
        ok,
        f"worst grid deviation {worst:.3g} (tol 1e-10) over p in 1..8, "
        f"two-term closed forms off by {closed:.3g} (tol 1e-12), "
        f"{elapsed:.2f} s (cap 5 s)",
    )


def test_criterion_3_squared_identity_and_cyclic_constants():
    worst_dev = 0.0
    worst_std = 0.0
    worst_sym = 0.0
    for p in _IDENTITY_PS:
        for m in _IDENTITY_MS:
            lmap = landen_map(p, m)
            x = np.linspace(0.0, 4.0 * complete_K(lmap.m_tilde), 512, endpoint=False)
            dev = np.max(np.abs(
                jacobi_sn_cn_dn(x, lmap.m_tilde)[2] ** 2 - dn2_landen_rhs(x, lmap)))
            worst_dev = max(worst_dev, float(dev))
            if p == 1:
                continue
            xs = np.linspace(-2.0, 2.0, 101)
            d = np.stack([jacobi_sn_cn_dn(xs + s, m)[2] for s in lmap.shifts])
            for r in range(1, p):
                values = np.sum(d * np.roll(d, -r, axis=0), axis=0)
                worst_std = max(worst_std, float(np.std(values)))
                worst_sym = max(worst_sym, abs(lmap.a[r - 1] - lmap.a[p - r - 1]))
    ok = worst_dev < 1e-10 and worst_std < 1e-10 and worst_sym < 1e-10
    _criterion(
        "criterion 3, squared identity and cyclic constants",
        ok,
        f"worst grid deviation {worst_dev:.3g} (tol 1e-10), "
        f"constant-in-x std {worst_std:.3g} (tol 1e-10), "
        f"index-reflection asymmetry {worst_sym:.3g} (tol 1e-10)",
    )


def test_criterion_4_single_wave_equivalence():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for p in range(1, 7):
        for m in (0.2, 0.5, 0.8, 0.9):
            for alpha, beta in ((1.0, 0.0), (1.7, -0.4), (2.0, 1.0)):
                params = DnWaveParams(alpha=alpha, beta=beta, m=m, p=p)
                grid = params.natural_grid(n=512, periods=2)
                for t in (0.0, 0.1, 0.5):
                    worst = max(worst, equivalence_check(params, grid, t=t))
                    count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _criterion(
        "criterion 4, superposition equals one transformed wave",
        ok,
        f"worst deviation {worst:.3g} (tol 1e-9) over {count} parameter/time "
        f"combinations, {elapsed:.2f} s (cap 10 s)",
    )


def test_criterion_5_kdv_residuals_and_velocity_offset():
    u1_params = DnWaveParams(alpha=1.0, beta=0.0, m=0.5)
    res_u1 = kdv_residual(u1_params, u1_params.natural_grid(n=256)).normalized
    up_params = DnWaveParams(alpha=1.0, beta=0.2, m=0.7, p=3)
    res_up = kdv_residual(up_params, up_params.natural_grid(n=256)).normalized

    # A from the shift lattice (the map's) against A from the nome relation
    worst_gap = max(abs(landen_map(p, m).A - landen_module._nome(p, m)[3])
                    for p in range(2, 9) for m in (0.3, 0.5, 0.7, 0.9))

    worst_kept = 0.0
    worst_rejected = math.inf
    for m in (0.2, 0.5, 0.8):
        for sign in (1, -1):
            params = PmWaveParams(alpha=1.3, m=m, sign=sign)
            grid = params.natural_grid(n=256)
            kept = kdv_residual(params, grid, t=0.1).normalized
            rejected = kdv_residual(_as_written(params), grid, t=0.1).normalized
            worst_kept = max(worst_kept, kept)
            worst_rejected = min(worst_rejected, rejected)

    ok = (
        res_u1 < 1e-8
        and res_up < 1e-8
        and worst_gap <= 1e-8
        and worst_kept < 1e-7
        and worst_rejected > 1e-3
    )
    _criterion(
        "criterion 5, KdV residuals and velocity-offset cross-check",
        ok,
        f"single wave {res_u1:.3g} and superposition {res_up:.3g} (tol 1e-8), "
        f"velocity-offset dual determinations within {worst_gap:.3g} (tol 1e-8), "
        f"mixed waves {worst_kept:.3g} under quadratic scaling (tol 1e-7) "
        f"vs {worst_rejected:.3g} under linear scaling (must exceed 1e-3)",
    )


def test_criterion_6_soliton_limit():
    near = max(soliton_limit_check(1.0, 0.0), soliton_limit_check(2.0, 1.0))
    exact = max(
        soliton_limit_check(1.0, 0.0, epsilon=0.0),
        soliton_limit_check(2.0, 1.0, epsilon=0.0),
    )
    ok = near < 1e-5 and exact < 1e-12
    _criterion(
        "criterion 6, soliton limit",
        ok,
        f"modulus 1-1e-12 within {near:.3g} of sech^2 on |x| <= 5 (tol 1e-5), "
        f"exact endpoint within {exact:.3g} (tol 1e-12)",
    )


def test_criterion_7_dynamical_confirmation():
    start = time.perf_counter()
    outcomes = []
    runs = (
        DnWaveParams(alpha=1.0, beta=0.0, m=0.5),
        DnWaveParams(alpha=1.0, beta=-1.0, m=0.6, p=3),
    )
    for params in runs:
        grid = params.natural_grid(n=256)
        duration = grid.L / abs(params.velocity)  # one full period crossing
        u0 = params.sample(grid, 0.0)
        traj = evolve_trajectory(u0, EvolverConfig(grid, None, duration, snapshot_every=100))
        config = traj.config
        deviation = float(np.max(np.abs(traj.final - params.sample(grid, config.T))))
        drift = conservation_report(traj).mass_drift
        crossed = abs(params.velocity) * config.T / grid.L
        outcomes.append((deviation, drift, crossed))
    elapsed = time.perf_counter() - start
    worst_dev = max(o[0] for o in outcomes)
    worst_drift = max(o[1] for o in outcomes)
    min_crossed = min(o[2] for o in outcomes)
    ok = (
        worst_dev <= 1e-6
        and worst_drift <= 1e-12
        and min_crossed >= 1.0 - 1e-12
        and elapsed < 60.0
    )
    _criterion(
        "criterion 7, dynamical confirmation",
        ok,
        f"single and three-copy waves each crossed >= {min_crossed:.3f} periods "
        f"at N=256, worst deviation from the analytic translate {worst_dev:.3g} "
        f"(tol 1e-6), worst mass drift {worst_drift:.3g} (tol 1e-12), "
        f"{elapsed:.1f} s (cap 60 s)",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    reports = []
    for name in ("first.jsonl", "second.jsonl"):
        path = tmp_path / name
        code = cli_main(["verify", "--suite", "all", "--report", str(path)])
        assert code == 0
        reports.append(path.read_bytes())
    capsys.readouterr()
    ok = reports[0] == reports[1] and len(reports[0]) > 0
    lines = reports[0].count(b"\n")
    _criterion(
        "criterion 8, deterministic verification reports",
        ok,
        f"two full verification runs produced byte-identical JSONL reports "
        f"({lines} checks)",
    )
