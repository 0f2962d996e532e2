"""The one admission rule for a caller's number, door by door.

errors._require_real and errors._require_integer state what a real and an
integer argument must be.  Every door that takes a scalar refuses text, a
bool and, where it asks for an integer, 2.5 with a DomainError that keeps
the door's message, and takes numpy scalars as the numbers they hold.
Cases marked "refused before" were refused before the rule was shared;
the others were read as numbers (text as 0.5, True as 1) or raised an
untyped TypeError.  An int past the float range (HUGE) is no finite real:
every real door refuses it, where float() alone raises OverflowError.
"""

import numpy as np
import pytest

from landen_kdv import (
    DnWaveParams,
    DomainError,
    EvolverConfig,
    PeriodicGrid,
    PmWaveParams,
    complete_K,
    jacobi_sn_cn_dn,
    kdv_residual,
    landen_map,
    soliton_limit_check,
    spectral_derivative,
    transform_params,
)

M_OPEN = r"modulus parameter must lie in \(0, 1\)"
M_CLOSED = r"modulus parameter must lie in \[0, 1\]"
M_HALF_OPEN = r"modulus parameter must lie in \(0, 1\]"
ALPHA = "alpha must be positive with a finite square"
BETA = "beta must be finite"
P = "p must be an integer >= 1"
PERIODS = "periods must be an integer >= 1"

HUGE = 10**400


def huge(*values):
    """One parametrization's case that holds HUGE, with a short id."""
    return pytest.param(*values, id="huge-int")


def _field():
    return np.cos(np.arange(64) * (2 * np.pi / 64))


@pytest.mark.parametrize("p, m, stem", [
    (2, "0.5", M_OPEN),
    (1, "0.5", M_CLOSED),
    (1, True, M_CLOSED),
    (1, False, M_CLOSED),
    (2, True, M_OPEN),  # refused before: True read as 1.0, outside (0, 1)
    ("2", 0.5, P),  # refused before
    (True, 0.5, P),  # refused before
    (2.5, 0.5, P),  # refused before
    huge(1, HUGE, M_CLOSED),
    huge(2, HUGE, M_OPEN),
])
def test_landen_map_refuses_what_is_not_a_number(p, m, stem):
    with pytest.raises(DomainError, match=stem):
        landen_map(p, m)


# True was refused before, but as "K(m) diverges at m = 1"
@pytest.mark.parametrize("m", ["0.5", True, False, huge(HUGE)])
def test_complete_K_refuses_what_is_not_a_number(m):
    with pytest.raises(DomainError, match=M_CLOSED):
        complete_K(m)


@pytest.mark.parametrize("m", ["0.5", True, False, huge(HUGE)])
def test_jacobi_sn_cn_dn_refuses_what_is_not_a_number(m):
    for dn_only in (False, True):
        with pytest.raises(DomainError, match=M_CLOSED):
            jacobi_sn_cn_dn(1.0, m, dn_only=dn_only)


@pytest.mark.parametrize("change, stem", [
    ({"alpha": "1"}, ALPHA),
    ({"alpha": True}, ALPHA),
    ({"beta": "1"}, BETA),
    ({"beta": True}, BETA),
    ({"m": "0.5"}, M_CLOSED),
    ({"m": True}, M_CLOSED),
    ({"m": "0.5", "p": 2}, M_OPEN),
    ({"p": "2"}, P),  # refused before
    ({"p": True}, P),  # refused before
    ({"p": 2.5}, P),  # refused before
    huge({"alpha": HUGE}, ALPHA),
    huge({"beta": HUGE}, BETA),
    huge({"m": HUGE}, M_CLOSED),
])
def test_dn_wave_params_refuse_what_is_not_a_number(change, stem):
    with pytest.raises(DomainError, match=stem):
        DnWaveParams(**{"alpha": 1.0, "beta": 0.0, "m": 0.5, **change})


@pytest.mark.parametrize("change, stem", [
    ({"alpha": "1"}, ALPHA),
    ({"alpha": True}, ALPHA),
    ({"m": "0.5"}, M_HALF_OPEN),
    ({"m": True}, M_HALF_OPEN),
    ({"sign": True}, r"sign must be \+1 or -1"),
    ({"sign": "1"}, r"sign must be \+1 or -1"),  # refused before
    huge({"alpha": HUGE}, ALPHA),
    huge({"m": HUGE}, M_HALF_OPEN),
    huge({"sign": HUGE}, r"sign must be \+1 or -1"),
])
def test_pm_wave_params_refuse_what_is_not_a_number(change, stem):
    with pytest.raises(DomainError, match=stem):
        PmWaveParams(**{"alpha": 1.0, "m": 0.5, "sign": 1, **change})


@pytest.mark.parametrize("params", [DnWaveParams(1.0, 0.0, 0.5, 2), PmWaveParams(1.0, 0.5, -1)],
                         ids=["dn", "pm"])
@pytest.mark.parametrize("periods", [2.5, True, "2", 2.0, 0])
def test_natural_grid_refuses_what_is_not_a_whole_number_of_periods(params, periods):
    # 2.5 gave a "natural" grid holding 2.5 periods; 0 is refused before,
    # as a grid length of 0
    with pytest.raises(DomainError, match=PERIODS):
        params.natural_grid(256, periods=periods)


@pytest.mark.parametrize("args, stem", [
    ((1.0, 0.0, "0"), r"epsilon must lie in \[0, 1\)"),
    ((1.0, 0.0, False), r"epsilon must lie in \[0, 1\)"),
    ((1.0, 0.0, True), r"epsilon must lie in \[0, 1\)"),  # refused before
    (("1", 0.0, 1e-12), ALPHA),
    ((True, 0.0, 1e-12), ALPHA),
    ((1.0, "0", 1e-12), BETA),
    ((1.0, True, 1e-12), BETA),
    huge((1.0, 0.0, HUGE), r"epsilon must lie in \[0, 1\)"),
])
def test_soliton_limit_check_refuses_what_is_not_a_number(args, stem):
    with pytest.raises(DomainError, match=stem):
        soliton_limit_check(*args)


# every PeriodicGrid, EvolverConfig and spectral_derivative case was
# refused before; the doors now say it through the shared rule
@pytest.mark.parametrize("N, L, stem", [
    ("64", 1.0, "grid size must be an integer"),
    (True, 1.0, "grid size must be an integer"),
    (64.0, 1.0, "grid size must be an integer"),
    (2.5, 1.0, "grid size must be an integer"),
    (64, "1", "grid length must be positive"),
    (64, True, "grid length must be positive"),
    huge(64, HUGE, "grid length must be positive"),
])
def test_periodic_grid_refuses_what_is_not_a_number(N, L, stem):
    with pytest.raises(DomainError, match=stem):
        PeriodicGrid(N=N, L=L)


@pytest.mark.parametrize("dt, T, every, stem", [
    ("1e-3", 0.01, 0, "dt must be positive"),
    (True, 2.0, 0, "dt must be positive"),
    (1e-3, "0.01", 0, "T must be positive"),
    (1e-3, True, 0, "T must be positive"),
    (1e-3, 0.01, "2", "snapshot_every must be an integer >= 0"),
    (1e-3, 0.01, True, "snapshot_every must be an integer >= 0"),
    (1e-3, 0.01, 2.5, "snapshot_every must be an integer >= 0"),
    huge(None, HUGE, 0, "T must be positive"),
    huge(HUGE, 0.01, 0, "dt must be positive"),
])
def test_evolver_config_refuses_what_is_not_a_number(dt, T, every, stem):
    with pytest.raises(DomainError, match=stem):
        EvolverConfig(PeriodicGrid(N=64, L=2 * np.pi), dt, T, every)


@pytest.mark.parametrize("length, order, stem", [
    ("1", 1, "length must be positive"),
    (True, 1, "length must be positive"),
    (1.0, "1", "derivative order must be an integer >= 1"),
    (1.0, True, "derivative order must be an integer >= 1"),
    (1.0, 2.5, "derivative order must be an integer >= 1"),
    huge(HUGE, 1, "length must be positive"),
])
def test_spectral_derivative_refuses_what_is_not_a_number(length, order, stem):
    with pytest.raises(DomainError, match=stem):
        spectral_derivative(_field(), length, order)


# transform_params admits alpha and beta before it scales them, with
# DnWaveParams' rules: text raised an untyped TypeError, True read as 1
@pytest.mark.parametrize("alpha, beta, stem", [
    ("1", 0.0, ALPHA),
    (True, 0.0, ALPHA),
    (1.0, "0", BETA),
    (1.0, True, BETA),
    huge(HUGE, 0.0, ALPHA),
    huge(1.0, HUGE, BETA),
])
def test_transform_params_refuses_what_is_not_a_number(alpha, beta, stem):
    with pytest.raises(DomainError, match=stem):
        transform_params(alpha, beta, landen_map(2, 0.5))


# True was read as t = 1, text raised an untyped TypeError in the sampler
# and nan reached the kernel, which refused its "argument"
@pytest.mark.parametrize("t", [True, "0", float("nan"), huge(HUGE)])
def test_kdv_residual_refuses_a_time_that_is_not_a_number(t):
    params = DnWaveParams(1.0, 0.0, 0.5)
    with pytest.raises(DomainError, match="^t must be finite"):
        kdv_residual(params, params.natural_grid(), t)


# each door with numpy scalars, and with the Python numbers they hold
NUMPY_SCALARS = {
    "landen_map": lambda f, i: landen_map(i(2), f(0.5)),
    "complete_K": lambda f, i: complete_K(f(0.5)),
    "jacobi_sn_cn_dn": lambda f, i: jacobi_sn_cn_dn(f(0.7), f(0.5)),
    "DnWaveParams": lambda f, i: DnWaveParams(f(1.2), f(-0.5), f(0.5), i(2)).velocity,
    "PmWaveParams": lambda f, i: PmWaveParams(f(1.2), f(0.5), i(-1)).velocity,
    "natural_grid": lambda f, i: DnWaveParams(1.0, 0.0, 0.5).natural_grid(i(256), i(2)).L,
    "soliton_limit_check": lambda f, i: soliton_limit_check(f(1.0), f(0.0), f(1e-12)),
    "PeriodicGrid": lambda f, i: PeriodicGrid(N=i(64), L=f(2.0)).spacing,
    "EvolverConfig": lambda f, i: EvolverConfig(
        PeriodicGrid(N=64, L=2 * np.pi), f(1e-3), f(0.01), i(2)).steps,
    "spectral_derivative": lambda f, i: spectral_derivative(_field(), f(2 * np.pi), i(2)),
    "transform_params": lambda f, i: transform_params(f(1.2), f(-0.5), landen_map(2, 0.5)),
    "kdv_residual": lambda f, i: kdv_residual(
        DnWaveParams(1.0, 0.0, 0.5), DnWaveParams(1.0, 0.0, 0.5).natural_grid(), f(0.1)),
}


@pytest.mark.parametrize("door", NUMPY_SCALARS)
def test_numpy_scalars_are_numbers(door):
    with_numpy = NUMPY_SCALARS[door](np.float64, np.int64)
    plain = NUMPY_SCALARS[door](float, int)
    if isinstance(plain, (tuple, np.ndarray)):
        assert np.array_equal(with_numpy, plain)
    else:
        assert with_numpy == plain
