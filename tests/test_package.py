"""The package's public surface, pinned so that changing it is deliberate."""

import types

import landen_kdv

PUBLIC_NAMES = [
    "A_constant",
    "AliasingWarning",
    "CheckResult",
    "ConservationReport",
    "ConsistencyError",
    "DnWaveParams",
    "DomainError",
    "EvolverConfig",
    "InstabilityError",
    "LandenMap",
    "PeriodMismatchError",
    "PeriodicGrid",
    "PmWave",
    "PmWaveParams",
    "ResidualReport",
    "TOLERANCES",
    "Trajectory",
    "TransformedParams",
    "TravelingProfile",
    "VelocityScaling",
    "__version__",
    "complete_K",
    "conservation_report",
    "dn2_landen_rhs",
    "dn_landen_rhs",
    "dual_oracle_gap",
    "equivalence_check",
    "evolve_trajectory",
    "fft",
    "fit_traveling_velocity",
    "ifft",
    "jacobi_sn_cn_dn",
    "kdv_residual",
    "landen_map",
    "pm_superposition_velocity_search",
    "run_suite",
    "soliton_limit_check",
    "spectral_derivative",
    "transform_params",
    "translation_lag",
    "u1",
    "u_p",
    "u_pm",
]


def test_public_names_are_pinned():
    assert sorted(landen_kdv.__all__) == PUBLIC_NAMES
    assert all(hasattr(landen_kdv, name) for name in PUBLIC_NAMES)


def test_submodules_are_not_shadowed():
    import landen_kdv.evolve as ev

    assert isinstance(ev, types.ModuleType)
    assert ev.evolve_trajectory is landen_kdv.evolve_trajectory
