"""Cnoidal KdV waves, p-term Landen transformations, and their verification.

Linear superpositions of equally shifted dn^2 cnoidal waves solve the KdV
equation u_t - 6 u u_x + u_xxx = 0, and each superposition is the same
single cnoidal wave in disguise: a generalized Landen transformation maps
the p-term sum at modulus parameter m to one dn^2 profile at a smaller
parameter m_tilde.  This package evaluates the waves, constructs the
transformations, and verifies the equivalence numerically: pointwise
identities, spectral KdV residuals, soliton limits, and independent
pseudo-spectral time evolution.

Throughout, m is the modulus PARAMETER (m = k^2), never the modulus k.
"""

from .elliptic import complete_K, jacobi_sn_cn_dn
from .errors import (
    AliasingWarning,
    ConsistencyError,
    DomainError,
    InstabilityError,
    PeriodMismatchError,
)
from .evolve import (
    ConservationReport,
    EvolverConfig,
    Trajectory,
    conservation_report,
    evolve_trajectory,
    translation_lag,
)
from .fourier import PeriodicGrid, fft, spectral_derivative
from .landen import (
    A_constant,
    LandenMap,
    dn2_landen_rhs,
    dn_landen_rhs,
    landen_map,
    transform_params,
)
from .verify import (
    CheckResult,
    ResidualReport,
    TravelingProfile,
    TOLERANCES,
    equivalence_check,
    kdv_residual,
    run_suite,
    soliton_limit_check,
)
from .waves import (
    DnWaveParams,
    PmWaveParams,
    u_p,
    u_pm,
)

__version__ = "0.1.0"

__all__ = [
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
    "PmWaveParams",
    "ResidualReport",
    "TOLERANCES",
    "Trajectory",
    "TravelingProfile",
    "complete_K",
    "conservation_report",
    "dn2_landen_rhs",
    "dn_landen_rhs",
    "equivalence_check",
    "evolve_trajectory",
    "fft",
    "jacobi_sn_cn_dn",
    "kdv_residual",
    "landen_map",
    "run_suite",
    "soliton_limit_check",
    "spectral_derivative",
    "transform_params",
    "translation_lag",
    "u_p",
    "u_pm",
    "__version__",
]
