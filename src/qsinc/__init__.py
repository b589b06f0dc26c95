"""Numerical engine for bilateral q-series, companion integrals and their
classical limits, with a verification harness for the identity catalog."""

from .bilateral import (
    appell_lerch_rhs,
    bailey_series,
    fourier_series_side,
    main_series,
    multibasic_series,
    symmetric_series,
    weighted_series,
)
from .classical import (
    OslerParams,
    binomial_profile,
    binomial_real,
    classical_integral,
    classical_sum,
    gamma_classical,
    osler_sum,
)
from .errors import (
    DenominatorZero,
    DomainError,
    IndeterminateRatio,
    InvalidBase,
    InvalidDecay,
    InvalidGrid,
    InvalidParams,
    KernelPole,
    NoConvergence,
    PoleAtNonpositiveInteger,
    QsincError,
    QuadratureFailure,
    SlowConvergence,
    ZeroArgument,
)
from .identities import (
    CATALOG,
    IdentityId,
    IdentityReport,
    make_report,
    sweep_points,
    verify,
)
from .qcore import (
    BaileyParams,
    MultibasicParams,
    QParams,
    SeriesParams,
    Side,
    qbinomial,
    qgamma,
    qpoch_finite,
    qpoch_inf,
    qpoch_inf_large,
    theta_product,
)
from .quadrature import (
    base_integral,
    fourier_integral,
    integrate_gaussian_decay,
    main_integral,
    multibasic_integral,
    symmetric_integral,
    weighted_integral,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
