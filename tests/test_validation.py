"""Parameter checks and factor budgets: each is typed before any work."""

import math
import time

import numpy as np
import pytest

from qsinc import (
    BaileyParams,
    IdentityId,
    InvalidBase,
    InvalidParams,
    KernelPole,
    MultibasicParams,
    NoConvergence,
    QParams,
    SeriesParams,
    ZeroArgument,
    appell_lerch_rhs,
    fourier_series_side,
    qgamma,
    qpoch_inf,
    verify,
    weighted_integral,
)
from qsinc.qcore import _cpow, qpoch_inf_vec

_QP = QParams(p=0.3, q=0.6)
_Z1 = SeriesParams(qp=_QP, a=0.2, b=0.3, z=1.0)
_Z2 = SeriesParams(qp=_QP, a=0.2, b=0.3, z=2.0)
_POINT = {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6, "p": 0.3}
_FACTOR = ((0.5, 2.0, 1.0),)


@pytest.mark.parametrize("call, error, match", [
    (lambda: fourier_series_side(_Z2, 1.0, 1e-10), InvalidParams, "z = 1"),
    (lambda: fourier_series_side(_Z1, 0.0, 1e-10), KernelPole, "y = 0"),
    # 1 + e^(iy) = 0: a wrong value before
    (lambda: fourier_series_side(_Z1, -3.0 * math.pi, 1e-10), KernelPole,
     "vanishes"),
    (lambda: appell_lerch_rhs(0.5, 1.2, 1e-10), InvalidParams, r"\|q\|"),
    (lambda: weighted_integral(_Z2, 1, 1e-10), InvalidParams, "z = 1"),
    (lambda: verify(IdentityId.Invariance, dict(_POINT, c=0)),
     InvalidParams, "c must be nonzero"),
    (lambda: verify(IdentityId.PoissonVanishing, dict(_POINT, m=0)),
     InvalidParams, "nonzero integer"),
    (lambda: BaileyParams(qp=_QP, a1=0.2, a2=0.3, b1=0.4, b2=0.5, z=0),
     InvalidParams, "z must be nonzero"),
    (lambda: MultibasicParams(factors=_FACTOR, q=1.2, z=1.0),
     InvalidParams, r"\|q\|"),
    (lambda: MultibasicParams.from_alpha_sum(_FACTOR, 1.0, 1.0),
     InvalidParams, "alpha_sum"),
    (lambda: qpoch_inf_vec(np.array([0.5]), 1.0), InvalidBase, r"\|q\|"),
    (lambda: _cpow(0.0, 0.5), ZeroArgument, "complex power"),
    # 5.1e7 and 6.1e6 factors, past PRODUCT_MAX_FACTORS
    (lambda: qpoch_inf(0.5, 1.0 - 1e-6), NoConvergence, "factors"),
    (lambda: qgamma(1.5, 1.0 - 1e-5), NoConvergence, "factors"),
], ids=["fourier-z", "fourier-y0", "fourier-y-odd-pi", "appell-lerch-q",
        "weighted-z", "invariance-c0", "poisson-m0", "bailey-z0",
        "multibasic-q", "alpha-sum", "qpoch-vec-q", "zero-power",
        "qpoch-budget", "qgamma-budget"])
def test_rejected_before_any_work(call, error, match):
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        call()
    assert time.perf_counter() - start < 0.05
