"""Foundational q-special functions with certified product truncation.

All infinite products (a;q)_infty are cut at an index N where the neglected
log-tail is provably below the policy target: once |a q^N| < 1/2 the tail of
sum_k log(1 - a q^k) is bounded by 2 |a| |q|^N / (1 - |q|).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndeterminateRatio,
    InvalidBase,
    InvalidParams,
    NoConvergence,
    PoleAtNonpositiveInteger,
    ZeroArgument,
)

# A factor counts as vanishing when its magnitude drops below this tolerance
# times (1 + |argument|); distinguishes exact poles from computable near-poles.
POLE_TOL = 1e-13

# Factor-peeling threshold shared with the tail bound: both require |a q^k|
# below 1/2 before the geometric estimate applies.
PEEL_THRESHOLD = 0.5

MAX_TERMS_ENV = "QSINC_MAX_TERMS"


@dataclass(frozen=True)
class TruncationPolicy:
    """Target tail bound and term budget for series/product truncation."""

    eps: float = 1e-12
    max_terms: int = 1_000_000
    min_terms: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise InvalidParams(f"eps must be in (0, 1), got {self.eps}")
        if self.min_terms < 4:
            raise InvalidParams(f"min_terms must be >= 4, got {self.min_terms}")
        if self.max_terms < self.min_terms:
            raise InvalidParams("max_terms must be >= min_terms")


def default_policy(eps: float = 1e-12) -> TruncationPolicy:
    """Default policy; QSINC_MAX_TERMS overrides the term budget."""
    max_terms = 1_000_000
    env = os.environ.get(MAX_TERMS_ENV)
    if env is not None:
        max_terms = int(env)
    return TruncationPolicy(eps=eps, max_terms=max_terms)


@dataclass(frozen=True)
class QParams:
    """Base pair (p, q) with |p| < |q| < 1 and derived decay exponents.

    alpha = ln|q| / ln|p| in (0, 1) controls the Gaussian term decay
    q^{(1-alpha) n^2 / 2}; omega = -ln|p|.
    """

    p: complex
    q: complex
    allow_extreme: bool = False
    alpha: float = field(init=False)
    omega: float = field(init=False)

    def __post_init__(self) -> None:
        ap, aq = abs(self.p), abs(self.q)
        if not 0.0 < ap < aq < 1.0:
            raise InvalidParams(
                f"need 0 < |p| < |q| < 1, got |p|={ap}, |q|={aq}"
            )
        if not self.allow_extreme:
            # Truncation sizes and cancellation blow up near |q| = 1.
            if aq > 0.95:
                raise InvalidParams(
                    f"|q|={aq} > 0.95; pass allow_extreme=True to override"
                )
            if ap > 0.95 * aq:
                raise InvalidParams(
                    f"|p|={ap} > 0.95|q|; pass allow_extreme=True to override"
                )
        object.__setattr__(self, "alpha", math.log(aq) / math.log(ap))
        object.__setattr__(self, "omega", -math.log(ap))


@dataclass(frozen=True)
class SeriesParams:
    """Parameter point (a, b, z) over a base pair for the bilateral sums."""

    qp: QParams
    a: complex
    b: complex
    z: complex

    def __post_init__(self) -> None:
        if self.z == 0:
            raise InvalidParams("z must be nonzero")


@dataclass(frozen=True)
class BaileyParams:
    """Parameters of the four-product bilateral transformation."""

    qp: QParams
    a1: complex
    a2: complex
    b1: complex
    b2: complex
    z: complex

    def __post_init__(self) -> None:
        if self.z == 0:
            raise InvalidParams("z must be nonzero")


@dataclass(frozen=True)
class MultibasicParams:
    """Two bases p1, p2 tied to a common q = p1^alpha1 = p2^alpha2.

    The q-binomial in base pj steps by alphaj so that pj^(alphaj n) = q^n;
    convergence of the paired sum/integral requires alpha1 + alpha2 < 1.
    A second coefficient with a2 = b2 = 0 denotes the degenerate single-base
    reduction (constant second factor).
    """

    p1: complex
    p2: complex
    q: complex
    a1: float
    b1: float
    a2: float
    b2: float
    z: complex
    alpha1: float = field(init=False)
    alpha2: float = field(init=False)

    def __post_init__(self) -> None:
        for name, p in (("p1", self.p1), ("p2", self.p2), ("q", self.q)):
            if not 0.0 < abs(p) < 1.0:
                raise InvalidParams(f"need 0 < |{name}| < 1, got {abs(p)}")
        if self.z == 0:
            raise InvalidParams("z must be nonzero")
        a1 = math.log(abs(self.q)) / math.log(abs(self.p1))
        a2 = math.log(abs(self.q)) / math.log(abs(self.p2))
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)
        if self.trivial_second:
            a2 = 0.0
        if not (a1 > 0.0 and a2 >= 0.0 and a1 + a2 < 1.0):
            raise InvalidParams(
                f"need alpha1 + alpha2 < 1, got {a1 + a2}"
            )

    @property
    def trivial_second(self) -> bool:
        return self.a2 == 0.0 and self.b2 == 0.0

    @property
    def alpha_sum(self) -> float:
        return self.alpha1 + (0.0 if self.trivial_second else self.alpha2)

    @classmethod
    def from_alpha_sum(cls, p1: complex, p2: complex, alpha_sum: float,
                       a1: float, b1: float, a2: float, b2: float,
                       z: complex) -> "MultibasicParams":
        """Fix q so that ln q / ln p1 + ln q / ln p2 = alpha_sum."""
        if not 0.0 < alpha_sum < 1.0:
            raise InvalidParams(f"need 0 < alpha_sum < 1, got {alpha_sum}")
        lnq = alpha_sum / (1.0 / math.log(abs(p1)) + 1.0 / math.log(abs(p2)))
        return cls(p1=p1, p2=p2, q=math.exp(lnq),
                   a1=a1, b1=b1, a2=a2, b2=b2, z=z)


def qpoch_finite(a: complex, q: complex, n: int) -> complex:
    """Finite q-shifted factorial (a;q)_n = prod_{k<n} (1 - a q^k)."""
    if n < 0:
        raise InvalidParams(f"n must be >= 0, got {n}")
    result = 1.0 + 0.0j
    factor = complex(a)
    for _ in range(n):
        result *= 1.0 - factor
        factor *= q
    return result


def _tail_index(a_abs: float, q_abs: float, eps: float) -> int:
    """Smallest N with |a| q^N < 1/2 and tail bound 2|a|q^N/(1-q) < eps."""
    if a_abs == 0.0:
        return 0
    lq = math.log(q_abs)
    n1 = math.log(PEEL_THRESHOLD / a_abs) / lq if a_abs > PEEL_THRESHOLD else 0.0
    n2 = math.log(eps * (1.0 - q_abs) / (2.0 * a_abs)) / lq
    return int(math.ceil(max(n1, n2, 0.0))) + 1


def _qpoch_inf_minfactor(
    a: complex, q: complex, policy: TruncationPolicy
) -> tuple[complex, float]:
    """(a;q)_infty together with the smallest factor magnitude seen."""
    aq = abs(q)
    if aq >= 1.0:
        raise InvalidBase(f"|q| must be < 1, got {aq}")
    if a == 0:
        return 1.0 + 0.0j, 1.0
    n = max(policy.min_terms, _tail_index(abs(a), aq, policy.eps))
    if n > policy.max_terms:
        raise NoConvergence(
            f"(a;q)_inf needs {n} factors, budget is {policy.max_terms}"
        )
    factors = 1.0 - complex(a) * np.power(complex(q), np.arange(n))
    return complex(np.prod(factors)), float(np.min(np.abs(factors)))


def qpoch_inf(a: complex, q: complex, policy: TruncationPolicy) -> complex:
    """Infinite q-shifted factorial (a;q)_infty, tail certified below eps."""
    value, _ = _qpoch_inf_minfactor(a, q, policy)
    return value


def qpoch_inf_large(a: complex, q: complex, policy: TruncationPolicy) -> complex:
    """(a;q)_infty for arbitrary |a|: peel leading factors, then delegate.

    Explicit factors (1 - a q^k) are multiplied out until |a q^M| < 1/2,
    after which the remainder is a plain certified product.
    """
    aq = abs(q)
    if aq >= 1.0:
        raise InvalidBase(f"|q| must be < 1, got {aq}")
    a = complex(a)
    aa = abs(a)
    if aa <= PEEL_THRESHOLD:
        return qpoch_inf(a, q, policy)
    m = int(math.ceil(math.log(PEEL_THRESHOLD / aa) / math.log(aq)))
    if m > policy.max_terms:
        raise NoConvergence(
            f"factor peeling needs {m} factors, budget is {policy.max_terms}"
        )
    head = complex(np.prod(1.0 - a * np.power(complex(q), np.arange(m))))
    return head * qpoch_inf(a * complex(q) ** m, q, policy)


def qpoch_inf_vec(a: np.ndarray, q: complex, eps: float = 1e-16,
                  max_terms: int = 2_000_000) -> np.ndarray:
    """Vectorized (a_i;q)_infty over an array of arguments, shared base q.

    Uses a uniform factor count covering the largest |a_i|; extra factors for
    small arguments are harmlessly close to 1.
    """
    aq = abs(q)
    if aq >= 1.0:
        raise InvalidBase(f"|q| must be < 1, got {aq}")
    a = np.asarray(a, dtype=complex)
    amax = float(np.max(np.abs(a))) if a.size else 0.0
    if amax == 0.0:
        return np.ones_like(a)
    lq = math.log(aq)
    m = 0
    if amax > PEEL_THRESHOLD:
        m = int(math.ceil(math.log(PEEL_THRESHOLD / amax) / lq))
    k = m + _tail_index(PEEL_THRESHOLD, aq, eps)
    if k > max_terms:
        raise NoConvergence(f"vectorized product needs {k} factors")
    powers = np.power(complex(q), np.arange(k))
    return np.prod(1.0 - a[..., None] * powers, axis=-1)


def _principal_power(base: complex, expo: complex) -> complex:
    """base**expo with the principal branch of the logarithm."""
    if base == 0:
        raise ZeroArgument("0 raised to a complex power")
    return cmath.exp(complex(expo) * cmath.log(complex(base)))


def _cpow(base: complex, expo: complex) -> complex:
    """base**expo, exact for integer exponents, else the principal branch."""
    if isinstance(expo, int) or (isinstance(expo, float) and expo.is_integer()):
        return complex(base) ** int(expo)
    return _principal_power(base, expo)


def qgamma(x: complex, q: complex, policy: TruncationPolicy) -> complex:
    """q-analog of the Gamma function.

    Gamma_q(x) = (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x), principal branch.
    The product ratio is accumulated factor by factor: both products underflow
    to zero for q near 1, but their factor ratios stay of order one.
    """
    aq = abs(q)
    if not 0.0 < aq < 1.0:
        raise InvalidBase(f"need 0 < |q| < 1, got {aq}")
    qx = _principal_power(q, x)
    # log of factor k of the ratio is ~ (q^x - q) q^k / (1 - q) for large k
    a_eff = (abs(qx) + aq) / (1.0 - aq)
    n = max(policy.min_terms, _tail_index(a_eff, aq, policy.eps))
    if n > policy.max_terms:
        raise NoConvergence(
            f"Gamma_q ratio needs {n} factors, budget is {policy.max_terms}"
        )
    powers = np.power(complex(q), np.arange(n))
    den_factors = 1.0 - qx * powers
    minf = float(np.min(np.abs(den_factors)))
    if minf < POLE_TOL * (1.0 + abs(qx)):
        raise PoleAtNonpositiveInteger(f"Gamma_q pole at x={x}")
    ratio = complex(np.prod((1.0 - complex(q) * powers) / den_factors))
    return ratio * _principal_power(1.0 - q, 1.0 - complex(x))


def qbinomial(a: complex, b: complex, q: complex,
              policy: TruncationPolicy) -> complex:
    """q-binomial coefficient Gamma_q(a+1)/(Gamma_q(b+1) Gamma_q(a-b+1)).

    The (1-q) power prefactors cancel exactly, so the coefficient reduces to
    a ratio of four infinite products; denominator Gamma poles map to zeros.
    """
    aq = abs(q)
    if not 0.0 < aq < 1.0:
        raise InvalidBase(f"need 0 < |q| < 1, got {aq}")
    qa1 = _principal_power(q, complex(a) + 1.0)
    qb1 = _principal_power(q, complex(b) + 1.0)
    qab1 = _principal_power(q, complex(a) - complex(b) + 1.0)
    num1, min1 = _qpoch_inf_minfactor(qb1, q, policy)
    num2, min2 = _qpoch_inf_minfactor(qab1, q, policy)
    den2, mind = _qpoch_inf_minfactor(qa1, q, policy)
    num_vanishes = (min1 < POLE_TOL * (1.0 + abs(qb1))
                    or min2 < POLE_TOL * (1.0 + abs(qab1)))
    den_vanishes = mind < POLE_TOL * (1.0 + abs(qa1))
    if den_vanishes:
        if num_vanishes:
            raise IndeterminateRatio(
                f"coincident Gamma_q poles in qbinomial(a={a}, b={b})"
            )
        raise PoleAtNonpositiveInteger(f"Gamma_q(a+1) pole at a={a}")
    if num_vanishes:
        return 0.0 + 0.0j
    den1 = qpoch_inf(q, q, policy)
    return num1 * num2 / (den1 * den2)


def theta_product(z: complex, q: complex, policy: TruncationPolicy) -> complex:
    """Jacobi triple product (q, -z, -q/z; q)_infty."""
    if z == 0:
        raise ZeroArgument("theta_product requires z != 0")
    aq = abs(q)
    if not 0.0 < aq < 1.0:
        raise InvalidBase(f"need 0 < |q| < 1, got {aq}")
    return (qpoch_inf(q, q, policy)
            * qpoch_inf_large(-z, q, policy)
            * qpoch_inf_large(-complex(q) / complex(z), q, policy))
