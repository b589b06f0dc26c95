"""Foundational q-special functions with certified product truncation.

Every product (a;q)_infty, for a of any size, keeps the first N factors,
where the log-tail bound 2 |a| |q|^N / (1 - |q|) falls below eps < 1; that
already gives |a q^N| < 1/2, which the bound needs.  _vanishing_factor alone
decides whether a factor 1 - a q^m is zero.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .errors import (
    IndeterminateRatio,
    InvalidBase,
    InvalidParams,
    NoConvergence,
    PoleAtNonpositiveInteger,
    ZeroArgument,
)

# A factor 1 - u counts as vanishing when |1 - u| < POLE_TOL (1 + |u|);
# distinguishes exact poles from computable near-poles.
POLE_TOL = 1e-13

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


SIDE_METHODS = ("series", "doubling", "trapezoid", "gauss-legendre",
                "product", "closed-form")


@dataclass(frozen=True)
class Side:
    """One side of an identity: its value and how it was computed.

    method is one of SIDE_METHODS.  half_width_used is N for a series window
    [-N, N] and Z for an integral over [-Z, Z].  Counts and estimates that a
    method does not produce are 0.
    """

    value: complex
    method: str
    terms_used: int = 0
    nodes_used: int = 0
    half_width_used: float = 0
    refinements_used: int = 0
    tail_estimate: float = 0.0
    error_estimate: float = 0.0

    def scaled(self, c: complex) -> "Side":
        """c times this side: the value times c, the estimates times |c|."""
        return replace(self, value=c * self.value,
                       tail_estimate=abs(c) * self.tail_estimate,
                       error_estimate=abs(c) * self.error_estimate)

    def __add__(self, other: "Side") -> "Side":
        """The sum of two evaluations: values, counts and estimates add, the
        window is the wider one and the method is this side's."""
        return replace(
            self, value=self.value + other.value,
            terms_used=self.terms_used + other.terms_used,
            nodes_used=self.nodes_used + other.nodes_used,
            half_width_used=max(self.half_width_used, other.half_width_used),
            refinements_used=self.refinements_used + other.refinements_used,
            tail_estimate=self.tail_estimate + other.tail_estimate,
            error_estimate=self.error_estimate + other.error_estimate)

    def diagnostics(self) -> dict[str, Any]:
        """Every field but value, in field order."""
        return {k: v for k, v in vars(self).items() if k != "value"}


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
    """Smallest N with tail bound 2|a| |q|^N / (1 - |q|) < eps."""
    if a_abs == 0.0:
        return 0
    n = math.log(eps * (1.0 - q_abs) / (2.0 * a_abs)) / math.log(q_abs)
    return int(math.ceil(max(n, 0.0))) + 1


def qpoch_inf_vec(a: np.ndarray, q: complex, eps: float = 1e-16,
                  max_terms: int = 2_000_000) -> np.ndarray:
    """(a_i;q)_infty over an array of arguments of any size, shared base q.

    All elements share the factor count _tail_index(max |a_i|): the tail
    bound grows with |a|, so that count certifies every element.  Non-finite
    arguments do not enter the count; at least one factor is taken, so their
    products are non-finite.
    """
    aq = abs(q)
    if aq >= 1.0:
        raise InvalidBase(f"|q| must be < 1, got {aq}")
    a = np.asarray(a, dtype=complex)
    amax = float(np.max(np.abs(a), initial=0.0, where=np.isfinite(a)))
    k = max(1, _tail_index(amax, aq, eps))
    if k > max_terms:
        raise NoConvergence(
            f"(a;q)_inf needs {k} factors, budget is {max_terms}")
    powers = np.power(complex(q), np.arange(k))
    return np.prod(1.0 - a[..., None] * powers, axis=-1)


def qpoch_inf(a: complex, q: complex, policy: TruncationPolicy) -> complex:
    """Infinite q-shifted factorial (a;q)_infty for any a, tail below eps.

    A scalar view of qpoch_inf_vec; qpoch_inf_large is another name for it.
    """
    return complex(qpoch_inf_vec(a, q, policy.eps, policy.max_terms))


qpoch_inf_large = qpoch_inf


def _vanishing_factor(a: complex, q: complex) -> int | None:
    """The index m in Z at which the factor 1 - a q^m vanishes, or None.

    Only m0 = round(ln(1/|a|) / ln|q|) can vanish: every other m has
    ||a q^m| - 1| >= 1 - |q|^(1/2).  It vanishes when
    |1 - a q^m0| < POLE_TOL (1 + |a q^m0|).
    """
    if a == 0:
        return None
    m = round(-math.log(abs(a)) / math.log(abs(q)))
    u = complex(a) * complex(q) ** m
    return m if abs(1.0 - u) < POLE_TOL * (1.0 + abs(u)) else None


def _has_zero_factor(a: complex, q: complex) -> bool:
    """Whether a factor 1 - a q^m, m >= 0, of (a;q)_infty vanishes."""
    m = _vanishing_factor(a, q)
    return m is not None and m >= 0


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
    if _has_zero_factor(qx, q):
        raise PoleAtNonpositiveInteger(f"Gamma_q pole at x={x}")
    powers = np.power(complex(q), np.arange(n))
    ratio = complex(np.prod((1.0 - complex(q) * powers)
                            / (1.0 - qx * powers)))
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
    num_vanishes = _has_zero_factor(qb1, q) or _has_zero_factor(qab1, q)
    if _has_zero_factor(qa1, q):
        if num_vanishes:
            raise IndeterminateRatio(
                f"coincident Gamma_q poles in qbinomial(a={a}, b={b})"
            )
        raise PoleAtNonpositiveInteger(f"Gamma_q(a+1) pole at a={a}")
    if num_vanishes:
        return 0.0 + 0.0j
    return (qpoch_inf(qb1, q, policy) * qpoch_inf(qab1, q, policy)
            / (qpoch_inf(q, q, policy) * qpoch_inf(qa1, q, policy)))


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
