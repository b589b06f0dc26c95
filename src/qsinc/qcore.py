"""Foundational q-special functions with certified product truncation.

Every product (a;q)_infty, for a of any size, is certified to double
precision: it keeps the first N factors, where the log-tail bound
2 |a| |q|^N / (1 - |q|) falls below PRODUCT_EPS; that already gives
|a q^N| < 1/2, which the bound needs.  A product that would need more than
PRODUCT_MAX_FACTORS factors raises NoConvergence.  No caller chooses either
value.  _vanishing_factor alone decides whether a factor 1 - a q^m is zero.
Sums and integrals take one precision eps, checked by _check_eps; a sum may
use at most SERIES_MAX_TERMS terms.
"""

from __future__ import annotations

import cmath
import math
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

# Log-tail bound and factor budget of every infinite product.
PRODUCT_EPS = 1e-16
PRODUCT_MAX_FACTORS = 2_000_000

_BLOCK = 2 ** 14  # elements per column block of qpoch_inf_vec's matrix

# Term budget of every bilateral sum.
SERIES_MAX_TERMS = 1_000_000


def _check_eps(eps: float) -> None:
    """Reject a target precision outside (0, 1), nan included."""
    if not 0.0 < eps < 1.0:
        raise InvalidParams(f"eps must be in (0, 1), got {eps}")


SIDE_METHODS = ("series", "doubling", "trapezoid", "product", "closed-form")


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
    """Base pair (p, q) with |p| < |q| < 1."""

    p: complex
    q: complex
    allow_extreme: bool = False

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


def _log_bases(factors) -> list[float]:
    """ln|p_j| of each factor (p_j, a_j, b_j): at least one factor, and
    0 < |p_j| < 1 for each."""
    if not factors:
        raise InvalidParams("need at least one factor (p, a, b)")
    logs = []
    for j, (p, _, _) in enumerate(factors, 1):
        if not 0.0 < abs(p) < 1.0:
            raise InvalidParams(f"need 0 < |p{j}| < 1, got {abs(p)}")
        logs.append(math.log(abs(p)))
    return logs


@dataclass(frozen=True)
class MultibasicParams:
    """q-binomial factors [a_j; b_j + alpha_j x]_{p_j}, j = 1..l, over bases
    tied to one q.

    factors is ((p_1, a_1, b_1), ...), at least one.  alpha_j =
    ln|q| / ln|p_j|, so that |p_j|^(alpha_j n) = |q|^n; the paired sum and
    integral converge when sum_j alpha_j < 1.  A factor with a_j = b_j = 0
    is the q-sinc factor [0; alpha_j x]_{p_j}, not 1.
    """

    factors: tuple[tuple[complex, float, float], ...]
    q: complex
    z: complex
    alphas: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        logs = _log_bases(self.factors)
        if not 0.0 < abs(self.q) < 1.0:
            raise InvalidParams(f"need 0 < |q| < 1, got {abs(self.q)}")
        if self.z == 0:
            raise InvalidParams("z must be nonzero")
        lnq = math.log(abs(self.q))
        object.__setattr__(self, "alphas", tuple(lnq / lp for lp in logs))
        if not self.alpha_sum < 1.0:
            raise InvalidParams(
                f"need sum of alpha_j < 1, got {self.alpha_sum}")

    @property
    def alpha_sum(self) -> float:
        return sum(self.alphas)

    @classmethod
    def from_alpha_sum(cls, factors, alpha_sum: float,
                       z: complex) -> "MultibasicParams":
        """Fix q so that sum_j ln q / ln|p_j| = alpha_sum."""
        if not 0.0 < alpha_sum < 1.0:
            raise InvalidParams(f"need 0 < alpha_sum < 1, got {alpha_sum}")
        lnq = alpha_sum / sum(1.0 / lp for lp in _log_bases(factors))
        return cls(factors=factors, q=math.exp(lnq), z=z)


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
    # Two logs: eps (1 - |q|) / (2|a|) underflows to 0 for |a| near 1e308.
    n = ((math.log(eps * (1.0 - q_abs) / 2.0) - math.log(a_abs))
         / math.log(q_abs))
    return int(math.ceil(max(n, 0.0))) + 1


def qpoch_inf_vec(a: np.ndarray, q: complex) -> np.ndarray:
    """(a_i;q)_infty over an array of arguments of any size, shared base q.

    All elements share the factor count _tail_index(max |a_i|, PRODUCT_EPS):
    the tail bound grows with |a|, so that count certifies every element.
    Non-finite arguments do not enter the count; at least one factor is
    taken, so their products are non-finite.  The result is float64 when q
    and every argument are real, else complex.  The k-factor-by-argument
    matrix is formed in place in column blocks of at most max(_BLOCK, k)
    elements: one column when k > _BLOCK, as near |q| = 1.
    """
    aq = abs(q)
    if aq >= 1.0:
        raise InvalidBase(f"|q| must be < 1, got {aq}")
    a, q = np.asarray(a), complex(q)
    real = q.imag == 0.0 and not np.imag(a).any()
    a, q = (a.real.astype(float), q.real) if real else (a.astype(complex), q)
    amax = float(np.abs(a[np.isfinite(a)]).max(initial=0.0))
    k = max(1, _tail_index(amax, aq, PRODUCT_EPS))
    if k > PRODUCT_MAX_FACTORS:
        raise NoConvergence(
            f"(a;q)_inf needs {k} factors, budget is {PRODUCT_MAX_FACTORS}")
    powers = np.power(q, np.arange(k))
    out = np.empty(a.shape, a.dtype)
    flat, res, cols = a.reshape(-1), out.reshape(-1), max(1, _BLOCK // k)
    for lo in range(0, flat.size, cols):
        m = np.multiply.outer(powers, flat[lo:lo + cols])
        np.prod(np.subtract(1.0, m, out=m), axis=0, out=res[lo:lo + cols])
    return out


def qpoch_inf(a: complex, q: complex) -> complex:
    """Infinite q-shifted factorial (a;q)_infty for any a, to double precision.

    A scalar view of qpoch_inf_vec; qpoch_inf_large is another name for it.
    """
    return complex(qpoch_inf_vec(a, q))


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
    try:
        u = complex(a) * complex(q) ** m
    except OverflowError:  # |a| is subnormal and q^m past 1e308: in logs
        u = cmath.exp(cmath.log(a) + m * cmath.log(q))
    return m if abs(1.0 - u) < POLE_TOL * (1.0 + abs(u)) else None


def _has_zero_factor(a: complex, q: complex) -> bool:
    """Whether a factor 1 - a q^m, m >= 0, of (a;q)_infty vanishes."""
    m = _vanishing_factor(a, q)
    return m is not None and m >= 0


def _principal_power(base: complex, expo: complex) -> complex:
    """base**expo with the principal branch of the logarithm; a power that
    overflows is NoConvergence."""
    if base == 0:
        raise ZeroArgument("0 raised to a complex power")
    try:
        return cmath.exp(complex(expo) * cmath.log(complex(base)))
    except OverflowError:
        raise NoConvergence(f"{base}**{expo} overflows") from None


def _cpow(base: complex, expo: complex) -> complex:
    """base**expo, exact for integer exponents, else the principal branch;
    a power that overflows is NoConvergence."""
    if isinstance(expo, int) or (isinstance(expo, float) and expo.is_integer()):
        try:
            return complex(base) ** int(expo)
        except OverflowError:
            raise NoConvergence(f"{base}**{expo} overflows") from None
    return _principal_power(base, expo)


def qgamma(x: complex, q: complex) -> complex:
    """q-analog of the Gamma function, to double precision.

    Gamma_q(x) = (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x), principal branch.
    The product ratio is accumulated factor by factor: both products underflow
    to zero for q near 1, but their factor ratios stay of order one.  A value
    that is not finite is NoConvergence.
    """
    aq = abs(q)
    if not 0.0 < aq < 1.0:
        raise InvalidBase(f"need 0 < |q| < 1, got {aq}")
    qx = _principal_power(q, x)
    # log of factor k of the ratio is ~ (q^x - q) q^k / (1 - q) for large k
    a_eff = (abs(qx) + aq) / (1.0 - aq)
    n = _tail_index(a_eff, aq, PRODUCT_EPS)
    if n > PRODUCT_MAX_FACTORS:
        raise NoConvergence(
            f"Gamma_q ratio needs {n} factors, budget is {PRODUCT_MAX_FACTORS}"
        )
    if _has_zero_factor(qx, q):
        raise PoleAtNonpositiveInteger(f"Gamma_q pole at x={x}")
    powers = np.power(complex(q), np.arange(n))
    with np.errstate(all="ignore"):  # a ratio that is not finite is typed
        ratio = complex(np.prod((1.0 - complex(q) * powers)
                                / (1.0 - qx * powers)))
    value = ratio * _principal_power(1.0 - q, 1.0 - complex(x))
    if not cmath.isfinite(value):
        raise NoConvergence(f"Gamma_q({x}) is {value:.3g} at q={q}")
    return value


def qbinomial(a: complex, b: complex, q: complex) -> complex:
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
    return (qpoch_inf(qb1, q) * qpoch_inf(qab1, q)
            / (qpoch_inf(q, q) * qpoch_inf(qa1, q)))


def theta_product(z: complex, q: complex) -> complex:
    """Jacobi triple product (q, -z, -q/z; q)_infty; one that is not finite
    is NoConvergence."""
    if z == 0:
        raise ZeroArgument("theta_product requires z != 0")
    aq = abs(q)
    if not 0.0 < aq < 1.0:
        raise InvalidBase(f"need 0 < |q| < 1, got {aq}")
    with np.errstate(all="ignore"):  # a product that is not finite is typed
        theta = (qpoch_inf(q, q) * qpoch_inf_large(-z, q)
                 * qpoch_inf_large(-complex(q) / complex(z), q))
    if not cmath.isfinite(theta):
        raise NoConvergence(f"(q, -z, -q/z; q)_inf is {theta:.3g} at z={z}")
    return theta
