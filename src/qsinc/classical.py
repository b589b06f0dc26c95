"""Classical (q-free) special functions and sum-equals-integral checks.

Real-order binomial coefficients are band limited, so their bilateral sums
match the corresponding integrals; this module evaluates both sides of those
classical identities, which also serve as q -> 1 targets for the q modules.
Both sides run on one engine, _bilateral_doubling: the sum over the
integers, and the integral as a trapezoid sum on lattices shifted off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndeterminateRatio,
    InvalidParams,
    PoleAtNonpositiveInteger,
    QuadratureFailure,
    SlowConvergence,
)
from .qcore import SERIES_MAX_TERMS, Side, _check_eps
from .util import fsum_complex

_INT_TOL = 1e-9  # distance below which a value counts as an exact integer


@dataclass(frozen=True)
class OslerParams:
    """Parameters of the generalized binomial sum on the unit circle."""

    a: float
    b: float
    alpha: float
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParams(f"need 0 < alpha <= 1, got {self.alpha}")
        if abs(self.theta) >= math.pi:
            raise InvalidParams(f"need |theta| < pi, got {self.theta}")


def _near_nonpositive_integer(x: float) -> bool:
    return x < 0.5 and abs(x - round(x)) < _INT_TOL


def gamma_classical(x: float) -> float:
    """Classical Gamma function (Lanczos-class implementation)."""
    if _near_nonpositive_integer(x):
        raise PoleAtNonpositiveInteger(f"Gamma pole at x={x}")
    return math.gamma(x)


def binomial_real(a: float, u: float) -> float:
    """Real-order binomial coefficient Gamma(a+1)/(Gamma(u+1)Gamma(a-u+1)).

    Evaluated through log-Gamma with explicit signs so large arguments never
    overflow; a pole in exactly one denominator Gamma gives 0.
    """
    num_pole = _near_nonpositive_integer(a + 1.0)
    den_pole = (_near_nonpositive_integer(u + 1.0)
                or _near_nonpositive_integer(a - u + 1.0))
    if num_pole and den_pole:
        raise IndeterminateRatio(
            f"coincident Gamma poles in binomial(a={a}, u={u})"
        )
    if num_pole:
        raise PoleAtNonpositiveInteger(f"Gamma(a+1) pole at a={a}")
    if den_pole:
        return 0.0
    return float(binomial_profile(a, np.asarray([u]))[0])


def binomial_profile(a: float, u: np.ndarray) -> np.ndarray:
    """Vectorized binomial_real; denominator poles map to zeros."""
    from scipy.special import gammaln, gammasgn  # lazy: scipy is slow to load

    u = np.asarray(u, dtype=float)
    s = u + 1.0
    t = a - u + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        logs = gammaln(a + 1.0) - gammaln(s) - gammaln(t)
        signs = gammasgn(a + 1.0) * gammasgn(s) * gammasgn(t)
        out = signs * np.exp(logs)
    return np.where(np.isfinite(out), out, 0.0)


def _bilateral_doubling(block_sum, eps: float) -> Side:
    """Sum blocks over Z by doubling symmetric windows until the rings
    stabilize.

    block_sum(n) must return the sum of the blocks at the integer array n:
    a series' terms, or the integral's trapezoid sums over the unit cells
    [n, n + 1).  It is called on [-256, 256] and then on the rings
    N < |n| <= 2N, N = 256, 512, ..., until two consecutive rings are below
    eps max(1, |total|).  A ring whose outer half-width would exceed
    SERIES_MAX_TERMS raises SlowConvergence.  terms_used counts blocks, and
    the tail estimate is the size of the last ring.
    """
    _check_eps(eps)
    n_hi = 256
    total = block_sum(np.arange(-n_hi, n_hi + 1))
    terms = 2 * n_hi + 1
    small_rings = 0
    tail = math.inf
    while True:
        if small_rings >= 2:
            return Side(total, "doubling", terms_used=terms,
                        half_width_used=n_hi, tail_estimate=tail)
        if 2 * n_hi > SERIES_MAX_TERMS:
            raise SlowConvergence(f"no convergence after {terms} terms")
        far = np.arange(n_hi + 1, 2 * n_hi + 1)
        ring = block_sum(np.concatenate([-far[::-1], far]))
        total += ring
        terms += 2 * n_hi
        n_hi *= 2
        tail = abs(ring)
        if tail <= eps * max(1.0, abs(total)):
            small_rings += 1
        else:
            small_rings = 0


def osler_sum(params: OslerParams, eps: float) -> Side:
    """Bilateral sum of binom(a, b+alpha n) v^(b+alpha n) with v=e^{i theta}.

    Terms decay like |n|^{-a-1}, so a > 0 is required; symmetric windows are
    doubled until two consecutive rings fall below the tolerance (the signed
    tails cancel far faster than the term envelope).
    """
    a, b, alpha, theta = params.a, params.b, params.alpha, params.theta
    if a <= 0.0:
        raise InvalidParams(f"series cutoff requires a > 0, got a={a}")
    if abs(theta) >= math.pi * alpha:
        raise InvalidParams(
            f"series form requires |theta| < pi*alpha = {math.pi * alpha}"
        )

    def block_sum(n: np.ndarray) -> complex:
        u = b + alpha * n
        return fsum_complex(binomial_profile(a, u) * np.exp(1j * theta * u))

    return _bilateral_doubling(block_sum, eps)


def classical_sum(a: float, alpha: float, l: int, eps: float) -> Side:
    """Sum over Z of binom(a, alpha n)^l."""

    return _bilateral_doubling(
        lambda n: math.fsum(binomial_profile(a, alpha * n) ** l), eps)


def classical_integral(a: float, alpha: float, l: int, eps: float) -> Side:
    """Integral over R of binom(a, alpha x)^l, by the trapezoid rule.

    The integrand is band limited to |omega| <= l alpha pi <= 2 pi, so the
    rule at spacing 1/2 is exact on any shifted lattice.  The unit cells are
    summed by _bilateral_doubling twice: on the lattice (k + 1/3)/2 (offsets
    1/6 and 2/3 in each cell) and on its midpoints (5/12 and 11/12).  No
    node is an integer, so the integral shares no sample with the series.
    The value is the mean, the rule at spacing 1/4; a change of more than
    100 eps max(1, |I|) from the first lattice raises QuadratureFailure.
    The error estimate is the larger of that change and the last ring.
    """

    def on_lattice(offsets: np.ndarray) -> Side:
        def block_sum(n: np.ndarray) -> float:
            x = (n[:, None] + offsets).ravel()
            return 0.5 * math.fsum(binomial_profile(a, alpha * x) ** l)

        return _bilateral_doubling(block_sum, eps)

    coarse = on_lattice(np.array([1 / 6, 2 / 3]))
    mid = on_lattice(np.array([5 / 12, 11 / 12]))
    value = 0.5 * (coarse.value + mid.value)
    err = abs(value - coarse.value)
    if err > 100.0 * eps * max(1.0, abs(value)):
        raise QuadratureFailure(
            f"lattice refinement changed value by {err:.2e}"
        )
    tail = max(coarse.tail_estimate, mid.tail_estimate)
    return Side(value, "trapezoid",
                nodes_used=2 * (coarse.terms_used + mid.terms_used),
                half_width_used=max(coarse.half_width_used,
                                    mid.half_width_used),
                refinements_used=1, tail_estimate=tail,
                error_estimate=max(err, tail))
