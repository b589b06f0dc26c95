"""Classical (q-free) special functions and sum-equals-integral checks.

Real-order binomial coefficients are band limited, so their bilateral sums
match the corresponding integrals; this module evaluates both sides of those
classical identities, which also serve as q -> 1 targets for the q modules.
"""

from __future__ import annotations

import functools
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
from .qcore import Side, TruncationPolicy
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


def _bilateral_doubling(block_sum, policy: TruncationPolicy) -> Side:
    """Sum f over Z by doubling symmetric windows until the rings stabilize.

    block_sum(n) must return the sum of f over the integer array n; it is
    called on [-N, N], N = min(256, max_terms), and then on the rings
    N < |n| <= 2N.  The tail
    estimate is the size of the last ring.
    """
    n_hi = min(256, policy.max_terms)
    total = block_sum(np.arange(-n_hi, n_hi + 1))
    terms = 2 * n_hi + 1
    small_rings = 0
    tail = math.inf
    while True:
        if small_rings >= 2:
            return Side(total, "doubling", terms_used=terms,
                        half_width_used=n_hi, tail_estimate=tail)
        if 2 * n_hi > policy.max_terms:
            raise SlowConvergence(
                f"no convergence within {policy.max_terms} terms"
            )
        far = np.arange(n_hi + 1, 2 * n_hi + 1)
        ring = block_sum(np.concatenate([-far[::-1], far]))
        total += ring
        terms += 2 * n_hi
        n_hi *= 2
        tail = abs(ring)
        if tail <= policy.eps * max(1.0, abs(total)):
            small_rings += 1
        else:
            small_rings = 0


def osler_sum(params: OslerParams, policy: TruncationPolicy) -> Side:
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

    return _bilateral_doubling(block_sum, policy)


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 8-point Gauss-Legendre rule on [-1, 1],
    computed on first use: numpy.polynomial is slow to import."""
    return np.polynomial.legendre.leggauss(8)


def _gl_panels(f, lo: float, hi: float, nodes_per_unit: float) -> Side:
    """Composite 8-point Gauss-Legendre quadrature with vectorized f."""
    gl_x, gl_w = _gl_rule()
    npan = max(1, int(math.ceil((hi - lo) * nodes_per_unit / 8.0)))
    edges = np.linspace(lo, hi, npan + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    xs = (mids[:, None] + half * gl_x[None, :]).ravel()
    ws = np.tile(half * gl_w, npan)
    return Side(math.fsum(f(xs) * ws), "gauss-legendre", nodes_used=xs.size)


def classical_sum(a: float, alpha: float, l: int,
                  policy: TruncationPolicy) -> Side:
    """Sum over Z of binom(a, alpha n)^l."""

    return _bilateral_doubling(
        lambda n: math.fsum(binomial_profile(a, alpha * n) ** l), policy)


def classical_integral(a: float, alpha: float, l: int,
                       policy: TruncationPolicy) -> Side:
    """Integral over R of binom(a, alpha x)^l.

    The domain is grown in doubling rings until the measured algebraic tail
    contribution stabilizes; node density is then doubled once to confirm
    the panel rule has converged.  The error estimate is the larger of the
    last ring and the change under that refinement.
    """
    f = lambda x: binomial_profile(a, alpha * x) ** l
    density = 16.0 * max(1.0, alpha)
    x0 = 64.0
    total = _gl_panels(f, -x0, x0, density)
    small_rings = 0
    tail = math.inf
    while small_rings < 2:
        if x0 > 1e7:
            raise QuadratureFailure("integral tail failed to stabilize")
        ring = (_gl_panels(f, x0, 2.0 * x0, density)
                + _gl_panels(f, -2.0 * x0, -x0, density))
        total += ring
        x0 *= 2.0
        tail = abs(ring.value)
        if tail <= policy.eps * max(1.0, abs(total.value)):
            small_rings += 1
        else:
            small_rings = 0
    refined = _gl_panels(f, -x0, x0, 2.0 * density)
    err = abs(refined.value - total.value)
    if err > 100.0 * policy.eps * max(1.0, abs(refined.value)):
        raise QuadratureFailure(
            f"node-density refinement changed value by {err:.2e}"
        )
    return Side(refined.value, "gauss-legendre",
                nodes_used=total.nodes_used + refined.nodes_used,
                half_width_used=x0, refinements_used=1, tail_estimate=tail,
                error_estimate=max(err, tail))
