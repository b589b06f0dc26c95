"""Classical (q-free) special functions and sum-equals-integral checks.

Real-order binomial coefficients (numpy only) are band limited, so their
bilateral sums match the corresponding integrals; this module evaluates both
sides of those classical identities, which also serve as q -> 1 targets for
the q modules.  Both sides run on one engine, _bilateral_doubling: the sum
over the integers, and the integral as a trapezoid sum on lattices off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndeterminateRatio,
    InvalidParams,
    NoConvergence,
    PoleAtNonpositiveInteger,
    QuadratureFailure,
    SlowConvergence,
)
from .qcore import SERIES_MAX_TERMS, Side, _check_eps
from .util import fsum_complex

_INT_TOL = 1e-9  # distance below which a value counts as an exact integer
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6,
            1.5056327351493116e-7)
# Stirling's series of ln Gamma(y), B_2k / (2k (2k - 1)) for k = 6, ..., 1:
# at y >= 12 the first omitted term is below 1e-16.
_STIRLING = (-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_BLOCK = 8192  # binomial arguments per pass, so temporaries stay in cache


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
    """Classical Gamma function by math.gamma; a pole and a value that
    overflows (NoConvergence) raise typed errors."""
    if _near_nonpositive_integer(x):
        raise PoleAtNonpositiveInteger(f"Gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise NoConvergence(f"Gamma({x}) overflows") from None


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
    """Vectorized binomial_real; a denominator pole gives exactly 0.

    binom = Gamma(a+1)/pi sin(pi y) Gamma(y)/Gamma(v+1), v = max(u, a - u),
    y = v - a.  For y >= 12 the gamma ratio is Stirling's series in logs, with
    no cancelling O(v log v) terms; below, Lanczos.  sin(pi y) is reduced
    exactly, with the rounding error of u - a added back.
    """
    c = a + 1.0
    if c <= 0.0 and c == math.floor(c):
        raise PoleAtNonpositiveInteger(f"Gamma(a+1) pole at a={a}")
    scale = math.lgamma(c) + c  # + c: the x - y of Stirling's formulas
    gain = (-1.0 if c < 0.0 and math.floor(c) % 2 else 1.0) / math.pi
    u = np.asarray(u, dtype=float)
    flat, out = u.ravel(), np.empty(u.size)
    with np.errstate(all="ignore"):
        for i in range(0, u.size, _BLOCK):
            ub, block = flat[i:i + _BLOCK], out[i:i + _BLOCK]
            d = ub - a
            y = np.maximum(d, -ub)
            x = y + c
            r = 1.0 / np.stack([y, x])
            st = np.polyval(_STIRLING, r * r) * r  # Stirling's remainders
            block[:] = gain * _sinpi(y, ((ub - d) - a) * (y == d)) * np.exp(
                scale - c * np.log(x) + (y - 0.5) * np.log1p(-c / x)
                + (st[0] - st[1]))
            near = np.flatnonzero(y < 12.0 + max(0.0, -c))  # far: y, x >= 12
            if near.size:  # Gamma(a+1) / (Gamma(v+1) Gamma(1-y)), Lanczos
                lg, sg = _lgamma(np.concatenate(
                    [[c], y[near] + c, 1.0 - y[near]]))
                k = near.size + 1
                block[near] = sg[0] * sg[1:k] * sg[k:] * np.exp(
                    lg[0] - lg[1:k] - lg[k:])
    return out.reshape(u.shape)


def _sinpi(y: np.ndarray, e: np.ndarray | float) -> np.ndarray:
    """sin(pi (y + e)) for |e| << 1, exactly 0 at an integer y with e = 0."""
    r = y - 2.0 * np.rint(0.5 * y) + e  # exact up to e, in [-1, 1]
    m = np.abs(r)  # sin(pi r) = sign(r) sin(pi min(|r|, 1 - |r|))
    return np.sign(r) * np.sin(np.pi * np.minimum(m, 1.0 - m))


def _lgamma(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|Gamma(z)|, sign: Lanczos (g = 7, 9 terms), reflected below 0."""
    reflect = z < 0.0
    w = np.where(reflect, -z, z - 1.0)  # Gamma(w + 1) = Gamma(z), Gamma(1-z)
    series = _LANCZOS[0] + (np.array(_LANCZOS[1:])
                            / (w[:, None] + np.arange(1.0, 9.0))).sum(axis=1)
    t = w + 7.5
    lg = (w + 0.5) * np.log(t) - t + np.log(math.sqrt(2.0 * math.pi) * series)
    sz = _sinpi(z, 0.0)
    return (np.where(reflect, np.log(math.pi / np.abs(sz)) - lg, lg),
            np.where(reflect, np.sign(sz), 1.0))


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
