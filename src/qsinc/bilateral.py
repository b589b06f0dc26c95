"""Bilateral series as windows of the integer lattice.

Every sum here runs over all integers n with super-exponential term decay
q^{(1-alpha) n^2 / 2} (or faster).  A term is a vectorized function of an
integer array: identities with an integral twin use the twin's integrand from
quadrature, the series-only ones (main, Bailey, Appell-Lerch) define theirs
here.  _sum_pairs evaluates a window n in [-N, N] at once, finds the stop
index from the decay radius and an empirical three-small-pairs rule, and sums
the terms up to it exactly (fsum).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .errors import InvalidParams, KernelPole, NoConvergence
from .qcore import (
    SERIES_MAX_TERMS,
    BaileyParams,
    MultibasicParams,
    QParams,
    SeriesParams,
    Side,
    _check_eps,
    _vanishing_factor,
    qpoch_finite,
    qpoch_inf,
    qpoch_inf_large,
)
from .quadrature import (
    _check_denominator,
    _decay_radius,
    _fourier_integrand,
    _gaussian_decay,
    _multibasic_decay,
    _multibasic_integrand,
    _qpoch_pair,
    _symmetric_decay,
    _symmetric_integrand,
    _weighted_decay,
    _weighted_integrand,
)
from .util import fsum_complex


def _sum_pairs(term: Callable[[np.ndarray], np.ndarray],
               decay: tuple[float, float], eps: float,
               n_min: int = 0) -> Side:
    """Sum term(n) over n in Z as a window [-N, N] of the integer lattice.

    term maps an integer array to its terms.  The sum stops at the first
    n >= max(n_min, 4, decay radius for eps) where three consecutive pairs
    (n, -n) each have |t(n)| + |t(-n)| <= eps max(1, |partial sum through
    n|).  The window doubles until it holds that stop.  A non-finite term
    before it, or a stop beyond SERIES_MAX_TERMS, raises NoConvergence.
    """
    _check_eps(eps)
    n_min = max(n_min, math.ceil(_decay_radius(decay, eps)), 4)
    n_max = (SERIES_MAX_TERMS - 1) // 2
    half = n_min + 4
    while True:
        big = min(half, n_max)
        # Non-finite values are caught below, not warned about.
        with np.errstate(all="ignore"):
            t = np.asarray(term(np.arange(-big, big + 1)), dtype=complex)
            plus, minus = t[big + 1:], t[big - 1::-1]  # t(n), t(-n), n >= 1
            mag = np.abs(plus) + np.abs(minus)
            partial = np.abs(t[big] + np.cumsum(plus + minus))
            small = mag <= eps * np.maximum(1.0, partial)
        small[:n_min - 1] = False
        stops = np.flatnonzero(small[:-2] & small[1:-1] & small[2:]) + 3
        bad = (np.flatnonzero(~np.isfinite(mag)) + 1).tolist()
        if not np.isfinite(t[big]):
            bad.insert(0, 0)
        if stops.size and (not bad or stops[0] < bad[0]):
            n = int(stops[0])
            return Side(fsum_complex(t[big - n:big + n + 1]), "series",
                        terms_used=2 * n + 1, half_width_used=n,
                        tail_estimate=float(mag[n - 3:n].min()))
        if bad:
            raise NoConvergence(f"term overflow at |n|={bad[0]}")
        if big == n_max:
            raise NoConvergence(f"bilateral sum did not converge within "
                                f"{SERIES_MAX_TERMS} terms")
        half *= 2


def _masked_terms(w: np.ndarray, n: np.ndarray,
                  factor: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """w * factor(n), with factor evaluated only where w != 0: a weight that
    underflows zeroes its term even where the factor overflows."""
    out = np.zeros(n.shape, dtype=complex)
    live = w != 0
    out[live] = w[live] * factor(n[live])
    return out


def _product_terms(qp: QParams, pairs, z: complex, k: int):
    """n -> z^n q^(k n(n-1)/2) prod_j (b_j q^n, a_j q^-n; p)_inf for
    pairs = ((a_1, b_1), ...)."""
    q, p, z = complex(qp.q), complex(qp.p), complex(z)

    def factor(n: np.ndarray) -> np.ndarray:
        qn = np.power(q, n)
        v = 1.0
        for a, b in pairs:
            v = v * _qpoch_pair(b * qn, a / qn, p)
        return v

    return lambda n: _masked_terms(
        np.power(z, n) * np.power(q, k * (n * (n - 1) // 2)), n, factor)


def _bailey_decay(q: complex, alpha: float, pairs,
                  z: complex) -> tuple[float, float]:
    """Decay of two-pair product terms under a q^(n(n-1)) weight."""
    decays = [_gaussian_decay(q, alpha, a, b, z) for a, b in pairs]
    return 2.0 * decays[0][0], max(r for _, r in decays)


def main_series(params: SeriesParams, eps: float) -> Side:
    """Bilateral sum of (b q^n, a q^-n; p)_inf z^n q^(n(n-1)/2)."""
    term = _product_terms(params.qp, ((params.a, params.b),), params.z, 1)
    return _sum_pairs(term, _symmetric_decay(params), eps)


def symmetric_series(params: SeriesParams, eps: float) -> Side:
    """Bilateral sum of (b q^n, a q^-n; p)_inf / (-z q^n, -q^(1-n)/z; q)_inf."""
    _check_denominator(params.z, params.qp.q)
    return _sum_pairs(_symmetric_integrand(params), _symmetric_decay(params),
                      eps)


def weighted_series(params: SeriesParams, m: int, eps: float) -> Side:
    """Symmetric-form bilateral sum at z = 1 with weight q^(mn)."""
    if params.z != 1:
        raise InvalidParams("weighted_series is defined at z = 1")
    return _sum_pairs(_weighted_integrand(params, m),
                      _weighted_decay(params, m), eps)


def fourier_series_side(params: SeriesParams, y: float, eps: float) -> Side:
    """Full sinh-kernel side of the Fourier-transform identity at z = 1.

    (2 pi i / ln q) / sinh(pi y / ln q)
      * (-q, -q, e^{iy}, q e^{-iy}; q)_inf / (q, q, -e^{iy}, -q e^{-iy}; q)_inf
      * sum_n (b q^n, a q^-n; p)_inf / (-q^n, -q^(1-n); q)_inf e^{iny}.
    """
    if params.z != 1:
        raise InvalidParams("fourier_series_side is defined at z = 1")
    q = params.qp.q
    lq = cmath.log(q)
    kernel = cmath.sinh(cmath.pi * y / lq)
    if y == 0 or abs(kernel) < 1e-300:
        raise KernelPole("sinh kernel pole at y = 0")
    eiy = cmath.exp(1j * y)
    pref = (2.0 * cmath.pi * 1j / lq) / kernel
    pref *= (qpoch_inf(-q, q) ** 2 * qpoch_inf_large(eiy, q)
             * qpoch_inf_large(complex(q) / eiy, q))
    pref /= (qpoch_inf(q, q) ** 2 * qpoch_inf_large(-eiy, q)
             * qpoch_inf_large(-complex(q) / eiy, q))
    return _sum_pairs(_fourier_integrand(params, y), _symmetric_decay(params),
                      eps).scaled(pref)


def bailey_series(params: BaileyParams, side: str, eps: float) -> Side:
    """Either side of the four-product transformation with q^(n(n-1)) weights.

    side is "left" or "right"; the right side carries the z prefactor.
    """
    qp, z = params.qp, params.z
    a1, a2, b1, b2 = params.a1, params.a2, params.b1, params.b2
    decay = _bailey_decay(qp.q, qp.alpha, ((a1, b1), (a2, b2)), z)
    if side == "left":
        term = _product_terms(qp, ((a1, b1), (a2, b2)), z, 2)
        return _sum_pairs(term, decay, eps)
    if side != "right":
        raise InvalidParams(f"side must be 'left' or 'right', got {side!r}")
    term = _product_terms(qp, ((a1 * z, b1 / z), (a2 * z, b2 / z)), 1.0 / z, 2)
    return _sum_pairs(term, decay, eps).scaled(z)


def appell_lerch_rhs(a: complex, q: complex, eps: float) -> Side:
    """2 (qa, q/a; q^2)_inf  sum_n (-1/a)^n q^(n^2+n) / (1 - a q^(2n+1)).

    Lattice points a = q^-(2n+1) are removable: the matching zero of the
    product prefactor cancels the pole term, and that cancellation is carried
    out analytically so exact lattice parameters evaluate cleanly.
    """
    if a == 0:
        raise InvalidParams("a must be nonzero")
    aq = abs(q)
    if not 0.0 < aq < 1.0:
        raise InvalidParams(f"need 0 < |q| < 1, got {aq}")
    a = complex(a)
    q = complex(q)
    q2 = q * q
    # A theta-type sum in base q^2: terms ~ (1/|a|)^n q^(n^2+n).
    decay = _gaussian_decay(q2, 0.0, z=a)

    # A (near-)pole of 1 - a q^(2n+1) = 1 - (a q) (q^2)^n on the lattice.
    n_star = _vanishing_factor(a * q, q2)

    def bare(n):
        return np.power(-1.0 / a, n) * np.power(q, n * n + n)

    def term(n: np.ndarray) -> np.ndarray:
        t = bare(n) / (1.0 - a * np.power(q, 2 * n + 1))
        return t if n_star is None else np.where(n == n_star, 0.0, t)

    if n_star is None:
        pref = 2.0 * qpoch_inf_large(q * a, q2) * qpoch_inf_large(q / a, q2)
        return _sum_pairs(term, decay, eps).scaled(pref)

    # Pair the vanishing prefactor-factor with pole term c: pref (w S + d c).
    u = 1.0 - a * q ** (2 * n_star + 1)
    c = complex(bare(n_star))
    ev = _sum_pairs(term, decay, eps, abs(n_star) + 2)
    if n_star >= 0:
        # u is literally factor n_star of (qa; q^2)_inf; leave it out.
        pref = 2.0 * qpoch_inf_large(q / a, q2) \
            * qpoch_finite(q * a, q2, n_star) \
            * qpoch_inf_large(q * a * q2 ** (n_star + 1), q2)
        w, d = u, 1.0
    else:
        # Factor -(n_star+1) of (q/a; q^2)_inf equals -u/(1-u); leave it out.
        k_star = -(n_star + 1)
        pref = 2.0 * qpoch_inf_large(q * a, q2) \
            * qpoch_finite(q / a, q2, k_star) \
            * qpoch_inf_large(q / a * q2 ** (k_star + 1), q2)
        w, d = -u / (1.0 - u), -1.0 / (1.0 - u)
    return ev.scaled(pref * w) + Side(pref * d * c, "product")


def multibasic_series(params: MultibasicParams, eps: float) -> Side:
    """Bilateral sum of the multibasic q-binomial terms."""
    _check_denominator(params.z, params.q)
    return _sum_pairs(_multibasic_integrand(params), _multibasic_decay(params),
                      eps)
