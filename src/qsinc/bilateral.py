"""Bilateral series as windows of the integer lattice.

Every sum here runs over all integers n with super-exponential term decay
q^{(1-alpha) n^2 / 2} (or faster).  A term model is a vectorized function of
an integer array together with its decay (g, r), both from quadrature's one
term and one decay routine: the product series (main, Bailey, the triple
product) build theirs with _product_model, at const = 1.  _sum_pairs is the
lattice rule at h = 1: it samples the window n in [-N, N] that the decay
model sets, once, certifies it by its two end terms and sums it exactly
(fsum), with the window routine of the integrals.
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
    _decay,
    _integrand,
    _multibasic_model,
    _symmetric_model,
    _window,
)


def _sum_pairs(term: Callable[[np.ndarray], np.ndarray],
               decay: tuple[float, float], eps: float,
               n_min: int = 0) -> Side:
    """Sum term(n) over n in Z: the lattice rule at h = 1 and offset 0.

    term maps an integer array to its terms.  _window samples the window
    n in [-N, N], N = max(ceil(Z), n_min), once; the sum is exact (fsum)
    and the larger end term is the tail estimate.  A window past
    SERIES_MAX_TERMS, before any term is evaluated, and the failures of
    _window raise NoConvergence.
    """
    _check_eps(eps)

    def window(z: float) -> np.ndarray:
        if not max(z, n_min) <= (SERIES_MAX_TERMS - 1) // 2:
            raise NoConvergence(f"half-width {z:.6g} exceeds the window "
                                f"of {SERIES_MAX_TERMS} terms")
        n = max(math.ceil(z), n_min)
        return np.arange(-n, n + 1)

    _, t, total, edge = _window(term, decay, eps, window, 1.0, NoConvergence)
    return Side(total, "series", terms_used=t.size,
                half_width_used=t.size // 2, tail_estimate=edge)


def _product_model(factors, q: complex, z: complex):
    """(term, decay) of the product series: _integrand at const = 1, where
    theta(n) = z^n q^(n(n-1)/2) weighs the products of the factors."""
    return _integrand(factors, q, z), _decay(factors, q, z)


def main_series(params: SeriesParams, eps: float) -> Side:
    """Bilateral sum of (b q^n, a q^-n; p)_inf z^n q^(n(n-1)/2)."""
    factors = ((params.qp.p, params.a, params.b, cmath.log(params.qp.q)),)
    return _sum_pairs(*_product_model(factors, params.qp.q, params.z), eps)


def symmetric_series(params: SeriesParams, eps: float) -> Side:
    """Bilateral sum of (b q^n, a q^-n; p)_inf / (-z q^n, -q^(1-n)/z; q)_inf."""
    _check_denominator(params.z, params.qp.q)
    return _sum_pairs(*_symmetric_model(params), eps)


def weighted_series(params: SeriesParams, m: int, eps: float) -> Side:
    """Symmetric-form bilateral sum at z = 1 with weight q^(mn)."""
    if params.z != 1:
        raise InvalidParams("weighted_series is defined at z = 1")
    mu = m * cmath.log(complex(params.qp.q))
    return _sum_pairs(*_symmetric_model(params, mu), eps)


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
    w = cmath.pi * y / lq
    if y == 0 or abs(w) < 1e-300:
        raise KernelPole("sinh kernel pole at y = 0")
    # Past |Re w| = 700, where sinh(w) overflows, 1/sinh(w) is
    # 2 s e^(-s w) to double precision, s the sign of Re w.
    s = math.copysign(1.0, w.real)
    inv_sinh = (1.0 / cmath.sinh(w) if abs(w.real) < 700.0
                else 2.0 * s * cmath.exp(-s * w))
    eiy = cmath.exp(1j * y)
    if _vanishing_factor(-eiy, q) is not None:  # 1 + e^(iy) = 0
        raise KernelPole(f"(-e^(iy); q)_inf vanishes at y = {y}")
    pref = (2.0 * cmath.pi * 1j / lq) * inv_sinh
    pref *= (qpoch_inf(-q, q) ** 2 * qpoch_inf_large(eiy, q)
             * qpoch_inf_large(complex(q) / eiy, q))
    pref /= (qpoch_inf(q, q) ** 2 * qpoch_inf_large(-eiy, q)
             * qpoch_inf_large(-complex(q) / eiy, q))
    return _sum_pairs(*_symmetric_model(params, 1j * y), eps).scaled(pref)


def bailey_series(params: BaileyParams, side: str, eps: float) -> Side:
    """Either side of the four-product transformation with q^(n(n-1)) weights.

    side is "left" or "right"; the right side carries the z prefactor.
    """
    p, q, z = params.qp.p, params.qp.q, params.z
    a1, a2, b1, b2 = params.a1, params.a2, params.b1, params.b2
    if side not in ("left", "right"):
        raise InvalidParams(f"side must be 'left' or 'right', got {side!r}")
    # The right side is the left one at (a z, b / z, 1 / z), times z; theta
    # in base q^2 is the weight q^(n(n-1)), while the factors run in q^n.
    s, lnq = (1.0 if side == "left" else z), cmath.log(q)
    factors = ((p, a1 * s, b1 / s, lnq), (p, a2 * s, b2 / s, lnq))
    return _sum_pairs(*_product_model(factors, q * q, z / s / s),
                      eps).scaled(s)


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
    # The theta sum in base q^2 at z = -q^2/a: terms (-1/a)^n q^(n^2+n).
    if not cmath.isfinite(q2 / a):
        raise NoConvergence(f"theta-sum argument -q^2/a overflows at a={a}")
    bare, decay = _product_model((), q2, -q2 / a)
    # A (near-)pole of 1 - a q^(2n+1) = 1 - (a q) (q^2)^n on the lattice.
    n_star = _vanishing_factor(a * q, q2)

    def term(n: np.ndarray) -> np.ndarray:
        t = bare(n) / (1.0 - a * np.power(q, 2 * n + 1))
        return t if n_star is None else np.where(n == n_star, 0.0, t)

    if n_star is None:
        with np.errstate(all="ignore"):  # typed below when not finite
            pref = (2.0 * qpoch_inf_large(q * a, q2)
                    * qpoch_inf_large(q / a, q2))
        if not cmath.isfinite(pref):
            raise NoConvergence(f"2 (qa, q/a; q^2)_inf is {pref:.3g} at a={a}")
        return _sum_pairs(term, decay, eps).scaled(pref)

    # Pair the vanishing prefactor-factor with pole term c: pref (w S + d c).
    u = 1.0 - a * q ** (2 * n_star + 1)
    c = complex(bare(np.array([n_star]))[0])
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
    return _sum_pairs(*_multibasic_model(params), eps)
