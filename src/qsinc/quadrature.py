"""Vectorized integrands and trapezoid quadrature on the real line.

All dt/t integrals over (0, inf) are computed in log-substituted coordinates
t = q^zeta, where the integrands become smooth with decay r^|zeta|
e^(-g zeta^2).  The sum-equals-integral theorem says that the sum over Z is
the trapezoid rule at h = 1 applied to the integrand of the integral over R,
so each identity defines its integrand once, here.  The series side
(bilateral) evaluates it on the integer nodes; the integral side evaluates it
on the lattice h (k + 1/3), whose midpoint refinements alternate the offset
between 1/3 and 2/3 and so never reach an integer: the two sides share code
but no samples.  For such integrands the refined trapezoid rule on a
truncated window converges spectrally, so the rule starts coarse, at 2 nodes
per unit, and the error estimate is the difference of the last two
refinement levels.  Every node is sampled once: the first level's two
outermost samples certify that the truncation is negligible.  Each level is
sampled in chunks of _CHUNK nodes, so the node-by-factor matrices of the
products stay small, and one integral may use at most MAX_NODES nodes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import replace

import numpy as np

from .errors import (
    DenominatorZero,
    DomainError,
    InvalidDecay,
    InvalidParams,
    QuadratureFailure,
)
from .qcore import (
    POLE_TOL,
    MultibasicParams,
    SeriesParams,
    Side,
    _check_eps,
    _cpow,
    _vanishing_factor,
    qpoch_inf,
    qpoch_inf_large,
    qpoch_inf_vec,
)
from .util import fsum_complex

# Safety factor on the computed truncation radius; absorbs the O(1)
# constants the asymptotic decay estimates leave implicit.
_RADIUS_SAFETY = 1.25

# Nodes per integrand call: bounds the node-by-factor matrix of each
# vectorized product, however large the level.
_CHUNK = 512

# Node budget of one integral: a level that would exceed it raises
# QuadratureFailure instead of being sampled.
MAX_NODES = 2 ** 18


def _gaussian_decay(q: complex, alpha: float, a: complex = 0.0,
                    b: complex = 0.0, z: complex = 1.0) -> tuple[float, float]:
    """Decay (g, r) of (b q^x, a q^-x; p)_inf / (-z q^x, -q^(1-x)/z; q)_inf.

    The numerator grows like |q|^(-alpha x^2 / 2) (alpha = ln|q| / ln|p|)
    against the denominator's |q|^(-x^2 / 2); r bounds the linear-in-x growth
    ratios of the tails, with floor 1/|q|.
    """
    aq = abs(q)
    g = 0.5 * (1.0 - alpha) * math.log(1.0 / aq)
    az = abs(z)
    r_plus = az * (abs(a) ** alpha if a != 0 else 1.0) / aq
    r_minus = (abs(b) ** alpha if b != 0 else 1.0) / az
    return g, max(r_plus, r_minus, 1.0 / aq)


def _decay_radius(decay: tuple[float, float], eps: float) -> float:
    """X beyond which r^|x| exp(-g x^2) stays below eps."""
    g, r = decay
    lr = math.log(max(r, 1.0))
    le = math.log(1.0 / eps)
    return (lr + math.sqrt(lr * lr + 4.0 * g * le)) / (2.0 * g)


def integrate_gaussian_decay(integrand, decay: tuple[float, float],
                             eps: float, nodes_per_unit: int = 2) -> Side:
    """Integrate f over R given the decay model |f| = O(r^|x| e^(-g x^2)).

    integrand must accept a numpy array of real nodes and return complex
    values; it is called on at most _CHUNK nodes at a time.  decay = (g, r)
    with g > 0 in natural-log units.  The first level has nodes_per_unit
    nodes per unit (at least 2); each refinement halves the spacing until
    two levels agree to eps.  No node is an integer, so the integral never
    samples the series' lattice.  Every sample enters the value, so the
    first non-finite one raises QuadratureFailure.  So does a first level
    whose outermost samples exceed eps/10 (the window does not contain the
    integrand: the decay model is too fast), and a level that would take
    the integral past MAX_NODES.
    """
    _check_eps(eps)
    if nodes_per_unit < 2:
        raise InvalidParams("nodes_per_unit must be >= 2")
    g, r = decay
    if g <= 0.0:
        raise InvalidDecay(f"Gaussian rate must be positive, got {g}")

    def sample(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.size, dtype=complex)
        for lo in range(0, x.size, _CHUNK):
            with np.errstate(all="ignore"):
                v = np.asarray(integrand(x[lo:lo + _CHUNK]), dtype=complex)
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise QuadratureFailure(
                    f"non-finite integrand sample at x={x[lo + bad[0]]:.17g}")
            out[lo:lo + _CHUNK] = v
        return out

    z = _RADIUS_SAFETY * _decay_radius(decay, eps / 10.0)
    # Nodes h (k + off/3), k in [-npts, npts]; midpoints turn offset 1 into 2
    # and 2 into 1 at half the spacing.
    h = 1.0 / nodes_per_unit
    off = 1
    npts = math.ceil(z / h)
    xs = h * (np.arange(-npts, npts + 1) + off / 3)
    total, nodes = 0j, 0
    value = prev = None
    for level in itertools.count():
        if nodes + xs.size > MAX_NODES:
            last = ("no estimate yet" if prev is None else
                    f"last estimate {value:.17g} changed by "
                    f"{abs(value - prev):.2e}")
            raise QuadratureFailure(
                f"level {level} needs {nodes + xs.size} nodes, above "
                f"max_nodes={MAX_NODES}; {last}")
        v = sample(xs)
        edge = max(abs(v[0]), abs(v[-1]))
        if level == 0 and edge > eps / 10.0:  # truncation certificate
            raise QuadratureFailure(
                f"window edge sample |f|={edge:.2e} > eps/10 on the window "
                f"|x| <= {z:.6g}; the decay model is too fast")
        total += fsum_complex(v)
        nodes += xs.size
        prev, value = value, h * total
        if prev is not None:
            err = abs(value - prev)
            if err <= eps * max(1.0, abs(value)):
                return Side(value, "trapezoid", nodes_used=nodes,
                            half_width_used=z, refinements_used=level - 1,
                            error_estimate=err)
        xs = h * (np.arange(-npts, npts) + off / 3 + 0.5)
        h /= 2.0
        npts *= 2
        off = 2 * off % 3


def _qpoch_pair(u: np.ndarray, v: np.ndarray, base: complex) -> np.ndarray:
    """(u, v; base)_inf elementwise."""
    return qpoch_inf_vec(u, base) * qpoch_inf_vec(v, base)


def _check_denominator(z: complex, q: complex) -> None:
    """Reject z on the negative real axis (InvalidParams), and z at which
    (-z q^x, -q^(1-x)/z; q)_inf vanishes on the integers (DenominatorZero).

    A vanishing factor 1 + z q^m (m in Z) makes the denominator vanish at
    every integer x, on the series' lattice and on the integral's line.  The
    factors 1 + q^m / z are covered too: one vanishes exactly when
    1 + z q^-m does.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real < 0.0:
        raise InvalidParams(f"z={z} lies on the negative real axis")
    m = _vanishing_factor(-z, q)
    if m is not None:
        raise DenominatorZero(
            f"denominator factor 1 + z q^{m} vanishes (z={z})")


def _check_line_pole(z: complex, q: complex) -> None:
    """Reject z at which (-z q^x, -q^(1-x)/z; q)_inf vanishes anywhere on
    the real line (DenominatorZero): a pole on the integral's path.

    Its factors are 1 + z q^(x+k), k in Z, and |z q^(x+k)| = 1 only at
    x + k = s = -ln|z| / ln|q|.  So a real zero can only sit at x = s
    (mod 1), and one does exactly when u = z exp(s Log q) has 1 + u = 0.
    """
    z, q = complex(z), complex(q)
    s = -math.log(abs(z)) / math.log(abs(q))
    u = z * cmath.exp(s * cmath.log(q))
    if abs(1.0 + u) < POLE_TOL * (1.0 + abs(u)):
        raise DenominatorZero(
            f"denominator vanishes at x = {s:.17g} (mod 1) (z={z})")


def _theta_denominator(z: complex, q: complex):
    """x -> (-z q^x, -q^(1-x)/z; q)_inf."""
    lnq = cmath.log(q)

    def den(x: np.ndarray) -> np.ndarray:
        zqx = z * np.exp(x * lnq)
        return _qpoch_pair(-zqx, -q / zqx, q)

    return den


def _symmetric_integrand(params: SeriesParams):
    """x -> (b q^x, a q^-x; p)_inf / (-z q^x, -q^(1-x)/z; q)_inf."""
    qp = params.qp
    qc, pc = complex(qp.q), complex(qp.p)
    a, b = complex(params.a), complex(params.b)
    lnq = cmath.log(qc)
    den = _theta_denominator(complex(params.z), qc)

    def f(x: np.ndarray) -> np.ndarray:
        qx = np.exp(x * lnq)
        return _qpoch_pair(b * qx, a / qx, pc) / den(x)

    return f


def _symmetric_decay(params: SeriesParams) -> tuple[float, float]:
    qp = params.qp
    return _gaussian_decay(qp.q, qp.alpha, params.a, params.b, params.z)


def _weighted_integrand(params: SeriesParams, m: int):
    """x -> symmetric integrand times q^(mx)."""
    base = _symmetric_integrand(params)
    lnq = cmath.log(complex(params.qp.q))
    return lambda x: base(x) * np.exp(m * x * lnq)


def _weighted_decay(params: SeriesParams, m: int) -> tuple[float, float]:
    g, r = _symmetric_decay(params)
    return g, r / abs(params.qp.q) ** abs(m)


def _fourier_integrand(params: SeriesParams, y: float):
    """x -> symmetric integrand times e^(ixy)."""
    base = _symmetric_integrand(params)
    return lambda x: base(x) * np.exp(1j * y * x)


def _binomial_normalizer(a: float, p: complex) -> complex:
    """(p, p^(a+1); p)_inf, the denominator of [a; u]_p as a product ratio."""
    return qpoch_inf(p, p) * qpoch_inf(_cpow(p, a + 1.0), p)


def _binomial_factor(a: float, b_off: float, alpha: float, p: complex):
    """x -> [a; b_off + alpha x]_p as a ratio of infinite products."""
    pc = complex(p)
    lnp = cmath.log(pc)
    const = _binomial_normalizer(a, pc)
    e1, e2 = _cpow(pc, b_off + 1.0), _cpow(pc, a - b_off + 1.0)

    def factor(x: np.ndarray) -> np.ndarray:
        px = np.exp(alpha * x * lnp)
        return _qpoch_pair(e1 * px, e2 / px, pc) / const

    return factor


def _multibasic_integrand(params: MultibasicParams):
    """x -> prod_j [a_j; b_j + alpha_j x]_{p_j}
    / (-z q^x, -q^(1-x)/z; q)_inf."""
    factors = [_binomial_factor(a, b, alpha, p)
               for (p, a, b), alpha in zip(params.factors, params.alphas)]
    den = _theta_denominator(complex(params.z), complex(params.q))

    def f(x: np.ndarray) -> np.ndarray:
        v = factors[0](x)
        for factor in factors[1:]:
            v = v * factor(x)
        return v / den(x)

    return f


def _multibasic_decay(params: MultibasicParams) -> tuple[float, float]:
    return _gaussian_decay(params.q, params.alpha_sum, z=params.z)


def base_integral(q: complex, eps: float) -> Side:
    """int_0^inf dt / (t (-t, -q/t; q)_inf), evaluated as ln(1/q) times the
    zeta-integral of 1 / (-q^zeta, -q^(1-zeta); q)_inf; q real in (0, 1)."""
    qc = complex(q)
    if qc.imag != 0.0 or not 0.0 < qc.real < 1.0:
        raise InvalidParams(f"q must be real in (0, 1), got {q}")
    scale = -cmath.log(qc)  # ln(1/q)
    den = _theta_denominator(1.0, qc)
    return integrate_gaussian_decay(lambda x: scale / den(x),
                                    _gaussian_decay(qc, 0.0), eps)


def main_integral(params: SeriesParams, eps: float) -> Side:
    """Integral side of the main bilateral identity, prefactor included.

    (-z, -q/z; q)_inf int_R (b q^z/z, a z q^-z; p)_inf /
    (-q^z, -q^(1-z); q)_inf dzeta; requires Re z > 0 (regularity half plane).
    """
    z = complex(params.z)
    if z.real <= 0.0:
        raise DomainError(f"Re z must be positive, got z={z}")
    qp = params.qp
    qc = complex(qp.q)
    pref = qpoch_inf_large(-z, qc) * qpoch_inf_large(-qc / z, qc)
    f = _symmetric_integrand(replace(params, a=params.a * z,
                                     b=params.b / z, z=1.0))
    return integrate_gaussian_decay(f, _symmetric_decay(params),
                                    eps).scaled(pref)


def symmetric_integral(params: SeriesParams, eps: float) -> Side:
    """Integral side of the symmetric sum-equals-integral identity."""
    _check_denominator(params.z, params.qp.q)
    _check_line_pole(params.z, params.qp.q)
    return integrate_gaussian_decay(_symmetric_integrand(params),
                                    _symmetric_decay(params), eps)


def fourier_integral(params: SeriesParams, y: float, eps: float) -> Side:
    """Fourier transform int_R g(x) e^(ixy) dx of the z=1 symmetric integrand.

    The first level takes 2 nodes per period of e^(ixy), and at least 2 per
    unit.
    """
    if params.z != 1:
        raise InvalidParams("fourier_integral is defined at z = 1")
    density = int(math.ceil(2 * max(1.0, abs(y) / (2.0 * math.pi))))
    return integrate_gaussian_decay(_fourier_integrand(params, y),
                                    _symmetric_decay(params), eps, density)


def weighted_integral(params: SeriesParams, m: int, eps: float) -> Side:
    """int_R g(x) q^(mx) dx for the z=1 symmetric integrand, m integer."""
    if params.z != 1:
        raise InvalidParams("weighted_integral is defined at z = 1")
    return integrate_gaussian_decay(_weighted_integrand(params, m),
                                    _weighted_decay(params, m), eps)


def multibasic_integral(params: MultibasicParams, eps: float) -> Side:
    """Integral side of the multibasic q-binomial identity."""
    _check_denominator(params.z, params.q)
    _check_line_pole(params.z, params.q)
    return integrate_gaussian_decay(_multibasic_integrand(params),
                                    _multibasic_decay(params), eps)
