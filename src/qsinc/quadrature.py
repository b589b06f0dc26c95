"""Vectorized integrands and trapezoid quadrature on the real line.

All dt/t integrals over (0, inf) are computed in log-substituted coordinates
t = q^zeta, where the integrands become smooth with decay r^|zeta|
e^(-g zeta^2).  The sum-equals-integral theorem says that the sum over Z is
the trapezoid rule at h = 1 applied to the integrand of the integral over R.
So each identity family has one term model, built from one factor list by
the one term routine _integrand and the one decay routine _decay.  The
terms of a theta-form model carry 1/den(x), den(x) = (-z q^x, -q^(1-x)/z;
q)_inf, taken once per class of the nodes' fractional part x0 (x0 = 0 on
the integers) and extended by quasi-periodicity; a product series' carry
theta(n), with no den.  The series side (bilateral) samples the integers;
the integral side samples the lattice h (k + 1/3), whose midpoint
refinements alternate the offset between 1/3 and 2/3 and never reach an
integer: the two sides share code but no samples.  The refined trapezoid
rule converges spectrally on a truncated window, so it starts at 2 nodes
per unit, and its error estimate is the difference of the last two levels.
Both sides take their window from _window: the half-width Z from the decay
model, one sampling pass, and a truncation certificate on the two outermost
samples, relative to the window's value.  Every node is sampled once; the
integral's first two levels are one lattice, sampled in one pass.  Each
pass is one integrand call, and one integral may use at most MAX_NODES
nodes: a level past that budget fails before its nodes are built.
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
    NoConvergence,
    PoleAtNonpositiveInteger,
    QuadratureFailure,
)
from .qcore import (
    MultibasicParams,
    SeriesParams,
    Side,
    _check_eps,
    _cpow,
    _has_zero_factor,
    _vanishing_factor,
    qpoch_inf,
    qpoch_inf_large,  # unused here; perfbench/tracing.py binds it
    qpoch_inf_vec,
)
from .util import fsum_complex

# Safety factor on the computed truncation radius; absorbs the O(1)
# constants the asymptotic decay estimates leave implicit.
_RADIUS_SAFETY = 1.25

# Node budget of one integral: a level that would exceed it raises
# QuadratureFailure instead of being sampled.
MAX_NODES = 2 ** 18


def _decay_radius(decay: tuple[float, float], eps: float) -> float:
    """X beyond which r^|x| exp(-g x^2) stays below eps."""
    g, r = decay
    lr = math.log(max(r, 1.0))
    le = math.log(1.0 / eps)
    return (lr + math.sqrt(lr * lr + 4.0 * g * le)) / (2.0 * g)


def _sample(f, x: np.ndarray, fail=QuadratureFailure) -> np.ndarray:
    """f at the nodes x, as complex; a non-finite value raises fail, at the
    node nearest 0 (for the series, whose nodes are n, a term overflow)."""
    with np.errstate(all="ignore"):  # non-finite values are typed below
        v = np.asarray(f(x), dtype=complex)
    bad = x[~np.isfinite(v)]
    if bad.size:
        at = bad[np.argmin(np.abs(bad))]
        raise fail(f"term overflow at |n|={abs(at):.0f}"
                   if fail is NoConvergence else
                   f"non-finite integrand sample at x={at:.17g}")
    return v


def _window(f, decay: tuple[float, float], eps: float, nodes, step: float,
            fail=QuadratureFailure):
    """Sample f once on the window of a lattice rule, and certify it.

    The window is |x| <= Z, Z = _RADIUS_SAFETY x the decay radius at eps/10;
    nodes(Z) checks its budget and builds the lattice, of spacing step.
    fail is raised for a Z that is not finite, a non-finite sample, and
    outermost samples above eps/10 max(1, |step sum f|) (the decay model is
    too fast).  Returns Z, the samples, their exact sum and the larger
    outermost sample.
    """
    z = _RADIUS_SAFETY * _decay_radius(decay, eps / 10.0)
    if not math.isfinite(z / step):
        raise fail("decay model (g, r) = ({:.6g}, {:.6g}) gives no finite "
                   "window".format(*decay))
    v = _sample(f, nodes(z), fail)
    total = fsum_complex(v)
    edge = float(max(abs(v[0]), abs(v[-1])))
    bound = eps / 10.0 * max(1.0, abs(step * total))
    if edge > bound:
        raise fail(f"window edge sample |f|={edge:.2e} > {bound:.2e} on the "
                   f"window |x| <= {z:.6g}; the decay model is too fast")
    return z, v, total, edge


def integrate_gaussian_decay(integrand, decay: tuple[float, float],
                             eps: float, nodes_per_unit: int = 2) -> Side:
    """Integrate f over R given the decay model |f| = O(r^|x| e^(-g x^2)).

    integrand maps a numpy array of real nodes to complex values, once per
    pass.  decay = (g, r) with g > 0 in natural-log units.  The first level
    has nodes_per_unit nodes per unit (at least 2); each refinement halves
    the spacing until two levels agree to eps.  The first two levels are one
    lattice of twice that density on the window of _window; its even nodes
    are the first level.  No node is an integer, so the integral never
    samples the series' lattice.  Every failure is QuadratureFailure: those
    of _window, a non-finite refinement sample, and a level past MAX_NODES,
    before any of its nodes is built.
    """
    _check_eps(eps)
    if nodes_per_unit < 2:
        raise InvalidParams("nodes_per_unit must be >= 2")
    if decay[0] <= 0.0:
        raise InvalidDecay(f"Gaussian rate must be positive, got {decay[0]}")
    h = 1.0 / nodes_per_unit
    value = prev = None

    def check_budget(level: int, count: int) -> None:
        if count > MAX_NODES:
            last = ("no estimate yet" if prev is None else
                    f"last estimate {value:.17g} changed by "
                    f"{abs(value - prev):.2e}")
            raise QuadratureFailure(
                f"level {level} needs {count:.3g} nodes, above "
                f"max_nodes={MAX_NODES}; {last}")

    # Levels 0 and 1 are the lattice (h/2)(j + 2/3), |j| <= 2 npts: level 0
    # is its even j, h (k + 1/3).  Each later level is the midpoints
    # h (k + off/3 + 1/2), -npts <= k < npts, of the rule at spacing h; they
    # turn offset 1 into 2 and 2 into 1.  Each is counted before it is built.
    def first_lattice(z: float) -> np.ndarray:
        npts = math.ceil(z / h)
        check_budget(0, 2 * npts + 1)
        check_budget(1, 4 * npts + 1)
        return h / 2 * (np.arange(-2 * npts, 2 * npts + 1) + 2 / 3)

    z, v, total, _ = _window(integrand, decay, eps, first_lattice, h / 2)
    npts, value = v.size // 4, h * fsum_complex(v[0::2])
    nodes, off = v.size, 2
    for level in itertools.count(1):
        h /= 2.0
        prev, value = value, h * total
        err = abs(value - prev)
        if err <= eps * max(1.0, abs(value)):
            return Side(value, "trapezoid", nodes_used=nodes,
                        half_width_used=z, refinements_used=level - 1,
                        error_estimate=err)
        npts *= 2
        check_budget(level + 1, nodes + 2 * npts)
        v = _sample(integrand, h * (np.arange(-npts, npts) + off / 3 + 0.5))
        total += fsum_complex(v)
        nodes += v.size
        off = 2 * off % 3


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
    if _vanishing_factor(-u, q) is not None:  # |u| = 1, so only m = 0
        raise DenominatorZero(
            f"denominator vanishes at x = {s:.17g} (mod 1) (z={z})")


def _integrand(factors, q: complex, z: complex, const: complex = 1.0,
               mu: complex = 0.0, inv_den: bool = False):
    """The term routine of every q-side: x -> const e^(mu x) w(x)
    prod_j (b_j e^(lam_j x), a_j e^(-lam_j x); p_j)_inf, one product call
    per factor (p_j, a_j, b_j, lam_j); w is 1/den for the theta-form models
    (inv_den), else theta = den(0)/den, for product series on the integers;
    den(x) = (-z q^x, -q^(1-x)/z; q)_inf.  The nodes x are an arithmetic
    progression of m nodes per unit, m whole: node i has the fractional part
    x0 of node i mod m.  As den(x+1) = den(x)/(z q^x), w(n + x0) = z^n
    q^(n x0 + n(n-1)/2) w(x0), so 1/den takes den once per class, in one
    product call (0 or not finite is NoConvergence), and theta(0) = 1 none.
    About the integer c nearest the weight's peak, with z q^c for z, the
    weight is e^(mu c) (times theta(c) for theta) times one exponent; where
    it underflows to 0 the term is 0 and its products are not evaluated."""
    lnq, lnz = cmath.log(complex(q)), cmath.log(complex(z))
    c = round(0.5 - (lnz.real + mu.real) / lnq.real)
    top = mu * c if inv_den else c * lnz + c * (c - 1) / 2 * lnq + mu * c
    lnz += c * lnq

    def f(x: np.ndarray) -> np.ndarray:
        n = np.floor(x)
        x0, n = x - n, n - c
        w = n * (lnz + mu) + n * (x0 + (n - 1) / 2) * lnq + mu * x0
        live = np.flatnonzero(np.exp(w.real + top.real))
        v = const * np.exp(top)
        for p, a, b, lam in factors:
            e = np.exp(x[live] * lam)
            ab = qpoch_inf_vec(np.concatenate((b * e, a / e)), p)
            v = v * ab[:e.size] * ab[e.size:]
        if inv_den:
            m = round(1 / (x[1] - x[0])) if x.size > 1 else 1
            zq = np.exp(lnz + x0[:m] * lnq)
            den = qpoch_inf_vec(np.concatenate((-zq, -q / zq)), q)
            den = den[:zq.size] * den[zq.size:]
            if not (np.isfinite(den).all() and den.all()):
                k = np.argmin(np.isfinite(den) & (den != 0))
                raise NoConvergence(f"(-z q^x, -q^(1-x)/z; q)_inf is "
                                    f"{den[k]:.3g} at x={c + x0[k]:g}, z={z}")
            v = v / den[live % m]
        out = np.zeros(w.shape, dtype=complex)
        out[live] = v * np.exp(w[live])
        return out

    return f


def _decay(factors, q: complex, z: complex,
           mu: complex = 0.0) -> tuple[float, float]:
    """The decay routine of every q-side: (g, r) with
    |term(x)| = O(r^|x| e^(-g x^2)) for the factors, the weight e^(mu x) and
    the theta factor in base q of _integrand.

    theta decays like e^(-ln(1/|q|) x^2 / 2); a factor
    (b e^(lam x), a e^(-lam x); p)_inf, with s = -Re lam and
    alpha = s / ln(1/|p|), grows like e^(alpha s x^2 / 2).  The growth
    ratios are |z| e^(Re mu) prod_j |a_j|^alpha_j / |q| as x -> +inf and
    e^(-Re mu) prod_j |b_j|^alpha_j / |z| as x -> -inf (a zero coefficient
    counts as 1), exact for one factor over the theta denominator; r is the
    larger, at least 1/|q|, and inf if it overflows.
    """
    lnq, lnz = math.log(abs(q)), math.log(abs(z))
    g = -0.5 * lnq
    up, down = lnz - lnq + mu.real, -lnz - mu.real
    for p, a, b, lam in factors:
        s = -lam.real
        alpha = s / -math.log(abs(p))
        g -= 0.5 * alpha * s
        up += alpha * math.log(abs(a)) if a != 0 else 0.0
        down += alpha * math.log(abs(b)) if b != 0 else 0.0
    try:
        return g, math.exp(max(up, down, -lnq))
    except OverflowError:
        return g, math.inf


def _theta_den0(z: complex, q: complex) -> complex:
    """den(0) = (-z, -q/z; q)_inf; 0 or a non-finite value is NoConvergence."""
    with np.errstate(all="ignore"):  # a non-finite den(0) is typed below
        den = qpoch_inf(-z, q) * qpoch_inf(-complex(q) / z, q)
    if den == 0 or not cmath.isfinite(den):
        raise NoConvergence(f"(-z, -q/z; q)_inf is {den:.3g} at z={z}")
    return den


def _symmetric_model(params: SeriesParams, mu: complex = 0.0):
    """(integrand, decay) of (b q^x, a q^-x; p)_inf e^(mu x)
    / (-z q^x, -q^(1-x)/z; q)_inf."""
    q, z = complex(params.qp.q), params.z
    factors = ((complex(params.qp.p), complex(params.a), complex(params.b),
                cmath.log(q)),)
    return (_integrand(factors, q, z, mu=mu, inv_den=True),
            _decay(factors, q, z, mu))


def _binomial_factor(p: complex, a: complex,
                     b: complex) -> tuple[complex, complex, complex]:
    """p^(b+1), p^(a-b+1) and 1/(p, p^(a+1); p)_inf: [a; b + alpha x]_p =
    (p^(b+1) p^(alpha x), p^(a-b+1) p^(-alpha x); p)_inf / (p, p^(a+1); p)_inf.
    The normalizer vanishes at the Gamma_p(a+1) poles a = -1, -2, ...
    (PoleAtNonpositiveInteger).  One that underflows to 0 without a
    vanishing factor, as (p; p)_inf does for p near 1, or is not finite, is
    NoConvergence, as is a power that overflows."""
    pb, pab, pa = (_cpow(p, e) for e in (b + 1.0, a - b + 1.0, a + 1.0))
    if _has_zero_factor(pa, p):
        raise PoleAtNonpositiveInteger(f"Gamma_p(a+1) pole at a={a}")
    with np.errstate(all="ignore"):  # a normalizer not finite is typed below
        norm = qpoch_inf(p, p) * qpoch_inf(pa, p)
    if norm == 0:
        raise NoConvergence(
            f"(p, p^(a+1); p)_inf underflows to 0 at p={p:.6g}")
    if not cmath.isfinite(norm):
        raise NoConvergence(f"(p, p^(a+1); p)_inf is {norm:.3g} at p={p:.6g}")
    return pb, pab, 1.0 / norm


def _multibasic_model(params: MultibasicParams):
    """(integrand, decay) of prod_j [a_j; b_j + alpha_j x]_{p_j}
    / (-z q^x, -q^(1-x)/z; q)_inf, each factor mapped by _binomial_factor."""
    factors, const = [], 1.0
    for (p, a, b), alpha in zip(params.factors, params.alphas):
        pb, pab, inv_norm = _binomial_factor(p, a, b)
        factors.append((complex(p), pab, pb, alpha * cmath.log(p)))
        const *= inv_norm
    return (_integrand(factors, params.q, params.z, const, inv_den=True),
            _decay(factors, params.q, params.z))


def base_integral(q: complex, eps: float) -> Side:
    """int_0^inf dt / (t (-t, -q/t; q)_inf), evaluated as ln(1/q) times the
    zeta-integral of 1 / (-q^zeta, -q^(1-zeta); q)_inf; q real in (0, 1)."""
    qc = complex(q)
    if qc.imag != 0.0 or not 0.0 < qc.real < 1.0:
        raise InvalidParams(f"q must be real in (0, 1), got {q}")
    return integrate_gaussian_decay(
        _integrand((), qc, 1.0, -cmath.log(qc), inv_den=True),
        _decay((), qc, 1.0), eps)


def main_integral(params: SeriesParams, eps: float) -> Side:
    """Integral side of the main bilateral identity, prefactor included.

    (-z, -q/z; q)_inf int_R (b q^z/z, a z q^-z; p)_inf /
    (-q^z, -q^(1-z); q)_inf dzeta; requires Re z > 0 (regularity half plane).
    """
    z = complex(params.z)
    if z.real <= 0.0:
        raise DomainError(f"Re z must be positive, got z={z}")
    pref = _theta_den0(z, params.qp.q)
    mapped = replace(params, a=params.a * z, b=params.b / z, z=1.0)
    return integrate_gaussian_decay(*_symmetric_model(mapped),
                                    eps).scaled(pref)


def symmetric_integral(params: SeriesParams, eps: float) -> Side:
    """Integral side of the symmetric sum-equals-integral identity."""
    _check_denominator(params.z, params.qp.q)
    _check_line_pole(params.z, params.qp.q)
    return integrate_gaussian_decay(*_symmetric_model(params), eps)


def fourier_integral(params: SeriesParams, y: float, eps: float) -> Side:
    """Fourier transform int_R g(x) e^(ixy) dx of the z=1 symmetric integrand.

    The first level takes 2 nodes per period of e^(ixy), and at least 2 per
    unit.
    """
    if params.z != 1:
        raise InvalidParams("fourier_integral is defined at z = 1")
    density = int(math.ceil(2 * max(1.0, abs(y) / (2.0 * math.pi))))
    return integrate_gaussian_decay(*_symmetric_model(params, 1j * y), eps,
                                    density)


def weighted_integral(params: SeriesParams, m: int, eps: float) -> Side:
    """int_R g(x) q^(mx) dx for the z=1 symmetric integrand, m integer."""
    if params.z != 1:
        raise InvalidParams("weighted_integral is defined at z = 1")
    mu = m * cmath.log(complex(params.qp.q))
    return integrate_gaussian_decay(*_symmetric_model(params, mu), eps)


def multibasic_integral(params: MultibasicParams, eps: float) -> Side:
    """Integral side of the multibasic q-binomial identity."""
    _check_denominator(params.z, params.q)
    _check_line_pole(params.z, params.q)
    return integrate_gaussian_decay(*_multibasic_model(params), eps)
