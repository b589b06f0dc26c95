"""Classical (q-free) special functions and sum-equals-integral checks.

Real-order binomial coefficients (numpy only) are band limited, so their
bilateral sums match the corresponding integrals; this module evaluates both
sides of those classical identities, which also serve as q -> 1 targets for
the q modules.  Both sides run on one engine, _bilateral: the sum over the
integers, and the integral as a trapezoid sum on lattices off them.  Each is
one window |n| <= N, evaluated by one binomial_profile call, plus a
closed-form asymptotic tail past it (_tails).  binomial_real is the profile
at one argument; qcore._gamma_pole is the one pole rule, exact, of the
profile, binomial_real and gamma_classical, as of qgamma at real x.
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
from .qcore import SERIES_MAX_TERMS, Side, _check_eps, _gamma_pole
from .util import fsum_complex

_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6,
            1.5056327351493116e-7)
# Stirling's series of ln Gamma(y), B_2k / (2k (2k - 1)) for k = 6, ..., 1:
# at y >= 12 the first omitted term is below 1e-16.
_STIRLING = (-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_BLOCK = 8192  # binomial arguments per pass, so temporaries stay in cache

# The tails of _tails keep the terms k + r < _K of their double expansion.
_K = 12
_UNIT_ARG = 1e-13  # |arg w| at or below which w counts as exactly 1
# B_i / i!, i = 0, ..., _K + 1 (B_1 = -1/2), and j!, j = 0, ..., _K + 1.
_BERNOULLI = (1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0,
              -1 / 1209600, 0.0, 1 / 47900160, 0.0, -691 / 1307674368000,
              0.0)
_FACTORIAL = (1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800,
              39916800, 479001600, 6227020800)
# L_r(w) = sum_(i>=0) w^i i^r = sum_s _LI_NEG[r][s] v^(s+1), v = 1/(1-w),
# r = 0, ..., _K: L_0 = v and L_(r+1) = (v^2 - v) dL_r/dv.
_LI_NEG = (
    (1,),
    (-1, 1),
    (1, -3, 2),
    (-1, 7, -12, 6),
    (1, -15, 50, -60, 24),
    (-1, 31, -180, 390, -360, 120),
    (1, -63, 602, -2100, 3360, -2520, 720),
    (-1, 127, -1932, 10206, -25200, 31920, -20160, 5040),
    (1, -255, 6050, -46620, 166824, -317520, 332640, -181440, 40320),
    (-1, 511, -18660, 204630, -1020600, 2739240, -4233600, 3780000,
     -1814400, 362880),
    (1, -1023, 57002, -874500, 5921520, -21538440, 46070640, -59875200,
     46569600, -19958400, 3628800),
    (-1, 2047, -173052, 3669006, -33105600, 158838240, -451725120,
     801496080, -898128000, 618710400, -239500800, 39916800),
    (1, -4095, 523250, -15195180, 180204024, -1118557440, 4115105280,
     -9574044480, 14495120640, -14270256000, 8821612800, -3113510400,
     479001600),
)


def _frozen(values) -> np.ndarray:
    """values as a read-only float array: the module keeps no mutable
    state."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


_LANCZOS_COEF = _frozen(_LANCZOS[1:])  # c_i of the sum's c_i / (w + i)
_LANCZOS_POLES = _frozen(np.arange(1.0, 9.0))  # i = 1, ..., 8
_BERNOULLI, _FACTORIAL = _frozen(_BERNOULLI), _frozen(_FACTORIAL)
_LI_NEG = _frozen([row + (0,) * (_K + 1 - len(row)) for row in _LI_NEG])
_KK1 = _frozen(np.arange(_K + 2.0))  # k = 0, ..., _K + 1
_KK = _KK1[:_K + 1]  # k = 0, ..., _K
_SIGNED_FACTORIAL = _frozen((-1.0) ** _KK[1:] * _FACTORIAL[1:_K + 1])
_ZETA = _frozen(-_FACTORIAL[:_K + 1] * _BERNOULLI[1:])  # L_r(1) = zeta(-r)
_Y_POWERS = _frozen(np.append(_KK, -1.0))  # of 1/Y: Y^-r, then Y
_KR = _frozen(_KK[:, None] + _KK - 1.0)  # k + r - 1
_INV_R = _frozen(np.append(0.0, 1.0 / _KK[1:]))  # 1/r, 0 at r = 0
# Masks of the terms that _tails keeps (order k + r < _K) and of the first
# omitted ones (= _K); the last column, the integral's, has order k.
_ORDER = np.append(_KR + 1.0, _KK[:, None], axis=1)
_ORDER = _frozen([_ORDER < _K, _ORDER == _K])


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


def gamma_classical(x: float) -> float:
    """Classical Gamma function by math.gamma; a pole and a value that
    overflows (NoConvergence) raise typed errors."""
    if _gamma_pole(x):
        raise PoleAtNonpositiveInteger(f"Gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise NoConvergence(f"Gamma({x}) overflows") from None


def binomial_real(a: float, u: float) -> float:
    """Real-order binomial coefficient Gamma(a+1)/(Gamma(u+1)Gamma(a-u+1)):
    binomial_profile at one argument.  A Gamma(a+1) pole that coincides
    with a denominator pole is IndeterminateRatio."""
    try:
        return float(binomial_profile(a, np.asarray([u]))[0])
    except PoleAtNonpositiveInteger:
        if _gamma_pole(u + 1.0) or _gamma_pole(a - u + 1.0):
            raise IndeterminateRatio(
                f"coincident Gamma poles in binomial(a={a}, u={u})"
            ) from None
        raise


def binomial_profile(a: float, u: np.ndarray) -> np.ndarray:
    """Vectorized binomial_real; a denominator pole gives exactly 0.

    binom = Gamma(a+1)/pi sin(pi y) Gamma(y)/Gamma(v+1), v = max(u, a - u),
    y = v - a.  For y >= 12 the gamma ratio is Stirling's series in logs, with
    no cancelling O(v log v) terms; below, Lanczos.  sin(pi y) is reduced
    exactly, with the rounding error of u - a added back.
    """
    c = a + 1.0
    if _gamma_pole(c):
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
            near = np.flatnonzero(y < 12.0 + max(0.0, -c))  # far: y, x >= 12
            if near.size < ub.size:  # Stirling, needed only far out
                x = y + c
                r = 1.0 / np.stack([y, x])
                rr, st = r * r, _STIRLING[0]
                for coef in _STIRLING[1:]:  # Stirling's remainders, Horner
                    st = st * rr + coef
                st = st * r
                block[:] = (gain * _sinpi(y, ((ub - d) - a) * (y == d))
                            * np.exp(scale - c * np.log(x)
                                     + (y - 0.5) * np.log1p(-c / x)
                                     + (st[0] - st[1])))
            if near.size:  # Gamma(a+1) / (Gamma(v+1) Gamma(1-y)), Lanczos
                yn = y[near]
                lg, sg = _lgamma(np.concatenate([[c], yn + c, 1.0 - yn]))
                k = near.size + 1
                block[near] = sg[0] * sg[1:k] * sg[k:] * np.exp(
                    lg[0] - lg[1:k] - lg[k:])
    return out.reshape(u.shape)


def _sinpi(y: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """sin(pi (y + e)) for |e| << 1, exactly 0 at an integer y without e."""
    r = y - 2.0 * np.rint(0.5 * y)  # exact, in [-1, 1]
    if e is not None:
        r = r + e
    m = np.abs(r)  # sin(pi r) = sign(r) sin(pi min(|r|, 1 - |r|))
    return np.copysign(np.sin(np.pi * np.minimum(m, 1.0 - m)), r)


def _lgamma(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|Gamma(z)|, sign: Lanczos (g = 7, 9 terms), reflected below 0."""
    reflect = z < 0.0
    w = np.where(reflect, -z, z - 1.0)  # Gamma(w + 1) = Gamma(z), Gamma(1-z)
    series = _LANCZOS[0] + (_LANCZOS_COEF / (w[:, None] + _LANCZOS_POLES)
                            ).sum(axis=1)
    t = w + 7.5
    lg = (w + 0.5) * np.log(t) - t + np.log(math.sqrt(2.0 * math.pi) * series)
    sz = _sinpi(z)
    return (np.where(reflect, np.log(math.pi / np.abs(sz)) - lg, lg),
            np.where(reflect, np.sign(sz), 1.0))


def _tails(a: float, l: int, alpha: float, theta: float, n: int,
           u0: np.ndarray, phi: np.ndarray, arg: np.ndarray):
    """Sum over |n'| > n of binom(a, u)^l e^(i theta u), u = u0 + alpha n',
    in closed form, for each offset u0.

    At the right end (u -> +inf) the term is
    (Gamma(a+1)/pi)^l sin^l(pi y) R(y)^l e^(i theta (y + a)) with
    y = u - a and R(y) = Gamma(y)/Gamma(y+a+1); at the left end,
    binom(a, u) = binom(a, a - u) gives the same with y = -u and
    e^(-i theta y).  So y = alpha m + beta, m > n.  sin^l(pi y)
    e^(+-i theta y) is the sum of the l+1 exponentials e^(i phi_j y) of
    _phases, and R(y)^l = y^-t sum_k e_k y^-k, t = (a+1) l, from the
    expansion of ln R (DLMF 5.11.8).  With f_r the Taylor coefficients in
    m of the sum over k, at m = n + 1, each sum over m > n is
    w^(n+1) sum_r L_r(w) f_r, w = e^(i phi_j alpha), L_r(w) =
    sum_(i>=0) w^i i^r: a polynomial in 1/(1-w) for w != 1 and, at w = 1,
    zeta(-r) plus the integral of the terms from m = n + 1 on
    (Euler-Maclaurin, DLMF 2.10.1).  The terms k + r < _K are kept.
    Returns, per offset, the tails and the size of the first omitted
    terms.
    """
    c = a + 1.0
    t = c * l
    # ln(R(y)^l y^t) = sum_k g_k y^-k, g_k = -l (-1)^(k+1)
    # (B_(k+1)(c) - B_(k+1)) / (k (k+1)): B_i/i! convolved with c^j/j!.
    p = c ** _KK1 / _FACTORIAL
    p[0] = 0.0
    kg = l * _SIGNED_FACTORIAL * np.convolve(_BERNOULLI, p)[2:_K + 2]
    kg = kg.tolist()  # k g_k
    e = [1.0]  # exp(sum_k g_k y^-k) = sum_k e_k y^-k: i e_i = sum k g_k e_i-k
    for i in range(1, _K + 1):
        e.append(sum([x * z for x, z in zip(kg, reversed(e))]) / i)
    e = np.array(e)
    # Per end (right, left) and offset, with Y = y(n + 1): the terms
    # f(n + 1 + h) = sum_k e_k (Y + alpha h)^-(t+k) have Taylor coefficients
    # f_r = Y^-t sum_k e_k (t+k)_r/r! (-alpha)^r Y^-(k+r), and their
    # integral over h > 0 is Y^-t sum_k e_k Y^(1-k) / (alpha (t+k-1)), the
    # row r = _K + 1 of f.  f[0] keeps the terms k + r < _K, f[1] the first
    # omitted ones; Y^-t is in amp.
    beta = np.array([u0 - a, -u0])
    y0 = alpha * (n + 1)
    y = y0 + beta
    zk = (1.0 / y.ravel()) ** _Y_POWERS[:, None]
    coef = np.empty((_K + 1, _K + 2))
    coef[:, :-1] = (t + _KR) * (-alpha * _INV_R)  # (t+k)_r (-alpha)^r / r!
    coef[:, 0] = 1.0
    coef[:, :-1] = np.cumprod(coef[:, :-1], axis=1)
    coef[:, -1] = 1.0 / (alpha * (a * l + (l - 1.0 + _KK)))  # t + k - 1
    coef = coef * e[:, None] * _ORDER
    f = (coef.transpose(0, 2, 1) @ zk[:_K + 1]) * zk
    # L_r(w) per (end, j), and 1 at r = _K + 1 for w = 1 (the integral).
    unit = np.abs(arg) <= _UNIT_ARG
    v = 1.0 / (1.0 - np.exp(1j * np.where(unit, np.pi, arg))).ravel()
    lr = np.concatenate([_LI_NEG @ v ** _KK1[1:, None], [unit.ravel()]])
    lr[:_K + 1, unit.ravel()] = _ZETA[:, None]
    core = (f.reshape(2, _K + 2, 2, -1).transpose(0, 2, 3, 1)
            @ lr.reshape(_K + 2, 2, -1).transpose(1, 0, 2))
    sign = [(-1) ** j * math.comb(l, j) / (2j) ** l for j in range(l + 1)]
    amp = np.exp(l * (math.lgamma(c) - math.log(math.pi)) - t * np.log(y))
    amp = amp * np.array([[np.exp(1j * theta * a)], [1.0]])
    # e^(i phi_j Y), Y = y0 + beta, with pi (l - 2j) y0 reduced mod 2 pi
    # before it is rounded: when the sum over j cancels to a small
    # sin^l(pi Y), its phases must be exact to well below it.
    turns = np.mod((l - 2.0 * np.arange(l + 1)) * y0, 2.0)
    base = np.exp(1j * (np.pi * turns + np.array([[theta], [-theta]]) * y0))
    terms = (amp[:, :, None] * np.array(sign) * base[:, None, :]
             * np.exp(1j * phi[:, None, :] * beta[:, :, None]) * core)
    return terms[0].sum(axis=(0, 2)), np.abs(terms[1]).sum(axis=(0, 2))


def _phases(l: int, alpha: float, theta: float):
    """The frequencies phi_j = pi (l - 2j) +- theta, j = 0..l, of
    sin^l(pi y) e^(+-i theta y) at the right (row 0) and left (row 1) ends,
    and alpha phi_j reduced to [-pi, pi): the argument of w_j."""
    phi = [[math.pi * (l - 2 * j) + s * theta for j in range(l + 1)]
           for s in (1.0, -1.0)]
    arg = [[(alpha * x + math.pi) % (2.0 * math.pi) - math.pi for x in row]
           for row in phi]
    return np.array(phi), np.array(arg)


def _bilateral(a: float, l: int, alpha: float, theta: float, u0, eps: float):
    """Sum over n in Z of binom(a, u)^l e^(i theta u), u = u0 + alpha n,
    for each offset u0: one window |n| <= N, by one binomial_profile call,
    plus the closed-form tails of _tails.

    N puts the first tail term at y >= max(48, 12 (a+1), l (a+1)^2), where
    the expansion of R(y)^l in 1/y holds, and at X >= 4 ((a+1) l + _K) / d
    for each w != 1, d = |arg w|, where the expansion in 1/X holds; N is
    at least 32.  A window over SERIES_MAX_TERMS terms is SlowConvergence
    before any binomial is evaluated, as is a tail whose first omitted
    terms exceed eps/10 max(1, |sum|).  Returns the sums, N and the larger
    size of the omitted terms.
    """
    _check_eps(eps)
    t = (a + 1.0) * l
    if not t > 1.0:
        raise InvalidParams(f"terms decay like |n|^-{t}: need (a+1) l > 1")
    u0 = np.asarray(u0, dtype=float)
    phi, arg = _phases(l, alpha, theta)
    x_min = max(48.0, 12.0 * (a + 1.0), l * ((a + 1.0) * (a + 1.0))) / alpha
    d = np.abs(arg)
    d = d[d > _UNIT_ARG]
    if d.size:
        x_min = max(x_min, 4.0 * (t + _K) / float(d.min()))
    # X = N + 1 + beta/alpha at each end: beta = u0 - a right, -u0 left.
    # N stays a float until the budget check: it may be infinite.
    beta = min(float(np.min(u0)) - a, -float(np.max(u0)))
    n_hi = max(32.0, float(np.ceil(x_min - 1.0 - beta / alpha)))
    terms = u0.size * (2.0 * n_hi + 1.0)
    if not terms <= SERIES_MAX_TERMS:
        raise SlowConvergence(
            f"window |n| <= {n_hi:.4g} needs {terms:.4g} terms, above "
            f"SERIES_MAX_TERMS={SERIES_MAX_TERMS}")
    n_hi = int(n_hi)
    u = (u0[:, None] + alpha * np.arange(-n_hi, n_hi + 1.0)).ravel()
    f = (binomial_profile(a, u) ** l).reshape(u0.size, -1)
    if theta:
        f = f * np.exp(1j * theta * u.reshape(f.shape))
    sums = np.array([fsum_complex(row) for row in f])
    tails, est = _tails(a, l, alpha, theta, n_hi, u0, phi, arg)
    sums += tails
    est = float(est.max())
    if est > eps / 10.0 * max(1.0, float(np.abs(sums).max())):
        raise SlowConvergence(
            f"tail past |n| = {n_hi}: first omitted terms {est:.2e}")
    return sums, n_hi, est


def osler_sum(params: OslerParams, eps: float) -> Side:
    """Bilateral sum of binom(a, b+alpha n) v^(b+alpha n) with v=e^{i theta}.

    Terms decay like |n|^{-a-1}, so a > 0 is required; the sum is one
    window plus its closed-form tails (_bilateral).
    """
    a, b, alpha, theta = params.a, params.b, params.alpha, params.theta
    if a <= 0.0:
        raise InvalidParams(f"series cutoff requires a > 0, got a={a}")
    if abs(theta) >= math.pi * alpha:
        raise InvalidParams(
            f"series form requires |theta| < pi*alpha = {math.pi * alpha}"
        )
    sums, n, tail = _bilateral(a, 1, alpha, theta, [b], eps)
    return Side(complex(sums[0]), "series", terms_used=2 * n + 1,
                half_width_used=n, tail_estimate=tail)


def classical_sum(a: float, alpha: float, l: int, eps: float) -> Side:
    """Sum over Z of binom(a, alpha n)^l: one window plus its tails."""
    sums, n, tail = _bilateral(a, l, alpha, 0.0, [0.0], eps)
    return Side(float(sums[0].real), "series", terms_used=2 * n + 1,
                half_width_used=n, tail_estimate=tail)


def classical_integral(a: float, alpha: float, l: int, eps: float) -> Side:
    """Integral over R of binom(a, alpha x)^l, by the trapezoid rule.

    The integrand is band limited to |omega| <= l alpha pi <= 2 pi, so the
    rule at spacing 1/2 is exact on any shifted lattice.  One _bilateral
    call sums the four lattices k + o, o = 1/6, 2/3, 5/12, 11/12: the rule
    on (k + 1/3)/2 (offsets 1/6 and 2/3) and on its midpoints (5/12 and
    11/12).  No node is an integer, so the integral shares no sample with
    the series.  The value is the mean, the rule at spacing 1/4; a change
    of more than 100 eps max(1, |I|) from the first lattice raises
    QuadratureFailure.  The error estimate is the larger of that change and
    the tails' omitted terms.
    """
    offsets = np.array([1 / 6, 2 / 3, 5 / 12, 11 / 12])
    sums, n, tail = _bilateral(a, l, alpha, 0.0, alpha * offsets, eps)
    coarse = 0.5 * float(sums[0].real + sums[1].real)
    value = 0.5 * (coarse + 0.5 * float(sums[2].real + sums[3].real))
    err = abs(value - coarse)
    if err > 100.0 * eps * max(1.0, abs(value)):
        raise QuadratureFailure(
            f"lattice refinement changed value by {err:.2e}"
        )
    return Side(value, "trapezoid", nodes_used=offsets.size * (2 * n + 1),
                half_width_used=n, refinements_used=1, tail_estimate=tail,
                error_estimate=max(err, tail))
