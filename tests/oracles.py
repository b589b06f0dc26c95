"""Frozen high-precision reference values and the code that generated them.

Every constant below was produced by the mpmath reference implementations in
this file at 50 decimal digits, then frozen as a double-precision literal.
Run regenerate() to reproduce them; test_oracles_regen spot-checks a few at
import-accuracy to guard against drift.
"""

from __future__ import annotations

from functools import partial

# (a, q) -> (a; q)_inf
QPOCH_INF = {
    (0.3, 0.5): 0.5101178266339875718323,
    (0.2 + 0.1j, 0.4): 0.6901987066214090672735 - 0.1363916782374298644177j,
    (-0.7, 0.6): 4.338383122661491745196,
    (3.2, 0.55): 0.01211904699626514609713,
}

# (x, q) -> Gamma_q(x)
QGAMMA = {
    (1.5, 0.5): 0.9208754502712837898576,
    (0.3, 0.7): 2.700583889959934086262,
}

# (x, q) -> Gamma_q(x) near its pole at x = -1, as q -> 1: the product
# ratio (q;q)_inf / (q^x;q)_inf (1-q)^(1-x)
QGAMMA_NEAR_POLE = {
    (-0.9999999999, 0.99): -9850416270.270538346362,
    (-0.9999999999, 0.995): -9925103398.06482595855,
}

# (a, b, z, q, p) -> bilateral product-series value
MAIN_SERIES = {
    (0.2, 0.3, 1.0, 0.6, 0.3): 1.269362576916128687573,
    (0.2, 0.3, 0.5 + 0.5j, 0.6, 0.3):
        0.8893935168043562355678 + 0.08232990056452167364639j,
    # p/q = 0.95: the theta denominator of its integrand overflows on the
    # integral's window, but not on one period
    (0.2, 0.3, 1.0, 0.3, 0.285): 0.6119254669902507987488,
}

# (q, p) -> main series at (a, b, z) = (0.2, 0.3, 1): boundary-band points
# (small q, p/q near 0.9) whose theta denominator overflows the same way
MAIN_EDGE = {
    (0.075, 0.050625): -0.05456161804569304584746,
    (0.175, 0.153125): 0.3612065563834538387483,
    (0.275, 0.254375): 0.5755442958732861095743,
}

# (a, b, z, q, p) -> symmetric-form bilateral sum
SYMMETRIC_SERIES = {
    (0.1, 0.2, 1.0, 0.5, 0.2): 0.1643360158654054323151,
}

# (a, b, q, p, m) -> q^(mn)-weighted symmetric sum
WEIGHTED_SERIES = {
    (0.1, 0.2, 0.5, 0.2, 2): 0.1486370479155178756895,
    (0.2, 0.15, 0.47, 0.35, -3): 0.4074998874436784678969,
    (0.45, -0.42, 0.55, 0.47, -2): 0.07901423485433140538511,
}

# (a1, a2, b1, b2, z, q, p) -> left side of the four-product transformation
BAILEY_LEFT = {
    (0.1, 0.2, 0.15, 0.25, 1.2, 0.6, 0.3): 0.8808696939302050530599,
}

# (a, q) -> product series at the Appell-Lerch specialization
# (p = q^2, z = 1, series arguments q^2/a and a q^2)
APPELL_LERCH = {
    (2.0, 0.5): 0.9481678800474863831638,
    (0.7, 0.7): 0.1299924034803070455556,
}

# two-base sum at p1=0.2, p2=0.3, alpha1+alpha2=0.8,
# (a1, b1, a2, b2, z) = (2, 1, 3, 1, 1); q listed alongside
MULTIBASIC_Q = 0.5763759604342781545511
MULTIBASIC_VALUE = 0.2727225519678610283435

# factors ((p_j, a_j, b_j), ...) -> multibasic sum at alpha_sum = 0.8, z = 1:
# three factors, and the q-sinc factor [0; alpha_2 x]_{p_2}
MULTIBASIC_SERIES = {
    ((0.2, 2.0, 1.0), (0.3, 3.0, 1.0), (0.25, 1.5, 0.5)):
        0.0867954606980261145478,
    ((0.36, 2.0, 1.0), (0.3, 0.0, 0.0)): 0.08257071020899552350666,
}

# (factors, alpha_sum) -> multibasic sum at z = 1 whose window depends on
# the sizes of the coefficients p_j^(b_j+1), p_j^(a_j-b_j+1)
MULTIBASIC_ALPHA_SUM = {
    (((0.2, 2.0, -5.0), (0.3, 3.0, 1.0)), 0.5): -1055193.395728335571512,
}


def regenerate(dps: int = 50, keys=None):
    """Recompute the frozen constants with mpmath, every one or those whose
    keys are in keys; returns a dict of them by key."""
    import mpmath as mp

    mp.mp.dps = dps

    def main_series(a, b, z, q, p, n_max=60):
        return mp.fsum(
            mp.qp(b * q ** n, p) * mp.qp(a * q ** (-n), p)
            * z ** n * q ** (mp.mpf(n * (n - 1)) / 2)
            for n in range(-n_max, n_max + 1)
        )

    def sym_series(a, b, z, q, p, n_max=60):
        return mp.fsum(
            mp.qp(b * q ** n, p) * mp.qp(a * q ** (-n), p)
            / (mp.qp(-z * q ** n, q) * mp.qp(-q ** (1 - n) / z, q))
            for n in range(-n_max, n_max + 1)
        )

    def weighted(a, b, q, p, m, n_max=60):
        return mp.fsum(
            mp.qp(b * q ** n, p) * mp.qp(a * q ** (-n), p)
            / (mp.qp(-q ** n, q) * mp.qp(-q ** (1 - n), q)) * q ** (m * n)
            for n in range(-n_max, n_max + 1)
        )

    def bailey_left(a1, a2, b1, b2, z, q, p, n_max=40):
        return mp.fsum(
            mp.qp(b1 * q ** n, p) * mp.qp(b2 * q ** n, p)
            * mp.qp(a1 * q ** (-n), p) * mp.qp(a2 * q ** (-n), p)
            * z ** n * q ** (n * (n - 1))
            for n in range(-n_max, n_max + 1)
        )

    def mb_binom(a, b, alpha, p, x):
        return (mp.qp(p ** (b + 1) * p ** (alpha * x), p)
                * mp.qp(p ** (a - b + 1) * p ** (-alpha * x), p)
                / (mp.qp(p, p) * mp.qp(p ** (a + 1), p)))

    def mb_q(factors, alpha_sum):
        return mp.e ** (alpha_sum / mp.fsum(1 / mp.log(p)
                                            for p, _, _ in factors))

    def mb_series(factors, q, z, n_max=60):
        alphas = [mp.log(q) / mp.log(p) for p, _, _ in factors]
        return mp.fsum(
            mp.fprod(mb_binom(a, b, alpha, p, n)
                     for (p, a, b), alpha in zip(factors, alphas))
            / (mp.qp(-z * q ** n, q) * mp.qp(-q ** (1 - n) / z, q))
            for n in range(-n_max, n_max + 1)
        )

    def qgamma_product(x, q):
        return (mp.qp(q, q, maxterms=10 ** 6)
                / mp.qp(q ** x, q, maxterms=10 ** 6) * (1 - q) ** (1 - x))

    num = mp.mpmathify
    jobs = {}
    for (a, q) in QPOCH_INF:
        jobs[("qpoch", a, q)] = partial(mp.qp, num(a), num(q))
    for (x, q) in QGAMMA:
        jobs[("qgamma", x, q)] = partial(mp.qgamma, num(x), num(q))
    for (x, q) in QGAMMA_NEAR_POLE:
        jobs[("qgamma_near_pole", x, q)] = partial(qgamma_product, num(x),
                                                   num(q))
    for key in MAIN_SERIES:
        jobs[("main",) + key] = partial(main_series, *map(num, key))
    for (q, p) in MAIN_EDGE:
        jobs[("main_edge", q, p)] = partial(
            main_series, *map(num, (0.2, 0.3, 1.0, q, p)))
    for key in SYMMETRIC_SERIES:
        jobs[("sym",) + key] = partial(sym_series, *map(num, key))
    for (a, b, q, p, m) in WEIGHTED_SERIES:
        jobs[("weighted", a, b, q, p, m)] = partial(
            weighted, num(a), num(b), num(q), num(p), m)
    for key in BAILEY_LEFT:
        jobs[("bailey",) + key] = partial(bailey_left, *map(num, key))
    for (a, q) in APPELL_LERCH:
        aa, qq = num(a), num(q)
        pp = qq * qq
        jobs[("al", a, q)] = partial(main_series, pp / aa, aa * pp,
                                     mp.mpf(1), qq, pp)
    two = ((mp.mpf("0.2"), 2, 1), (mp.mpf("0.3"), 3, 1))
    q_mb = mb_q(two, mp.mpf("0.8"))
    jobs[("mb_q",)] = lambda: q_mb
    jobs[("mb_value",)] = partial(mb_series, two, q_mb, mp.mpf(1))
    for key in MULTIBASIC_SERIES:
        factors = [tuple(map(num, f)) for f in key]
        jobs[("mb",) + key] = partial(
            mb_series, factors, mb_q(factors, mp.mpf("0.8")), mp.mpf(1))
    for key, alpha_sum in MULTIBASIC_ALPHA_SUM:
        factors = [tuple(map(num, f)) for f in key]
        jobs[("mb_alpha_sum", key, alpha_sum)] = partial(
            mb_series, factors, mb_q(factors, num(alpha_sum)), mp.mpf(1))
    return {key: job() for key, job in jobs.items()
            if keys is None or key in keys}
