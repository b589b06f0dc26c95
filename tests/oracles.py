"""Frozen high-precision reference values and the code that generated them.

Every constant below was produced by the mpmath reference implementations in
this file at 50 decimal digits, then frozen as a double-precision literal.
Run regenerate() to reproduce them; test_oracles_regen spot-checks a few at
import-accuracy to guard against drift.
"""

from __future__ import annotations

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

# (a, b, z, q, p) -> bilateral product-series value
MAIN_SERIES = {
    (0.2, 0.3, 1.0, 0.6, 0.3): 1.269362576916128687573,
    (0.2, 0.3, 0.5 + 0.5j, 0.6, 0.3):
        0.8893935168043562355678 + 0.08232990056452167364639j,
}

# (a, b, z, q, p) -> symmetric-form bilateral sum
SYMMETRIC_SERIES = {
    (0.1, 0.2, 1.0, 0.5, 0.2): 0.1643360158654054323151,
}

# (a, b, q, p, m) -> q^(mn)-weighted symmetric sum
WEIGHTED_SERIES = {
    (0.1, 0.2, 0.5, 0.2, 2): 0.1486370479155178756895,
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


def regenerate(dps: int = 50):
    """Recompute every frozen constant with mpmath; returns a dict."""
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

    out = {}
    for (a, q) in QPOCH_INF:
        out[("qpoch", a, q)] = mp.qp(mp.mpmathify(a), mp.mpmathify(q))
    for (x, q) in QGAMMA:
        out[("qgamma", x, q)] = mp.qgamma(mp.mpmathify(x), mp.mpmathify(q))
    for key in MAIN_SERIES:
        out[("main",) + key] = main_series(*map(mp.mpmathify, key))
    for key in SYMMETRIC_SERIES:
        out[("sym",) + key] = sym_series(*map(mp.mpmathify, key))
    for (a, b, q, p, m) in WEIGHTED_SERIES:
        out[("weighted", a, b, q, p, m)] = weighted(
            mp.mpmathify(a), mp.mpmathify(b), mp.mpmathify(q),
            mp.mpmathify(p), m)
    for key in BAILEY_LEFT:
        out[("bailey",) + key] = bailey_left(*map(mp.mpmathify, key))
    for (a, q) in APPELL_LERCH:
        aa, qq = mp.mpmathify(a), mp.mpmathify(q)
        pp = qq * qq
        out[("al", a, q)] = main_series(pp / aa, aa * pp, mp.mpf(1), qq, pp)
    two = ((mp.mpf("0.2"), 2, 1), (mp.mpf("0.3"), 3, 1))
    q_mb = mb_q(two, mp.mpf("0.8"))
    out[("mb_q",)] = q_mb
    out[("mb_value",)] = mb_series(two, q_mb, mp.mpf(1))
    for key in MULTIBASIC_SERIES:
        factors = [tuple(map(mp.mpmathify, f)) for f in key]
        out[("mb",) + key] = mb_series(
            factors, mb_q(factors, mp.mpf("0.8")), mp.mpf(1))
    return out
