"""Accepted points at the edge of double range: each ends in a verdict or a
typed failure, through verify and through the CLI, with no warning.

Powers, products and kernels there overflow or underflow on their way to a
side.  The table holds the points that once escaped as OverflowError or
printed a numpy RuntimeWarning, and a seeded sample at the same extremes.
Verdicts are not asserted: some of these points are wrong-value FAILs of
cancellation, which is not what this table checks.
"""

import cmath
import random

import pytest

from qsinc import IdentityId, cli, verify
from qsinc.classical import gamma_classical
from qsinc.errors import InvalidParams, QsincError
from qsinc.qcore import qgamma

_TABLE = [
    # 1/sinh(pi y / ln q) overflowed for |pi y / ln q| > 710.
    ("fourier", {"a": 0.1, "b": 0.2, "q": 0.95, "p": 0.2, "y": 12.0}),
    ("fourier", {"q": 0.7080819089494141, "p": 0.16347325994926487,
                 "a": 0.03527744848701109, "b": -0.28887491329008363,
                 "y": 83.26488405046999}),
    # Powers p^(a-b+1), p^theta and p^(a+1) overflowed.
    ("qbinomial", {"a": -700.0, "b": 1.0, "alpha": 0.5, "p": 0.3, "z": 1.0}),
    ("bailey-binomial", {"p": 0.5, "alpha": 0.4, "a1": 2.0, "b1": 1.0,
                         "a2": 3.0, "b2": 1.0, "theta": -2000.0}),
    ("multibasic", {"p1": 0.3, "a1": -700.5, "b1": 1.0, "q": 0.5}),
    ("multibasic", {"p1": 0.3, "a1": -700.0, "b1": 1.0, "q": 0.5}),
    # p^(a+1) is subnormal: its vanishing-factor test overflowed.
    ("qbinomial", {"a": 697.2684978930965, "b": 4.251110809510658,
                   "alpha": 0.8661243273864061, "p": 0.361460752610779,
                   "z": 0.2558122387247462}),
    # Scalar products that overflow warned from numpy.
    ("triple-product", {"z": 1e40, "q": 0.9}),
    ("appell-lerch", {"a": 1e-30, "q": 0.5}),
    ("multibasic", {"p1": 0.3, "a1": -100.5, "b1": 1.0, "q": 0.5}),
    # The qgamma ladder: a power, math.gamma and the product ratio.
    ("qgamma", {"x": 150.0}),
    ("qgamma", {"x": 800.0}),
    ("qgamma", {"x": -800.5}),
]


def _sample(rng: random.Random, ident: str) -> dict:
    u = rng.uniform
    if ident == "fourier":
        q = u(0.3, 0.95)
        return {"a": u(-0.5, 0.5), "b": u(-0.5, 0.5), "q": q,
                "p": u(0.05, 0.95) * q, "y": u(-100.0, 100.0)}
    if ident == "qbinomial":
        b = u(-10.0, 10.0)
        return {"a": b + u(-800.0, 800.0), "b": b, "alpha": u(0.05, 0.95),
                "p": u(0.05, 0.9), "z": u(0.2, 5.0)}
    if ident == "multibasic":
        b = u(-10.0, 10.0)
        return {"p1": u(0.05, 0.9), "a1": b + u(-800.0, 800.0), "b1": b,
                "alpha_sum": u(0.05, 0.95), "z": u(0.2, 5.0)}
    if ident == "bailey-binomial":
        return {"p": u(0.05, 0.9), "alpha": u(0.05, 0.95),
                "a1": u(-5.0, 5.0), "b1": u(-5.0, 5.0), "a2": u(-5.0, 5.0),
                "b2": u(-5.0, 5.0), "theta": u(-2000.0, 0.0)}
    if ident == "triple-product":
        return {"z": 10.0 ** u(-40.0, 40.0) * cmath.exp(1j * u(-3.0, 3.0)),
                "q": u(0.05, 0.95)}
    return {"a": 10.0 ** u(-40.0, 40.0), "q": u(0.05, 0.95)}  # appell-lerch


_RNG = random.Random(20261020)
_SAMPLE = [(ident, _sample(_RNG, ident))
           for ident in ("fourier", "qbinomial", "multibasic",
                         "bailey-binomial", "triple-product", "appell-lerch")
           for _ in range(5)]


def _flag(name: str, value) -> str:
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0.0 else "-"
        text = f"{value.real!r}{sign}{abs(value.imag)!r}i"
    else:
        text = repr(value)
    return f"--{name.replace('_', '-')}={text}"


def _library(ident: str, params: dict) -> None:
    """The point through the library: verify, where only InvalidParams
    may be raised, or the qgamma ladder's calls, where any typed error."""
    if ident != "qgamma":
        try:
            verify(IdentityId(ident), params)
        except InvalidParams:
            pass
        return
    try:
        gamma_classical(params["x"])
        for k in (2, 3, 4):
            qgamma(params["x"], 1.0 - 10.0 ** -k)
    except QsincError:
        pass


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "ident, params", _TABLE + _SAMPLE,
    ids=[f"table{i}-{p[0]}" for i, p in enumerate(_TABLE)]
    + [f"sample{i}-{p[0]}" for i, p in enumerate(_SAMPLE)])
def test_extreme_point_ends_typed_without_warning(ident, params, capsys):
    _library(ident, params)
    command = "limit" if ident == "qgamma" else "verify"
    code = cli.main([command, "--identity", ident,
                     *(_flag(k, v) for k, v in params.items())])
    capsys.readouterr()
    assert code in (0, 1, 2, 3)
