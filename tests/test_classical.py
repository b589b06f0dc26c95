"""Classical binomial-profile sums, integrals and the circle sum."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsinc import (
    IdentityId,
    IndeterminateRatio,
    InvalidParams,
    OslerParams,
    PoleAtNonpositiveInteger,
    binomial_profile,
    binomial_real,
    classical_integral,
    classical_sum,
    gamma_classical,
    osler_sum,
    verify,
)

import qsinc
from conftest import rel_err


def test_import_skips_scipy():
    # scipy is most of the import time and only the classical side needs it.
    src = str(Path(qsinc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsinc; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestBinomialReal:
    @pytest.mark.parametrize("a,u", [(5, 2), (6, 0), (7, 7)])
    def test_integer_cases(self, a, u):
        assert binomial_real(a, u) == pytest.approx(math.comb(a, u), rel=1e-13)

    def test_gamma_form(self):
        a, u = 2.5, 0.7
        expected = math.gamma(a + 1) / (math.gamma(u + 1)
                                        * math.gamma(a - u + 1))
        assert binomial_real(a, u) == pytest.approx(expected, rel=1e-13)

    def test_denominator_pole_is_zero(self):
        assert binomial_real(2.0, -1.0) == 0.0
        assert binomial_real(2.0, 3.0) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            binomial_real(-2.0, 0.5)

    def test_coincident_poles_raise(self):
        with pytest.raises(IndeterminateRatio):
            binomial_real(-2.0, -3.0)

    def test_profile_matches_scalar(self):
        import numpy as np

        a = 2.5
        us = np.linspace(-6.3, 6.3, 41)
        profile = binomial_profile(a, us)
        for u, value in zip(us, profile):
            assert value == pytest.approx(binomial_real(a, float(u)),
                                          rel=1e-12, abs=1e-300)

    def test_gamma_classical_pole(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma_classical(-1.0)
        assert gamma_classical(0.5) == pytest.approx(math.sqrt(math.pi))


class TestOsler:
    def test_param_guards(self):
        with pytest.raises(InvalidParams):
            OslerParams(a=2, b=0, alpha=1.2, theta=0)
        with pytest.raises(InvalidParams):
            OslerParams(a=2, b=0, alpha=0.5, theta=3.5)

    @pytest.mark.parametrize("a,b,alpha,theta", [
        (2.0, 0.0, 0.5, 0.0),
        (2.0, 0.25, 0.5, 0.4),
        (1.5, 0.0, 1.0, 1.0),
        (3.0, 0.5, 0.7, -0.8),
    ])
    def test_matches_closed_form(self, a, b, alpha, theta, policy):
        value = osler_sum(OslerParams(a=a, b=b, alpha=alpha, theta=theta),
                          policy).value
        closed = (1.0 / alpha) * (1.0 + cmath.exp(1j * theta)) ** a
        assert rel_err(value, closed) < 1e-9

    def test_requires_positive_a(self, policy):
        with pytest.raises(InvalidParams):
            osler_sum(OslerParams(a=-0.5, b=0, alpha=0.5, theta=0), policy)

    def test_theta_window(self, policy):
        with pytest.raises(InvalidParams):
            osler_sum(OslerParams(a=2, b=0, alpha=0.4, theta=1.5), policy)


class TestClassicalSumInt:
    def test_integer_order_sum_is_exact(self, policy):
        # binom(2, n) over integer n: 1 + 2^2 + 1 at l = 2
        value = classical_sum(2.0, 1.0, 2, policy).value
        assert value == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("a,alpha,l", [
        (2.0, 1.0, 1),
        (2.0, 1.0, 2),
        (2.5, 0.5, 2),
        (2.0, 0.5, 4),
    ])
    def test_sum_equals_integral(self, a, alpha, l, policy):
        s = classical_sum(a, alpha, l, policy).value
        i = classical_integral(a, alpha, l, policy).value
        assert rel_err(s, i) < 1e-6

    def test_report_helper(self, policy):
        report = verify(IdentityId.ClassicalSumInt,
                        {"a": 2.0, "alpha": 1.0, "l": 2}, policy=policy)
        assert report.passed
        assert report.params["l"] == 2
        assert "tail_estimate" in report.lhs_diag

    def test_hypothesis_guards(self, policy):
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": -1.0, "alpha": 1.0, "l": 2}, policy=policy)
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": 2.0, "alpha": 1.5, "l": 2}, policy=policy)
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": 2.0, "alpha": 1.0, "l": 0}, policy=policy)
