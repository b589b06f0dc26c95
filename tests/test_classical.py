"""Classical binomial-profile sums, integrals and the circle sum."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsinc import (
    IdentityId,
    IndeterminateRatio,
    InvalidParams,
    OslerParams,
    PoleAtNonpositiveInteger,
    QuadratureFailure,
    SlowConvergence,
    binomial_profile,
    binomial_real,
    classical_integral,
    classical_sum,
    gamma_classical,
    osler_sum,
    verify,
)

import qsinc
from qsinc import classical
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
    def test_matches_closed_form(self, a, b, alpha, theta, series_eps):
        value = osler_sum(OslerParams(a=a, b=b, alpha=alpha, theta=theta),
                          series_eps).value
        closed = (1.0 / alpha) * (1.0 + cmath.exp(1j * theta)) ** a
        assert rel_err(value, closed) < 1e-9

    def test_requires_positive_a(self, series_eps):
        with pytest.raises(InvalidParams):
            osler_sum(OslerParams(a=-0.5, b=0, alpha=0.5, theta=0), series_eps)

    def test_theta_window(self, series_eps):
        with pytest.raises(InvalidParams):
            osler_sum(OslerParams(a=2, b=0, alpha=0.4, theta=1.5), series_eps)


class TestClassicalSumInt:
    def test_integer_order_sum_is_exact(self, series_eps):
        # binom(2, n) over integer n: 1 + 2^2 + 1 at l = 2
        value = classical_sum(2.0, 1.0, 2, series_eps).value
        assert value == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("a,alpha,l", [
        (2.0, 1.0, 1),
        (2.0, 1.0, 2),
        (2.5, 0.5, 2),
        (2.0, 0.5, 4),
        (0.2, 1 / 6, 3),
        (0.5, 1.5, 1),
    ])
    def test_sum_equals_integral(self, a, alpha, l, series_eps):
        s = classical_sum(a, alpha, l, series_eps).value
        i = classical_integral(a, alpha, l, series_eps).value
        assert rel_err(s, i) < 1e-6

    def test_integral_nodes_avoid_the_integers(self, monkeypatch,
                                               series_eps):
        # The two lattices (k + 1/3)/2 and their midpoints, scaled by alpha.
        alpha, seen = 0.75, []

        def recording(a, u):
            seen.append(np.asarray(u) / alpha)
            return binomial_profile(a, u)

        monkeypatch.setattr(classical, "binomial_profile", recording)
        side = classical_integral(2.0, alpha, 2, series_eps)
        x = np.concatenate(seen)
        assert (side.method, side.refinements_used) == ("trapezoid", 1)
        assert side.nodes_used == x.size
        frac = np.mod(x, 1.0)
        offsets = np.array([1 / 6, 2 / 3, 5 / 12, 11 / 12])
        assert np.abs(frac[:, None] - offsets).min(axis=1).max() < 1e-9

    def test_refinement_check_fires(self, monkeypatch, series_eps):
        # exp(-x^2) cos(4 pi x) aliases at spacing 1/2 with opposite signs
        # on the two lattices (about -+0.89), and cancels in their mean.
        alpha = 1.0

        def aliased(a, u):
            x = np.asarray(u) / alpha
            return (binomial_profile(a, u)
                    + np.exp(-x * x) * np.cos(4.0 * np.pi * x))

        monkeypatch.setattr(classical, "binomial_profile", aliased)
        with pytest.raises(QuadratureFailure, match="refinement"):
            classical_integral(2.0, alpha, 1, series_eps)

    def test_doubling_reports_the_terms_it_evaluated(self):
        # A block sum that never shrinks: the message named the budget,
        # 1000000, after 1048577 terms had been evaluated.
        evaluated = []

        def flat(n):
            evaluated.append(n.size)
            return float(n.size)

        with pytest.raises(SlowConvergence) as info:
            classical._bilateral_doubling(flat, 1e-10)
        assert sum(evaluated) == 1_048_577
        assert str(info.value) == "no convergence after 1048577 terms"

    @pytest.mark.parametrize("a,l,alpha,verdict", [
        (0.7, 1, 1.0, "SlowConvergence"),
        (0.5, 1, 1.5, "pass"),
    ])
    def test_bounded_memory(self, a, l, alpha, verdict):
        # Under the benchmark worker's 512 MiB address-space cap both points
        # escaped MemoryError from the former Gauss-Legendre ring loop.
        src = str(Path(qsinc.__file__).resolve().parents[1])
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from qsinc import IdentityId, verify\n"
            f"r = verify(IdentityId.ClassicalSumInt, "
            f"{{'a': {a}, 'l': {l}, 'alpha': {alpha}}})\n"
            "print('pass' if r.passed else r.lhs_diag['reason'])\n")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().split(":")[0] == verdict

    def test_report_helper(self, series_eps):
        report = verify(IdentityId.ClassicalSumInt,
                        {"a": 2.0, "alpha": 1.0, "l": 2}, eps=series_eps)
        assert report.passed
        assert report.params["l"] == 2
        assert "tail_estimate" in report.lhs_diag

    def test_hypothesis_guards(self, series_eps):
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": -1.0, "alpha": 1.0, "l": 2}, eps=series_eps)
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": 2.0, "alpha": 1.5, "l": 2}, eps=series_eps)
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": 2.0, "alpha": 1.0, "l": 0}, eps=series_eps)
