"""Classical binomial-profile sums, integrals and the circle sum."""

import cmath
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sweep_points,
    verify,
)

import qsinc
from qsinc import classical
from conftest import rel_err


def test_classical_verify_loads_no_scipy():
    # The binomial is numpy only: neither the import nor a classical verify
    # loads scipy, whose import would dominate a cold start.
    src = str(Path(qsinc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from qsinc import cli\n"
        "for argv in (['classical-sum-int', '--a', '2', '--alpha', '1',\n"
        "              '--l', '2'],\n"
        "             ['osler', '--a', '2', '--alpha', '0.5']):\n"
        "    assert cli.main(['verify', '--identity', *argv]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


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
        assert binomial_real(3.0, -1.0) == 0.0

    def test_integer_order_has_exact_zeros(self):
        # sin(pi (u - a)) is reduced exactly, so no rounding is left over.
        n = np.concatenate([np.arange(-300.0, 0.0), np.arange(3.0, 300.0),
                            [-999_999.0, -1e5, 1e5, 999_999.0, 1e6]])
        assert np.all(binomial_profile(2.0, n) == 0.0)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.0, 2.5, 3.0, 3.2])
    def test_profile_against_mpmath(self, a):
        # Seeded u away from the zeros of sin(pi (u - a)), where the
        # relative error is the function's own, not the argument's.
        rng = np.random.default_rng(int(a * 10))
        near = rng.uniform(-60.0, 60.0, 60)
        far = rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(
            math.log10(60.0), 6.0, 60)
        with mpmath.workdps(30):
            us, exact = [], []
            for u in np.concatenate([near, far]):
                if abs(mpmath.sinpi(mpmath.mpf(u) - mpmath.mpf(a))) >= 0.1:
                    us.append(u)
                    exact.append(mpmath.binomial(a, mpmath.mpf(u)))
        us = np.array(us)
        got = binomial_profile(a, us)
        err = np.array([float(abs((g - e) / e)) for g, e in zip(got, exact)])
        small = np.abs(us) <= 60.0
        assert small.sum() > 20 and (~small).sum() > 20
        assert err[small].max() <= 1e-13
        assert np.all(err[~small] <= 1e-14 * np.abs(us[~small]))

    # Dyadic a and u keep a - u, a - 1 and u - 1 exact, so every side sees
    # exactly the arguments the identity names.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1025, 4096), st.integers(-40 * 1024, 40 * 1024))
    def test_symmetry_and_pascal(self, a_k, u_k):
        a, u = a_k / 1024, u_k / 1024

        def binom(order, arg):
            return float(binomial_profile(order, np.array([arg]))[0])

        value, mirror = binom(a, u), binom(a, a - u)
        assert abs(value - mirror) <= 1e-12 * max(abs(value), abs(mirror))
        up, down = binom(a - 1.0, u), binom(a - 1.0, u - 1.0)
        scale = max(abs(value), abs(up), abs(down))
        assert abs(value - (up + down)) <= 1e-12 * scale

    def test_numerator_pole_raises(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            binomial_real(-2.0, 0.5)

    def test_coincident_poles_raise(self):
        with pytest.raises(IndeterminateRatio):
            binomial_real(-2.0, -3.0)

    # Within 1e-9 of a Gamma pole, but not at one: the former 1e-9 integer
    # tolerance returned 0, or raised a pole or IndeterminateRatio.
    @pytest.mark.parametrize("f, args, exact", [
        (binomial_real, (2.0, -0.99999999999), mpmath.binomial),
        (binomial_real, (-1.999999999999, 0.5), mpmath.binomial),
        (gamma_classical, (-0.9999999999,), mpmath.gamma),
    ], ids=["u-near-pole", "a-near-pole", "gamma-near-pole"])
    def test_near_pole_against_mpmath(self, f, args, exact):
        with mpmath.workdps(30):
            expected = float(exact(*map(mpmath.mpf, args)))
        assert rel_err(f(*args), expected) <= 1e-14

    def test_near_coincident_poles_give_zero(self):
        # Gamma(a+1) is finite and Gamma(u+1) has its pole: exactly 0.
        assert binomial_real(-1.9999999999, -3.0) == 0.0

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

    def test_window_over_budget_evaluates_no_binomial(self, monkeypatch):
        # A w within 1e-12 of 1 needs a window of about 1e13 terms: typed
        # before any binomial is evaluated.
        calls = []

        def counting(a, u):
            calls.append(np.size(u))
            return binomial_profile(a, u)

        monkeypatch.setattr(classical, "binomial_profile", counting)
        start = time.perf_counter()
        for side in (
                lambda: osler_sum(OslerParams(a=0.5, b=0.0, alpha=1.0,
                                              theta=math.pi - 1e-12), 1e-10),
                lambda: classical_sum(0.5, 1.0 - 1e-12, 2, 1e-10),
                lambda: classical_integral(0.5, 1.0 - 1e-12, 2, 1e-10)):
            with pytest.raises(SlowConvergence, match="SERIES_MAX_TERMS"):
                side()
        assert calls == []
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("a,l,alpha,verdict", [
        (0.7, 1, 1.0, "pass"),
        (0.5, 1, 1.5, "pass"),
    ])
    def test_bounded_memory(self, a, l, alpha, verdict):
        # Under the benchmark worker's 512 MiB address-space cap both points
        # escaped MemoryError from the former Gauss-Legendre ring loop; the
        # first then needed a million-term window, and now has a short one.
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

    def test_report_helper(self):
        report = verify(IdentityId.ClassicalSumInt,
                        {"a": 2.0, "alpha": 1.0, "l": 2})
        assert report.passed
        assert report.params["l"] == 2
        assert "tail_estimate" in report.lhs_diag

    def test_hypothesis_guards(self, series_eps):
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": -1.0, "alpha": 1.0, "l": 2})
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": 2.0, "alpha": 1.5, "l": 2})
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": 2.0, "alpha": 1.0, "l": 0})
        # Terms like |n|^-((a+1) l) = |n|^-1: both sides diverge.
        for side in (classical_sum, classical_integral):
            with pytest.raises(InvalidParams, match="decay"):
                side(-0.5, 1.0, 2, series_eps)


# The osler and classical-sum-int points of the benchmark's catalog
# (perfbench/workloads.py, _acceptance_points).
_OSLER_POINTS = [{"a": a, "alpha": alpha, "theta": theta}
                 for a, alpha, theta in [(2.0, 0.5, 0.0), (2.0, 1.0, 0.0),
                                         (1.5, 0.5, 0.4), (3.0, 0.7, -0.8),
                                         (2.5, 1.0, 1.0)]]
_CLASSICAL_POINTS = [{"a": a, "l": l, "alpha": alpha}
                     for a, l, alpha in [(2.0, 1, 1.0), (2.0, 2, 1.0),
                                         (3.0, 2, 1.0), (2.0, 4, 0.5),
                                         (2.5, 3, 2.0 / 3.0)]]


@pytest.mark.parametrize("ident,points", [
    (IdentityId.Osler, _OSLER_POINTS),
    (IdentityId.ClassicalSumInt, _CLASSICAL_POINTS),
], ids=["osler", "classical-sum-int"])
def test_two_sweep_threads_give_the_same_reports(ident, points):
    # The binomial keeps no state between calls, so threads cannot mix.
    def fields(report):
        return repr({k: v for k, v in vars(report).items() if k != "elapsed"})

    one, s1 = sweep_points(ident, points, threads=1)
    two, s2 = sweep_points(ident, points, threads=2)
    assert s1 == s2 and s1["passed"] == len(points)
    assert [fields(r) for r in one] == [fields(r) for r in two]


@pytest.mark.parametrize("ident,points", [
    (IdentityId.Osler, _OSLER_POINTS),
    (IdentityId.ClassicalSumInt, _CLASSICAL_POINTS),
], ids=["osler", "classical-sum-int"])
def test_one_binomial_call_per_side(monkeypatch, ident, points):
    # One window per side: the sum and the integral's four lattices are
    # each one binomial_profile call; the tails evaluate no binomial.
    calls = []

    def counting(a, u):
        calls.append(np.size(u))
        return binomial_profile(a, u)

    monkeypatch.setattr(classical, "binomial_profile", counting)
    for params in points:
        calls.clear()
        report = verify(ident, params)
        assert report.passed
        sides = [d for d in (report.lhs_diag, report.rhs_diag)
                 if d["method"] != "closed-form"]
        assert len(calls) == len(sides)
        assert calls == [d["terms_used"] or d["nodes_used"] for d in sides]


def _sinc2_tail(u0: float, alpha: float, theta: float, n: int):
    """Sum over |k| > n of sinc(u)^2 e^(i theta u), u = u0 + alpha k, where
    sinc(u) = sin(pi u)/(pi u) = binom(0, u), in mpmath.

    At each end y = +-u (e^(+-i theta y)), sin^2(pi y) = (2 - e^(2 pi i y)
    - e^(-2 pi i y))/4 and each sum over m > n of e^(i nu y)/y^2, y =
    alpha (m + x), is alpha^-2 e^(i nu alpha x) w^(n+1) Phi(w, 2, n+1+x),
    w = e^(i nu alpha): mpmath.zeta(2, .) at w = 1, else mpmath.lerchphi.
    """
    mp = mpmath.mp
    total = mp.mpc(0)
    for beta, s in ((mp.mpf(u0), 1), (-mp.mpf(u0), -1)):
        x = beta / alpha
        big_x = n + 1 + x
        for weight, nu in ((2, s * theta), (-1, s * theta + 2 * mp.pi),
                           (-1, s * theta - 2 * mp.pi)):
            turns = nu * alpha / (2 * mp.pi)
            if abs(turns - mpmath.nint(turns)) < 1e-20:
                phi = mpmath.zeta(2, big_x)
            else:
                w = mpmath.expj(nu * alpha)
                phi = w ** (n + 1) * mpmath.lerchphi(w, 2, big_x)
            total += (weight * mpmath.expj(nu * beta) * phi
                      / (4 * mp.pi ** 2 * alpha ** 2))
    return complex(total)


@pytest.mark.parametrize("alpha,theta", [
    (1.0, 0.0),  # w = 1 only: Hurwitz zeta
    (0.5, 0.0),  # w = 1 and w = -1
    (0.3, 0.7),  # generic w on the unit circle
    (0.5, 1.2),
])
def test_tails_against_lerch_phi(alpha, theta):
    # binom(0, u)^2 = sinc(u)^2 has R(y)^2 = y^-2 exactly, so its tails are
    # Lerch sums in closed form.  n is past the window that _bilateral sets
    # at these points (at most 267, for (0.3, 0.7)); the error is roundoff
    # or within twice the reported size of the omitted terms.
    u0, n = np.array([0.37]), 400
    with mpmath.workdps(20):
        exact = np.array([_sinc2_tail(u, alpha, theta, n) for u in u0])
    got, omitted = classical._tails(0.0, 2, alpha, theta, n, u0,
                                    *classical._phases(2, alpha, theta))
    scale = np.abs(exact).max()
    assert scale > 1e-7
    assert omitted.max() < 1e-12 * scale
    assert np.abs(got - exact).max() <= 1e-14 * scale + 2.0 * omitted.max()


# The classical grid of ROADMAP item 9: a pair of (a + 1) l <= 2.6 points
# there needed windows of 1,048,577 terms and ended SlowConvergence.
_GRID = [(a, l, alpha) for a in (0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0)
         for l in (1, 2, 3, 4)
         for alpha in sorted({0.25, 0.5, 1.0, 2.0 / l}) if alpha <= 2.0 / l]


def test_classical_grid_passes_against_closed_forms():
    assert len(_GRID) == 84
    for a, l, alpha in _GRID:
        start = time.perf_counter()
        report = verify(IdentityId.ClassicalSumInt,
                        {"a": a, "l": l, "alpha": alpha})
        assert report.passed, (a, l, alpha, report.lhs_diag)
        assert report.rel_err < 1e-13, (a, l, alpha)
        assert time.perf_counter() - start < 0.05
        if l == 1:  # sum_n binom(a, alpha n) = 2^a / alpha
            closed = 2.0 ** a / alpha
        elif l == 2 and alpha <= 1.0:  # Vandermonde, for alpha <= 1
            closed = math.gamma(2 * a + 1) / math.gamma(a + 1) ** 2 / alpha
        else:
            continue
        assert rel_err(report.lhs, closed) < 1e-13, (a, l, alpha)


@pytest.mark.parametrize("a,l,alpha", [(1e-6, 1, 2.0), (1e-6, 2, 1.0)])
def test_tiny_order_on_the_band_edge(a, l, alpha):
    # At alpha = 2/l every w is 1 and the tail is sin^l(pi a) ~ (pi a)^l
    # times a zeta sum ~ 1/((a+1) l - 1): the phases and t - 1 must not
    # round, or the tail's error is about 1e-9.
    closed = (2.0 ** a if l == 1 else math.gamma(2 * a + 1)
              / math.gamma(a + 1) ** 2) / alpha
    assert rel_err(classical_sum(a, alpha, l, 1e-10).value, closed) < 1e-14


@pytest.mark.parametrize("a", [0.1, 0.3, 1.5, 3.0])
def test_osler_sweep_against_closed_form(a):
    for alpha in (0.25, 0.5, 1.0):
        for b in (0.0, 0.3):
            for frac in (0.0, 0.5, -0.5, 0.9, -0.9):
                theta = frac * math.pi * alpha
                side = osler_sum(OslerParams(a=a, b=b, alpha=alpha,
                                             theta=theta), 1e-10)
                closed = (1.0 + cmath.exp(1j * theta)) ** a / alpha
                assert abs(side.value - closed) <= 1e-12 * abs(closed), (
                    alpha, b, frac)
