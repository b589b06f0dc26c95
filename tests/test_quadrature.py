"""Quadrature on the log-substituted line: truncation, refinement, guards."""

import cmath
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qsinc
from qsinc import (
    DenominatorZero,
    DomainError,
    IdentityId,
    InvalidParams,
    QParams,
    SeriesParams,
    base_integral,
    fourier_integral,
    integrate_gaussian_decay,
    main_integral,
    main_series,
    multibasic_integral,
    MultibasicParams,
    multibasic_series,
    NoConvergence,
    qpoch_inf,
    QuadratureFailure,
    symmetric_integral,
    symmetric_series,
    theta_product,
    weighted_integral,
    weighted_series,
    verify,
)
from qsinc.errors import InvalidDecay
from qsinc import quadrature
from qsinc.quadrature import (
    MAX_NODES,
    _decay,
    _multibasic_model,
    _symmetric_model,
)

from conftest import rel_err
from oracles import MULTIBASIC_SERIES, WEIGHTED_SERIES


def _sp(a, b, z, q, p):
    return SeriesParams(qp=QParams(p=p, q=q), a=a, b=b, z=z)


class TestGaussianDecay:
    def test_gaussian_integral(self, quad_eps):
        res = integrate_gaussian_decay(lambda x: np.exp(-x * x), (1.0, 1.0),
                                       quad_eps)
        assert rel_err(res.value, math.sqrt(math.pi)) < 1e-12
        assert res.error_estimate < 1e-10

    def test_decay_rate_must_be_positive(self, quad_eps):
        with pytest.raises(InvalidDecay):
            integrate_gaussian_decay(lambda x: np.exp(-x * x), (0.0, 1.0),
                                     quad_eps)

    def test_refinement_invariant(self, quad_eps):
        # halving node spacing moves the value by < 4x the error estimate
        res = integrate_gaussian_decay(lambda x: np.exp(-x * x), (1.0, 1.0),
                                       quad_eps)
        res2 = integrate_gaussian_decay(lambda x: np.exp(-x * x), (1.0, 1.0),
                                        quad_eps, nodes_per_unit=4)
        assert abs(res.value - res2.value) <= 4 * max(res.error_estimate,
                                                      1e-15)

    def test_half_width_doubling_certificate(self, quad_eps):
        # A decay model 4x slower at least doubles the window.
        f = lambda x: np.exp(-x * x)
        res = integrate_gaussian_decay(f, (1.0, 1.0), quad_eps)
        res2 = integrate_gaussian_decay(f, (0.25, 1.0), quad_eps)
        assert res2.half_width_used >= 2 * res.half_width_used
        assert abs(res.value - res2.value) < quad_eps / 5

    def test_too_fast_decay_model_fails_at_the_window_edge(self):
        # exp(-x^2/100) is not negligible at the edge of the window that
        # decay (1, 1) sets; no refinement may be sampled.
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x * x / 100.0)

        with pytest.raises(QuadratureFailure, match="window edge"):
            integrate_gaussian_decay(f, (1.0, 1.0), 1e-10)
        assert len(calls) == 1

    def test_nodes_avoid_the_integers(self):
        # The series samples the integrand on Z; the integral must not.
        seen = []

        def f(x):
            seen.append(np.array(x, dtype=float))
            return np.exp(-64.0 * x * x)

        res = integrate_gaussian_decay(f, (64.0, 1.0), 1e-10,
                                       nodes_per_unit=8)
        assert res.refinements_used >= 1
        nodes = np.concatenate(seen)
        assert nodes.size == res.nodes_used
        assert np.min(np.abs(nodes - np.round(nodes))) > 1e-3

    def test_nonfinite_sample_fails_fast(self):
        # An integrand that overflows beyond |x| = 5 must not be refined.
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.where(np.abs(x) > 5.0, np.nan, np.exp(-0.1 * x * x))

        with pytest.raises(QuadratureFailure, match="non-finite .* x="):
            integrate_gaussian_decay(f, (0.1, 1.0), 1e-10)
        assert len(sizes) == 1  # the first level

    def test_infinities_of_both_signs_fail_typed(self):
        # inf + (-inf) in the first refinement, the odd nodes of the first
        # call: QuadratureFailure, not the ValueError of math.fsum.
        calls = []

        def f(x):
            calls.append(x.size)
            v = np.exp(-x * x).astype(complex)
            v[1], v[3] = np.inf, -np.inf
            return v

        with pytest.raises(QuadratureFailure, match="non-finite"):
            integrate_gaussian_decay(f, (1.0, 1.0), 1e-10)
        assert len(calls) == 1

    def test_node_budget_caps_an_integral(self, quad_eps):
        # Seeded 1e-8 noise keeps successive levels about 1e-7 / sqrt(nodes)
        # apart, so the estimate never reaches eps within the budget.  The
        # noise stops at |x| = 6, inside the window (about 6.57), so the
        # window's edge samples stay negligible.
        rng = np.random.default_rng(0)
        sizes = []

        def f(x):
            sizes.append(x.size)
            noise = 1e-8 * rng.standard_normal(x.size)
            return np.exp(-x * x) + np.where(np.abs(x) < 6.0, noise, 0.0)

        with pytest.raises(QuadratureFailure,
                           match=r"max_nodes=262144; last estimate"):
            integrate_gaussian_decay(f, (1.0, 1.0), quad_eps)
        # One call per pass: the first two levels' lattice, 4 npts + 1
        # nodes, then each level's midpoints, twice as many as the last.
        assert sizes[1] == sizes[0] - 1
        assert sizes[2:] == [2 * n for n in sizes[1:-1]]
        assert sum(sizes) <= MAX_NODES < sum(sizes) + 2 * sizes[-1]

    def test_node_density_validation(self):
        with pytest.raises(InvalidParams, match="nodes_per_unit"):
            integrate_gaussian_decay(lambda x: np.exp(-x * x), (1.0, 1.0),
                                     1e-10, nodes_per_unit=1)

    def _never_called(self, x):
        raise AssertionError("sampled a window that is over budget")

    def test_node_budget_checked_before_sampling(self):
        # 10^5 nodes per unit: the first level is above MAX_NODES,
        # so no node of it is built or sampled.
        with pytest.raises(QuadratureFailure, match="max_nodes=262144; no "):
            integrate_gaussian_decay(self._never_called, (1.0, 1.0), 1e-10,
                                     nodes_per_unit=10 ** 5)

    def test_astronomical_node_count_is_short(self):
        # The count was printed in full: a 300-digit integer.
        with pytest.raises(QuadratureFailure) as info:
            integrate_gaussian_decay(self._never_called, (1e-300, 2.0),
                                     1e-10)
        assert str(info.value) == ("level 0 needs 3.47e+300 nodes, above "
                                   "max_nodes=262144; no estimate yet")

    def test_infinite_window_fails_typed(self):
        with pytest.raises(QuadratureFailure, match="no finite window"):
            integrate_gaussian_decay(self._never_called, (1.0, math.inf),
                                     1e-10)


class TestDecayModel:
    @pytest.mark.parametrize("a, b, z, q, p", [
        (0.2, 0.3, 1.0, 0.6, 0.3), (-0.8, 0.05, 0.5 + 0.5j, 0.4, 0.1),
        (0.0, 1.5, 2.0, 0.8, 0.5), (0.3, -0.4, 0.3, 0.3j, 0.1j)])
    def test_one_factor_is_the_symmetric_model(self, a, b, z, q, p):
        # (b q^x, a q^-x; p)_inf / theta: g = (1 - alpha) ln(1/|q|) / 2 and
        # r = max(|z| |a|^alpha / |q|, |b|^alpha / |z|, 1 / |q|).
        alpha = math.log(abs(q)) / math.log(abs(p))
        g, r = _decay(((p, a, b, cmath.log(q)),), q, z)
        aa = abs(a) ** alpha if a else 1.0
        r_ref = max(abs(z) * aa / abs(q), abs(b) ** alpha / abs(z),
                    1.0 / abs(q))
        assert g == pytest.approx(0.5 * (1 - alpha) * math.log(1 / abs(q)),
                                  rel=1e-14)
        assert r == pytest.approx(r_ref, rel=1e-14)

    def test_weight_order_and_exponential(self):
        # No factors: the theta sum, and Bailey's weight q^(n(n-1)), which is
        # theta in base q^2; e^(mu x) moves the ratio at +inf by e^(Re mu)
        # and at -inf by e^(-Re mu).
        q, z = 0.5, 3.0
        assert _decay((), q, z) == pytest.approx((0.5 * math.log(2), 6.0))
        assert _decay((), q * q, z)[0] == pytest.approx(math.log(2))
        mu = 3 * cmath.log(q)  # the weight q^(3x)
        assert _decay((), q, z, mu=mu)[1] == pytest.approx(8.0 / 3.0)
        assert _decay((), q, 0.1, mu=mu)[1] == pytest.approx(80.0)

    def test_overflowing_ratio_is_infinite(self):
        assert _decay((), 0.5, 1.0, mu=-1e4 * math.log(2))[1] == math.inf


def _den(z, q, t):
    """The theta denominator (-z q^t, -q^(1-t)/z; q)_inf, product by product."""
    return qpoch_inf(-z * q ** t, q) * qpoch_inf(-q ** (1 - t) / z, q)


def _symmetric_case(a, b, z, q, p, mu):
    ref = lambda t: (cmath.exp(mu * t) * qpoch_inf(b * q ** t, p)
                     * qpoch_inf(a * q ** -t, p) / _den(z, q, t))
    return _symmetric_model(_sp(a, b, z, q, p), mu)[0], ref


def _base_case(q):
    # base_integral's integrand, captured from the quadrature call
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "integrate_gaussian_decay",
                   lambda f, decay, eps: seen.append(f))
        base_integral(q, 1e-10)
    return seen[0], lambda t: math.log(1.0 / q) / _den(1.0, q, t)


def _multibasic_case(factors, alpha_sum, z):
    # [a; b + alpha x]_p = (p^(b+1) p^(alpha x), p^(a-b+1) p^(-alpha x); p)_inf
    # / (p, p^(a+1); p)_inf
    params = MultibasicParams.from_alpha_sum(factors, alpha_sum, z)

    def ref(t):
        v = 1.0 / _den(z, params.q, t)
        for (p, a, b), alpha in zip(factors, params.alphas):
            v *= (qpoch_inf(p ** (b + 1 + alpha * t), p)
                  * qpoch_inf(p ** (a - b + 1 - alpha * t), p)
                  / (qpoch_inf(p, p) * qpoch_inf(p ** (a + 1), p)))
        return v
    return _multibasic_model(params)[0], ref


class TestIntegrand:
    # The term routine takes den once per class of the nodes' fractional
    # part; the direct ratio, product by product, is the reference, on a
    # lattice of 6 nodes per unit and on the integers.
    @pytest.mark.parametrize("case, args", [
        (_symmetric_case, (0.2, 0.3, 1.5, 0.6, 0.3, 0.0)),
        (_symmetric_case, (-0.4, 0.35, 0.8 + 0.9j, 0.5, 0.2, 0.0)),
        (_symmetric_case, (0.1, 0.2, 1.0, 0.5, 0.2, -3 * math.log(0.5))),
        (_symmetric_case, (0.1, 0.2, 1.0, 0.5, 0.2, 2.5j)),
        (_base_case, (0.6,)),
        (_multibasic_case, (((0.2, 2, 1), (0.3, 3, 1)), 0.5, 0.6 + 0.2j))],
        ids=["real-z", "complex-z", "weight-q^mx", "fourier-e^iyx",
             "base-integral", "multibasic-two-factors"])
    def test_matches_the_direct_ratio(self, case, args):
        f, ref = case(*args)
        lattice = (np.arange(-36, 36) + 1.0 / 3.0) / 6.0
        for x in (lattice, np.arange(-6.0, 7.0)):
            want = np.array([ref(t) for t in x])
            assert np.max(np.abs(f(x) - want) / np.abs(want)) < 1e-13

    @pytest.mark.parametrize("nodes_per_unit, offset", [(1, 0.0),
                                                         (4, 0.5)])
    def test_underflowed_weights_leave_the_live_values(self, nodes_per_unit,
                                                       offset):
        # On |x| <= 80 at q = .6 the weight underflows past |x| ~ 55: the
        # window is evaluated on its live nodes only, and scattered into
        # zeros.  Its live nodes alone take the path without a mask; the
        # values must be the same bits.  The nodes' fractional parts are
        # exact binary fractions, so both calls take den at the same x0.
        f = _symmetric_model(_sp(0.2, 0.3, 1.5, 0.6, 0.3))[0]
        npts = 80 * nodes_per_unit
        x = (np.arange(-npts, npts + 1) + offset) / nodes_per_unit
        whole = f(x)
        live = np.flatnonzero(whole)
        assert whole[0] == whole[-1] == 0.0
        assert np.array_equal(live, np.arange(live[0], live[-1] + 1))
        part = f(x[live])
        assert part.all()
        assert part.tobytes() == whole[live].tobytes()


class TestBaseIntegral:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_closed_form(self, q, quad_eps):
        res = base_integral(q, quad_eps)
        expected = qpoch_inf(q, q) * math.log(1.0 / q)
        assert rel_err(res.value, expected) < 1e-10

    def test_real_base_required_by_default(self, quad_eps):
        with pytest.raises(InvalidParams):
            base_integral(0.5 + 0.1j, quad_eps)


class TestMainIntegral:
    def test_coarse_start(self, quad_eps):
        # Spectral convergence: h = 1/2 and h = 1/4 already agree to
        # roundoff; a start at 16 nodes per unit used 1249 nodes.
        res = main_integral(_sp(0.2, 0.3, 1.0, 0.6, 0.3), quad_eps)
        assert res.nodes_used <= 200
        assert res.error_estimate <= 1e-14

    @pytest.mark.parametrize("z", [1.0, 0.5 + 0.5j, 2.0])
    def test_matches_series(self, z, quad_eps, series_eps):
        params = _sp(0.2, 0.3, z, 0.6, 0.3)
        res = main_integral(params, quad_eps)
        ev = main_series(params, series_eps)
        assert rel_err(res.value, ev.value) < 1e-8

    @pytest.mark.parametrize("z", [2.0, 0.5 + 0.5j])
    def test_window_is_the_mapped_integrands(self, z, quad_eps):
        # main_integral integrates the symmetric integrand at (a z, b/z, 1),
        # so its window is that integrand's, not the one of (a, b, z).
        params = _sp(0.2, 0.3, z, 0.6, 0.3)
        mapped = replace(params, a=0.2 * z, b=0.3 / z, z=1.0)
        assert (main_integral(params, quad_eps).half_width_used
                == symmetric_integral(mapped, quad_eps).half_width_used)

    def test_trivial_numerator_is_theta(self, quad_eps):
        res = main_integral(_sp(0.0, 0.0, 0.8, 0.5, 0.2), quad_eps)
        assert rel_err(res.value, theta_product(0.8, 0.5)) < 1e-10

    def test_left_half_plane_rejected(self, quad_eps):
        with pytest.raises(DomainError):
            main_integral(_sp(0.2, 0.3, -1.0 + 0.2j, 0.6, 0.3), quad_eps)


@pytest.fixture
def product_calls(monkeypatch):
    """Counts of the vector and scalar product calls made through
    quadrature's bindings, where every term routine takes its products."""
    calls = {"vec": 0, "scalar": 0}

    def counted(name, fn):
        def wrapper(a, q):
            calls[name] += 1
            return fn(a, q)
        return wrapper

    monkeypatch.setattr(quadrature, "qpoch_inf_vec",
                        counted("vec", quadrature.qpoch_inf_vec))
    monkeypatch.setattr(quadrature, "qpoch_inf",
                        counted("scalar", quadrature.qpoch_inf))
    return calls


@pytest.mark.parametrize("side, vec, scalar", [
    (symmetric_series, 2, 0),  # the numerator pair, den on the class x0 = 0
    (main_series, 1, 0),  # the numerator pair; theta(n) takes no den
    (main_integral, 2, 2),  # one pass, and the prefactor (-z, -q/z; q)_inf
], ids=["symmetric_series", "main_series", "main_integral"])
def test_product_calls_per_side(side, vec, scalar, product_calls):
    res = side(_sp(0.1, 0.2, 1.0, 0.5, 0.2), 1e-10)
    assert res.refinements_used == 0
    assert product_calls == {"vec": vec, "scalar": scalar}


class TestSymmetricIntegral:
    @pytest.mark.parametrize("z", [1.0, 0.3 + 0.4j])
    def test_matches_series(self, z, quad_eps, series_eps):
        params = _sp(0.1, 0.2, z, 0.5, 0.2)
        res = symmetric_integral(params, quad_eps)
        ev = symmetric_series(params, series_eps)
        assert rel_err(res.value, ev.value) < 1e-9

    def test_negative_axis_rejected(self, quad_eps):
        with pytest.raises(InvalidParams):
            symmetric_integral(_sp(0.1, 0.2, -0.7, 0.5, 0.2), quad_eps)

    def test_one_integrand_call_and_two_vector_products(
            self, monkeypatch, product_calls):
        # Levels 0 and 1 are one lattice, so an integral that stops at the
        # first comparison calls its integrand once.  That call takes one
        # product for the numerator pair and one for den's pair on the
        # lattice's classes; no den(0) is taken.
        calls = []
        make = quadrature._integrand

        def integrand(*args, **kwargs):
            f = make(*args, **kwargs)

            def counted(x):
                calls.append(x.size)
                return f(x)
            return counted

        monkeypatch.setattr(quadrature, "_integrand", integrand)
        res = symmetric_integral(_sp(0.1, 0.2, 1.0, 0.5, 0.2), 1e-10)
        assert (res.nodes_used, res.refinements_used) == (137, 0)
        assert calls == [137]
        assert product_calls == {"vec": 2, "scalar": 0}

    def test_hard_point_fails_typed_and_fast(self, monkeypatch):
        # z near the negative axis puts the denominator's zeros near R, so
        # the levels converge slowly; unbounded refinement exhausted memory.
        params = _sp(0.3 - 0.2j, -0.4, 0.5 * cmath.exp(0.9j * math.pi),
                     0.9, 0.18)
        monkeypatch.setattr(quadrature, "MAX_NODES", 2 ** 14)
        start = time.perf_counter()
        with pytest.raises(QuadratureFailure, match="max_nodes=16384"):
            symmetric_integral(params, 1e-11)
        assert time.perf_counter() - start < 5.0


class TestThetaDenominatorOverflow:
    # At q = .999 the theta denominator overflows on every class.  Both sides
    # stop typed and name it, with no numpy warning (warnings are errors
    # here): a term over an infinite den is not a zero term.
    _SYMMETRIC = {"a": 0.1, "b": 0.2, "z": 1, "q": 0.999, "p": 0.4995,
                  "allow_extreme": True}
    _REASON = r"\(-z q\^x, -q\^\(1-x\)/z; q\)_inf is inf at x="

    @pytest.mark.parametrize("ident, params", [
        (IdentityId.Symmetric, _SYMMETRIC),
        (IdentityId.BaseIntegral, {"q": 0.999})],
        ids=["symmetric", "base-integral"])
    def test_verify_is_inconclusive(self, ident, params):
        report = verify(ident, params)
        assert report.lhs_diag["status"] == "inconclusive"
        assert re.match("NoConvergence: " + self._REASON,
                        report.lhs_diag["reason"])

    @pytest.mark.parametrize("side", [symmetric_series, symmetric_integral])
    def test_both_sides(self, side):
        qp = QParams(p=0.4995, q=0.999, allow_extreme=True)
        with pytest.raises(NoConvergence, match="^" + self._REASON):
            side(SeriesParams(qp=qp, a=0.1, b=0.2, z=1.0), 1e-10)


class TestFourierIntegral:
    def test_y_zero_is_symmetric(self, quad_eps):
        params = _sp(0.1, 0.2, 1.0, 0.5, 0.2)
        res = fourier_integral(params, 0.0, quad_eps)
        ref = symmetric_integral(params, quad_eps)
        assert rel_err(res.value, ref.value) < 1e-11

    def test_conjugate_symmetry(self, quad_eps):
        params = _sp(0.1, 0.2, 1.0, 0.5, 0.2)
        plus = fourier_integral(params, 1.3, quad_eps).value
        minus = fourier_integral(params, -1.3, quad_eps).value
        assert abs(plus - minus.conjugate()) < 1e-12

    def test_requires_z_one(self, quad_eps):
        with pytest.raises(InvalidParams):
            fourier_integral(_sp(0.1, 0.2, 0.9, 0.5, 0.2), 1.0, quad_eps)


class TestWeightedIntegral:
    @pytest.mark.parametrize("m", [-2, 0, 2])
    def test_matches_series(self, m, quad_eps, series_eps):
        params = _sp(0.1, 0.2, 1.0, 0.5, 0.2)
        res = weighted_integral(params, m, quad_eps)
        ev = weighted_series(params, m, series_eps)
        assert rel_err(res.value, ev.value) < 1e-9

    @pytest.mark.parametrize("key", sorted(WEIGHTED_SERIES))
    def test_against_oracle(self, key, quad_eps):
        # The window is sized for q^(mx) on each side separately; bounding
        # it by 1/|q|^|m| on both widened the window into overflow at the
        # two m < 0 points.
        a, b, q, p, m = key
        res = weighted_integral(_sp(a, b, 1.0, q, p), m, quad_eps)
        assert rel_err(res.value, WEIGHTED_SERIES[key]) < 1e-11

    def test_huge_weight_fails_typed(self, quad_eps):
        report = verify(IdentityId.WeightedM,
                        {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "m": 10 ** 4})
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith("NoConvergence")
        with pytest.raises(QuadratureFailure, match="no finite window"):
            weighted_integral(_sp(0.1, 0.2, 1.0, 0.5, 0.2), 10 ** 4, quad_eps)


class TestBoundedMemory:
    @pytest.mark.parametrize("ident, params", [
        ("fourier", {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "y": 1e7}),
        ("poisson", {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "m": 10 ** 6}),
        ("poisson", {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "m": 10 ** 30}),
    ], ids=["fourier-y1e7", "poisson-m1e6", "poisson-m1e30"])
    def test_over_budget_density_fails_typed(self, ident, params):
        # Under a 512 MiB address-space cap the first two escaped
        # MemoryError while their first level was built (803 and 504 MiB);
        # the third escaped numpy's ValueError for an oversized array.
        src = str(Path(qsinc.__file__).resolve().parents[1])
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from qsinc import IdentityId, verify\n"
            f"r = verify(IdentityId({ident!r}), {params!r})\n"
            "print(r.lhs_diag['status'], r.lhs_diag['reason'])\n")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith(
            "inconclusive QuadratureFailure: level 0 needs"), out.stdout


class TestMultibasicIntegral:
    _TWO = ((0.2, 2, 1), (0.3, 3, 1))

    def test_matches_series(self, quad_eps, series_eps):
        params = MultibasicParams.from_alpha_sum(self._TWO, alpha_sum=0.8,
                                                 z=1.0)
        res = multibasic_integral(params, quad_eps)
        ev = multibasic_series(params, series_eps)
        assert rel_err(res.value, ev.value) < 1e-8

    def test_complex_z(self, quad_eps, series_eps):
        params = MultibasicParams.from_alpha_sum(self._TWO, alpha_sum=0.5,
                                                 z=0.6 + 0.2j)
        res = multibasic_integral(params, quad_eps)
        ev = multibasic_series(params, series_eps)
        assert rel_err(res.value, ev.value) < 1e-8

    @pytest.mark.parametrize("factors", sorted(MULTIBASIC_SERIES))
    def test_factor_list_against_oracle(self, factors):
        # three factors, and a q-sinc factor (a2 = b2 = 0) that is not 1
        params = MultibasicParams.from_alpha_sum(factors, 0.8, z=1.0)
        res = multibasic_integral(params, 1e-13)
        assert rel_err(res.value, MULTIBASIC_SERIES[factors]) < 1e-13


class TestDenominatorZero:
    # 1 + z q^2 = 0: the denominator vanishes at every integer x, so both
    # integrands have poles on the real line.
    def test_symmetric_integral(self, quad_eps):
        with pytest.raises(DenominatorZero):
            symmetric_integral(_sp(0.1, 0.2, 4.0, 0.5j, 0.2j), quad_eps)

    def test_multibasic_integral(self, quad_eps):
        params = MultibasicParams(factors=((0.1, 2, 1), (0.2, 3, 1)),
                                  q=0.5j, z=4.0)
        with pytest.raises(DenominatorZero):
            multibasic_integral(params, quad_eps)

    # z q^1.5 = -1 at q = 0.5i, z = 2 + 2i: the denominator vanishes at every
    # half-integer, a pole on the integral's path but on no integer node.
    _LINE_POLE = dict(a=0.1, b=0.2, z=2 + 2j, q=0.5j, p=0.2j)

    def test_line_pole_stops_both_integrals(self, quad_eps, series_eps):
        pt = self._LINE_POLE
        with pytest.raises(DenominatorZero, match="x = 1.5"):
            symmetric_integral(_sp(pt["a"], pt["b"], pt["z"], pt["q"],
                                   pt["p"]), quad_eps)
        params = MultibasicParams(factors=((pt["p"], 2, 1),), q=pt["q"],
                                  z=pt["z"])
        with pytest.raises(DenominatorZero, match="x = 1.5"):
            multibasic_integral(params, quad_eps)
        # the sum samples only the integers, where the terms are finite
        assert np.isfinite(multibasic_series(params, series_eps).value)

    def test_line_pole_leaves_the_series_and_fails_verify(self, series_eps):
        pt = self._LINE_POLE
        ev = symmetric_series(_sp(pt["a"], pt["b"], pt["z"], pt["q"],
                                  pt["p"]), series_eps)
        # mpmath at 30 digits: the terms are finite on the integers
        ref = 0.77357274500801000 + 0.04893615430989713j
        assert rel_err(ev.value, ref) < 1e-13
        report = verify(IdentityId.Symmetric, pt)
        assert not report.passed
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith("DenominatorZero")
