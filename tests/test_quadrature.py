"""Quadrature on the log-substituted line: truncation, refinement, guards."""

import cmath
import math
import time

import numpy as np
import pytest

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
from qsinc.quadrature import _CHUNK, MAX_NODES

from conftest import rel_err
from oracles import MULTIBASIC_SERIES


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
        # inf + (-inf) in the first refinement: QuadratureFailure, not the
        # ValueError of math.fsum.
        calls = []

        def f(x):
            calls.append(x.size)
            v = np.exp(-x * x).astype(complex)
            if len(calls) == 2:
                v[:2] = [np.inf, -np.inf]
            return v

        with pytest.raises(QuadratureFailure, match="non-finite"):
            integrate_gaussian_decay(f, (1.0, 1.0), 1e-10)
        assert len(calls) == 2

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
        assert max(sizes) <= _CHUNK
        assert sum(sizes) <= MAX_NODES

    def test_node_density_validation(self):
        with pytest.raises(InvalidParams, match="nodes_per_unit"):
            integrate_gaussian_decay(lambda x: np.exp(-x * x), (1.0, 1.0),
                                     1e-10, nodes_per_unit=1)


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

    def test_trivial_numerator_is_theta(self, quad_eps):
        res = main_integral(_sp(0.0, 0.0, 0.8, 0.5, 0.2), quad_eps)
        assert rel_err(res.value, theta_product(0.8, 0.5)) < 1e-10

    def test_left_half_plane_rejected(self, quad_eps):
        with pytest.raises(DomainError):
            main_integral(_sp(0.2, 0.3, -1.0 + 0.2j, 0.6, 0.3), quad_eps)


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
