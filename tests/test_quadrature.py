"""Quadrature on the log-substituted line: truncation, refinement, guards."""

import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qsinc import (
    DenominatorZero,
    DomainError,
    InvalidParams,
    QParams,
    QuadratureSpec,
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
)
from qsinc.errors import InvalidDecay
from qsinc.quadrature import _CHUNK

from conftest import rel_err
from oracles import MULTIBASIC_SERIES


def _sp(a, b, z, q, p):
    return SeriesParams(qp=QParams(p=p, q=q), a=a, b=b, z=z)


class TestGaussianDecay:
    def test_gaussian_integral(self, spec):
        res = integrate_gaussian_decay(lambda x: np.exp(-x * x), (1.0, 1.0),
                                       spec)
        assert rel_err(res.value, math.sqrt(math.pi)) < 1e-12
        assert res.error_estimate < 1e-10

    def test_decay_rate_must_be_positive(self, spec):
        with pytest.raises(InvalidDecay):
            integrate_gaussian_decay(lambda x: np.exp(-x * x), (0.0, 1.0),
                                     spec)

    def test_refinement_invariant(self, spec):
        # halving node spacing moves the value by < 4x the error estimate
        res = integrate_gaussian_decay(lambda x: np.exp(-x * x), (1.0, 1.0),
                                       spec)
        fine = replace(spec, nodes_per_unit=2 * spec.nodes_per_unit)
        res2 = integrate_gaussian_decay(lambda x: np.exp(-x * x), (1.0, 1.0),
                                        fine)
        assert abs(res.value - res2.value) <= 4 * max(res.error_estimate,
                                                      1e-15)

    def test_half_width_doubling_certificate(self, spec):
        f = lambda x: np.exp(-x * x)
        res = integrate_gaussian_decay(f, (1.0, 1.0), spec)
        wide = replace(spec, half_width=2 * res.half_width_used)
        res2 = integrate_gaussian_decay(f, (1.0, 1.0), wide)
        assert abs(res.value - res2.value) < spec.eps / 5

    def test_nodes_avoid_the_integers(self):
        # The series samples the integrand on Z; the integral must not.
        seen = []

        def f(x):
            seen.append(np.array(x, dtype=float))
            return np.exp(-64.0 * x * x)

        res = integrate_gaussian_decay(f, (64.0, 1.0),
                                       QuadratureSpec(nodes_per_unit=8))
        assert res.refinements_used >= 1
        nodes = np.concatenate(seen)
        assert nodes.size == res.nodes_used + 2  # plus the two edge probes
        assert np.min(np.abs(nodes - np.round(nodes))) > 1e-3

    def test_nonfinite_sample_fails_fast(self):
        # An integrand that overflows beyond |x| = 5 must not be refined.
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.where(np.abs(x) > 5.0, np.nan, np.exp(-0.1 * x * x))

        with pytest.raises(QuadratureFailure, match="non-finite .* x="):
            integrate_gaussian_decay(f, (0.1, 1.0), QuadratureSpec())
        assert len(sizes) <= 2  # the edge probe and the first level

    def test_infinities_of_both_signs_fail_typed(self):
        # inf + (-inf) in the first refinement: QuadratureFailure, not the
        # ValueError of math.fsum.
        calls = []

        def f(x):
            calls.append(x.size)
            v = np.exp(-x * x).astype(complex)
            if len(calls) == 3:
                v[:2] = [np.inf, -np.inf]
            return v

        with pytest.raises(QuadratureFailure, match="non-finite"):
            integrate_gaussian_decay(f, (1.0, 1.0), QuadratureSpec())
        assert len(calls) == 3

    def test_node_budget_caps_an_integral(self, spec):
        # Seeded 1e-8 noise keeps successive levels about 1e-7 / sqrt(nodes)
        # apart, so the estimate never reaches eps within the budget.
        rng = np.random.default_rng(0)
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x * x) + 1e-8 * rng.standard_normal(x.size)

        with pytest.raises(QuadratureFailure,
                           match=r"max_nodes=262144; last estimate"):
            integrate_gaussian_decay(f, (1.0, 1.0), spec)
        assert max(sizes) <= _CHUNK
        # The level nodes, plus at most four two-node edge probes.
        assert sum(sizes) <= spec.max_nodes + 8

    def test_spec_validation(self):
        with pytest.raises(InvalidParams):
            QuadratureSpec(half_width=0.0)
        with pytest.raises(InvalidParams):
            QuadratureSpec(nodes_per_unit=1)
        with pytest.raises(InvalidParams):
            QuadratureSpec(max_nodes=0)


class TestBaseIntegral:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_closed_form(self, q, spec, policy):
        res = base_integral(q, spec)
        expected = qpoch_inf(q, q, policy) * math.log(1.0 / q)
        assert rel_err(res.value, expected) < 1e-10

    def test_real_base_required_by_default(self, spec):
        with pytest.raises(InvalidParams):
            base_integral(0.5 + 0.1j, spec)
        base_integral(0.5 + 0.1j, spec, allow_complex=True)


class TestMainIntegral:
    def test_coarse_start(self, spec):
        # Spectral convergence: h = 1/2 and h = 1/4 already agree to
        # roundoff; a start at 16 nodes per unit used 1249 nodes.
        res = main_integral(_sp(0.2, 0.3, 1.0, 0.6, 0.3), spec)
        assert res.nodes_used <= 200
        assert res.error_estimate <= 1e-14

    @pytest.mark.parametrize("z", [1.0, 0.5 + 0.5j, 2.0])
    def test_matches_series(self, z, spec, policy):
        params = _sp(0.2, 0.3, z, 0.6, 0.3)
        res = main_integral(params, spec)
        ev = main_series(params, policy)
        assert rel_err(res.value, ev.value) < 1e-8

    def test_trivial_numerator_is_theta(self, spec, policy):
        res = main_integral(_sp(0.0, 0.0, 0.8, 0.5, 0.2), spec)
        assert rel_err(res.value, theta_product(0.8, 0.5, policy)) < 1e-10

    def test_left_half_plane_rejected(self, spec):
        with pytest.raises(DomainError):
            main_integral(_sp(0.2, 0.3, -1.0 + 0.2j, 0.6, 0.3), spec)
        main_integral(_sp(0.2, 0.3, -1.0 + 0.2j, 0.6, 0.3), spec,
                      continuation=True)


class TestSymmetricIntegral:
    @pytest.mark.parametrize("z", [1.0, 0.3 + 0.4j])
    def test_matches_series(self, z, spec, policy):
        params = _sp(0.1, 0.2, z, 0.5, 0.2)
        res = symmetric_integral(params, spec)
        ev = symmetric_series(params, policy)
        assert rel_err(res.value, ev.value) < 1e-9

    def test_negative_axis_rejected(self, spec):
        with pytest.raises(InvalidParams):
            symmetric_integral(_sp(0.1, 0.2, -0.7, 0.5, 0.2), spec)

    def test_hard_point_fails_typed_and_fast(self):
        # z near the negative axis puts the denominator's zeros near R, so
        # the levels converge slowly; unbounded refinement exhausted memory.
        params = _sp(0.3 - 0.2j, -0.4, 0.5 * cmath.exp(0.9j * math.pi),
                     0.9, 0.18)
        start = time.perf_counter()
        with pytest.raises(QuadratureFailure, match="max_nodes=16384"):
            symmetric_integral(params,
                               QuadratureSpec(eps=1e-11, max_nodes=2 ** 14))
        assert time.perf_counter() - start < 5.0


class TestFourierIntegral:
    def test_y_zero_is_symmetric(self, spec):
        params = _sp(0.1, 0.2, 1.0, 0.5, 0.2)
        res = fourier_integral(params, 0.0, spec)
        ref = symmetric_integral(params, spec)
        assert rel_err(res.value, ref.value) < 1e-11

    def test_conjugate_symmetry(self, spec):
        params = _sp(0.1, 0.2, 1.0, 0.5, 0.2)
        plus = fourier_integral(params, 1.3, spec).value
        minus = fourier_integral(params, -1.3, spec).value
        assert abs(plus - minus.conjugate()) < 1e-12

    def test_requires_z_one(self, spec):
        with pytest.raises(InvalidParams):
            fourier_integral(_sp(0.1, 0.2, 0.9, 0.5, 0.2), 1.0, spec)


class TestWeightedIntegral:
    @pytest.mark.parametrize("m", [-2, 0, 2])
    def test_matches_series(self, m, spec, policy):
        params = _sp(0.1, 0.2, 1.0, 0.5, 0.2)
        res = weighted_integral(params, m, spec)
        ev = weighted_series(params, m, policy)
        assert rel_err(res.value, ev.value) < 1e-9


class TestMultibasicIntegral:
    _TWO = ((0.2, 2, 1), (0.3, 3, 1))

    def test_matches_series(self, spec, policy):
        params = MultibasicParams.from_alpha_sum(self._TWO, alpha_sum=0.8,
                                                 z=1.0)
        res = multibasic_integral(params, spec)
        ev = multibasic_series(params, policy)
        assert rel_err(res.value, ev.value) < 1e-8

    def test_complex_z(self, spec, policy):
        params = MultibasicParams.from_alpha_sum(self._TWO, alpha_sum=0.5,
                                                 z=0.6 + 0.2j)
        res = multibasic_integral(params, spec)
        ev = multibasic_series(params, policy)
        assert rel_err(res.value, ev.value) < 1e-8

    @pytest.mark.parametrize("factors", sorted(MULTIBASIC_SERIES))
    def test_factor_list_against_oracle(self, factors):
        # three factors, and a q-sinc factor (a2 = b2 = 0) that is not 1
        params = MultibasicParams.from_alpha_sum(factors, 0.8, z=1.0)
        res = multibasic_integral(params, QuadratureSpec(eps=1e-13))
        assert rel_err(res.value, MULTIBASIC_SERIES[factors]) < 1e-13


class TestDenominatorZero:
    # 1 + z q^2 = 0: the denominator vanishes at every integer x, so both
    # integrands have poles on the real line.
    def test_symmetric_integral(self, spec):
        with pytest.raises(DenominatorZero):
            symmetric_integral(_sp(0.1, 0.2, 4.0, 0.5j, 0.2j), spec)

    def test_multibasic_integral(self, spec):
        params = MultibasicParams(factors=((0.1, 2, 1), (0.2, 3, 1)),
                                  q=0.5j, z=4.0)
        with pytest.raises(DenominatorZero):
            multibasic_integral(params, spec)
