"""Bilateral series: oracle values, transformations, special points."""

import math
import random

import numpy as np
import pytest

from qsinc import (
    BaileyParams,
    InvalidParams,
    MultibasicParams,
    NoConvergence,
    QParams,
    SeriesParams,
    appell_lerch_rhs,
    bailey_series,
    main_series,
    multibasic_series,
    qpoch_inf_large,
    symmetric_series,
    weighted_series,
)
from qsinc.bilateral import _sum_pairs
from qsinc.errors import DenominatorZero
from qsinc.quadrature import _check_denominator

from conftest import rel_err
from oracles import (
    APPELL_LERCH,
    BAILEY_LEFT,
    MAIN_SERIES,
    MULTIBASIC_Q,
    MULTIBASIC_SERIES,
    MULTIBASIC_VALUE,
    SYMMETRIC_SERIES,
    WEIGHTED_SERIES,
)


def _sp(a, b, z, q, p):
    return SeriesParams(qp=QParams(p=p, q=q), a=a, b=b, z=z)


class TestSumPairs:
    # Terms e^(-n^2) with decay (g, r) = (1, 1) at eps 1e-12: the decay
    # radius is 6, so the sum stops at n = 8 after the pairs 6, 7, 8.
    @staticmethod
    def _gauss(bad):
        return lambda n: np.where(bad(np.abs(n)), np.inf, np.exp(-n * n * 1.0))

    def test_nonfinite_beyond_stop_is_ignored(self):
        ev = _sum_pairs(self._gauss(lambda m: m > 8), (1.0, 1.0), 1e-12)
        assert ev.terms_used == 17
        assert ev.value == math.fsum(np.exp(-np.arange(-8, 9) ** 2.0))

    def test_nonfinite_before_stop_raises(self):
        with pytest.raises(NoConvergence):
            _sum_pairs(self._gauss(lambda m: m == 7), (1.0, 1.0), 1e-12)


class TestMainSeries:
    @pytest.mark.parametrize("key", sorted(MAIN_SERIES, key=str))
    def test_against_oracle(self, key, series_eps):
        a, b, z, q, p = key
        ev = main_series(_sp(a, b, z, q, p), series_eps)
        assert rel_err(ev.value, MAIN_SERIES[key]) < 1e-14

    def test_trivial_numerator_is_theta(self, series_eps):
        # a = b = 0 collapses every product factor to 1
        from qsinc import theta_product

        ev = main_series(_sp(0.0, 0.0, 0.8, 0.5, 0.2), series_eps)
        assert rel_err(ev.value, theta_product(0.8, 0.5)) < 1e-12

    def test_symmetry_a_b_swap(self, series_eps):
        # f(a, b, z) = f(b, a, q/z)
        q = 0.6
        lhs = main_series(_sp(0.2, 0.3, 0.9, q, 0.3), series_eps)
        rhs = main_series(_sp(0.3, 0.2, q / 0.9, q, 0.3), series_eps)
        assert rel_err(lhs.value, rhs.value) < 1e-12

    def test_functional_equations_seeded(self, series_eps):
        rng = random.Random(7)
        for _ in range(20):
            q = rng.uniform(0.3, 0.8)
            p = rng.uniform(0.1, 0.6) * q
            a = rng.uniform(-0.5, 0.5)
            b = rng.uniform(-0.5, 0.5)
            z = rng.uniform(0.5, 1.8)
            f = lambda aa, bb, zz: main_series(_sp(aa, bb, zz, q, p),
                                               series_eps).value
            base = f(a, b, z)
            assert abs(base - (f(a, b * p, z) - b * f(a, b * p, z * q))) \
                <= 1e-10 * max(1.0, abs(base))
            assert abs(base - (f(a * p, b, z) - a * f(a * p, b, z / q))) \
                <= 1e-10 * max(1.0, abs(base))

    def test_zero_z_rejected(self):
        with pytest.raises(InvalidParams):
            _sp(0.2, 0.3, 0.0, 0.6, 0.3)


class TestSymmetricSeries:
    @pytest.mark.parametrize("key", sorted(SYMMETRIC_SERIES, key=str))
    def test_against_oracle(self, key, series_eps):
        a, b, z, q, p = key
        ev = symmetric_series(_sp(a, b, z, q, p), series_eps)
        assert rel_err(ev.value, SYMMETRIC_SERIES[key]) < 1e-14

    def test_relation_to_main_series(self, series_eps):
        # symmetric = main / ((-z, -q/z; q)_inf)
        params = _sp(0.2, 0.3, 0.7 + 0.2j, 0.6, 0.3)
        q, z = 0.6, 0.7 + 0.2j
        denom = (qpoch_inf_large(-z, q)
                 * qpoch_inf_large(-q / z, q))
        lhs = symmetric_series(params, series_eps).value
        rhs = main_series(params, series_eps).value / denom
        assert rel_err(lhs, rhs) < 1e-11

    def test_invariance_in_bz_and_az(self, series_eps):
        base = symmetric_series(_sp(0.2, 0.3, 1.0, 0.6, 0.3), series_eps).value
        for c in (0.5, 1.7, 0.9 + 0.4j):
            moved = symmetric_series(
                _sp(0.2 / c, 0.3 * c, c, 0.6, 0.3), series_eps).value
            assert rel_err(base, moved) < 1e-10

    def test_negative_axis_rejected(self, series_eps):
        with pytest.raises(InvalidParams):
            symmetric_series(_sp(0.1, 0.2, -0.5, 0.5, 0.2), series_eps)

    def test_denominator_zero_detected(self, series_eps):
        with pytest.raises(DenominatorZero):
            _check_denominator(0.25, 0.5j)  # 1 + z q^-2 = 0
        with pytest.raises(InvalidParams):
            # 1 + z q^-2 = 0 too, but z is on the negative axis, checked first
            _check_denominator(-0.25, 0.5)
        with pytest.raises(DenominatorZero):
            # 1 + z q^2 = 0 at q = 0.5i, z = 4
            symmetric_series(_sp(0.1, 0.2, 4.0, 0.5j, 0.2j), series_eps)


class TestWeightedSeries:
    def test_m_zero_is_symmetric(self, series_eps):
        params = _sp(0.1, 0.2, 1.0, 0.5, 0.2)
        assert rel_err(weighted_series(params, 0, series_eps).value,
                       symmetric_series(params, series_eps).value) < 1e-13

    @pytest.mark.parametrize("key", sorted(WEIGHTED_SERIES))
    def test_against_oracle(self, key, series_eps):
        a, b, q, p, m = key
        ev = weighted_series(_sp(a, b, 1.0, q, p), m, series_eps)
        assert rel_err(ev.value, WEIGHTED_SERIES[key]) < 1e-11

    def test_requires_z_one(self, series_eps):
        with pytest.raises(InvalidParams):
            weighted_series(_sp(0.1, 0.2, 0.9, 0.5, 0.2), 1, series_eps)


class TestBailey:
    @pytest.mark.parametrize("key", sorted(BAILEY_LEFT))
    def test_left_against_oracle(self, key, series_eps):
        a1, a2, b1, b2, z, q, p = key
        bp = BaileyParams(qp=QParams(p=p, q=q), a1=a1, a2=a2, b1=b1, b2=b2,
                          z=z)
        ev = bailey_series(bp, "left", series_eps)
        assert rel_err(ev.value, BAILEY_LEFT[key]) < 1e-12

    def test_left_equals_right_seeded(self, series_eps):
        rng = random.Random(11)
        for _ in range(8):
            q = rng.uniform(0.3, 0.8)
            p = rng.uniform(0.1, 0.6) * q
            bp = BaileyParams(
                qp=QParams(p=p, q=q),
                a1=rng.uniform(-0.5, 0.5), a2=rng.uniform(-0.5, 0.5),
                b1=rng.uniform(-0.5, 0.5), b2=rng.uniform(-0.5, 0.5),
                z=rng.uniform(0.5, 1.6))
            left = bailey_series(bp, "left", series_eps).value
            right = bailey_series(bp, "right", series_eps).value
            assert rel_err(left, right) < 1e-10

    def test_side_name_checked(self, series_eps):
        bp = BaileyParams(qp=QParams(p=0.3, q=0.6), a1=0.1, a2=0.2, b1=0.1,
                          b2=0.2, z=1.0)
        with pytest.raises(InvalidParams):
            bailey_series(bp, "middle", series_eps)


class TestAppellLerch:
    @pytest.mark.parametrize("key", sorted(APPELL_LERCH))
    def test_rhs_matches_product_series(self, key, series_eps):
        a, q = key
        ev = appell_lerch_rhs(a, q, series_eps)
        assert rel_err(ev.value, APPELL_LERCH[key]) < 1e-11

    def test_lattice_pole_is_removable(self, series_eps):
        # a = 1/q sits on the lattice a = q^-(2n+1) at n = -1
        a, q = 2.0, 0.5
        ev = appell_lerch_rhs(a, q, series_eps)
        qp = QParams(p=q * q, q=q)
        ref = main_series(SeriesParams(qp=qp, a=q * q / a, b=a * q * q,
                                       z=1.0), series_eps)
        assert rel_err(ev.value, ref.value) < 1e-11

    def test_positive_lattice_branch(self, series_eps):
        # a = q^-3 pairs the pole at n = 1 with prefactor factor 1
        q = 0.6
        a = q ** -3
        ev = appell_lerch_rhs(a, q, series_eps)
        qp = QParams(p=q * q, q=q)
        ref = main_series(SeriesParams(qp=qp, a=q * q / a, b=a * q * q,
                                       z=1.0), series_eps)
        assert rel_err(ev.value, ref.value) < 1e-10

    def test_zero_a_rejected(self, series_eps):
        with pytest.raises(InvalidParams):
            appell_lerch_rhs(0.0, 0.5, series_eps)


def _factors(p1, a1, b1, p2, a2, b2):
    return ((p1, a1, b1), (p2, a2, b2))


class TestMultibasic:
    def test_against_oracle(self, series_eps):
        params = MultibasicParams(factors=_factors(0.2, 2, 1, 0.3, 3, 1),
                                  q=MULTIBASIC_Q, z=1.0)
        ev = multibasic_series(params, series_eps)
        assert rel_err(ev.value, MULTIBASIC_VALUE) < 1e-11

    def test_from_alpha_sum(self):
        params = MultibasicParams.from_alpha_sum(
            _factors(0.2, 2, 1, 0.3, 3, 1), alpha_sum=0.8, z=1.0)
        assert params.q == pytest.approx(MULTIBASIC_Q, rel=1e-14)
        assert sum(params.alphas) == pytest.approx(0.8)

    def test_constraint_enforced(self):
        with pytest.raises(InvalidParams):
            MultibasicParams(factors=_factors(0.5, 2, 1, 0.5, 3, 1), q=0.45,
                             z=1.0)

    def test_trivial_second_reduces_to_single_base(self, series_eps):
        # one factor: the sum of [2; 1 + alpha n]_p1 over the denominator
        p1, q = 0.36, 0.6
        params = MultibasicParams(factors=((p1, 2, 1),), q=q, z=1.0)
        ev = multibasic_series(params, series_eps)
        # same sum through the symmetric series at mapped arguments
        from qsinc import qpoch_inf

        sp = SeriesParams(qp=QParams(p=p1, q=q), a=p1 ** 2.0, b=p1 ** 2.0,
                          z=1.0)
        c = qpoch_inf(p1, p1) * qpoch_inf(p1 ** 3.0, p1)
        ref = symmetric_series(sp, series_eps).value / c
        assert rel_err(ev.value, ref) < 1e-11

    @pytest.mark.parametrize("factors", sorted(MULTIBASIC_SERIES))
    def test_factor_list_against_oracle(self, factors, series_eps):
        # three factors, and a q-sinc factor (a2 = b2 = 0) that is not 1
        params = MultibasicParams.from_alpha_sum(factors, 0.8, z=1.0)
        ev = multibasic_series(params, 1e-15)
        assert rel_err(ev.value, MULTIBASIC_SERIES[factors]) < 1e-13

    def test_factor_list_validated(self):
        with pytest.raises(InvalidParams):
            MultibasicParams(factors=(), q=0.5, z=1.0)
        with pytest.raises(InvalidParams):
            MultibasicParams.from_alpha_sum(((1.0, 2, 1),), 0.5, z=1.0)
        with pytest.raises(InvalidParams):
            MultibasicParams(factors=((0.2, 2, 1),), q=0.5, z=0.0)

    def test_denominator_zero_rejected(self, series_eps):
        params = MultibasicParams(factors=_factors(0.1, 2, 1, 0.2, 3, 1),
                                  q=0.5j, z=4.0)
        with pytest.raises(DenominatorZero):
            multibasic_series(params, series_eps)
