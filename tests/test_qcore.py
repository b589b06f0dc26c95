"""Core q-shifted factorial, Gamma_q and q-binomial tests."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsinc import (
    IndeterminateRatio,
    InvalidParams,
    PoleAtNonpositiveInteger,
    QParams,
    Side,
    qbinomial,
    qgamma,
    qpoch_finite,
    qpoch_inf,
    qpoch_inf_large,
    theta_product,
)
from qsinc.qcore import _check_eps, _vanishing_factor, qpoch_inf_vec

from conftest import rel_err
from oracles import QGAMMA, QPOCH_INF


class TestQpoch:
    def test_finite_empty_product(self):
        assert qpoch_finite(0.7, 0.5, 0) == 1.0

    def test_finite_matches_direct_product(self):
        a, q = 0.3 + 0.2j, 0.5
        expected = (1 - a) * (1 - a * q) * (1 - a * q ** 2)
        assert qpoch_finite(a, q, 3) == pytest.approx(expected)

    def test_finite_negative_n_rejected(self):
        with pytest.raises(InvalidParams):
            qpoch_finite(0.3, 0.5, -1)

    @pytest.mark.parametrize("key", sorted(QPOCH_INF, key=str))
    def test_inf_against_oracle(self, key):
        a, q = key
        value = qpoch_inf_large(a, q)
        assert rel_err(value, QPOCH_INF[key]) < 1e-12

    def test_zero_argument(self):
        assert qpoch_inf(0.0, 0.5) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 50.0), st.floats(-math.pi, math.pi),
           st.floats(0.05, 0.95), st.floats(-math.pi, math.pi))
    def test_shift_recurrence(self, a_abs, a_arg, q_abs, q_arg):
        # (a; q)_inf = (1 - a)(aq; q)_inf over |a| <= 50, |q| <= 0.95
        a = cmath.rect(a_abs, a_arg)
        q = cmath.rect(q_abs, q_arg)
        lhs = qpoch_inf(a, q)
        rhs = (1 - a) * qpoch_inf(a * q, q)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_large_argument_peels(self):
        # direct head-factor expansion must agree with the full product
        a, q = 40.0, 0.3
        head = (1 - a) * (1 - a * q) * (1 - a * q ** 2)
        assert rel_err(qpoch_inf_large(a, q),
                       head * qpoch_inf_large(a * q ** 3, q)) < 1e-13

    @pytest.mark.parametrize("q", [0.5, -0.7, 0.6 + 0.3j, 0.95j])
    @pytest.mark.parametrize("m", [-3, 0, 4])
    def test_vanishing_factor(self, q, m):
        # the factor 1 - a q^m of a = q^-m vanishes; a nearby a has none
        a = complex(q) ** -m
        assert _vanishing_factor(a, q) == m
        assert _vanishing_factor(a * (1 + 1e-10), q) is None

    def test_vectorized_matches_scalar(self):
        import numpy as np

        args = np.array([0.3, -0.7 + 0.1j, 2.4, 0.0])
        vec = qpoch_inf_vec(args, 0.5)
        for arg, value in zip(args, vec):
            assert rel_err(value, qpoch_inf_large(arg, 0.5)) < 1e-12
        # non-finite arguments stay non-finite and leave the others exact
        with np.errstate(invalid="ignore"):
            vec = qpoch_inf_vec(np.array([np.inf, np.nan, 0.3]), 0.5)
        assert not np.isfinite(vec[:2]).any()
        assert rel_err(vec[2], qpoch_inf(0.3, 0.5)) < 1e-12

    def test_argument_near_the_largest_float(self):
        # eps (1 - |q|) / (2|a|) underflows to 0 here; the factor count must
        # not take its log, and the product overflows instead.
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            vec = qpoch_inf_vec(np.array([1e308]), 0.5)
        assert not np.isfinite(vec).any()


class TestSide:
    def test_scaled_scales_value_and_estimates(self):
        side = Side(2.0 + 1.0j, "series", terms_used=9, half_width_used=4,
                    tail_estimate=1e-12, error_estimate=3e-13)
        out = side.scaled(-3.0j)
        assert out.value == -3.0j * (2.0 + 1.0j)
        assert out.tail_estimate == 3e-12
        assert out.error_estimate == pytest.approx(9e-13, rel=1e-15)
        assert (out.method, out.terms_used, out.half_width_used) == \
            ("series", 9, 4)

    def test_sum_adds_counts_and_estimates(self):
        a = Side(1.0, "trapezoid", nodes_used=8, half_width_used=64.0,
                 refinements_used=1, tail_estimate=1e-9, error_estimate=2e-9)
        b = Side(0.5, "doubling", nodes_used=16, half_width_used=32.0,
                 tail_estimate=1e-10, error_estimate=1e-10)
        total = a + b
        assert total.value == 1.5
        assert total.method == "trapezoid"
        assert total.nodes_used == 24
        assert total.half_width_used == 64.0
        assert total.refinements_used == 1
        assert total.tail_estimate == pytest.approx(1.1e-9)
        assert total.error_estimate == pytest.approx(2.1e-9)


class TestQParams:
    def test_alpha_derived(self):
        qp = QParams(p=0.36, q=0.6)
        assert qp.alpha == pytest.approx(0.5)

    @pytest.mark.parametrize("p,q", [(0.7, 0.6), (0.5, 0.5), (0.0, 0.5),
                                     (0.3, 1.0)])
    def test_base_ordering_enforced(self, p, q):
        with pytest.raises(InvalidParams):
            QParams(p=p, q=q)

    def test_extreme_guard(self):
        with pytest.raises(InvalidParams):
            QParams(p=0.3, q=0.97)
        QParams(p=0.3, q=0.97, allow_extreme=True)
        with pytest.raises(InvalidParams):
            QParams(p=0.59, q=0.6)
        QParams(p=0.59, q=0.6, allow_extreme=True)


class TestEps:
    def test_validation(self):
        for eps in (0.0, 1.0, -1e-12, math.inf, math.nan):
            with pytest.raises(InvalidParams, match="eps must be in"):
                _check_eps(eps)
        _check_eps(1e-12)


class TestQGamma:
    @pytest.mark.parametrize("key", sorted(QGAMMA))
    def test_against_oracle(self, key):
        x, q = key
        assert rel_err(qgamma(x, q), QGAMMA[key]) < 1e-11

    def test_recurrence(self):
        # Gamma_q(x+1) = (1 - q^x)/(1 - q) Gamma_q(x)
        x, q = 1.7, 0.6
        lhs = qgamma(x + 1, q)
        rhs = (1 - q ** x) / (1 - q) * qgamma(x, q)
        assert rel_err(lhs, rhs) < 1e-12

    def test_classical_limit_improves(self):
        errs = [abs(qgamma(1.5, 1 - 10.0 ** (-k)) - math.gamma(1.5))
                for k in (2, 3, 4)]
        assert errs[0] > errs[1] > errs[2]

    def test_pole_raises(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            qgamma(0.0, 0.5)
        with pytest.raises(PoleAtNonpositiveInteger):
            qgamma(-2.0, 0.5)


class TestQBinomial:
    def test_integer_case_is_gaussian_coefficient(self):
        # [4 choose 2]_q = (1-q^3)(1-q^4)/((1-q)(1-q^2))
        q = 0.3
        expected = (1 - q ** 3) * (1 - q ** 4) / ((1 - q) * (1 - q ** 2))
        assert rel_err(qbinomial(4, 2, q), expected) < 1e-13

    def test_matches_qgamma_ratio(self):
        a, b, q = 2.3, 0.8, 0.55
        expected = qgamma(a + 1, q) / (
            qgamma(b + 1, q) * qgamma(a - b + 1, q))
        assert rel_err(qbinomial(a, b, q), expected) < 1e-12

    def test_denominator_pole_gives_zero(self):
        assert qbinomial(2.0, -1.0, 0.5) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            qbinomial(-2.0, 0.5, 0.5)

    def test_coincident_poles_raise(self):
        with pytest.raises(IndeterminateRatio):
            qbinomial(-2.0, -1.0, 0.5)


class TestThetaProduct:
    def test_symmetry_in_z_to_q_over_z(self):
        z, q = 0.8 + 0.3j, 0.5
        assert rel_err(theta_product(z, q),
                       theta_product(q / z, q)) < 1e-12

    def test_zero_z_rejected(self):
        from qsinc import ZeroArgument

        with pytest.raises(ZeroArgument):
            theta_product(0.0, 0.5)


def test_oracles_regen_spot_check():
    # recompute three frozen constants to confirm they have not drifted
    import mpmath as mp

    from oracles import MULTIBASIC_SERIES, regenerate

    out = regenerate(dps=30)
    assert abs(complex(out[("qpoch", 0.3, 0.5)])
               - QPOCH_INF[(0.3, 0.5)]) < 1e-15
    assert abs(complex(out[("main", 0.2, 0.3, 1.0, 0.6, 0.3)])
               - 1.269362576916128687573) < 1e-14
    qsinc_key = ((0.36, 2.0, 1.0), (0.3, 0.0, 0.0))
    assert abs(complex(out[("mb",) + qsinc_key])
               - MULTIBASIC_SERIES[qsinc_key]) < 1e-15
    assert mp.mp.dps >= 15
