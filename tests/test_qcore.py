"""Core q-shifted factorial, Gamma_q and q-binomial tests."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsinc import (
    IndeterminateRatio,
    InvalidParams,
    NoConvergence,
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
from oracles import QGAMMA, QGAMMA_NEAR_POLE, QPOCH_INF


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

    @pytest.mark.parametrize("args, q, dtype", [
        ([0.3, -0.7, 2.4], 0.5, float),
        ([0.3 + 0j, -0.7 + 0j], 0.5 + 0j, float),  # zero imaginary parts
        ([0.3, -0.7 + 0.1j], 0.5, complex), ([0.3, 2.4], 0.5j, complex)])
    def test_real_path_exactly_when_all_is_real(self, args, q, dtype):
        import mpmath as mp
        import numpy as np

        vec = qpoch_inf_vec(np.array(args), q)
        assert vec.dtype == dtype
        for arg, value in zip(args, vec):
            assert rel_err(value, complex(mp.qp(arg, q))) < 1e-14

    @pytest.mark.parametrize("last", [0.3, 0.3 + 0.1j])
    def test_nonfinite_arguments_on_both_paths(self, last):
        import numpy as np

        with np.errstate(invalid="ignore"):
            vec = qpoch_inf_vec(np.array([np.inf, -np.inf, np.nan, last]),
                                0.5)
        assert vec.dtype == np.asarray(last).dtype
        assert not np.isfinite(vec[:3]).any()
        assert rel_err(vec[3], qpoch_inf(last, 0.5)) < 1e-15

    @pytest.mark.parametrize("phase", [1.0, cmath.exp(0.4j)])
    def test_blocks_match_the_scalar_values(self, phase):
        # |a| up to 30 at q = .95 takes about 800 factors, so 200 arguments
        # span about ten column blocks.
        import numpy as np

        from qsinc.qcore import _BLOCK, PRODUCT_EPS, _tail_index

        args = phase * np.linspace(-30.0, 30.0, 200)
        assert args.size * _tail_index(30.0, 0.95, PRODUCT_EPS) > 8 * _BLOCK
        vec = qpoch_inf_vec(args, 0.95)
        for arg, value in zip(args, vec):
            assert rel_err(value, qpoch_inf(arg, 0.95)) < 1e-13

    @pytest.mark.parametrize("args", [[0.3, -0.5], [0.3, 0.2 + 0.4j]])
    def test_one_column_blocks_near_q_one(self, args):
        # At q = .999 the products take about 44,000 factors, more than
        # _BLOCK, so each block is one column.  Reference, for |a| < 1:
        # (a;q)_inf = exp(-sum_k a^k / (k (1 - q^k))), at 30 digits.
        import mpmath as mp
        import numpy as np

        from qsinc.qcore import _BLOCK, PRODUCT_EPS, _tail_index

        assert _tail_index(0.3, 0.999, PRODUCT_EPS) > _BLOCK
        vec = qpoch_inf_vec(np.array(args), 0.999)
        with mp.workdps(30):
            q = mp.mpf("0.999")
            for arg, value in zip(args, vec):
                a = mp.mpmathify(arg)
                ref = mp.exp(-mp.fsum(a ** k / (k * (1 - q ** k))
                                      for k in range(1, 400)))
                assert rel_err(value, complex(ref)) < 1e-11

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95])
    def test_real_path_is_no_less_accurate(self, q):
        # Against 40-digit mpmath values at seeded real arguments; a
        # 1e-200 imaginary part takes the same values down the complex path.
        import mpmath as mp
        import numpy as np

        rng = np.random.default_rng(5)
        args = rng.choice([-1.0, 1.0], 20) * 10.0 ** rng.uniform(-3, 3, 20)
        with mp.workdps(40):
            ref = [complex(mp.qp(mp.mpf(a), mp.mpf(q))) for a in args]
        real = qpoch_inf_vec(args, q)
        cplx = qpoch_inf_vec(args + 1e-200j, q)
        assert (real.dtype, cplx.dtype) == (np.float64, complex)
        assert (max(map(rel_err, real, ref))
                <= max(map(rel_err, cplx, ref)))

    @staticmethod
    def _block_loop(a, q):
        """The product as a plain column-block loop: the reference the
        kernel's one-block path must match bit for bit."""
        import numpy as np

        from qsinc.qcore import _BLOCK, PRODUCT_EPS, _tail_index

        a = np.asarray(a)
        real = complex(q).imag == 0.0 and not np.imag(a).any()
        a = a.real.astype(float) if real else a.astype(complex)
        q = complex(q).real if real else complex(q)
        amax = float(np.abs(a[np.isfinite(a)]).max(initial=0.0))
        k = max(1, _tail_index(amax, abs(q), PRODUCT_EPS))
        powers = np.power(q, np.arange(k))
        flat, cols = a.reshape(-1), max(1, _BLOCK // k)
        out = np.empty(flat.size, a.dtype)
        for lo in range(0, flat.size, cols):
            m = 1.0 - np.multiply.outer(powers, flat[lo:lo + cols])
            out[lo:lo + cols] = np.prod(m, axis=0)
        return out.reshape(a.shape)

    @pytest.mark.parametrize("size, q, scale, one_block", [
        (1, 0.5, 30.0, True), (8, 0.6 + 0.2j, 30.0, True),
        (100, 0.7, 30.0, True), (300, 0.7, 30.0, False),
        (200, 0.95, 30.0, False), (3, 0.9995, 0.3, False)])
    @pytest.mark.parametrize("phase", [1.0, cmath.exp(0.4j)])
    def test_matches_a_block_loop_bit_for_bit(self, size, q, scale,
                                              one_block, phase):
        import numpy as np

        from qsinc.qcore import _BLOCK, PRODUCT_EPS, _tail_index

        rng = np.random.default_rng(size)
        args = phase * rng.uniform(-scale, scale, size)
        args[1:2] = np.inf  # masked out of the factor count
        amax = np.abs(args[np.isfinite(args)]).max()
        k = max(1, _tail_index(float(amax), abs(q), PRODUCT_EPS))
        assert (size <= max(1, _BLOCK // k)) == one_block
        with np.errstate(invalid="ignore"):
            vec, ref = qpoch_inf_vec(args, q), self._block_loop(args, q)
        assert vec.dtype == ref.dtype
        assert vec.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("dtype, q", [(float, 0.5), (complex, 0.5),
                                          (float, 0.5j)])
    def test_keeps_the_shape(self, shape, dtype, q):
        import numpy as np

        args = np.full(shape, 0.3, dtype=dtype)
        vec = qpoch_inf_vec(args, q)
        assert isinstance(vec, np.ndarray) and vec.shape == shape
        assert vec.dtype == (float if q == 0.5 else complex)
        assert vec.tobytes() == self._block_loop(args, q).tobytes()

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
        b = Side(0.5, "series", nodes_used=16, half_width_used=32.0,
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

    @pytest.mark.parametrize("key", sorted(QGAMMA_NEAR_POLE))
    def test_near_pole_against_oracle(self, key):
        # 1 - q^(x+k) cancels near the pole at x = -1: each factor is a
        # ratio of expm1s.  The plain factors were 5.9e-5 off at q = .99.
        x, q = key
        assert rel_err(qgamma(x, q), QGAMMA_NEAR_POLE[key]) < 1e-13

    @pytest.mark.parametrize("q", [0.999, 0.9999])
    def test_real_pole_rule_is_exact(self, q):
        # A vanishing-factor tolerance called x = -1 + 1e-10 a pole once
        # q was near 1; at real x only x = 0, -1, -2, ... is one.
        assert qgamma(-0.9999999999, q).real < -9e9
        with pytest.raises(PoleAtNonpositiveInteger):
            qgamma(-1.0, q)
        with pytest.raises(PoleAtNonpositiveInteger):
            qgamma(-1.0 + 0j, q)


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

    @pytest.mark.parametrize("q", [0.997, 0.999])
    def test_underflowing_normalizer_is_no_convergence(self, q):
        # (q; q)_inf underflows to 0: a ZeroDivisionError escaped.
        with pytest.raises(NoConvergence, match="underflows to 0"):
            qbinomial(1.5, 0.25, q)


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

    qsinc_key = ((0.36, 2.0, 1.0), (0.3, 0.0, 0.0))
    keys = [("qpoch", 0.3, 0.5), ("main", 0.2, 0.3, 1.0, 0.6, 0.3),
            ("mb",) + qsinc_key]
    out = regenerate(dps=30, keys=keys)
    assert sorted(out) == sorted(keys)
    assert abs(complex(out[keys[0]]) - QPOCH_INF[(0.3, 0.5)]) < 1e-15
    assert abs(complex(out[keys[1]]) - 1.269362576916128687573) < 1e-14
    assert abs(complex(out[keys[2]])
               - MULTIBASIC_SERIES[qsinc_key]) < 1e-15
    assert mp.mp.dps >= 15
