"""Verification harness: dispatch, report rules, sweeps."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsinc import (
    CATALOG,
    DomainError,
    IdentityId,
    InvalidGrid,
    InvalidParams,
    make_report,
    sweep_points,
    verify,
)
from qsinc.identities import _IDENTITIES, DEFAULT_TOL, expand_grid
from qsinc.qcore import SIDE_METHODS, Side

from conftest import rel_err
from oracles import (
    APPELL_LERCH,
    MAIN_EDGE,
    MAIN_SERIES,
    MULTIBASIC_ALPHA_SUM,
    MULTIBASIC_SERIES,
)

_POINTS = {
    IdentityId.Main: {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6, "p": 0.3},
    IdentityId.Symmetric: {"a": 0.1, "b": 0.2, "z": 1.0, "q": 0.5, "p": 0.2},
    IdentityId.QBinomialForm: {"a": 2.0, "b": 1.0, "alpha": 0.5, "p": 0.36,
                               "z": 1.0},
    IdentityId.Osler: {"a": 2.0, "alpha": 0.5, "theta": 0.0},
    IdentityId.ClassicalSumInt: {"a": 2.0, "alpha": 1.0, "l": 2},
    IdentityId.AppellLerch: {"a": 0.7, "q": 0.7},
    IdentityId.Invariance: {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6, "p": 0.3,
                            "c": 1.3 + 0.4j},
    IdentityId.Fourier: {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "y": 1.0},
    IdentityId.WeightedM: {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2, "m": 2},
    IdentityId.Bailey: {"a1": 0.1, "a2": 0.2, "b1": 0.15, "b2": 0.25,
                        "z": 1.2, "q": 0.6, "p": 0.3},
    IdentityId.BaileyBinomial: {"p": 0.5, "alpha": 0.4, "a1": 2.0, "b1": 1.0,
                                "a2": 3.0, "b2": 1.0, "theta": 0.7},
    IdentityId.Multibasic: {"p1": 0.2, "p2": 0.3, "alpha_sum": 0.8,
                            "a1": 2.0, "b1": 1.0, "a2": 3.0, "b2": 1.0,
                            "z": 1.0},
    IdentityId.FunctionalEq1: {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6,
                               "p": 0.3},
    IdentityId.FunctionalEq2: {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6,
                               "p": 0.3},
    IdentityId.BaseIntegral: {"q": 0.5},
    IdentityId.TripleProduct: {"z": 0.8, "q": 0.5},
    IdentityId.PoissonVanishing: {"a": 0.1, "b": 0.2, "q": 0.5, "p": 0.2,
                                  "m": 1},
}

# The keys of each reference point that have no default.
_REQUIRED = {
    IdentityId.Main: {"p", "q", "z"},
    IdentityId.Symmetric: {"p", "q", "z"},
    IdentityId.QBinomialForm: {"a", "b", "alpha", "p", "z"},
    IdentityId.Osler: {"a", "alpha"},
    IdentityId.ClassicalSumInt: {"a", "alpha", "l"},
    IdentityId.AppellLerch: {"a", "q"},
    IdentityId.Invariance: {"p", "q", "z"},
    IdentityId.Fourier: {"p", "q", "y"},
    IdentityId.WeightedM: {"p", "q", "m"},
    IdentityId.Bailey: {"a1", "a2", "b1", "b2", "z", "p", "q"},
    IdentityId.BaileyBinomial: {"p", "alpha", "a1", "b1", "a2", "b2"},
    IdentityId.Multibasic: {"p1", "p2", "alpha_sum", "a1", "b1", "a2", "b2"},
    IdentityId.FunctionalEq1: {"p", "q", "z"},
    IdentityId.FunctionalEq2: {"p", "q", "z"},
    IdentityId.BaseIntegral: {"q"},
    IdentityId.TripleProduct: {"z", "q"},
    IdentityId.PoissonVanishing: {"p", "q"},
}


class TestCatalog:
    def test_every_identity_described(self):
        assert set(CATALOG) == set(IdentityId)
        assert all(CATALOG[i] for i in IdentityId)

    def test_every_identity_has_default_tol(self):
        assert set(DEFAULT_TOL) == set(IdentityId)

    def test_every_identity_has_arm_tol_and_description(self):
        assert set(_IDENTITIES) == set(IdentityId)
        for ident, (arm, tol, description) in _IDENTITIES.items():
            assert callable(arm)
            assert tol > 0.0 and DEFAULT_TOL[ident] == tol
            assert description and CATALOG[ident] == description


class TestVerify:
    @pytest.mark.parametrize("ident", list(IdentityId),
                             ids=lambda i: i.value)
    def test_each_identity_passes_at_reference_point(self, ident):
        report = verify(ident, _POINTS[ident])
        assert report.passed, (report.abs_err, report.rel_err)

    def test_base_ordering_guard(self):
        with pytest.raises(InvalidParams):
            verify(IdentityId.Main, {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6,
                                     "p": 0.7})

    def test_qbinomial_alpha_guard(self):
        with pytest.raises(InvalidParams):
            verify(IdentityId.QBinomialForm,
                   {"a": 2.0, "b": 1.0, "alpha": 1.2, "p": 0.36, "z": 1.0})

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_qbinomial_is_the_one_factor_multibasic(self, alpha, p):
        # At the catalog points: the q-binomial form is the multibasic sum
        # and integral of the one factor (p, a, b) at q = p^alpha.
        qbin = verify(IdentityId.QBinomialForm, {"a": 2.0, "b": 1.0,
                                                 "alpha": alpha, "p": p,
                                                 "z": 1.0})
        multi = verify(IdentityId.Multibasic, {"p1": p, "a1": 2.0,
                                               "b1": 1.0, "q": p ** alpha,
                                               "z": 1.0})
        assert qbin.passed
        assert (qbin.lhs, qbin.rhs) == (multi.lhs, multi.rhs)
        assert (qbin.lhs_diag, qbin.rhs_diag) == (multi.lhs_diag,
                                                  multi.rhs_diag)

    def test_multibasic_constraint_guard(self):
        with pytest.raises(InvalidParams):
            verify(IdentityId.Multibasic,
                   {"p1": 0.5, "p2": 0.5, "q": 0.45, "a1": 2, "b1": 1,
                    "a2": 3, "b2": 1, "z": 1.0})

    @pytest.mark.parametrize("factors", sorted(MULTIBASIC_SERIES))
    def test_multibasic_factor_groups(self, factors):
        # the groups p1/a1/b1, p2/a2/b2, p3/a3/b3 are the factors; both
        # sides match the mpmath oracle
        point = {"alpha_sum": 0.8, "z": 1.0}
        for j, (p, a, b) in enumerate(factors, 1):
            point.update({f"p{j}": p, f"a{j}": a, f"b{j}": b})
        report = verify(IdentityId.Multibasic, point, eps=1e-15)
        expected = MULTIBASIC_SERIES[factors]
        assert report.passed
        assert abs(report.lhs - expected) < 1e-13 * abs(expected)
        assert abs(report.rhs - expected) < 1e-13 * abs(expected)

    def test_multibasic_partial_group_invalid(self):
        point = dict(_POINTS[IdentityId.Multibasic], p3=0.25, b3=0.5)
        with pytest.raises(InvalidParams, match="missing .*a3"):
            verify(IdentityId.Multibasic, point)

    @pytest.mark.parametrize("ident, point", [
        (IdentityId.QBinomialForm,
         {"a": 2.0, "b": 1.0, "alpha": 0.05, "p": 0.5, "z": 1.0}),
        (IdentityId.BaileyBinomial,
         dict(_POINTS[IdentityId.BaileyBinomial], p=0.9)),
    ], ids=["qbinomial", "bailey-binomial"])
    def test_binomial_arms_honour_allow_extreme(self, ident, point):
        # |q| = p^alpha > 0.95: outside the default domain, fine with the flag
        with pytest.raises(InvalidParams, match="allow_extreme"):
            verify(ident, point)
        report = verify(ident, dict(point, allow_extreme=True))
        assert report.passed, report.rel_err

    def test_bailey_binomial_theta_zero_trivial(self):
        params = dict(_POINTS[IdentityId.BaileyBinomial], theta=0.0)
        report = verify(IdentityId.BaileyBinomial, params)
        assert report.passed
        assert report.abs_err < 1e-13  # both sides are the same sum

    def test_tolerance_monotonicity(self):
        point = _POINTS[IdentityId.Main]
        tight = verify(IdentityId.Main, point, tol=1e-7)
        loose = verify(IdentityId.Main, point, tol=1e-4)
        assert tight.passed and loose.passed
        assert loose.tol > tight.tol

    def test_inconclusive_on_convergence_failure(self):
        # The weighted series terms overflow at |n| = 25.
        report = verify(IdentityId.WeightedM, {"a": 0.8, "b": -0.8, "q": 0.1,
                                               "p": 0.095, "m": -3})
        assert not report.passed
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith("NoConvergence")
        assert report.rhs_diag == {}
        assert math.isinf(report.abs_err) and report.rule == "rel"

    def test_eps_reaches_both_sides(self):
        point = _POINTS[IdentityId.Main]
        coarse = verify(IdentityId.Main, point, eps=1e-10)
        fine = verify(IdentityId.Main, point, eps=1e-14)
        assert coarse.passed and fine.passed
        assert fine.lhs_diag["terms_used"] > coarse.lhs_diag["terms_used"]
        assert fine.rhs_diag["nodes_used"] > coarse.rhs_diag["nodes_used"]

    @pytest.mark.parametrize("eps", [0.0, 1.0, math.nan])
    def test_eps_outside_unit_interval_rejected(self, eps):
        with pytest.raises(InvalidParams, match="eps must be in"):
            verify(IdentityId.Main, _POINTS[IdentityId.Main], eps=eps)

    def test_non_integral_m_and_l_rejected(self):
        # int() used to truncate them: m = 1.5 ran as m = 1, l = 2.7 as 2.
        with pytest.raises(InvalidParams):
            verify(IdentityId.WeightedM,
                   dict(_POINTS[IdentityId.WeightedM], m=1.5))
        with pytest.raises(InvalidParams):
            verify(IdentityId.PoissonVanishing,
                   dict(_POINTS[IdentityId.PoissonVanishing], m=1.5))
        with pytest.raises(InvalidParams):
            verify(IdentityId.ClassicalSumInt,
                   {"a": 2.0, "alpha": 0.5, "l": 2.7})
        report = verify(IdentityId.WeightedM,
                        dict(_POINTS[IdentityId.WeightedM], m=2.0))
        assert report.passed

    @pytest.mark.parametrize("ident", list(IdentityId),
                             ids=lambda i: i.value)
    def test_missing_parameter_is_invalid(self, ident):
        # Arms used to index params directly, so a missing key escaped as
        # KeyError; a key with a default may be dropped.
        point = _POINTS[ident]
        assert _REQUIRED[ident] <= point.keys()
        for key in point:
            dropped = {k: v for k, v in point.items() if k != key}
            if key in _REQUIRED[ident]:
                with pytest.raises(InvalidParams, match=f"missing .*{key}"):
                    verify(ident, dropped)
            else:
                assert verify(ident, dropped).id is ident

    @pytest.mark.parametrize("ident", [IdentityId.QBinomialForm,
                                       IdentityId.BaileyBinomial],
                             ids=lambda i: i.value)
    @pytest.mark.parametrize("key", ["p", "alpha"])
    def test_complex_p_or_alpha_rejected(self, ident, key):
        # Both arms compare p and alpha with <, which a complex value made
        # a TypeError.
        point = dict(_POINTS[ident])
        point[key] = point[key] + 0.1j
        with pytest.raises(InvalidParams, match=f"real 0 < {key} < 1"):
            verify(ident, point)

    @pytest.mark.parametrize("ident, params", [
        (IdentityId.QBinomialForm,
         {"a": -1.0, "b": 0.5, "alpha": 0.5, "p": 0.3, "z": 1.0}),
        (IdentityId.BaileyBinomial,
         {"a1": -1.0, "b1": 0.5, "a2": 2.0, "b2": 1.0, "alpha": 0.4,
          "p": 0.5}),
        (IdentityId.Multibasic,
         {"p1": 0.2, "a1": -2.0, "b1": 1.0, "p2": 0.3, "a2": 3.0, "b2": 1.0,
          "alpha_sum": 0.5}),
    ], ids=["qbinomial", "bailey-binomial", "multibasic"])
    def test_gamma_pole_of_the_normalizer_is_typed(self, ident, params):
        # (p, p^(a+1); p)_inf vanishes at a = -1, -2, ...: the first two
        # escaped ZeroDivisionError, multibasic reported a term overflow.
        report = verify(ident, params)
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith(
            "PoleAtNonpositiveInteger: Gamma_p(a+1) pole")

    @pytest.mark.parametrize("p1", [0.999, 0.9999])
    def test_normalizer_underflow_is_typed(self, p1):
        # (p; p)_inf at p = .999 is about e^-1645, which underflows to 0:
        # the division by it escaped ZeroDivisionError.
        report = verify(IdentityId.Multibasic, {"p1": p1, "a1": 2.0,
                                                "b1": 1.0, "alpha_sum": 0.5})
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith(
            "NoConvergence: (p, p^(a+1); p)_inf underflows to 0")

    def test_overflowing_integrand_fails_without_warnings(self):
        # The numerator (b q^x, a q^-x; p)_inf overflows on the integral's
        # window; the first non-finite sample fails the integral, and numpy
        # must not warn on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify(IdentityId.Main, {"a": 0.2, "b": 0.3, "z": 1.0,
                                              "q": 0.075, "p": 0.062})
        assert not report.passed
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith(
            "QuadratureFailure: non-finite integrand sample")

    def test_infinite_theta_prefactor_fails_without_warnings(self):
        # At q = .999, den(0) = (-z, -q/z; q)_inf overflows; main_integral's
        # prefactor is typed, and numpy must not warn on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify(IdentityId.Main, {
                "a": 0.2, "b": 0.3, "z": 1.0, "q": 0.999, "p": 0.4995,
                "allow_extreme": True})
        assert not report.passed
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith(
            "NoConvergence: (-z, -q/z; q)_inf is inf")

    def test_theta_overflow_point_verifies(self):
        # den(x) overflows on the integral's window; theta on one period
        # stays finite.
        report = verify(IdentityId.Main, {"a": 0.2, "b": 0.3, "z": 1.0,
                                          "q": 0.3, "p": 0.285})
        assert report.passed
        expected = MAIN_SERIES[(0.2, 0.3, 1.0, 0.3, 0.285)]
        assert rel_err(report.lhs, expected) < 1e-14
        assert rel_err(report.rhs, expected) < 1e-14

    @pytest.mark.parametrize("key", sorted(MAIN_EDGE))
    def test_former_edge_failures_verify(self, key):
        # boundary-band points where den(x) overflows on the window
        q, p = key
        report = verify(IdentityId.Main, {"a": 0.2, "b": 0.3, "z": 1.0,
                                          "q": q, "p": p})
        assert report.passed
        assert rel_err(report.lhs, MAIN_EDGE[key]) < 1e-12
        assert rel_err(report.rhs, MAIN_EDGE[key]) < 1e-12

    def test_multibasic_window_reads_the_coefficients(self):
        # b1 = -5 makes p1^(b1+1) large, which widens the window; with unit
        # coefficients the window is too short ("decay model is too fast").
        (factors, alpha_sum), = MULTIBASIC_ALPHA_SUM
        params = {"alpha_sum": alpha_sum}
        for j, (p, a, b) in enumerate(factors, 1):
            params.update({f"p{j}": p, f"a{j}": a, f"b{j}": b})
        report = verify(IdentityId.Multibasic, params)
        assert report.passed
        expected = MULTIBASIC_ALPHA_SUM[(factors, alpha_sum)]
        assert rel_err(report.lhs, expected) < 1e-13
        assert rel_err(report.rhs, expected) < 1e-13

    def test_underflowing_weight_is_not_a_pass(self):
        # Near |n| = 30 q^(n(n-1)/2) alone underflows while z^n does not;
        # zeroed terms there stop the sum at -80.43 with a tail of 0, where
        # mpmath gives -0.15166528347191684.  The whole weight stays finite
        # and the products overflow, so the point is inconclusive.
        report = verify(IdentityId.FunctionalEq1, {
            "a": 0.4365087893951871, "b": 0.9660048576866924,
            "z": 2.497511496595063, "q": 0.17136985202096033,
            "p": 0.15169582332197742})
        assert not report.passed
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith(
            "NoConvergence: term overflow")

    def test_re_z_is_checked_before_either_side(self):
        # Outside the main integral's half plane.  main_series runs first
        # and fails here ("term overflow at |n|=45"), which made the point
        # inconclusive instead of a domain error.
        with pytest.raises(DomainError, match="Re z must be positive"):
            verify(IdentityId.Main, {"a": -0.38671, "b": 0.92977,
                                     "z": -0.13427 - 2.30302j,
                                     "q": 0.45461, "p": 0.42961})

    def test_series_window_certificate_is_relative(self):
        # The series' end term 1.28e-11 is above eps/10 = 1e-11 but far
        # below eps/10 times its sum, |-33.66+35.00i| = 48.6.
        report = verify(IdentityId.Main, {
            "a": -0.0015887087867474392, "b": 0.04499834106141609,
            "z": 1.7361441987133304 - 0.848049699982394j,
            "q": 0.922208005276069, "p": 0.5022029426067246})
        assert report.passed and report.rel_err < 1e-13
        assert 1e-11 < report.lhs_diag["tail_estimate"] < 1e-11 * 48.6

    def test_uncertified_series_window_is_inconclusive(self):
        # The moved side's end term is 7.98e-11 against eps/10 = 1e-11:
        # its decay model is too fast there.  The sum was taken anyway and
        # the point failed by value (rel_err 0.75).
        report = verify(IdentityId.Invariance, {
            "a": 0.08761474346011075, "b": 0.5032455473638371,
            "z": 1.129434629666483, "q": 0.8987586291156763,
            "p": 0.3079613575393504,
            "c": -1.0563826014052482 + 0.4415711882565307j})
        assert report.lhs_diag["status"] == "inconclusive"
        assert report.lhs_diag["reason"].startswith(
            "NoConvergence: window edge sample")

    def test_elapsed_recorded(self):
        report = verify(IdentityId.TripleProduct, {"z": 0.8, "q": 0.5})
        assert report.elapsed >= 0.0


class TestProductPrecision:
    """Products are certified to double precision whatever the tolerance, so
    the arms built on them agree far below it."""

    @pytest.mark.parametrize("key", sorted(APPELL_LERCH))
    def test_appell_lerch_rhs_against_oracle(self, key):
        a, q = key
        report = verify(IdentityId.AppellLerch, {"a": a, "q": q})
        assert rel_err(report.rhs, APPELL_LERCH[key]) <= 1e-14

    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 3.0])
    def test_fourier_sides_agree(self, y):
        report = verify(IdentityId.Fourier, {"a": 0.1, "b": 0.2, "q": 0.5,
                                             "p": 0.2, "y": y})
        assert report.rel_err <= 1e-13

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_base_integral(self, q):
        assert verify(IdentityId.BaseIntegral, {"q": q}).rel_err <= 1e-14

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("z", [0.5, 1.0, 1.5, 0.6 + 0.6j])
    def test_triple_product(self, z, q):
        report = verify(IdentityId.TripleProduct, {"z": z, "q": q})
        assert report.rel_err <= 1e-14


class TestDiagnostics:
    _KEYS = [name for name in Side.__dataclass_fields__ if name != "value"]

    @pytest.mark.parametrize("ident", list(IdentityId),
                             ids=lambda i: i.value)
    def test_both_sides_share_one_schema(self, ident):
        report = verify(ident, _POINTS[ident])
        assert report.passed
        for diag in (report.lhs_diag, report.rhs_diag):
            assert list(diag) == self._KEYS
            assert diag["method"] in SIDE_METHODS
            if diag["method"] in ("series", "doubling"):
                assert diag["terms_used"] > 0
                assert diag["half_width_used"] > 0
            if diag["method"] == "trapezoid":
                assert diag["nodes_used"] > 0
                assert diag["half_width_used"] > 0
        assert report.rule in ("abs", "rel")

    def test_combined_side_adds_its_evaluations(self):
        # f(a, b, z) = f(a, bp, z) - b f(a, bp, qz): two sums on the right.
        report = verify(IdentityId.FunctionalEq1,
                        _POINTS[IdentityId.FunctionalEq1])
        assert report.rhs_diag["terms_used"] > report.lhs_diag["terms_used"]


class TestReportRule:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(1e-12, 1e-2))
    def test_pass_rule(self, lhs, rhs, tol):
        report = make_report(IdentityId.Main, {}, lhs, rhs, tol)
        scale = max(abs(lhs), abs(rhs))
        expected = (report.abs_err <= tol
                    or (scale > tol and report.rel_err <= tol))
        assert report.passed == expected
        if scale > 0:
            assert report.rel_err == pytest.approx(report.abs_err / scale)

    def test_rule_names_the_deciding_branch(self):
        assert make_report(IdentityId.Main, {}, 1.0, 1.0 + 5e-9,
                           1e-8).rule == "abs"
        rel = make_report(IdentityId.Main, {}, 1e3, 1e3 + 5e-6, 1e-8)
        assert rel.passed and rel.rule == "rel"

    def test_swap_symmetry(self):
        a = make_report(IdentityId.Main, {}, 1.0, 1.0 + 5e-9, 1e-8)
        b = make_report(IdentityId.Main, {}, 1.0 + 5e-9, 1.0, 1e-8)
        assert a.passed == b.passed
        assert a.abs_err == b.abs_err


class TestSweep:
    def test_grid_cardinality_and_order(self):
        grid = {"z": [0.5, 1.0, 1.5], "q": [0.4, 0.6], "p": [0.2],
                "a": [0.2], "b": [0.3]}
        reports, summary = sweep_points(IdentityId.Main, expand_grid(grid))
        assert summary["total"] == 6
        assert summary["passed"] == 6
        # deterministic ordering by sorted key, then product order
        zs = [r.params["z"] for r in reports]
        assert zs == [0.5, 1.0, 1.5, 0.5, 1.0, 1.5]

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidGrid):
            expand_grid({})
        with pytest.raises(InvalidGrid):
            sweep_points(IdentityId.Main, expand_grid({"q": []}))
        with pytest.raises(InvalidGrid):
            sweep_points(IdentityId.Main, [])

    def test_invalid_point_isolated(self):
        grid = {"a": [0.2], "b": [0.3], "z": [1.0], "q": [0.6],
                "p": [0.3, 0.7]}  # p=0.7 violates |p| < |q|
        reports, summary = sweep_points(IdentityId.Main, expand_grid(grid))
        assert summary["total"] == 2
        assert summary["passed"] == 1
        bad = [r for r in reports if not r.passed]
        assert len(bad) == 1
        assert bad[0].lhs_diag["status"] == "invalid_params"

    def test_thread_count_does_not_change_reports(self):
        grid = {"z": [0.5, 1.0, 1.5], "q": [0.4, 0.6], "p": [0.2],
                "a": [0.2], "b": [0.3]}
        one, s1 = sweep_points(IdentityId.Main, expand_grid(grid), threads=1)
        four, s4 = sweep_points(IdentityId.Main, expand_grid(grid), threads=4)
        assert s1 == s4
        for r1, r4 in zip(one, four):
            assert r1.params == r4.params
            assert r1.lhs == r4.lhs
            assert r1.rhs == r4.rhs
