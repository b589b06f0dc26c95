"""CLI behaviors: exit codes, formats, determinism, round-trips."""

import csv
import io
import json
import math

import pytest

from qsinc import IdentityId, cli, qpoch_inf, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "main",
                           "--a", "0.2", "--b", "0.3", "--z", "1",
                           "--q", "0.6", "--p", "0.3")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["identity"] == "main"
        assert abs(doc["lhs"]["re"] - 1.2693625769161287) < 1e-9

    def test_invalid_params_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "main",
                             "--a", "0.2", "--b", "0.3", "--z", "1",
                             "--q", "0.6", "--p", "0.7")
        assert code == 2
        assert out == ""
        assert "invalid parameters" in err

    @pytest.mark.parametrize("argv", [
        ("fourier", "--a", ".1", "--b", ".2", "--q", ".5", "--p", ".2"),
        ("qbinomial", "--a", "2", "--b", "1", "--alpha", ".5",
         "--p", "0.3+0.1i", "--z", "1"),
        ("osler", "--a", "2", "--alpha", ".5", "--b", "0.5+1i"),
        ("osler", "--a", "2+1i", "--alpha", ".5"),
        ("osler", "--a", "2", "--alpha", ".5+1i"),
        ("osler", "--a", "2", "--alpha", ".5", "--theta", ".1+1i"),
        ("classical-sum-int", "--a", "2+1i", "--alpha", "1", "--l", "2"),
        ("classical-sum-int", "--a", "2", "--alpha", "1+1i", "--l", "2"),
        ("fourier", "--y", "1+1i", "--a", ".1", "--b", ".2", "--q", ".5",
         "--p", ".2"),
        ("base-integral", "--q", "0"),
        ("appell-lerch", "--a", "0", "--q", ".6"),
        ("multibasic", "--p1", ".2", "--a1", "2", "--b1", "1", "--p2", ".3",
         "--a2", "3", "--b2", "1", "--alpha-sum", "0.5+0.5i"),
        ("main", "--a", "-.38671", "--b", ".92977", "--z=-.13427-2.30302i",
         "--q", ".45461", "--p", ".42961"),
        # 1e999 parses to inf.
        ("symmetric", "--a", ".1", "--b", ".2", "--z", "1e999", "--q", ".5",
         "--p", ".2"),
        ("invariance", "--a", ".2", "--b", ".3", "--z", "1", "--q", ".6",
         "--p", ".3", "--c", "1e999"),
        ("appell-lerch", "--a", "1e999", "--q", ".5"),
        ("multibasic", "--p1", ".2", "--a1", "1e999", "--b1", "1",
         "--alpha-sum", ".5"),
        ("osler", "--a", "2", "--alpha", ".5", "--theta", "1e999"),
    ], ids=["missing-y", "complex-p", "osler-complex-b", "osler-complex-a",
            "osler-complex-alpha", "osler-complex-theta",
            "classical-complex-a", "classical-complex-alpha",
            "fourier-complex-y", "base-q-zero", "appell-lerch-a-zero",
            "multibasic-complex-alpha-sum", "main-re-z-negative",
            "symmetric-inf-z", "invariance-inf-c", "appell-lerch-inf-a",
            "multibasic-inf-a1", "osler-inf-theta"])
    def test_bad_parameter_exit_two(self, capsys, argv):
        # These escaped as KeyError, TypeError, OverflowError or
        # ZeroDivisionError tracebacks (exit 1); osler-complex-b dropped the
        # imaginary part of b and passed (exit 0), as multibasic-inf-a1 did
        # with "a1": Infinity in its report; appell-lerch-inf-a was a usage
        # error (exit 64).
        code, out, err = run(capsys, "verify", "--identity", *argv)
        assert code == 2
        assert out == ""
        assert "invalid parameters" in err

    def test_one_factor_multibasic(self, capsys):
        # omitting p2/a2/b2 gives one factor
        code, out, _ = run(capsys, "verify", "--identity", "multibasic",
                           "--p1", ".36", "--a1", "2", "--b1", "1",
                           "--q", ".6")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_base_integral_closed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "base-integral",
                           "--q", "0.5")
        assert code == 0
        doc = json.loads(out)
        expected = qpoch_inf(0.5, 0.5) * math.log(2.0)
        assert abs(doc["rhs"]["re"] - expected) < 1e-12

    def test_unknown_identity_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "nope", "--q",
                           "0.5")
        assert code == 64
        assert "unknown identity" in err

    def test_unknown_flag_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--identity", "main", "--bogus",
                         "1")
        assert code == 64

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
    def test_bad_tol_usage_error(self, capsys, tol):
        # nan used to exit 2 through the derived eps; inf passed every point.
        code, out, err = run(capsys, "verify", "--identity", "main",
                             "--a", "0.2", "--b", "0.3", "--z", "1",
                             "--q", "0.6", "--p", "0.3", f"--tol={tol}")
        assert code == 64 and out == ""
        assert "--tol must be positive and finite" in err

    def test_text_format_shows_rule_and_sides(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "main",
                           "--a", "0.2", "--b", "0.3", "--z", "1",
                           "--q", "0.6", "--p", "0.3", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert "  rule: abs" in lines
        lhs = next(line for line in lines if line.startswith("  lhs: "))
        rhs = next(line for line in lines if line.startswith("  rhs: "))
        assert "method=series" in lhs and "terms_used=39" in lhs
        assert "method=trapezoid" in rhs and "nodes_used=153" in rhs

    def test_complex_flag_syntax(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "main",
                           "--a", "0.2", "--b", "0.3", "--z", "0.5+0.5i",
                           "--q", "0.6", "--p", "0.3")
        assert code == 0
        assert json.loads(out)["params"]["z"] == "0.5+0.5i"

    def test_missing_identity_usage_error(self, capsys):
        for command in ("verify", "sweep", "limit"):
            code, out, _ = run(capsys, command, "--q", "0.5")
            assert code == 64 and out == ""

    @pytest.mark.parametrize("argv", [
        ("qbinomial", "--a", "-1", "--b", ".5", "--alpha", ".5", "--p", ".3",
         "--z", "1"),
        ("poisson", "--a", ".1", "--b", ".2", "--q", ".5", "--p", ".2",
         "--m", "1e30"),
        ("fourier", "--a", ".1", "--b", ".2", "--q", ".5", "--p", ".2",
         "--y", "3.141592653589793"),
    ], ids=["qbinomial-gamma-pole", "poisson-huge-m", "fourier-kernel-pole"])
    def test_typed_failure_exit_three(self, capsys, argv):
        # ZeroDivisionError (exit 1) and numpy's ValueError for an
        # oversized node array (usage error, exit 64) before; the Fourier
        # kernel pole at y = pi was a FAIL by value (exit 1).
        code, out, _ = run(capsys, "verify", "--identity", *argv)
        assert code == 3
        assert json.loads(out)["diagnostics"]["status"] == "inconclusive"

    def test_inconclusive_exit_three(self, capsys):
        # The series terms overflow at |n| = 25 (see the next test).
        code, out, _ = run(capsys, "verify", "--identity", "weighted",
                           "--a", ".8", "--b", "-.8", "--q", ".1",
                           "--p", ".095", "--m", "-3")
        assert code == 3
        # A failed point has no sides; status and reason sit on top.
        diag = json.loads(out)["diagnostics"]
        assert diag["status"] == "inconclusive"
        assert diag["reason"].startswith("NoConvergence")
        assert diag["lhs"] == diag["rhs"] == {}
        assert diag["rule"] == "rel"

    def test_product_argument_near_the_largest_float(self, capsys):
        # A product argument near 1e308 escaped as a math domain error,
        # which the CLI reported as a usage error (exit 64).
        code, out, _ = run(capsys, "verify", "--identity", "weighted",
                           "--a", ".8", "--b", "-.8", "--q", ".1",
                           "--p", ".095", "--m", "-3")
        assert code == 3
        reason = json.loads(out)["diagnostics"]["reason"]
        assert reason.startswith("NoConvergence")


class TestJsonFormat:
    def test_round_trip_byte_identical(self, capsys):
        _, out, _ = run(capsys, "verify", "--identity", "symmetric",
                        "--a", "0.1", "--b", "0.2", "--z", "1",
                        "--q", "0.5", "--p", "0.2")
        parsed = json.loads(out)
        assert json.dumps(parsed, separators=(",", ":")) + "\n" == out

    @pytest.mark.parametrize("argv", [
        ("--identity", "osler", "--a", "2", "--alpha", "0.5"),
        ("--identity", "main", "--a", "0.2", "--b", "0.3", "--z", "1",
         "--q", "0.6", "--p", "0.3"),
        ("--identity", "appell-lerch", "--a", "2", "--q", "0.5"),
    ], ids=["osler", "main", "appell-lerch"])
    def test_diagnostics_carry_both_sides(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert set(diag) == {"lhs", "rhs", "rule"}
        assert list(diag["lhs"]) == list(diag["rhs"])
        assert diag["rule"] in ("abs", "rel")
        assert diag["lhs"]["method"] == "series"
        assert diag["lhs"]["terms_used"] > 0

    def test_elapsed_zeroed_without_timing(self, capsys):
        _, out, _ = run(capsys, "verify", "--identity", "triple-product",
                        "--z", "0.8", "--q", "0.5")
        assert json.loads(out)["elapsed_ms"] == 0


class TestSweepCommand:
    _FLAGS = ("sweep", "--identity", "symmetric", "--q", "0.3:0.9:4",
              "--ratio", "0.2:0.6:3", "--z", "1", "--a", "0.1", "--b", "0.2")

    def test_grid_cardinality(self, capsys):
        code, out, _ = run(capsys, *self._FLAGS)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 12
        assert doc["summary"]["total"] == 12
        assert doc["summary"]["passed"] == 12

    def test_empty_range_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--identity", "symmetric",
                         "--q", "0.3:0.9:0", "--z", "1")
        assert code == 64

    def test_no_grid_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--identity", "symmetric")
        assert code == 64

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_usage_error(self, capsys, threads):
        # These silently ran one thread.
        code, out, err = run(capsys, *self._FLAGS, f"--threads={threads}")
        assert code == 64 and out == ""
        assert "--threads must be >= 1" in err

    def test_rerun_byte_identical_across_threads(self, capsys):
        _, out1, _ = run(capsys, *self._FLAGS, "--threads", "1")
        _, out2, _ = run(capsys, *self._FLAGS, "--threads", "4")
        assert out1 == out2

    def test_failing_point_sets_exit_one(self, capsys):
        code, out, _ = run(capsys, "sweep", "--identity", "main",
                           "--a", "0.2", "--b", "0.3", "--z", "1",
                           "--q", "0.6", "--p", "0.3,0.7")
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["passed"] == 1

    def test_invariance_default_c_is_the_librarys(self, capsys):
        # Without --c the CLI drew its own c from a seed, so its rhs
        # differed from verify's at the same point.
        point = {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6, "p": 0.3}
        flags = [f"--{k}={v!r}" for k, v in point.items()]
        rhs = verify(IdentityId.Invariance, point).rhs
        for command in ("verify", "sweep"):
            _, out, _ = run(capsys, command, "--identity", "invariance",
                            *flags)
            doc = json.loads(out)
            report = doc if command == "verify" else doc["reports"][0]
            assert "c" not in report["params"]
            assert complex(report["rhs"]["re"], report["rhs"]["im"]) == rhs

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, *self._FLAGS, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        assert header[0] == "identity"
        assert header[-8:] == ["lhs_re", "lhs_im", "rhs_re", "rhs_im",
                               "abs_err", "rel_err", "pass", "elapsed_ms"]
        assert header[1:-8] == sorted(header[1:-8])
        assert len(rows) == 13

    def test_fourier_grid_with_near_vanishing_point(self, capsys):
        code, out, _ = run(capsys, "sweep", "--identity", "fourier",
                           "--y", "0.5,1,2", "--a", "0.1", "--b", "0.2",
                           "--q", "0.5", "--p", "0.2")
        assert code == 0
        assert json.loads(out)["summary"]["total"] == 3


class TestLimitCommand:
    def test_qgamma_ladder_monotone(self, capsys):
        code, out, _ = run(capsys, "limit", "--identity", "qgamma",
                           "--x", "1.5")
        assert code == 0
        errors = [r["error"] for r in json.loads(out)]
        assert errors == sorted(errors, reverse=True)

    @pytest.mark.parametrize("identity", ["osler", "classical-sum-int"])
    def test_classical_identity_is_a_usage_error(self, capsys, identity):
        # A classical side has no q to take to 1: its eps ladder printed
        # one value at every eps.
        code, out, err = run(capsys, "limit", "--identity", identity,
                             "--a", "2", "--alpha", "0.5", "--l", "2")
        assert code == 64 and out == ""
        assert "limit supports identity qgamma" in err

    def test_qgamma_ladder_near_a_pole(self, capsys):
        # x = -1 + 1e-10 is no pole: it exited 3 ("Gamma_q pole") once q
        # was near 1.  Gamma_q approaches Gamma there with error O(1 - q).
        code, out, err = run(capsys, "limit", "--identity", "qgamma",
                             "--x=-0.9999999999")
        assert code == 0 and err == ""
        rows = json.loads(out)
        errors = [r["error"] for r in rows]
        assert errors == sorted(errors, reverse=True)
        for r in rows:
            assert r["rhs"]["re"] == pytest.approx(-9999999173.019146)
            assert r["error"] < 20.0 * (1.0 - r["parameter"]) * 1e10

    def test_inconclusive_ladder_exit_three(self, capsys):
        # Gamma(800) is past the double range: typed, not a row of inf.
        code, out, err = run(capsys, "limit", "--identity", "qgamma",
                             "--x", "800")
        assert code == 3 and out == ""
        assert "inconclusive: Gamma(800.0) overflows" in err

    def test_qgamma_complex_x_invalid(self, capsys):
        # float(x) raised a TypeError traceback (exit 1).
        code, out, err = run(capsys, "limit", "--identity", "qgamma",
                             "--x", "1+1i")
        assert code == 2 and out == ""
        assert "x must be real" in err

    def test_unsupported_identity(self, capsys):
        code, _, _ = run(capsys, "limit", "--identity", "main")
        assert code == 64


class TestCatalogCommand:
    def test_lists_all_identities(self, capsys):
        code, out, _ = run(capsys, "catalog")
        doc = json.loads(out)
        assert code == 0
        assert len(doc) == 17
        assert "main" in doc and "poisson" in doc

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "text")
        assert code == 0
        assert len(out.strip().splitlines()) == 17


    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["identity", "description"]
        assert len(rows) == 18
        assert dict(rows[1:])["functional-eq1"].startswith(
            "contiguous relation in b: f(a,b,z)")

    def test_parameter_flags_rejected(self, capsys):
        for flags in (("--q", "0.5"), ("--identity", "main"),
                      ("--allow-extreme",)):
            code, out, _ = run(capsys, "catalog", *flags)
            assert code == 64 and out == ""


class TestOutputFile:
    def test_output_path(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--identity", "base-integral",
                           "--q", "0.5", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["pass"] is True


_MAIN = ("--identity", "main", "--a", "0.2", "--b", "0.3", "--z", "1",
         "--q", "0.6", "--p", "0.3")


@pytest.mark.parametrize("argv, code, lines", [
    (("verify", *_MAIN, "--format", "csv"), 0,
     {0: "identity,a,b,p,q,z,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,"
         "pass,elapsed_ms"}),
    (("sweep", "--identity", "symmetric", "--q", "0.3,0.6", "--p", "0.1",
      "--z", "1", "--a", "0.1", "--b", "0.2", "--format", "text"), 0,
     {0: "symmetric [PASS]", -1: "summary: total=2 passed=2"}),
    (("limit", "--identity", "qgamma", "--format", "csv"), 0,
     {0: "parameter,lhs,rhs,error", 1: "0.99,"}),
    (("limit", "--identity", "qgamma", "--format", "text"), 0,
     {0: f"{'parameter':>12}  {'lhs':>24}  {'rhs':>24}  {'error':>10}"}),
    (("sweep", *_MAIN, "--tol", "1e-20", "--format", "text"), 1,
     {0: "main [FAIL]", 5: "  rule: rel"}),
    # An invalid point is a failed report in a sweep, which exits 0 only
    # when every point passes.
    (("sweep", *_MAIN[:-4], "--q", "0.97", "--p", "0.3", "--format",
      "text"), 1, {0: "main [FAIL]", 5: "  reason: |q|=0.97 > 0.95"}),
    (("verify", "--identity", "weighted", "--a", "0.8", "--b", "-0.8",
      "--q", "0.1", "--p", "0.095", "--m=-3", "--format", "text"), 3,
     {0: "weighted [FAIL]", 5: "  reason: NoConvergence: term overflow"}),
], ids=["verify-csv", "sweep-text", "limit-csv", "limit-text", "sweep-fail",
        "sweep-invalid-point", "verify-reason"])
def test_output_branch(capsys, argv, code, lines):
    got, out, _ = run(capsys, *argv)
    assert got == code
    rows = out.splitlines()
    for i, text in lines.items():
        assert rows[i].startswith(text)
