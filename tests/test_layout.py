"""The benchmark's tracer name table and report checks match the package.

perfbench/tracing.py wraps functions by the names they are bound to in each
qsinc module, and perfbench/workloads.py reads the verdict, the status and
the reason out of reports and CLI output.  A renamed or deleted binding, or
a moved report field, breaks the benchmark; these tests catch it without
running the benchmark.
"""

import pytest

from qsinc import IdentityId, cli, quadrature, verify

from conftest import load_perfbench as _load

# Accepted, but the integrand's numerator overflows: inconclusive
# (QuadratureFailure).
_OVERFLOW = {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.075, "p": 0.062}
_PASSING = {"a": 0.2, "b": 0.3, "z": 1.0, "q": 0.6, "p": 0.3}
# Accepted, but a product argument is near the largest float: inconclusive
# (NoConvergence), not a usage error.
_HUGE_ARGUMENT = {"a": 0.8, "b": -0.8, "q": 0.1, "p": 0.095, "m": -3}


def _traced_bindings() -> list[tuple[object, str]]:
    return [(module, name)
            for _, module, names, _ in _load("tracing").LAYERS
            for name in names]


_BINDINGS = _traced_bindings()


@pytest.mark.parametrize("module, name", _BINDINGS,
                         ids=[f"{m.__name__}.{n}" for m, n in _BINDINGS])
def test_traced_name_is_bound_and_callable(module, name):
    assert callable(getattr(module, name, None))


def test_main_verify_calls_the_traced_scalar_product(monkeypatch):
    # ROADMAP item 11: perfbench/test_smoke.py needs a qcore.scalar span on
    # grid and edge, whose points are main and symmetric verifies, and
    # main_integral's prefactor (-z, -q/z; q)_inf is the only scalar product
    # left there.  Without this test, a change that drops it breaks only the
    # benchmark's smoke test.
    assert (quadrature, "qpoch_inf") in [
        (module, name) for layer, module, names, _ in _load("tracing").LAYERS
        if layer == "qcore.scalar" for name in names]
    calls = []
    scalar = quadrature.qpoch_inf

    def counted(a, q):
        calls.append(a)
        return scalar(a, q)

    monkeypatch.setattr(quadrature, "qpoch_inf", counted)
    assert verify(IdentityId.Main, _PASSING).passed
    assert calls


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _cli_outcome(workloads, capsys, params, ident="main"):
    op = workloads.Op(ident, params)
    code = cli.main(list(workloads.cli_argv(ident, params)))
    return workloads.judge_cli(op, code, capsys.readouterr().out)


def test_judge_report_reads_the_failure(workloads):
    report = verify(IdentityId.Main, _OVERFLOW)
    out = workloads.judge_report(workloads.Op("main", _OVERFLOW), report)
    assert out.failure == "inconclusive:QuadratureFailure"
    assert out.incorrect is None


def test_judge_cli_reads_the_failure(workloads, capsys):
    out = _cli_outcome(workloads, capsys, _OVERFLOW)
    assert out.failure == "inconclusive:QuadratureFailure"
    assert out.incorrect is None


def test_judge_cli_passes_a_passing_verify(workloads, capsys):
    out = _cli_outcome(workloads, capsys, _PASSING)
    assert out.failure is None and out.incorrect is None
    assert out.margin is not None


def test_judge_cli_finds_every_catalog_report_sound(workloads, capsys):
    # The catalog workload reads each report back from the CLI's JSON: a
    # change of encoding that it cannot read shows here, not only in a
    # benchmark run.
    outcomes = [(ident, params, _cli_outcome(workloads, capsys, params, ident))
                for ident, points in workloads._acceptance_points().items()
                for params in points]
    assert len(outcomes) == 217
    assert [(i, p, o.incorrect) for i, p, o in outcomes if o.incorrect] == []


def test_judge_cli_reads_a_huge_product_argument(workloads, capsys):
    out = _cli_outcome(workloads, capsys, _HUGE_ARGUMENT, "weighted")
    assert out.failure == "inconclusive:NoConvergence"
    assert out.incorrect is None
