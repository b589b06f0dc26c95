"""The benchmark tracer's name table matches the package.

perfbench/tracing.py wraps functions by the names they are bound to in each
qsinc module.  A renamed or deleted binding breaks the benchmark; this test
catches it without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_bindings() -> list[tuple[object, str]]:
    spec = importlib.util.spec_from_file_location("qsinc_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name)
            for _, module, names, _ in tracing.LAYERS for name in names]


_BINDINGS = _traced_bindings()


@pytest.mark.parametrize("module, name", _BINDINGS,
                         ids=[f"{m.__name__}.{n}" for m, n in _BINDINGS])
def test_traced_name_is_bound_and_callable(module, name):
    assert callable(getattr(module, name, None))
