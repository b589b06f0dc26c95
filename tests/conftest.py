import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def series_eps() -> float:
    return 1e-12


@pytest.fixture
def quad_eps() -> float:
    return 1e-11


def rel_err(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    return abs(complex(lhs) - complex(rhs)) / scale if scale else 0.0


def load_perfbench(name: str):
    """perfbench/<name>.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"qsinc_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
