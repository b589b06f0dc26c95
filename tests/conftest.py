import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def series_eps() -> float:
    return 1e-12


@pytest.fixture
def quad_eps() -> float:
    return 1e-11


def rel_err(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    return abs(complex(lhs) - complex(rhs)) / scale if scale else 0.0
