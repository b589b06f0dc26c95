"""Every ```python block of README.md runs on its own."""

import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _README.read_text(),
                     flags=re.S | re.M)


def test_readme_has_python_blocks():
    assert _BLOCKS


@pytest.mark.parametrize("source", _BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(_BLOCKS) + 1)])
def test_block_runs_in_a_fresh_namespace(source, capsys):
    exec(compile(source, str(_README), "exec"), {"__name__": "__readme__"})
