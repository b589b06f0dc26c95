"""Every ```python block of README.md runs on its own, and every ``qsinc``
line of its ```sh blocks exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from qsinc import cli

_README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = _README.read_text()
_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _TEXT, flags=re.S | re.M)
_COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```$", _TEXT,
                                          flags=re.S | re.M)
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("qsinc ")]


def test_readme_has_python_blocks():
    assert _BLOCKS


@pytest.mark.parametrize("source", _BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(_BLOCKS) + 1)])
def test_block_runs_in_a_fresh_namespace(source, capsys):
    exec(compile(source, str(_README), "exec"), {"__name__": "__readme__"})


def test_readme_has_cli_lines():
    assert _COMMANDS


@pytest.mark.parametrize("line", _COMMANDS,
                         ids=[f"line{i}" for i in range(1, len(_COMMANDS) + 1)])
def test_cli_line_exits_zero(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
