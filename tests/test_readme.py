"""The README's Python examples run as written, against the dataset its own
`phantom` example generates."""

import re
import shlex
from pathlib import Path

import pytest

from rulefuse.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def phantom_argv() -> list[str]:
    """The README's `rulefuse ... phantom ...` command line, without `rulefuse`."""
    commands = re.findall(r"^\$ rulefuse ((?:.*\\\n)*.*)$", README, re.M)
    for command in commands:
        argv = shlex.split(command.replace("\\\n", " "))
        if "phantom" in argv:
            return argv
    raise AssertionError("README has no phantom example")


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(phantom_argv()) == 0
    assert (tmp_path / "demo" / "manifest.json").exists()
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out
