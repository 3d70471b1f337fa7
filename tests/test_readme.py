"""The README's Python examples and dataset commands run as written, against
the dataset its own `phantom` example generates."""

import re
import shlex
from pathlib import Path

import pytest

from rulefuse.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def readme_argv(command: str) -> list[str]:
    """The README's `rulefuse ... <command> ...` line, without `rulefuse`."""
    lines = re.findall(r"^\$ rulefuse ((?:.*\\\n)*.*)$", README, re.M)
    for line in lines:
        argv = shlex.split(line.replace("\\\n", " "))
        if command in argv:
            return argv
    raise AssertionError(f"README has no {command} example")


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(readme_argv("phantom")) == 0
    assert (tmp_path / "demo" / "manifest.json").exists()
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["search", "availability", "mc-uncertainty"])
def test_readme_dataset_command_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(readme_argv("phantom")) == 0
    assert main(readme_argv(command)) == 0
    assert capsys.readouterr().out
