"""The README's CLI block and library quick start, run as written.

The README's instance is written to a temporary directory, every
``caliblist`` line of its CLI block runs there through ``cli.main`` with the
exit code the README gives it, and the quick start is executed as is.
"""

import re
import shlex
from pathlib import Path

import pytest

from caliblist import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# The lines whose README comment gives them exit 2; every other line exits 0.
EXIT_2 = {
    "caliblist verify --suite axioms --measure kl-mmr-demo --out counterexample.json",
    "caliblist repro appendix-b",
}


def _block(heading: str, lang: str, nth: int = 0) -> str:
    """The ``nth`` fenced ``lang`` block under ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)[nth]


def _cli_lines() -> list[str]:
    lines = (line.split("#", 1)[0].strip() for line in _block("CLI", "sh").splitlines())
    return [line for line in lines if line.startswith("caliblist ")]


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    (tmp_path / "inst.json").write_text(_block("CLI", "json"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_cli_block_holds_the_failing_lines():
    assert EXIT_2 <= set(_cli_lines())


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_line_exits_as_stated(readme_dir, capsys, line):
    assert cli.main(shlex.split(line)[1:]) == (2 if line in EXIT_2 else 0)
    assert capsys.readouterr().err == ""


def test_library_quick_start_runs(readme_dir, capsys):
    exec(_block("Library quick start", "python"), {})
    assert capsys.readouterr().out
