"""Every command in the README's CLI block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from fdp_accountant import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_commands():
    """argv lists of the `fdp-accountant ...` lines of the `## CLI` block,
    with backslash continuations joined and trailing comments dropped."""
    text = README.read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("fdp-accountant ")]


COMMANDS = _cli_commands()


def _case(i, argv):
    marks = ()
    if argv[0] == "sweep-tau":
        # exits 2: the default mesh is too coarse for the head GDP factor
        marks = pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    return pytest.param(argv, marks=marks, id=f"{i:02d}-{argv[0]}")


def test_readme_covers_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {
        "bound", "curve", "convert", "table", "verify", "sweep-tau"}


@pytest.mark.parametrize("argv", [_case(i, a) for i, a in enumerate(COMMANDS)])
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
