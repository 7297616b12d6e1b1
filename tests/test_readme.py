"""The README's command-line examples, run through ``cli.main``.

Each ``maxplus ...`` line of the "Command line" block runs from the
repository root.  A ``# exit N: Text`` comment fixes the exit code and a
text the output must contain; any other comment is a text the output must
contain, with exit 0.  Piped lines need external tools and are skipped.
"""

import re
import shlex
from pathlib import Path

import pytest

from maxplus.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        line
        for line in block.splitlines()
        if line.startswith("maxplus ") and "|" not in line
    ]


def test_block_found():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command(line, capsys, monkeypatch):
    command, _, comment = line.partition("#")
    comment = comment.strip()
    expected_code, text = 0, comment
    exit_comment = re.fullmatch(r"exit (\d+): (.*)", comment)
    if exit_comment:
        expected_code, text = int(exit_comment.group(1)), exit_comment.group(2)
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == expected_code
    assert text in out
