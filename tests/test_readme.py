"""README.md's examples run as written: the Python quickstart and every
`ctbt ...` line of its command-line block."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ctbt.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def block(heading: str, lang: str) -> str:
    found = re.search(rf"^## {re.escape(heading)}\n\n```{lang}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert found, f"README.md has no {lang} block under '## {heading}'"
    return found[1]


def test_quickstart_runs_and_swing_up_hands_off_to_balance():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", block("Quickstart (Python)", "python")],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    switches = done.stdout.splitlines()[0]
    assert re.findall(r"kind='Switch'.*?info=\{'from': (\d+), 'to': (\d+)\}",
                      switches) == [("1", "2")]


COMMANDS = block("Command line", "sh").splitlines()


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_exits_zero(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "ctbt"
    assert main(argv[1:]) == 0, capsys.readouterr().err
