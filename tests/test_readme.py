"""The README's examples run, and the outputs it shows are the real ones."""

import re
import shlex
from pathlib import Path

import pytest

from weylbuildings.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FENCE = re.compile(r"^```(\w*)\n(.*?)^```\n", re.M | re.S)
BLOCKS = [(m.group(1), m.group(2)) for m in FENCE.finditer(README)]

# a one-line `weylbuildings ...` shell block directly followed by a plain block of its output
SHOWN = [
    (command.strip(), output)
    for (lang, command), (next_lang, output) in zip(BLOCKS, BLOCKS[1:])
    if lang == "sh" and command.startswith("weylbuildings ") and command.count("\n") == 1
    and next_lang == ""
]


def test_python_block_runs():
    (source,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(source, "README.md", "exec"), {})


def test_shown_outputs_are_found():
    assert [command for command, _ in SHOWN] == [
        "weylbuildings growth --type G2~ --K 6",
        "weylbuildings period --type A1~ --q 2 --K 5 --format csv",
    ]


@pytest.mark.parametrize("command, output", SHOWN, ids=[c for c, _ in SHOWN])
def test_shown_output_matches(command, output, capsys):
    code = main(shlex.split(command)[1:])
    assert code == 0
    assert capsys.readouterr().out == output
