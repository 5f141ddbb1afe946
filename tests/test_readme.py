"""The README's library quick start and command lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from elicitrisk.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    match = re.search(r"## Library quick start\s+```python\n(.*?)```", README.read_text(), re.S)
    assert match is not None, "the README lost its quick-start block"
    scope = {}
    exec(compile(match.group(1), "README.md quick start", "exec"), scope)
    # the block's own comment: ES is not identified by a single C
    assert scope["rep"].consistent is False


def test_coherence_replay_recipe_runs():
    blocks = [b for b in re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
              if ".spawn(2)" in b]
    assert len(blocks) == 1, "the README lost its coherence replay block"
    scope = {}
    exec(compile(blocks[0], "README.md coherence replay", "exec"), scope)
    # the block's asserts ran on some violation
    assert scope["rep"].violations


# argv of each README ``elicitrisk`` line that reads no input file: neither
# ``--data`` nor a ``score`` panel
COMMANDS = [argv for argv in (shlex.split(line)[1:] for line in README.read_text().splitlines()
                              if line.startswith("elicitrisk "))
            if argv[0] != "score" and "--data" not in argv]


def test_command_lines_cover_every_verb_that_needs_no_file():
    assert {argv[0] for argv in COMMANDS} == {"eval", "elicit", "figure"}


@pytest.mark.parametrize("argv", COMMANDS)
def test_command_line_runs(argv, tmp_path, monkeypatch, capsys):
    # in a directory of its own, where figure --out writes its file
    monkeypatch.chdir(tmp_path)
    assert main(argv) in (0, 2)
    assert capsys.readouterr().err == ""
