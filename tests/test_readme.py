"""The README's command-line block runs as written."""

import shlex
from pathlib import Path

from girthforge.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_block():
    """The arguments of each command in the "Command line" section, continuations joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    commands = [words for words in commands if words]
    assert all(words[0] == "girthforge" for words in commands)
    return [words[1:] for words in commands]


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = command_line_block()
    assert len(commands) == 6
    for argv in commands:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
