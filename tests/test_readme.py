"""The README's library example runs as documented, and its flag table
matches the parser."""

import re
from pathlib import Path

import pytest

from schreierlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    gap, two_sided = (float(word) for word in capsys.readouterr().out.split())
    assert 0.0 < gap <= 2.0
    assert 0.0 <= two_sided <= 1.0


def test_flag_table_matches_each_command_help(capsys):
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", README.read_text(encoding="utf-8"), re.M)
    table = {command: re.findall(r"`(--[a-z-]+)`", flags) for command, flags in rows}
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert list(table) == commands
    for command, flags in table.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        assert flags == [flag for flag in listed if flag != "--help"], command
