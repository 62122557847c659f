"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    gap, two_sided = (float(word) for word in capsys.readouterr().out.split())
    assert 0.0 < gap <= 2.0
    assert 0.0 <= two_sided <= 1.0
