"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README.name} (## Library)", "exec"), {})
    max_dev, zeros = capsys.readouterr().out.split()
    assert 0 < float(max_dev) < 1 and int(zeros) > 0
