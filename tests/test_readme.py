"""The README's library example runs as written."""

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_on_mini(tmp_path, monkeypatch, capsys):
    shutil.copy(ROOT / "tests" / "data" / "mini.graphml", tmp_path / "net.graphml")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out == "1 middleboxes for 2 pairs\noptimal: 1\n"
