"""The README's code runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_block_runs_from_the_repo_root(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    objective, max_residual = map(float, capsys.readouterr().out.split())
    assert objective >= 0.0 and max_residual <= 1e-6
