"""The README's code runs as written, and its CLI table matches the parser."""

import re
from pathlib import Path

from helpers import command_flags

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_block_runs_from_the_repo_root(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    objective, max_residual = map(float, capsys.readouterr().out.split())
    assert objective >= 0.0 and max_residual <= 1e-6


def test_cli_flag_table_matches_the_parser():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.MULTILINE)
    table = {command: set(re.findall(r"`(--[a-z-]+)`", flags)) for command, flags in rows}
    assert table == command_flags()
