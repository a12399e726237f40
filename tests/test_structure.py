"""Structure guard: ``gridtopo.ingest`` is the package's only CSV reader
and writer, so the output dialect (UTF-8, ``\\n`` line ends) is decided
in one place. No other module may import ``csv`` or call ``open`` in a
write mode."""

import ast
from pathlib import Path

import gridtopo

PACKAGE = Path(gridtopo.__file__).parent


def violations(source: str, name: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m == "csv" or m.startswith("csv.") for m in modules):
            found.append(f"{name}:{node.lineno}: imports csv")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # open(path, mode) versus path.open(mode)
        if isinstance(func, ast.Name) and func.id == "open":
            position = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            position = 0
        else:
            continue
        mode = node.args[position] if len(node.args) > position else None
        mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            found.append(f"{name}:{node.lineno}: open with a computed mode")
        elif set(mode.value) & set("wax+"):
            found.append(f"{name}:{node.lineno}: open in mode {mode.value!r}")
    return found


def test_only_ingest_reads_or_writes_csv():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "ingest.py":
            found += violations(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_guard_flags_csv_imports_and_write_modes():
    source = (
        "import csv\n"
        "from csv import writer\n"
        "open(p, 'w')\n"
        "open(p, mode='a')\n"
        "p.open('x')\n"
        "open(p, m)\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "p.open()\n"
    )
    assert [v.split(":")[1] for v in violations(source, "m.py")] == ["1", "2", "3", "4", "5", "6"]
