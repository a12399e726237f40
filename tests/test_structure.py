"""Structure guards.

``gridtopo.ingest`` is the package's only CSV reader and writer, so the
output dialect (UTF-8, ``\\n`` line ends) is decided in one place. No
other module may import ``csv`` or call ``open`` in a write mode.

``ingest._read_rows`` alone attaches the file and row to an ingest
error; converters raise without a location. No other function may pass
``row=``.
"""

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


def row_keyword_calls(source: str, name: str) -> list[str]:
    """``name:function:line`` of every call that passes ``row=``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and any(k.arg == "row" for k in child.keywords):
                found.append(f"{name}:{scope}:{child.lineno}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(child, inner)

    visit(ast.parse(source, filename=name), "<module>")
    return found


def test_only_read_rows_passes_a_row():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += row_keyword_calls(path.read_text(encoding="utf-8"), path.name)
    assert [f for f in found if not f.startswith("ingest.py:_read_rows:")] == []
    assert any(f.startswith("ingest.py:_read_rows:") for f in found)


def test_row_guard_flags_row_keywords_and_their_scope():
    source = (
        "f(row=1)\n"
        "def _read_rows():\n"
        "    g(x, row=2)\n"
        "    def make():\n"
        "        h(row=3)\n"
        "class C:\n"
        "    def m(self):\n"
        "        k(path=p, row=4)\n"
        "k(rows=5)\n"
        "k(path=p)\n"
        "def row(): return row\n"
    )
    assert row_keyword_calls(source, "m.py") == [
        "m.py:<module>:1",
        "m.py:_read_rows:3",
        "m.py:make:5",
        "m.py:m:8",
    ]
