"""Structure guards.

``gridtopo.ingest`` is the package's only CSV reader and writer, so the
output dialect (UTF-8, ``\\n`` line ends) is decided in one place. No
other module may import ``csv`` or call ``open`` in a write mode.

``ingest._read_rows`` alone attaches the file and row to an ingest
error; converters raise without a location. No other function may pass
``row=``.

No module assigns ``__all__``: every name has one import path, its
submodule, so a list of exports would only restate the module.

Every module-level function and class, and every method, is named
somewhere in the package, so no definition lives only for the tests.
The few that stay for other callers are listed with their reason.
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


def all_assignments(source: str, name: str) -> list[str]:
    """``name:line`` of every binding of ``__all__``."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename=name))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]


def test_no_module_assigns_all():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += all_assignments(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_all_guard_flags_every_binding():
    source = (
        "__all__ = ['a']\n"
        "__all__ += ['b']\n"
        "__all__: list = []\n"
        "x, __all__ = 1, ['c']\n"
        "def f():\n"
        "    __all__ = []\n"
        "y = __all__\n"
        "z = '__all__'\n"
        "__all__.append('d')\n"
    )
    assert all_assignments(source, "m.py") == ["m.py:1", "m.py:2", "m.py:3", "m.py:4", "m.py:6"]


#: Definitions no package code names, each kept for a caller outside it.
UNREFERENCED = {
    "direction.py:Orientation.endpoint_map": "perfbench diffs two orientations with it",
    "direction.py:Orientation.provenance_counts": "perfbench records the provenance histogram",
    "dispatch.py:GenerationSnapshot.total_output": "perfbench checks bus-load mass against it",
    "ingest.py:serialize_buses": "canonical CSV writer for generated datasets",
    "ingest.py:serialize_lines": "canonical CSV writer for generated datasets",
    "ingest.py:serialize_generators": "canonical CSV writer for generated datasets",
    "ingest.py:serialize_hourly_loads": "canonical CSV writer for generated datasets",
    "ingest.py:serialize_planning_area_polygons": "canonical CSV writer for generated datasets",
    "ingest.py:serialize_city_polygons": "canonical CSV writer for generated datasets",
    "ingest.py:serialize_population_points": "canonical CSV writer for generated datasets",
    "ingest.py:serialize_snapshot_outputs": "canonical CSV writer for generated datasets",
}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each module-level function or class, and each
    method (``module:Class.name``), whose name no ``ast.Name`` or
    ``ast.Attribute`` in ``sources`` carries. Dunders are exempt; an
    import or a string is not a use."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source, filename=module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{module}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}:{node.name}.{m.name}", m.name)
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        key
        for key, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_definition_is_named_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    # Equality, so an entry goes once the package names it.
    assert sorted(unreferenced_definitions(sources)) == sorted(UNREFERENCED)


def test_dead_code_guard_flags_unnamed_definitions():
    sources = {
        "a.py": (
            "from b import Dead, unused\n"
            "__all__ = ['Dead', 'unused']\n"
            "def used(): pass\n"
            "def unused(): pass\n"
            "class C:\n"
            "    def __init__(self): pass\n"
            "    def called(self): pass\n"
            "    def dead(self): pass\n"
            "    @property\n"
            "    def prop(self): return 1\n"
            "class Dead: pass\n"
        ),
        "b.py": "used()\nC().called()\nx.prop\n",
    }
    assert unreferenced_definitions(sources) == ["a.py:unused", "a.py:C.dead", "a.py:Dead"]
