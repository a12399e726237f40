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

At module level the test suites import only the standard library, the
repository's own code and what the ``test`` extra installs, so ``pip
install -e ".[test]"`` is enough to collect every test.

Under the pytest configuration, where every warning is an error, a
failing property test is reported as a failure and the session goes on.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import gridtopo

PACKAGE = Path(gridtopo.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


# Callers of the ingest.serialize_* writers; ROADMAP item 1 plans a dataset
# generator in the package that writes through them.
_WRITER = "round-trip tests, test_scaling's dataset writer, ROADMAP item 1's generator"

#: Definitions no package code names, each kept for a caller outside it.
UNREFERENCED = {
    "direction.py:Orientation.endpoint_map": "perfbench diffs two orientations with it",
    "direction.py:Orientation.provenance_counts": "perfbench records the provenance histogram",
    "dispatch.py:GenerationSnapshot.total_output": "perfbench checks bus-load mass against it",
    "ingest.py:serialize_buses": _WRITER,
    "ingest.py:serialize_lines": _WRITER,
    "ingest.py:serialize_generators": _WRITER,
    "ingest.py:serialize_hourly_loads": _WRITER,
    "ingest.py:serialize_planning_area_polygons": _WRITER,
    "ingest.py:serialize_city_polygons": _WRITER,
    "ingest.py:serialize_population_points": _WRITER,
    "ingest.py:serialize_snapshot_outputs": "round-trip tests, ROADMAP item 1's generator",
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


def imported_packages(source: str, name: str) -> set[str]:
    """Top-level package of every absolute module-level import in
    ``source``. An import inside a function runs only with that test,
    which can skip itself first (``pytest.importorskip``)."""
    found = set()
    for node in ast.parse(source, filename=name).body:
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def extra_packages() -> set[str]:
    """Import names of the requirements in pyproject's ``test`` extra."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*?)\]", text, re.MULTILINE | re.DOTALL).group(1)
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in re.findall(r'"([^"]+)"', extra)
    }


def test_suites_import_only_what_the_test_extra_installs():
    allowed = set(sys.stdlib_module_names) | {"gridtopo", "perfbench", "helpers"}
    allowed |= extra_packages()
    found = []
    for directory in (ROOT / "tests", ROOT / "perfbench" / "tests"):
        for path in sorted(directory.glob("*.py")):
            imported = imported_packages(path.read_text(encoding="utf-8"), path.name)
            found += [f"{path.relative_to(ROOT)}: {m}" for m in sorted(imported - allowed)]
    assert found == []


def test_import_guard_reads_every_module_level_absolute_import():
    source = (
        "import a.b as c, d\n"
        "from e.f import g\n"
        "from . import h\n"
        "from .i import j\n"
        "def k():\n"
        "    import l\n"
    )
    assert imported_packages(source, "m.py") == {"a", "d", "e"}


FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # Under the repository's pytest configuration (every warning an error)
    # a failing hypothesis test must be reported as a failure, not end the
    # session with an INTERNALERROR that leaves every later test unreported.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
