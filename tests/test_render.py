import json
import math
import re
import xml.etree.ElementTree as ET
from types import MappingProxyType

import pytest

from gridtopo.analysis import direction_diff
from gridtopo.direction import orient_all
from gridtopo.demand import allocate_demand_index
from gridtopo.dispatch import FlowSolution, estimate_bus_load, make_snapshot, solve_flow_lp
from gridtopo.graph import build_grid
from gridtopo.ingest import load_dataset
from gridtopo.render import RAMP, render_dot, render_geojson, render_svg

from helpers import FIXTURE_NAMES, FIXTURES, lp_case, make_orientation, toy_dataset

RAMP_BOTTOM, RAMP_TOP = "#2c7bb6", "#d7191c"


def two_bus_setup():
    grid, orientation, snap, load = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 10.0}, {"b": 10.0}
    )
    return grid, orientation, snap, load


def chain_with_idle_tail():
    # load sits at b, so l2 carries zero flow while l1 carries 10
    return lp_case(
        ["a", "b", "c"],
        [("l1", "a", "b"), ("l2", "b", "c")],
        {"a": 10.0},
        {"b": 10.0},
    )


def validate_geojson(document):
    assert document["type"] == "FeatureCollection"
    for feature in document["features"]:
        assert feature["type"] == "Feature"
        geometry = feature["geometry"]
        assert geometry["type"] in {"Point", "LineString"}
        coords = geometry["coordinates"]
        if geometry["type"] == "Point":
            coords = [coords]
        assert len(coords) >= (1 if geometry["type"] == "Point" else 2)
        for pair in coords:
            assert len(pair) == 2
            assert all(isinstance(v, float) and math.isfinite(v) for v in pair)
        assert isinstance(feature["properties"], dict)
        assert re.fullmatch(r"#[0-9a-f]{6}", feature["properties"]["color"])


# --- GeoJSON -----------------------------------------------------------------

def test_geojson_without_solution():
    grid, orientation, _snap, _load = two_bus_setup()
    document = json.loads(render_geojson(grid, orientation))
    validate_geojson(document)
    assert len(document["features"]) == 3  # 2 points + 1 line
    for feature in document["features"]:
        assert "flow_mw" not in feature["properties"]
        assert "load_mw" not in feature["properties"]
        assert feature["properties"]["color"] == RAMP_BOTTOM


def test_geojson_flow_passthrough_and_ramp_extremes():
    grid, orientation, snap, load = chain_with_idle_tail()
    solution = solve_flow_lp(orientation, grid, load, snap)
    document = json.loads(render_geojson(grid, orientation, solution))
    validate_geojson(document)
    lines = {
        f["properties"]["id"]: f["properties"]
        for f in document["features"]
        if f["geometry"]["type"] == "LineString"
    }
    assert lines["l1"]["flow_mw"] == pytest.approx(10.0)
    assert lines["l2"]["flow_mw"] == pytest.approx(0.0)
    assert lines["l1"]["color"] == RAMP_TOP  # max flow
    assert lines["l2"]["color"] == RAMP_BOTTOM  # zero flow
    buses = {
        f["properties"]["id"]: f["properties"]
        for f in document["features"]
        if f["geometry"]["type"] == "Point"
    }
    assert buses["b"]["load_mw"] == pytest.approx(10.0)
    assert buses["b"]["epsilon_mw"] == pytest.approx(0.0)
    assert buses["b"]["color"] == RAMP_TOP


def test_geojson_linestring_follows_direction():
    dataset = toy_dataset([("a", 138), ("b", 138)], [("l1", "a", "b", 138)])
    grid = build_grid(dataset)
    forward = json.loads(render_geojson(grid, make_orientation(grid, {"l1": ("a", "b")})))
    backward = json.loads(render_geojson(grid, make_orientation(grid, {"l1": ("b", "a")})))
    line_fwd = forward["features"][-1]
    line_bwd = backward["features"][-1]
    assert line_fwd["geometry"]["coordinates"] == line_bwd["geometry"]["coordinates"][::-1]
    assert line_fwd["properties"]["direction"] == "a->b"
    assert line_bwd["properties"]["direction"] == "b->a"


def test_geojson_on_fixture_with_polyline_geometry():
    dataset = load_dataset(FIXTURES / "grid30")
    grid = build_grid(dataset)
    snap = make_snapshot(dataset, "max")
    orientation = orient_all(grid, snap, 42)
    document = json.loads(render_geojson(grid, orientation))
    validate_geojson(document)
    by_id = {
        f["properties"]["id"]: f
        for f in document["features"]
        if f["geometry"]["type"] == "LineString"
    }
    assert len(by_id["L34"]["geometry"]["coordinates"]) == 3  # explicit polyline


def test_geojson_text_deterministic():
    grid, orientation, snap, load = two_bus_setup()
    solution = solve_flow_lp(orientation, grid, load, snap)
    first = render_geojson(grid, orientation, solution)
    second = render_geojson(grid, orientation, solution)
    assert first == second
    json.loads(first)


# --- DOT ---------------------------------------------------------------------

_DOT_EDGE = re.compile(
    r'^  "(?P<frm>[^"]+)" -> "(?P<to>[^"]+)" \[label="[^"]+", provenance="[^"]+"\];$'
)


def check_dot_grammar(text):
    lines = text.splitlines()
    assert lines[0] == "digraph grid {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert line.endswith(";")
        assert _DOT_EDGE.match(line) or re.fullmatch(r'  "[^"]+";', line)


def test_dot_empty_grid():
    grid = build_grid(toy_dataset([]))
    orientation = make_orientation(grid, {})
    assert render_dot(grid, orientation) == "digraph grid {\n}\n"


def test_dot_single_edge():
    grid, orientation, _snap, _load = two_bus_setup()
    text = render_dot(grid, orientation)
    check_dot_grammar(text)
    assert '"a" -> "b"' in text


def test_dot_fixture_parses():
    dataset = load_dataset(FIXTURES / "mixed")
    grid = build_grid(dataset)
    orientation = orient_all(grid, make_snapshot(dataset, "max"), 42)
    text = render_dot(grid, orientation)
    check_dot_grammar(text)
    assert text.count("->") == len(grid.lines)
    assert 'provenance="SpecialFreeFlow"' in text


# --- SVG ---------------------------------------------------------------------

def test_svg_structure():
    grid, orientation, snap, load = chain_with_idle_tail()
    solution = solve_flow_lp(orientation, grid, load, snap)
    text = render_svg(grid, orientation, solution)
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    assert len(root.findall(f"{ns}circle")) == 3
    assert len(root.findall(f"{ns}polyline")) == 2
    assert render_svg(grid, orientation, solution) == text


def test_svg_empty():
    grid = build_grid(toy_dataset([]))
    text = render_svg(grid, make_orientation(grid, {}))
    ET.fromstring(text)


def test_svg_escapes_bus_ids_in_titles():
    bus_id = "S<3&>"
    grid = build_grid(toy_dataset([(bus_id, 138), ("b", 138)], [("l1", bus_id, "b", 138)]))
    text = render_svg(grid, make_orientation(grid, {"l1": (bus_id, "b")}))
    root = ET.fromstring(text)
    titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}title")]
    assert titles == [bus_id, "b"]


def _fixture_renders(name):
    """(grid, orientation, solution) without and with a max-mode solution."""
    dataset = load_dataset(FIXTURES / name)
    grid = build_grid(dataset)
    snapshot = make_snapshot(dataset, "max")
    orientation = orient_all(grid, snapshot, 42)
    bus_load = estimate_bus_load(allocate_demand_index(dataset), snapshot, orientation, grid)
    solution = solve_flow_lp(orientation, grid, bus_load, snapshot)
    return [(grid, orientation, None), (grid, orientation, solution)]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_svg_draws_the_geojson_features(name):
    """Each polyline is its LineString projected, each circle its Point;
    both carry the feature's color, and a circle's title is its id."""
    ns = "{http://www.w3.org/2000/svg}"
    for grid, orientation, solution in _fixture_renders(name):
        features = json.loads(render_geojson(grid, orientation, solution))["features"]
        points = [f for f in features if f["geometry"]["type"] == "Point"]
        lines = [f for f in features if f["geometry"]["type"] == "LineString"]
        coords = [p["geometry"]["coordinates"] for p in points]
        coords += [c for line in lines for c in line["geometry"]["coordinates"]]
        min_x, max_x = min(x for x, _ in coords), max(x for x, _ in coords)
        min_y, max_y = min(y for _, y in coords), max(y for _, y in coords)
        span = max(max_x - min_x, max_y - min_y) or 1.0
        margin = 0.05 * span
        scale = 800.0 / (span + 2 * margin)

        def project(x, y):
            return f"{(x - min_x + margin) * scale:.2f},{(max_y - y + margin) * scale:.2f}"

        root = ET.fromstring(render_svg(grid, orientation, solution))
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == len(lines)
        for polyline, line in zip(polylines, lines):
            expected = " ".join(project(x, y) for x, y in line["geometry"]["coordinates"])
            assert polyline.get("points") == expected
            assert polyline.get("stroke") == line["properties"]["color"]
        circles = root.findall(f"{ns}circle")
        assert len(circles) == len(points)
        for circle, point in zip(circles, points):
            assert f'{circle.get("cx")},{circle.get("cy")}' == project(*point["geometry"]["coordinates"])
            assert circle.get("fill") == point["properties"]["color"]
            assert circle.find(f"{ns}title").text == point["properties"]["id"]


# --- ramp --------------------------------------------------------------------

def test_ramp_interpolation_endpoints_and_midpoint():
    assert RAMP == ((0x2C, 0x7B, 0xB6), (0xD7, 0x19, 0x1C))
    grid = build_grid(toy_dataset([("a", 138), ("b", 138), ("c", 138)]))
    loads = {"a": 0.0, "b": 5.0, "c": 10.0}
    zero = {bus_id: 0.0 for bus_id in loads}
    solution = FlowSolution({}, zero, zero, loads, 0.0, 0.0)
    document = json.loads(render_geojson(grid, make_orientation(grid, {}), solution))
    colors = [f["properties"]["color"] for f in document["features"]]
    # midpoint channels: round(44 + 171 / 2), round(123 - 98 / 2), round(182 - 154 / 2)
    assert colors == [RAMP_BOTTOM, "#824a69", RAMP_TOP]


# --- direction diff ------------------------------------------------------------

def test_diff_identical_is_empty():
    endpoints = {"l1": ("a", "b"), "l2": ("b", "c")}
    diff = direction_diff(endpoints, dict(endpoints))
    assert diff.changed == ()
    assert diff.changed_count == 0
    assert diff.total == 2


def test_diff_single_flip():
    a = {"l1": ("a", "b"), "l2": ("b", "c")}
    b = {"l1": ("a", "b"), "l2": ("c", "b")}
    diff = direction_diff(a, b)
    assert diff.changed == ("l2",)
    assert diff.pairs["l2"] == (("b", "c"), ("c", "b"))


def test_diff_symmetric_count():
    a = {"l1": ("a", "b"), "l2": ("b", "c"), "l3": ("c", "d")}
    b = {"l1": ("b", "a"), "l2": ("b", "c"), "l3": ("d", "c")}
    assert direction_diff(a, b).changed == direction_diff(b, a).changed


def test_diff_rejects_mismatched_line_sets():
    with pytest.raises(ValueError):
        direction_diff({"l1": ("a", "b")}, {"l2": ("a", "b")})


def test_diff_names_the_unmatched_lines_of_read_only_maps():
    a = MappingProxyType({"l3": ("a", "b"), "l1": ("a", "b"), "l2": ("b", "c")})
    b = MappingProxyType({"l2": ("b", "c"), "l4": ("c", "d")})
    message = (
        "orientations cover different line sets (only left: ['l1', 'l3'], "
        "only right: ['l4'])"
    )
    with pytest.raises(ValueError) as err:
        direction_diff(a, b)
    assert str(err.value) == message
