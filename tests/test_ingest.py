import csv
import dataclasses
import hashlib
import itertools
import math
import random
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridtopo.direction import read_orientation_csv
from gridtopo.geometry import INSIDE, PlanarPolygon, locate
from gridtopo.ingest import (
    AreaLoad,
    Border,
    BusRecord,
    DanglingReference,
    DuplicateId,
    GeneratorRecord,
    IngestError,
    InvalidValue,
    LineRecord,
    MissingColumn,
    NonNumericValue,
    NonNumericVoltage,
    OverlappingAreas,
    PlanningArea,
    PopulationPoint,
    UnexpectedColumn,
    _BORDER_COLUMNS,
    _WKT_LINESTRING,
    _area_of,
    _int,
    _point,
    _read_rows,
    _require_id,
    _undecodable,
    _voltage,
    assign_regions,
    build_dataset,
    load_dataset,
    parse_buses,
    parse_city_polygons,
    parse_generators,
    parse_hourly_loads,
    parse_lines,
    parse_planning_area_polygons,
    parse_population_points,
    parse_snapshot_outputs,
    parse_wkt_linestring,
    validate_dataset,
    write_text,
)

from helpers import (
    FIXTURES,
    FIXTURE_NAMES,
    format_wkt_linestring,
    serialize_buses,
    serialize_city_polygons,
    serialize_generators,
    serialize_hourly_loads,
    serialize_lines,
    serialize_planning_area_polygons,
    serialize_population_points,
    serialize_snapshot_outputs,
    write_latin1_substations,
)


def P(x, y):
    """A point, as the package holds one: an ``(x, y)`` pair."""
    return (x, y)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def rect(x0, y0, x1, y1):
    return PlanarPolygon(((P(x0, y0), P(x1, y0), P(x1, y1), P(x0, y1)),))


# --- bus parsing ------------------------------------------------------------

def test_parse_buses_round_trips_a_row(tmp_path):
    path = write(tmp_path, "Substation.csv", "id,name,x,y,voltage_kv\nS1,Langdon,100.0,200.0,240\n")
    (bus,) = parse_buses(path)
    assert bus == BusRecord("S1", "Langdon", P(100.0, 200.0), 240.0)


def test_parse_buses_header_only_is_empty(tmp_path):
    path = write(tmp_path, "Substation.csv", "id,name,x,y,voltage_kv\n")
    assert parse_buses(path) == []


def test_parse_buses_duplicate_id_names_row(tmp_path):
    path = write(
        tmp_path,
        "Substation.csv",
        "id,name,x,y,voltage_kv\nS1,A,0,0,240\nS1,B,1,1,138\n",
    )
    with pytest.raises(DuplicateId) as err:
        parse_buses(path)
    assert err.value.row == 3


@pytest.mark.parametrize(
    "parse, name, text, message",
    [
        (
            parse_lines, "Line.csv",
            "id,bus_a,bus_b,voltage_kv\nL1,S1,S2,240\n L1 ,S2,S3,240\n",
            "duplicate line id L1",
        ),
        (
            parse_generators, "Generator.csv",
            "id,bus_id,max_capacity_mw,fuel_type\nG1,S1,1,GAS\nG1,S2,2,GAS\n",
            "duplicate generator id G1",
        ),
        (
            parse_hourly_loads, "HourlyLoad.csv",
            "area_id,name,avg_hourly_load_mw\n60,A,1\n60,B,2\n",
            "duplicate area id 60",
        ),
        (
            parse_snapshot_outputs, "Snapshot.csv",
            "generator_id,output_mw\nG1,1\nG1,2\n",
            "duplicate generator id G1",
        ),
    ],
    ids=["lines", "generators", "hourly-loads", "snapshot"],
)
def test_keyed_parsers_reject_duplicate_id_with_row(tmp_path, parse, name, text, message):
    path = write(tmp_path, name, text)
    with pytest.raises(DuplicateId) as err:
        parse(path)
    assert str(err.value) == f"{path}: row 3: {message}"


_ROW_ERROR_CASES = [
    (parse_buses, "id,name,x,y,voltage_kv", "S1,A,0,0,240", "S2,B,0,0,-5",
     "voltage_kv must be > 0, got -5.0"),
    (parse_lines, "id,bus_a,bus_b,voltage_kv", "L1,S1,S2,240", "L2,S2,S2,240",
     "line L2 is a self-loop on S2"),
    (parse_generators, "id,bus_id,max_capacity_mw,fuel_type", "G1,S1,1,GAS", "G2,S1,-1,GAS",
     "max_capacity_mw must be >= 0, got -1.0"),
    (parse_planning_area_polygons, "area_id,name,ring_index,vertex_index,x,y",
     "60,A,0,0,0,0", "60,A,0,1,x,0", "non-numeric x: 'x'"),
    (parse_city_polygons, "city_id,name,ring_index,vertex_index,x,y",
     "C1,Cal,0,0,0,0", "C1,Cal,-1,1,1,0", "negative ring/vertex index"),
    (parse_population_points, "city_id,x,y,population", "C1,0,0,10", "C1,0,0,ten",
     "non-integer population: 'ten'"),
    (parse_hourly_loads, "area_id,name,avg_hourly_load_mw", "60,A,1", "61,B,nan",
     "non-finite avg_hourly_load_mw: 'nan'"),
    (parse_snapshot_outputs, "generator_id,output_mw", "G1,1", " ,2", "empty generator_id"),
    (read_orientation_csv, "line_id,from_bus,to_bus,provenance", "L1,A,B,p", "L2,A,B",
     "expected 4 fields, found 3"),
]


@pytest.mark.parametrize(
    "parse, header, good, bad, message",
    _ROW_ERROR_CASES,
    ids=[case[0].__name__ for case in _ROW_ERROR_CASES],
)
def test_row_errors_name_file_and_physical_row(tmp_path, parse, header, good, bad, message):
    """Header, a good row, a blank line, then a bad row: the error is at row 4."""
    path = write(tmp_path, "data.csv", f"{header}\n{good}\n\n{bad}\n")
    with pytest.raises(IngestError) as err:
        parse(path)
    assert err.value.path == path
    assert err.value.row == 4
    assert str(err.value) == f"{path}: row 4: {message}"


@pytest.mark.parametrize(
    "rows, error, row, message",
    [
        # B1's quoted name spans lines 2-3, so B2 is on line 4.
        ('B1,"two\nlines",0,0,138\nB2,b,0,0,abc\n', NonNumericVoltage, 4,
         "non-numeric voltage_kv: 'abc'"),
        # B3's own quoted name spans lines 5-6: the record starts on line 5.
        ('B1,a,0,0,138\nB2,"x\ny",0,0,138\nB3,"four\nlines",0,0,-1\n', InvalidValue, 5,
         "voltage_kv must be > 0, got -1.0"),
        # Lines 2-3 hold B1, line 4 is blank, the repeat is on line 5.
        ('B1,"two\nlines",0,0,138\n\nB1,b,0,0,138\n', DuplicateId, 5, "duplicate bus id B1"),
    ],
    ids=["after-multiline", "own-multiline", "duplicate-after-multiline"],
)
def test_row_after_multiline_field_is_the_physical_line(tmp_path, rows, error, row, message):
    path = write(tmp_path, "Substation.csv", "id,name,x,y,voltage_kv\n" + rows)
    with pytest.raises(error) as err:
        parse_buses(path)
    assert (err.value.path, err.value.row) == (path, row)
    assert str(err.value) == f"{path}: row {row}: {message}"


@pytest.mark.parametrize(
    "bad_row, newline, bom",
    [(1502, "\n", False), (1, "\n", False), (2001, "\n", True), (1502, "\r\n", True)],
)
def test_non_utf8_byte_names_file_and_its_row(tmp_path, bad_row, newline, bom):
    # The text layer decodes ahead, so the reader is rows away from the byte.
    path = tmp_path / "Substation.csv"
    write_latin1_substations(path, bad_row, newline, bom)
    with pytest.raises(InvalidValue) as err:
        parse_buses(path)
    assert (err.value.path, err.value.row) == (path, bad_row)
    assert str(err.value) == (
        f"{path}: row {bad_row}: not UTF-8: byte 0xe9 (invalid continuation byte)"
    )


def test_undecodable_file_that_decodes_now_reports_the_readers_byte_and_no_row(tmp_path):
    # The file changed after the reader failed: the message comes from the
    # reader's own error, and no row can be named.
    path = write(tmp_path, "Substation.csv", "id,name,x,y,voltage_kv\nS1,A,0,0,240\n")
    exc = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    assert _undecodable(path, exc) == ("not UTF-8: byte 0xff (invalid start byte)", None)


@pytest.mark.parametrize(
    "head, row",
    [
        ("id,name,x,y,voltage_kv\nS1,a,0,0,138\nS2,", 3),
        # S1's quoted name spans lines 2-3, so the unclosed quote opens on line 4.
        ('id,name,x,y,voltage_kv\nS1,"two\nlines",0,0,138\nS2,', 4),
        ("id,", 1),
    ],
    ids=["row", "after-multiline", "header"],
)
def test_field_over_the_csv_limit_names_file_and_row(tmp_path, head, row):
    # An unclosed quote runs the field to the end of the file.
    limit = csv.field_size_limit()
    path = write(tmp_path, "Substation.csv", head + '"' + "x" * (limit + 10_000) + "\n")
    with pytest.raises(InvalidValue) as err:
        parse_buses(path)
    assert (err.value.path, err.value.row) == (path, row)
    assert str(err.value) == f"{path}: row {row}: field larger than field limit ({limit})"


def test_parse_buses_missing_column(tmp_path):
    path = write(tmp_path, "Substation.csv", "id,name,x,y\nS1,A,0,0\n")
    with pytest.raises(MissingColumn) as err:
        parse_buses(path)
    assert "voltage_kv" in str(err.value)


def test_parse_buses_unexpected_column(tmp_path):
    path = write(tmp_path, "Substation.csv", "id,name,x,y,voltage_kv,extra\n")
    with pytest.raises(UnexpectedColumn):
        parse_buses(path)


def test_parse_buses_non_numeric_voltage(tmp_path):
    path = write(tmp_path, "Substation.csv", "id,name,x,y,voltage_kv\nS1,A,0,0,high\n")
    with pytest.raises(NonNumericVoltage) as err:
        parse_buses(path)
    assert err.value.row == 2


def test_parse_buses_rejects_nonpositive_voltage(tmp_path):
    path = write(tmp_path, "Substation.csv", "id,name,x,y,voltage_kv\nS1,A,0,0,0\n")
    with pytest.raises(InvalidValue):
        parse_buses(path)


# --- other parsers ----------------------------------------------------------

def test_parse_generator_row(tmp_path):
    path = write(tmp_path, "Generator.csv", "id,bus_id,max_capacity_mw,fuel_type\nG1,S1,815,COAL\n")
    (gen,) = parse_generators(path)
    assert gen == GeneratorRecord("G1", "S1", 815.0, "COAL")


def test_parse_hourly_load_row(tmp_path):
    path = write(tmp_path, "HourlyLoad.csv", "area_id,name,avg_hourly_load_mw\n60,Edmonton,1200.5\n")
    (row,) = parse_hourly_loads(path)
    assert row == AreaLoad("60", "Edmonton", 1200.5)


def test_parse_lines_rejects_self_loop(tmp_path):
    path = write(tmp_path, "Line.csv", "id,bus_a,bus_b,voltage_kv\nL1,S1,S1,240\n")
    with pytest.raises(InvalidValue):
        parse_lines(path)


def test_parse_lines_optional_geometry(tmp_path):
    path = write(
        tmp_path,
        "Line.csv",
        'id,bus_a,bus_b,voltage_kv,wkt_geometry\nL1,S1,S2,240,"LINESTRING (0 0, 5 5)"\nL2,S2,S3,138,\n',
    )
    lines = parse_lines(path)
    assert lines[0].geometry == (P(0.0, 0.0), P(5.0, 5.0))
    assert lines[1].geometry is None


def test_wkt_round_trip():
    points = (P(1.5, 2.0), P(3.0, -4.25), P(0.0, 0.0))
    assert parse_wkt_linestring(format_wkt_linestring(points), {}) == points
    with pytest.raises(ValueError):
        parse_wkt_linestring("POINT (1 1)", {})
    with pytest.raises(ValueError):
        parse_wkt_linestring("LINESTRING (1 1)", {})


@pytest.mark.parametrize(
    "wkt, message",
    [
        ("LINESTRING (0 0, nan 1)", "non-finite coordinate (nan, 1.0)"),
        ("LINESTRING (0 0, 1 inf)", "non-finite coordinate (1.0, inf)"),
        ("LINESTRING (1e999 0, 1 1)", "non-finite coordinate (inf, 0.0)"),
    ],
    ids=["nan", "inf", "overflow"],
)
def test_wkt_non_finite_coordinate_names_file_and_row(tmp_path, wkt, message):
    # A point is a float pair: the WKT parser checks finiteness itself.
    path = write(
        tmp_path, "Line.csv",
        f'id,bus_a,bus_b,voltage_kv,wkt_geometry\nL1,S1,S2,240,\nL2,S2,S3,240,"{wkt}"\n',
    )
    with pytest.raises(InvalidValue) as err:
        parse_lines(path)
    assert (err.value.path, err.value.row) == (path, 3)
    assert str(err.value) == f"{path}: row 3: {message}"


def test_parse_lines_shares_one_id_object_per_bus(tmp_path):
    path = write(
        tmp_path, "Line.csv",
        "id,bus_a,bus_b,voltage_kv\nL1,S10,S20,240\nL2,S20,S30,240\nL3, S30 ,S10,138\n",
    )
    l1, l2, l3 = parse_lines(path)
    assert l1.endpoint_b is l2.endpoint_a
    assert l2.endpoint_b is l3.endpoint_a
    assert l3.endpoint_b is l1.endpoint_a


def _unshared_wkt(text):
    """The WKT parse with a new pair for every point: the reference for
    the points ``parse_lines`` shares."""
    match = _WKT_LINESTRING.match(text)
    if not match:
        raise ValueError(f"not a WKT LINESTRING: {text!r}")
    points = []
    for chunk in match.group(1).split(","):
        parts = chunk.split()
        if len(parts) != 2:
            raise ValueError(f"bad WKT coordinate pair: {chunk!r}")
        x, y = float(parts[0]), float(parts[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinate ({x}, {y})")
        points.append((x, y))
    if len(points) < 2:
        raise ValueError("LINESTRING needs at least 2 points")
    return tuple(points)


def _unshared_lines(path):
    """``parse_lines`` with a new object for every field of every row."""

    def line(row):
        bus_a = _require_id(row[1], "bus_a")
        bus_b = _require_id(row[2], "bus_b")
        if bus_a == bus_b:
            raise InvalidValue(f"line {row[0]} is a self-loop on {bus_a}")
        kv = _voltage(row[3])
        geometry = None
        raw_wkt = row[4].strip() if len(row) > 4 else ""
        if raw_wkt:
            try:
                geometry = _unshared_wkt(raw_wkt)
            except ValueError as exc:
                raise InvalidValue(str(exc)) from None
        return LineRecord(row[0], bus_a, bus_b, kv, geometry)

    return _read_rows(
        path, ("id", "bus_a", "bus_b", "voltage_kv"), line, ("wkt_geometry",), kind="line"
    )


def test_parse_border_builds_polygon(tmp_path):
    path = write(
        tmp_path,
        "PlanningAreaBorder.csv",
        "area_id,name,ring_index,vertex_index,x,y\n"
        "A1,North,0,0,0.0,0.0\n"
        "A1,North,0,1,4.0,0.0\n"
        "A1,North,0,2,4.0,4.0\n"
        "A1,North,0,3,0.0,4.0\n",
    )
    (area,) = parse_planning_area_polygons(path)
    assert area.id == "A1" and area.name == "North"
    ring = area.boundary.rings[0]
    assert ring[0] == ring[-1] and len(ring) == 5


def test_parse_border_rejects_tiny_ring(tmp_path):
    path = write(
        tmp_path,
        "PlanningAreaBorder.csv",
        "area_id,name,ring_index,vertex_index,x,y\nA1,North,0,0,0.0,0.0\nA1,North,0,1,1.0,1.0\n",
    )
    with pytest.raises(InvalidValue):
        parse_planning_area_polygons(path)


def test_parse_border_rejects_non_finite_coordinate(tmp_path):
    path = write(
        tmp_path,
        "CityBorder.csv",
        "city_id,name,ring_index,vertex_index,x,y\nC1,Cal,0,0,0,0\nC1,Cal,0,1,inf,0\n",
    )
    with pytest.raises(NonNumericValue) as err:
        parse_city_polygons(path)
    assert str(err.value) == f"{path}: row 3: non-finite x: 'inf'"


def _checked_border_rows(path, id_column):
    """The border parse with every field of every row through the checked
    converters, one at a time: the reference for ingest's one-step
    conversion of well-formed rows."""
    vertices = defaultdict(lambda: defaultdict(dict))
    names = {}

    def add_vertex(row):
        shape_id = _require_id(row[0], id_column)
        ring_i = _int(row[2], "ring_index")
        vertex_i = _int(row[3], "vertex_index")
        if ring_i < 0 or vertex_i < 0:
            raise InvalidValue("negative ring/vertex index")
        point = _point(row[4], row[5])
        if names.setdefault(shape_id, row[1]) != row[1]:
            raise InvalidValue(f"{id_column} {shape_id} listed under two names")
        ring = vertices[shape_id][ring_i]
        if vertex_i in ring:
            raise DuplicateId(f"duplicate vertex {vertex_i} in ring {ring_i} of {shape_id}")
        ring[vertex_i] = point

    _read_rows(path, (id_column, *_BORDER_COLUMNS), add_vertex)
    shapes = []
    for shape_id, shape in vertices.items():
        rings = [tuple(ring[i] for i in sorted(ring)) for _, ring in sorted(shape.items())]
        try:
            polygon = PlanarPolygon(tuple(rings))
        except ValueError as exc:
            raise InvalidValue(f"{id_column} {shape_id}: {exc}", path=path) from None
        shapes.append(Border(shape_id, names[shape_id], polygon))
    return shapes


_BORDER_PARSERS = {
    "area_id": parse_planning_area_polygons,
    "city_id": parse_city_polygons,
}
# Fields that int() or float() read otherwise than a plain number, or refuse.
_ODD_FIELDS = [" 3", "+3", "1_0", "-0", "0x10", "", "nan", "inf", "-inf", "1e999", "-1", "x"]


def _parse_outcome(parse, path):
    """``repr`` of what ``parse`` returns (``repr`` tells -0.0 from 0.0),
    or the class, message and row of what it raises."""
    try:
        return repr(parse(path))
    except IngestError as exc:
        return type(exc), str(exc), exc.row


def _assert_border_parse_matches_checked_chain(tmp_path, id_column, rows):
    path = write(
        tmp_path, "Border.csv",
        "\n".join(",".join(row) for row in [[id_column, *_BORDER_COLUMNS], *rows]) + "\n",
    )
    expected = _parse_outcome(lambda p: _checked_border_rows(p, id_column), path)
    assert _parse_outcome(_BORDER_PARSERS[id_column], path) == expected, rows


def _square_rows():
    corners = [("0.0", "0.0"), ("4.0", "0.0"), ("4.0", "4.0"), ("0.0", "4.0")]
    return [["A1", "North", "0", str(k), x, y] for k, (x, y) in enumerate(corners)]


@pytest.mark.parametrize("id_column", sorted(_BORDER_PARSERS))
def test_border_rows_parse_as_the_checked_chain_on_each_odd_field(tmp_path, id_column):
    for column in (0, 2, 3, 4, 5):
        for field in _ODD_FIELDS:
            rows = _square_rows()
            rows[1][column] = field
            _assert_border_parse_matches_checked_chain(tmp_path, id_column, rows)
    # a repeated vertex, a name that changes, and finite x and y whose sum overflows
    for edits in ([(3, "0")], [(1, "South")], [(4, "1e308"), (5, "1.7e308")]):
        rows = _square_rows()
        for column, field in edits:
            rows[2][column] = field
        _assert_border_parse_matches_checked_chain(tmp_path, id_column, rows)


@st.composite
def _border_files(draw):
    """Rows of one or two rings whose fields are now and then replaced by
    an odd field or by the same column of another row, which repeats a
    vertex, moves it to another ring or shape, or changes a name."""
    rows = []
    for shape in range(draw(st.integers(1, 2))):
        n = draw(st.integers(3, 6))
        for k in range(n):
            angle = 2 * math.pi * k / n
            x, y = repr(shape + math.cos(angle)), repr(math.sin(angle))
            rows.append([f"S{shape}", f"N{shape}", "0", str(k), x, y])
    for _ in range(draw(st.integers(0, 3))):
        row, column = draw(st.sampled_from(rows)), draw(st.integers(0, 5))
        row[column] = draw(st.sampled_from(_ODD_FIELDS + [r[column] for r in rows]))
    return draw(st.permutations(rows))


@pytest.mark.parametrize("id_column", sorted(_BORDER_PARSERS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_border_rows_parse_as_the_checked_chain(id_column, data):
    rows = data.draw(_border_files())
    with tempfile.TemporaryDirectory() as tmp:
        _assert_border_parse_matches_checked_chain(Path(tmp), id_column, rows)


def _assert_shared_but_for_zeros(points):
    """Equal pairs with no zero coordinate are one object, and each
    occurrence of a pair with a zero coordinate is its own, so none takes
    the sign of its twin."""
    for p, q in itertools.combinations(points, 2):
        if p == q:
            assert (p is q) == bool(p[0] and p[1]), (p, q)


_ZERO_PAIRS = {"0.0 1": (0.0, 1.0), "-0.0 1": (-0.0, 1.0), "0 1": (0.0, 1.0)}
_ZERO_ORDERS = list(itertools.permutations(_ZERO_PAIRS))


@pytest.mark.parametrize("order", _ZERO_ORDERS, ids="|".join)
def test_parse_lines_keeps_the_sign_of_a_zero_coordinate(tmp_path, order):
    # (0.0, 1.0) == (-0.0, 1.0), so a pair with a zero is never shared.
    flipped = [" ".join(reversed(text.split())) for text in order]
    rows = [
        f'L{n},S{n},S{n + 1},240,"LINESTRING ({", ".join(chunks)}, 2 2)"'
        for n, chunks in enumerate([order, flipped, order[::-1]])
    ]
    path = write(
        tmp_path, "Line.csv", "\n".join(["id,bus_a,bus_b,voltage_kv,wkt_geometry", *rows]) + "\n"
    )
    lines = parse_lines(path)
    assert repr(lines) == repr(_unshared_lines(path))
    assert repr(lines[0].geometry[:3]) == repr(tuple(_ZERO_PAIRS[text] for text in order))
    _assert_shared_but_for_zeros([p for line in lines for p in line.geometry])


def test_parse_lines_takes_no_bus_location_with_a_zero_coordinate(tmp_path):
    # Each of S0 and S1 sits at the other's WKT end but for the sign of a
    # zero; the lines keep their own pairs, yet take every bus's id and
    # the tuple of S9, which has no zero coordinate.
    buses = [
        BusRecord("S0", "S0", (0.0, 1.0), 240.0),
        BusRecord("S1", "S1", (-0.0, 1.0), 240.0),
        BusRecord("S9", "S9", (2.0, 2.0), 240.0),
    ]
    rows = ['L0,S0,S9,240,"LINESTRING (-0.0 1, 2 2)"', 'L1,S1,S9,240,"LINESTRING (0 1, 2 2)"']
    path = write(
        tmp_path, "Line.csv", "\n".join(["id,bus_a,bus_b,voltage_kv,wkt_geometry", *rows]) + "\n"
    )
    lines = parse_lines(path, buses)
    assert repr(lines) == repr(_unshared_lines(path))
    bus = {b.id: b for b in buses}
    for line in lines:
        assert line.endpoint_a is bus[line.endpoint_a].id
        assert line.endpoint_b is bus["S9"].id
        assert line.geometry[-1] is bus["S9"].location
        assert all(line.geometry[0] is not b.location for b in buses)


@pytest.mark.parametrize("id_column", sorted(_BORDER_PARSERS))
@pytest.mark.parametrize("order", _ZERO_ORDERS, ids="|".join)
def test_border_parse_keeps_the_sign_of_a_zero_coordinate(tmp_path, id_column, order):
    # Three triangles share two vertices and differ in the sign of a zero.
    rows = [
        [f"S{n}", f"N{n}", "0", str(k), *xy]
        for n, text in enumerate(order)
        for k, xy in enumerate([text.split(), ["2", "1"], ["2", "2"]])
    ]
    path = write(
        tmp_path, "Border.csv",
        "\n".join(",".join(row) for row in [[id_column, *_BORDER_COLUMNS], *rows]) + "\n",
    )
    shapes = _BORDER_PARSERS[id_column](path)
    assert repr(shapes) == repr(_checked_border_rows(path, id_column))
    assert [repr(s.boundary.rings[0][0]) for s in shapes] == [
        repr(_ZERO_PAIRS[text]) for text in order
    ]
    _assert_shared_but_for_zeros([p for s in shapes for p in s.boundary.rings[0][:-1]])


# Coordinate texts of a few values, with both zeros; now and then one
# that is no finite number, or a chunk or a voltage that the parse refuses.
_WKT_COORDS = ["0", "0.0", "-0.0", "-0", "1", "1.0", "1e0", "+1", "2.5", "-3"]
_ODD_COORDS = ["1e999", "nan", "x"]
_BAD_CHUNKS = ["1", "1 2 3", "", "a b"]


def _seldom(draw, common, odd, one_in=20):
    return draw(st.sampled_from(odd if draw(st.integers(1, one_in)) == 1 else common))


@st.composite
def _line_files(draw):
    """Rows of ``Line.csv`` whose WKT points come from a few coordinate
    texts, so pairs repeat within and across lines, spaced by varied
    whitespace; now and then a bad chunk follows a good one."""
    rows = []
    for n in range(draw(st.integers(1, 4))):
        chunks = []
        for _ in range(draw(st.integers(2, 5))):
            x, y = (_seldom(draw, _WKT_COORDS, _ODD_COORDS) for _ in range(2))
            lead, gap, tail = (draw(st.sampled_from(["", " ", "\t", "  "])) for _ in range(3))
            chunks.append(f"{lead}{x}{gap or ' '}{y}{tail}")
        if draw(st.integers(0, 9)) == 0:
            chunks.insert(draw(st.integers(1, len(chunks))), draw(st.sampled_from(_BAD_CHUNKS)))
        keyword = draw(st.sampled_from(["LINESTRING ", "linestring", " LineString  "]))
        kv = _seldom(draw, ["240", "240.0", "2.4e2", "138"], ["-0", "x"])
        wkt = f"{keyword}({','.join(chunks)})" if draw(st.integers(0, 5)) else ""
        rows.append([f"L{n}", f"S{n}", f"S{n + 1}", kv, wkt])
    return rows


def _wkt_outcome(parse, text):
    try:
        return repr(parse(text))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=_line_files())
def test_parse_lines_shares_as_the_unshared_parse_reads(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "Line.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["id", "bus_a", "bus_b", "voltage_kv", "wkt_geometry"], *rows])
        assert _parse_outcome(parse_lines, path) == _parse_outcome(_unshared_lines, path), rows
    for row in rows:
        got = _wkt_outcome(lambda text: parse_wkt_linestring(text, {}), row[4])
        assert got == _wkt_outcome(_unshared_wkt, row[4])


@st.composite
def _shared_vertex_border_files(draw):
    """Rows of up to three rings whose vertices come from the coordinate
    texts of ``_line_files``, padded by varied whitespace, so shapes
    share vertices and both zeros meet; now and then one is odd."""
    rows = []
    for shape in range(draw(st.integers(1, 3))):
        for k in range(draw(st.integers(3, 5))):
            x, y = (
                draw(st.sampled_from(["", " ", "\t"]))
                + _seldom(draw, _WKT_COORDS, _ODD_COORDS, one_in=100)
                for _ in range(2)
            )
            rows.append([f"S{shape}", f"N{shape}", "0", str(k), x, y])
    return draw(st.permutations(rows))


@pytest.mark.parametrize("id_column", sorted(_BORDER_PARSERS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_border_rows_with_shared_vertices_parse_as_the_checked_chain(id_column, data):
    rows = data.draw(_shared_vertex_border_files())
    with tempfile.TemporaryDirectory() as tmp:
        _assert_border_parse_matches_checked_chain(Path(tmp), id_column, rows)


def test_parse_population_rejects_negative(tmp_path):
    path = write(tmp_path, "CityPopulationPoint.csv", "city_id,x,y,population\nC1,0,0,-5\n")
    with pytest.raises(InvalidValue):
        parse_population_points(path)


def test_parse_snapshot_outputs(tmp_path):
    path = write(tmp_path, "Snapshot.csv", "generator_id,output_mw\nG1,100.5\nG2,0.0\n")
    assert parse_snapshot_outputs(path) == {"G1": 100.5, "G2": 0.0}


# --- linking ----------------------------------------------------------------

def _bus(bus_id, x, y, kv=240.0):
    return BusRecord(bus_id, bus_id, P(x, y), kv)


def test_build_rejects_dangling_line_endpoint():
    with pytest.raises(DanglingReference) as err:
        build_dataset(
            buses=[_bus("S1", 0, 0)],
            lines=[LineRecord("L1", "S1", "S99", 240.0)],
        )
    assert "S99" in str(err.value)


def test_build_rejects_dangling_generator_bus():
    with pytest.raises(DanglingReference):
        build_dataset(
            buses=[_bus("S1", 0, 0)],
            lines=[],
            generators=[GeneratorRecord("G1", "S9", 10.0, "GAS")],
        )


def test_build_rejects_dangling_area_load():
    with pytest.raises(DanglingReference):
        build_dataset(
            buses=[_bus("S1", 0, 0)],
            lines=[],
            area_loads=[AreaLoad("A9", "Nowhere", 5.0)],
        )


# kind -> (build_dataset argument, record that repeats an id, that id)
REPEATED_RECORDS = {
    "bus": ("buses", _bus("S1", 3, 3), "S1"),
    "line": ("lines", LineRecord("L1", "S2", "S1", 240.0), "L1"),
    "generator": ("generators", GeneratorRecord("G1", "S2", 7.0, "GAS"), "G1"),
    "planning area": ("planning_areas", Border("A2", "North", rect(0, 2, 2, 4)), "A2"),
    "city": ("city_polygons", Border("C1", "Village", rect(3, 0, 4, 1)), "C1"),
    "area load": ("area_loads", AreaLoad("A1", "West", 12.0), "A1"),
}


@pytest.mark.parametrize("kind", REPEATED_RECORDS)
def test_build_rejects_a_repeated_id(kind):
    records = {
        "buses": [_bus("S1", 1, 1), _bus("S2", 3, 1)],
        "lines": [LineRecord("L1", "S1", "S2", 240.0)],
        "generators": [GeneratorRecord("G1", "S1", 5.0, "GAS")],
        "planning_areas": [
            Border("A1", "West", rect(0, 0, 2, 2)),
            Border("A2", "East", rect(2, 0, 4, 2)),
        ],
        "area_loads": [AreaLoad("A1", "West", 10.0)],
        "city_polygons": [Border("C1", "Town", rect(0, 0, 1, 1))],
    }
    build_dataset(**records)
    field, repeat, repeated_id = REPEATED_RECORDS[kind]
    records[field].append(repeat)
    with pytest.raises(DuplicateId, match=f"^duplicate {kind} id {repeated_id}$"):
        build_dataset(**records)


def test_build_merges_loads_and_population():
    dataset = build_dataset(
        buses=[_bus("S1", 5, 5)],
        lines=[],
        planning_areas=[Border("A1", "North", rect(0, 0, 10, 10))],
        area_loads=[AreaLoad("A1", "North", 42.0)],
        population_points=[
            PopulationPoint("C1", P(1.0, 1.0), 100),
            PopulationPoint("C1", P(2.0, 2.0), 50),
            PopulationPoint("C1", P(99.0, 99.0), 7),  # outside: contributes nothing
        ],
    )
    assert dataset.planning_areas == (PlanningArea("A1", "North", 42.0, 150),)


# --- region assignment -------------------------------------------------------

def test_assign_regions_area_and_city():
    areas = [Border("60", "Edmonton", rect(0, 0, 10, 10))]
    cities = [Border("C1", "Edmonton", rect(2, 2, 6, 6))]
    urban, rural, outside = assign_regions(
        [_bus("S1", 3, 3), _bus("S2", 8, 8), _bus("S3", 20, 20)], areas, cities
    )
    assert (urban.planning_area_id, urban.is_urban) == ("60", True)
    assert (rural.planning_area_id, rural.is_urban) == ("60", False)
    assert outside.planning_area_id is None and not outside.is_urban


def test_assign_regions_rejects_overlap():
    areas = [
        Border("A1", "A1", rect(0, 0, 10, 10)),
        Border("A2", "A2", rect(5, 5, 15, 15)),
    ]
    with pytest.raises(OverlappingAreas):
        assign_regions([_bus("S1", 7, 7)], areas, [])


# Unit squares A (0..1) and B (1..2) share the edge x = 1; C (0..1 above A)
# shares A's top edge, so (1, 1) is a vertex of all three.
SHARED_BORDER_AREAS = [
    Border("B", "B", rect(1, 0, 2, 1)),
    Border("A", "A", rect(0, 0, 1, 1)),
    Border("C", "C", rect(0, 1, 1, 2)),
]


@pytest.mark.parametrize(
    "x, y, expected",
    [(1.0, 0.5, "A"), (1.0, 1.0, "A"), (0.5, 1.0, "A"), (1.5, 0.5, "B")],
    ids=["shared-edge", "shared-vertex", "other-shared-edge", "interior"],
)
def test_assign_regions_shared_border_goes_to_lowest_area_id(x, y, expected):
    (bus,) = assign_regions([_bus("S1", x, y)], SHARED_BORDER_AREAS, [])
    assert bus.planning_area_id == expected


@pytest.mark.parametrize(
    "x, y, expected",
    [(1.0, 0.5, "A"), (1.0, 1.0, "A"), (1.5, 1.0, "B")],
    ids=["shared-edge", "shared-vertex", "own-edge"],
)
def test_population_on_shared_border_goes_to_lowest_area_id(x, y, expected):
    dataset = build_dataset(
        buses=[_bus("S1", 0.5, 0.5)],
        lines=[],
        planning_areas=SHARED_BORDER_AREAS,
        population_points=[PopulationPoint("C1", P(x, y), 70)],
    )
    population = {area.id: area.population for area in dataset.planning_areas}
    assert population == {area: 70 if area == expected else 0 for area in "ABC"}


def test_assign_regions_strict_interior_beats_boundary():
    # (1, 0.5) lies on A's left edge but strictly inside the wider B.
    areas = [
        Border("A", "A", rect(1, 0, 3, 1)),
        Border("B", "B", rect(0, 0, 2, 1)),
    ]
    (bus,) = assign_regions([_bus("S1", 1.0, 0.5)], areas, [])
    assert bus.planning_area_id == "B"


def test_assign_regions_is_order_independent():
    areas = [Border("A1", "A1", rect(0, 0, 10, 10))]
    cities = [Border("C1", "C1", rect(0, 0, 4, 4))]
    buses = [_bus(f"S{i}", i, i) for i in range(9)]
    expected = {b.id: (b.planning_area_id, b.is_urban) for b in assign_regions(buses, areas, cities)}
    shuffled = buses[:]
    random.Random(7).shuffle(shuffled)
    got = {b.id: (b.planning_area_id, b.is_urban) for b in assign_regions(shuffled, areas, cities)}
    assert got == expected


def _located_area(point, areas, subject):
    """The README's border rule over one plain ``locate`` call per area."""
    where = [(a, w) for a in areas if (w := locate(point, a.boundary))]
    interior = [a for a, w in where if w == INSIDE]
    if len(interior) > 1:
        ids = ", ".join(sorted(a.id for a, _ in where))
        raise OverlappingAreas(f"{subject} lies in planning areas {ids}")
    return interior[0] if interior else min((a for a, _ in where), key=lambda a: a.id, default=None)


def _probe_points(polygons):
    """Where a bounding-box test can go wrong: every ring vertex, the
    midpoint of each bbox edge (on a tile, the middle of a side that its
    neighbour shares), and one float step outside each of those."""
    points = [p for polygon in polygons for ring in polygon.rings for p in ring]
    for x0, y0, x1, y1 in (polygon.bbox for polygon in polygons):
        xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
        points += [P(x0, ym), P(x1, ym), P(xm, y0), P(xm, y1)]
        points += [
            P(math.nextafter(x0, -math.inf), ym), P(math.nextafter(x1, math.inf), ym),
            P(xm, math.nextafter(y0, -math.inf)), P(xm, math.nextafter(y1, math.inf)),
        ]
    return points


_CUTS = st.lists(st.integers(-4, 4), min_size=2, max_size=4, unique=True).map(sorted)
_LATTICE_POINTS = st.builds(P, st.integers(-5, 5).map(float), st.integers(-5, 5).map(float))
_LATTICE_POLYGONS = st.lists(
    st.lists(_LATTICE_POINTS, min_size=3, max_size=5, unique=True), min_size=1, max_size=2
).map(lambda rings: PlanarPolygon(tuple(tuple(r) for r in rings)))


@st.composite
def _tiled_areas(draw):
    """Rectangles tiling a grid, so neighbours share sides and corners,
    with shuffled ids, plus up to two free polygons that may overlap them."""
    xs, ys = draw(_CUTS), draw(_CUTS)
    tiles = [(x0, y0, x1, y1) for x0, x1 in zip(xs, xs[1:]) for y0, y1 in zip(ys, ys[1:])]
    ids = draw(st.permutations(range(len(tiles))))
    areas = [Border(f"A{i}", "", rect(*tile)) for i, tile in zip(ids, tiles)]
    free = draw(st.lists(_LATTICE_POLYGONS, max_size=2))
    return areas + [Border(f"F{i}", "", polygon) for i, polygon in enumerate(free)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    areas=_tiled_areas(),
    cities=st.lists(_LATTICE_POLYGONS, max_size=3),
    extra=st.lists(st.builds(P, st.floats(-6, 6), st.floats(-6, 6)), max_size=5),
)
@example(
    # A/B/C share sides and the corner (1, 1); D lies over the A/B side,
    # so (1, 0.5) is strictly inside D alone and (0.75, 0.5) inside A and D.
    areas=SHARED_BORDER_AREAS + [Border("D", "D", rect(0.5, 0.25, 1.5, 0.75))],
    cities=[PlanarPolygon(((P(0, 0), P(2, 0), P(1, 2)),))],
    extra=[P(0.75, 0.5)],
)
def test_bbox_reject_matches_a_plain_locate_over_every_polygon(areas, cities, extra):
    cities = [Border(f"K{i}", "", polygon) for i, polygon in enumerate(cities)]
    polygons = [shape.boundary for shape in areas + cities]
    for n, point in enumerate(_probe_points(polygons) + extra):
        try:
            area = _located_area(point, areas, f"bus S{n}")
            expected = (area and area.id, any(locate(point, c.boundary) for c in cities))
        except OverlappingAreas as exc:
            area = expected = str(exc)
        try:
            got = _area_of(point, areas, f"bus S{n}")
        except OverlappingAreas as exc:
            got = str(exc)
        assert got == area, point
        try:
            (bus,) = assign_regions([_bus(f"S{n}", *point)], areas, cities)
            got = (bus.planning_area_id, bus.is_urban)
        except OverlappingAreas as exc:
            got = str(exc)
        assert got == expected, point


# --- validation ---------------------------------------------------------------

def test_validate_clean_fixture_is_empty():
    report = validate_dataset(load_dataset(FIXTURES / "pair"))
    assert report.entries() == []


def test_validate_flags_isolated_and_unassigned():
    dataset = build_dataset(
        buses=[_bus("S1", 1, 1), _bus("S2", 3, 3), _bus("S3", 50, 50)],
        lines=[LineRecord("L1", "S1", "S2", 240.0)],
        planning_areas=[Border("A1", "A1", rect(0, 0, 10, 10))],
    )
    report = validate_dataset(dataset)
    assert report.isolated_buses == ("S3",)
    assert report.unassigned_buses == ("S3",)


def test_validate_flags_voltage_anomaly_not_error():
    # a 500 kV line between two 240 kV buses is reported, not rejected
    report = validate_dataset(load_dataset(FIXTURES / "ladder"))
    assert report.voltage_anomalies == ("L4",)
    assert report.entries()


def test_validate_flags_duplicate_geometry():
    dataset = build_dataset(
        buses=[_bus("S1", 1, 1), _bus("S2", 1, 1)],
        lines=[
            LineRecord("L1", "S1", "S2", 240.0, (P(0, 0), P(1, 1))),
            LineRecord("L2", "S1", "S2", 240.0, (P(0, 0), P(1, 1))),
            LineRecord("L3", "S1", "S2", 240.0),  # bare parallel circuit: fine
        ],
    )
    report = validate_dataset(dataset)
    assert "buses S1,S2" in report.duplicate_geometry
    assert "lines L1,L2" in report.duplicate_geometry
    assert len(report.duplicate_geometry) == 2


# --- round trip over shipped fixtures -----------------------------------------

_SERIALIZERS = {
    "Substation.csv": (parse_buses, serialize_buses),
    "Line.csv": (parse_lines, serialize_lines),
    "Generator.csv": (parse_generators, serialize_generators),
    "PlanningAreaBorder.csv": (parse_planning_area_polygons, serialize_planning_area_polygons),
    "CityBorder.csv": (parse_city_polygons, serialize_city_polygons),
    "CityPopulationPoint.csv": (parse_population_points, serialize_population_points),
    "HourlyLoad.csv": (parse_hourly_loads, serialize_hourly_loads),
    "Snapshot.csv": (parse_snapshot_outputs, serialize_snapshot_outputs),
}


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_serialize_parse_round_trip(fixture):
    for path in sorted((FIXTURES / fixture).glob("*.csv")):
        key = "HourlyLoad.csv" if path.name.startswith("HourlyLoad_") else path.name
        parse, serialize = _SERIALIZERS[key]
        normalized = serialize(parse(path))
        assert normalized == path.read_text(encoding="utf-8"), path
        # normalization is idempotent by construction of the fixtures


_TEXT = st.text(alphabet='ab Z09,"\';-\u00e9', max_size=8)
_IDS = _TEXT.map(str.strip).filter(bool)
_NONNEG = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_POINTS = st.builds(
    P,
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
_POLYGONS = st.lists(
    st.lists(_POINTS, min_size=3, max_size=5, unique=True), min_size=1, max_size=2
).map(lambda rings: PlanarPolygon(tuple(tuple(r) for r in rings)))


def _records(record, unique=True):
    return st.lists(record, max_size=5, unique_by=(lambda r: r.id) if unique else None)


_GENERATED = {
    "buses": (
        parse_buses, serialize_buses,
        _records(st.builds(
            BusRecord, _IDS, _TEXT, _POINTS,
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        )),
    ),
    "lines": (
        parse_lines, serialize_lines,
        _records(st.builds(
            LineRecord, _IDS, _IDS, _IDS,
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.none() | st.lists(_POINTS, min_size=2, max_size=4).map(tuple),
        ).filter(lambda line: line.endpoint_a != line.endpoint_b)),
    ),
    "generators": (
        parse_generators, serialize_generators,
        _records(st.builds(GeneratorRecord, _IDS, _IDS, _NONNEG, _TEXT)),
    ),
    "planning-areas": (
        parse_planning_area_polygons, serialize_planning_area_polygons,
        _records(st.builds(Border, _IDS, _TEXT, _POLYGONS)),
    ),
    "cities": (
        parse_city_polygons, serialize_city_polygons,
        _records(st.builds(Border, _IDS, _TEXT, _POLYGONS)),
    ),
    "population": (
        parse_population_points, serialize_population_points,
        _records(
            st.builds(PopulationPoint, _IDS, _POINTS, st.integers(0, 10**9)), unique=False
        ),
    ),
    "hourly-loads": (
        parse_hourly_loads, serialize_hourly_loads,
        st.lists(st.builds(AreaLoad, _IDS, _TEXT, _NONNEG), max_size=5, unique_by=lambda a: a.area_id),
    ),
    "snapshot": (
        parse_snapshot_outputs, serialize_snapshot_outputs,
        st.dictionaries(_IDS, _NONNEG, max_size=5),
    ),
}


@pytest.mark.parametrize("kind", sorted(_GENERATED))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_records_round_trip(kind, data):
    """serialize -> write_text -> parse returns the records, and
    serializing them again gives the same text, so parse -> serialize ->
    parse is the identity. Text fields hold commas, quotes and
    non-ASCII; the file may start with a BOM."""
    parse, serialize, strategy = _GENERATED[kind]
    records = data.draw(strategy)
    text = serialize(records)
    bom = "\ufeff" if data.draw(st.booleans()) else ""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.csv"
        write_text(path, bom + text)
        parsed = parse(path)
    assert parsed == records
    assert serialize(parsed) == text


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_load_dataset_is_deterministic(fixture):
    assert load_dataset(FIXTURES / fixture) == load_dataset(FIXTURES / fixture)


def _reachable(root) -> list:
    """Every object reachable from ``root`` through the fields of
    dataclasses and the items of tuples, lists and dicts, once each."""
    seen, stack = {}, [root]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen[id(value)] = value
        if dataclasses.is_dataclass(value):
            stack += [getattr(value, f.name) for f in dataclasses.fields(value)]
        elif isinstance(value, (tuple, list)):
            stack += value
        elif isinstance(value, dict):
            stack += [*value, *value.values()]
    return list(seen.values())


def _ring_rows(shape_id, points):
    return [f"{shape_id},{shape_id},0,{k},{x!r},{y!r}" for k, (x, y) in enumerate(points)]


def test_loaded_dataset_holds_no_polygon(tmp_path):
    # Two areas of 400 vertices share the side x = 10; a 300-gon city lies in A1.
    side = [k / 10 for k in range(100)]
    west = [(t, 0.0) for t in side] + [(10.0, t) for t in side]
    west += [(10.0 - t, 10.0) for t in side] + [(0.0, 10.0 - t) for t in side]
    east = [(x + 10.0, y) for x, y in west]
    city = [
        (5.0 + 3.0 * math.cos(2 * math.pi * k / 300), 5.0 + 3.0 * math.sin(2 * math.pi * k / 300))
        for k in range(300)
    ]
    files = {
        "Substation.csv": ["id,name,x,y,voltage_kv", "S1,S1,5.0,5.0,240", "S2,S2,15.0,5.0,138"],
        "Line.csv": ["id,bus_a,bus_b,voltage_kv,wkt_geometry",
                     'L1,S1,S2,138,"LINESTRING (5 5, 10 6, 15 5)"'],
        "Generator.csv": ["id,bus_id,max_capacity_mw,fuel_type", "G1,S1,50,GAS"],
        "PlanningAreaBorder.csv": [
            "area_id,name,ring_index,vertex_index,x,y", *_ring_rows("A1", west),
            *_ring_rows("A2", east),
        ],
        "CityBorder.csv": ["city_id,name,ring_index,vertex_index,x,y", *_ring_rows("C1", city)],
        "CityPopulationPoint.csv": ["city_id,x,y,population", "C1,5.5,5.0,900"],
        "HourlyLoad.csv": ["area_id,name,avg_hourly_load_mw", "A1,A1,12.5", "A2,A2,7.0"],
    }
    for name, rows in files.items():
        write(tmp_path, name, "\n".join(rows) + "\n")
    dataset = load_dataset(tmp_path)

    reached = _reachable(dataset)
    assert [v for v in reached if isinstance(v, PlanarPolygon)] == []
    assert set(dataset.buses + dataset.planning_areas) <= set(reached)
    regions = [(b.planning_area_id, b.is_urban) for b in dataset.buses]
    assert regions == [("A1", True), ("A2", False)]
    assert dataset.planning_areas == (
        PlanningArea("A1", "A1", 12.5, 900), PlanningArea("A2", "A2", 7.0, 0),
    )
    # The same walk finds each border's polygon where the parsers return it.
    borders = (
        parse_planning_area_polygons(tmp_path / "PlanningAreaBorder.csv"),
        parse_city_polygons(tmp_path / "CityBorder.csv"),
    )
    assert sum(isinstance(v, PlanarPolygon) for v in _reachable(borders)) == 3


# sha256 of ``repr(load_dataset(fixture))``: every field of every record,
# line geometry, names and area population totals included, which the
# CLI's golden outputs do not all hold.
RECORD_DIGESTS = {
    "chain3": "4c4470306f6d8f0dd75737fdcf1a5b9fc62365afa871865992c348c0c74c8eea",
    "diamond": "1602733828906f5173db5fd4af3a666207203fb3e9e5ea9f78ea0c8cffea9363",
    "grid30": "cfd9601a685105bcabfaf1097063b2afc324d7090fb40a666f57b6adc47bc789",
    "ladder": "1e76c3e20e578b851bf972ac9290a9b7a644a59a24d5dfc4077660915f14830b",
    "mixed": "787dd5f252611c0f60771235c1fe5f8e363c788376b83680a17f453223d855c2",
    "pair": "65783a5bd550d97c8b609e050e38a3ba46eb3b1407cdfbee7e4a7de60cec2236",
    "triangle": "af72a8dd750d056fd6dc8d1e66e9cc4ece9294f87d075d32646bdd5e0870b8bd",
}


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_load_dataset_records_are_pinned(fixture):
    text = repr(load_dataset(FIXTURES / fixture))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_DIGESTS[fixture]


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(IngestError) as err:
        load_dataset(tmp_path)
    assert "Substation.csv" in str(err.value)


def test_dataset_collections_are_sorted_and_linked():
    dataset = load_dataset(FIXTURES / "grid30")
    assert [b.id for b in dataset.buses] == sorted(b.id for b in dataset.buses)
    assert [l.id for l in dataset.lines] == sorted(l.id for l in dataset.lines)
    bus_ids = {b.id for b in dataset.buses}
    assert all(l.endpoint_a in bus_ids and l.endpoint_b in bus_ids for l in dataset.lines)
    assert all(b.planning_area_id is not None for b in dataset.buses)
    assert {a.id: a.population for a in dataset.planning_areas} == {
        "A1": 50000,
        "A2": 22000,
        "A3": 6200,
    }
