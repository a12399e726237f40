import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo.direction import read_orientation_csv
from gridtopo.geometry import PlanarPoint, PlanarPolygon
from gridtopo.ingest import (
    AreaLoad,
    BusRecord,
    CityPolygon,
    DanglingReference,
    DuplicateId,
    GeneratorRecord,
    IngestError,
    InvalidValue,
    LineRecord,
    MissingColumn,
    NonNumericVoltage,
    OverlappingAreas,
    PlanningArea,
    PopulationPoint,
    UnexpectedColumn,
    assign_regions,
    build_dataset,
    format_wkt_linestring,
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
    serialize_buses,
    serialize_city_polygons,
    serialize_generators,
    serialize_hourly_loads,
    serialize_lines,
    serialize_planning_area_polygons,
    serialize_population_points,
    serialize_snapshot_outputs,
    validate_dataset,
    write_text,
)

from helpers import FIXTURES, FIXTURE_NAMES, write_latin1_substations

P = PlanarPoint


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
    assert parse_wkt_linestring(format_wkt_linestring(points)) == points
    with pytest.raises(ValueError):
        parse_wkt_linestring("POINT (1 1)")
    with pytest.raises(ValueError):
        parse_wkt_linestring("LINESTRING (1 1)")


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


def test_build_merges_loads_and_population():
    dataset = build_dataset(
        buses=[_bus("S1", 5, 5)],
        lines=[],
        planning_areas=[PlanningArea("A1", "North", rect(0, 0, 10, 10))],
        area_loads=[AreaLoad("A1", "North", 42.0)],
        population_points=[
            PopulationPoint("C1", P(1.0, 1.0), 100),
            PopulationPoint("C1", P(2.0, 2.0), 50),
            PopulationPoint("C1", P(99.0, 99.0), 7),  # outside: contributes nothing
        ],
    )
    (area,) = dataset.planning_areas
    assert area.avg_hourly_load_mw == 42.0
    assert area.population == 150


# --- region assignment -------------------------------------------------------

def test_assign_regions_area_and_city():
    areas = [PlanningArea("60", "Edmonton", rect(0, 0, 10, 10))]
    cities = [CityPolygon("C1", "Edmonton", rect(2, 2, 6, 6))]
    urban, rural, outside = assign_regions(
        [_bus("S1", 3, 3), _bus("S2", 8, 8), _bus("S3", 20, 20)], areas, cities
    )
    assert (urban.planning_area_id, urban.is_urban) == ("60", True)
    assert (rural.planning_area_id, rural.is_urban) == ("60", False)
    assert outside.planning_area_id is None and not outside.is_urban


def test_assign_regions_rejects_overlap():
    areas = [
        PlanningArea("A1", "A1", rect(0, 0, 10, 10)),
        PlanningArea("A2", "A2", rect(5, 5, 15, 15)),
    ]
    with pytest.raises(OverlappingAreas):
        assign_regions([_bus("S1", 7, 7)], areas, [])


# Unit squares A (0..1) and B (1..2) share the edge x = 1; C (0..1 above A)
# shares A's top edge, so (1, 1) is a vertex of all three.
SHARED_BORDER_AREAS = [
    PlanningArea("B", "B", rect(1, 0, 2, 1)),
    PlanningArea("A", "A", rect(0, 0, 1, 1)),
    PlanningArea("C", "C", rect(0, 1, 1, 2)),
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
        PlanningArea("A", "A", rect(1, 0, 3, 1)),
        PlanningArea("B", "B", rect(0, 0, 2, 1)),
    ]
    (bus,) = assign_regions([_bus("S1", 1.0, 0.5)], areas, [])
    assert bus.planning_area_id == "B"


def test_assign_regions_is_order_independent():
    areas = [PlanningArea("A1", "A1", rect(0, 0, 10, 10))]
    cities = [CityPolygon("C1", "C1", rect(0, 0, 4, 4))]
    buses = [_bus(f"S{i}", i, i) for i in range(9)]
    expected = {b.id: (b.planning_area_id, b.is_urban) for b in assign_regions(buses, areas, cities)}
    shuffled = buses[:]
    random.Random(7).shuffle(shuffled)
    got = {b.id: (b.planning_area_id, b.is_urban) for b in assign_regions(shuffled, areas, cities)}
    assert got == expected


# --- validation ---------------------------------------------------------------

def test_validate_clean_fixture_is_empty():
    report = validate_dataset(load_dataset(FIXTURES / "pair"))
    assert report.is_clean
    assert report.entries() == []


def test_validate_flags_isolated_and_unassigned():
    dataset = build_dataset(
        buses=[_bus("S1", 1, 1), _bus("S2", 3, 3), _bus("S3", 50, 50)],
        lines=[LineRecord("L1", "S1", "S2", 240.0)],
        planning_areas=[PlanningArea("A1", "A1", rect(0, 0, 10, 10))],
    )
    report = validate_dataset(dataset)
    assert report.isolated_buses == ("S3",)
    assert report.unassigned_buses == ("S3",)


def test_validate_flags_voltage_anomaly_not_error():
    # a 500 kV line between two 240 kV buses is reported, not rejected
    report = validate_dataset(load_dataset(FIXTURES / "ladder"))
    assert report.voltage_anomalies == ("L4",)
    assert not report.is_clean


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
        _records(st.builds(PlanningArea, _IDS, _TEXT, _POLYGONS)),
    ),
    "cities": (
        parse_city_polygons, serialize_city_polygons,
        _records(st.builds(CityPolygon, _IDS, _TEXT, _POLYGONS)),
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
