"""CSV ingestion of the open-data file family into a validated GridDataset.

This module is the package's only CSV reader and writer; other modules
write their outputs through :func:`write_csv` and :func:`write_text`.

File schemas (UTF-8, comma-delimited, header row required, ``.`` decimal
separator):

=========================  ====================================================
Substation.csv             ``id,name,x,y,voltage_kv``
Line.csv                   ``id,bus_a,bus_b,voltage_kv,wkt_geometry`` (last
                           column optional)
Generator.csv              ``id,bus_id,max_capacity_mw,fuel_type``
PlanningAreaBorder.csv     ``area_id,name,ring_index,vertex_index,x,y``
CityBorder.csv             ``city_id,name,ring_index,vertex_index,x,y``
CityPopulationPoint.csv    ``city_id,x,y,population``
HourlyLoad.csv             ``area_id,name,avg_hourly_load_mw``
Snapshot.csv               ``generator_id,output_mw``
=========================  ====================================================

Parsers are pure functions of file bytes and fail fast: every
row-level error names the file and the physical row (the header is row
1) of the offending record. Each parser is a converter from one raw row
to one record, run by :func:`_read_rows`, which alone attaches that
location. Cross-file references (line endpoints, generator buses, load
area ids) are checked at link time in :func:`build_dataset`, not at
parse time.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .geometry import BOUNDARY, PlanarPoint, PlanarPolygon, locate

__all__ = [
    "IngestError",
    "MissingColumn",
    "UnexpectedColumn",
    "DuplicateId",
    "NonNumericValue",
    "NonNumericVoltage",
    "InvalidValue",
    "DanglingReference",
    "OverlappingAreas",
    "BusRecord",
    "LineRecord",
    "GeneratorRecord",
    "CityPolygon",
    "PlanningArea",
    "PopulationPoint",
    "AreaLoad",
    "GridDataset",
    "ValidationReport",
    "parse_buses",
    "parse_lines",
    "parse_generators",
    "parse_planning_area_polygons",
    "parse_city_polygons",
    "parse_population_points",
    "parse_hourly_loads",
    "parse_snapshot_outputs",
    "serialize_buses",
    "serialize_lines",
    "serialize_generators",
    "serialize_hourly_loads",
    "write_csv",
    "write_text",
    "assign_regions",
    "build_dataset",
    "validate_dataset",
    "load_dataset",
    "DATASET_FILES",
]


# ---------------------------------------------------------------------------
# Errors

class IngestError(Exception):
    """Input data violates the documented schema or invariants."""

    def __init__(self, message: str, *, path=None, row: int | None = None):
        self.path = path
        self.row = row
        where = ""
        if path is not None:
            where += f"{path}: "
        if row is not None:
            where += f"row {row}: "
        super().__init__(where + message)


class MissingColumn(IngestError):
    pass


class UnexpectedColumn(IngestError):
    pass


class DuplicateId(IngestError):
    pass


class NonNumericValue(IngestError):
    pass


class NonNumericVoltage(NonNumericValue):
    pass


class InvalidValue(IngestError):
    pass


class DanglingReference(IngestError):
    pass


class OverlappingAreas(IngestError):
    pass


# ---------------------------------------------------------------------------
# Records

@dataclass(frozen=True, slots=True)
class BusRecord:
    """A substation node. Region fields are assigned, never parsed."""

    id: str
    name: str
    location: PlanarPoint
    voltage_kv: float
    planning_area_id: str | None = None
    is_urban: bool = False


@dataclass(frozen=True, slots=True)
class LineRecord:
    """A transmission line between two distinct buses."""

    id: str
    endpoint_a: str
    endpoint_b: str
    voltage_kv: float
    geometry: tuple[PlanarPoint, ...] | None = None


@dataclass(frozen=True, slots=True)
class GeneratorRecord:
    id: str
    bus_id: str
    max_capacity_mw: float
    fuel_type: str


@dataclass(frozen=True, slots=True)
class CityPolygon:
    id: str
    name: str
    boundary: PlanarPolygon


@dataclass(frozen=True, slots=True)
class PlanningArea:
    """Administrative region carrying an aggregate hourly load figure."""

    id: str
    name: str
    boundary: PlanarPolygon
    avg_hourly_load_mw: float = 0.0
    population: int = 0


@dataclass(frozen=True, slots=True)
class PopulationPoint:
    city_id: str
    location: PlanarPoint
    population: int


@dataclass(frozen=True, slots=True)
class AreaLoad:
    area_id: str
    name: str
    avg_hourly_load_mw: float


@dataclass(frozen=True, slots=True)
class GridDataset:
    """Immutable canonical model of one ingested dataset.

    All collections are tuples sorted by id; every referential link is
    guaranteed to resolve once :func:`build_dataset` has returned.
    Instances are safe to share across concurrent readers.
    """

    buses: tuple[BusRecord, ...]
    lines: tuple[LineRecord, ...]
    generators: tuple[GeneratorRecord, ...]
    planning_areas: tuple[PlanningArea, ...]
    city_polygons: tuple[CityPolygon, ...]


# ---------------------------------------------------------------------------
# Low-level CSV helpers

def _read_rows(
    path, required: Sequence[str], make, optional: Sequence[str] = (), *, key=None, kind=""
) -> list:
    """Validate the header, then return ``[make(row) for each row]``.

    Each row reaches ``make`` as ``{column: raw}``. The header must list
    the required columns in order, optionally followed (in order) by a
    prefix-free subset of the optional ones, and every row must have as
    many fields. Blank lines are skipped. A leading BOM (common in
    spreadsheet exports) is tolerated. The ``key`` column, if given, is
    stripped and must be non-empty and unique: a repeat raises
    DuplicateId naming the ``kind`` of record.

    An IngestError raised here or by ``make`` is raised again with the
    file and the physical 1-based line on which the record starts (the
    header is row 1; a quoted field may span lines), so converters
    report only what is wrong. Bytes that are not UTF-8 raise
    InvalidValue with the row that holds the first bad byte.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    seen: set[str] = set()
    records = []
    lineno = None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise MissingColumn(f"empty file, expected header {','.join(required)}")
            lineno = 1
            allowed = list(required) + [c for c in optional if c in header]
            missing = [c for c in required if c not in header]
            if missing:
                raise MissingColumn("missing column(s): " + ", ".join(missing))
            if header != allowed:
                raise UnexpectedColumn(
                    f"header {','.join(header)} does not match schema {','.join(allowed)}"
                )
            end = reader.line_num  # last physical line read so far
            for row in reader:
                # A quoted field may span lines: report the record's first.
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise InvalidValue(f"expected {len(header)} fields, found {len(row)}")
                record = dict(zip(header, row))
                if key is not None:
                    record_id = record[key] = _require_id(record[key], key)
                    if record_id in seen:
                        raise DuplicateId(f"duplicate {kind} id {record_id}")
                    seen.add(record_id)
                records.append(make(record))
        except IngestError as exc:
            if exc.path is not None or exc.row is not None:
                raise
            raise type(exc)(str(exc), path=path, row=lineno) from None
        except UnicodeDecodeError as exc:
            message, row = _undecodable(path, exc)
            raise InvalidValue(message, path=path, row=row) from None
    return records


def _undecodable(path, exc: UnicodeDecodeError) -> tuple[str, int | None]:
    """The message for the first non-UTF-8 byte of ``path``, and its row.

    The text layer decodes ahead in chunks, so the reader's row when
    ``exc`` came is not the row of the bad byte: decode the file's bytes
    and count the line ends before the byte that fails.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        exc, row = first, data.count(b"\n", 0, first.start) + 1
    else:
        row = None  # the file changed after the reader failed
    return f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})", row


def _float(raw: str, column: str, cls=NonNumericValue) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise cls(f"non-numeric {column}: {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise cls(f"non-finite {column}: {raw!r}")
    return value


def _int(raw: str, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise NonNumericValue(f"non-integer {column}: {raw!r}") from None


def _require_id(raw: str, column: str) -> str:
    value = raw.strip()
    if not value:
        raise InvalidValue(f"empty {column}")
    return value


def _nonnegative(row: Mapping[str, str], column: str, parse=_float):
    value = parse(row[column], column)
    if value < 0:
        raise InvalidValue(f"{column} must be >= 0, got {value}")
    return value


def _voltage(row: Mapping[str, str]) -> float:
    kv = _float(row["voltage_kv"], "voltage_kv", cls=NonNumericVoltage)
    if kv <= 0:
        raise InvalidValue(f"voltage_kv must be > 0, got {kv}")
    return kv


def _point(row: Mapping[str, str]) -> PlanarPoint:
    return PlanarPoint(_float(row["x"], "x"), _float(row["y"], "y"))


def _fmt(value: float) -> str:
    return repr(float(value))


_WKT_LINESTRING = re.compile(r"^\s*LINESTRING\s*\((.*)\)\s*$", re.IGNORECASE)


def parse_wkt_linestring(text: str) -> tuple[PlanarPoint, ...]:
    match = _WKT_LINESTRING.match(text)
    if not match:
        raise ValueError(f"not a WKT LINESTRING: {text!r}")
    points = []
    for chunk in match.group(1).split(","):
        parts = chunk.split()
        if len(parts) != 2:
            raise ValueError(f"bad WKT coordinate pair: {chunk!r}")
        points.append(PlanarPoint(float(parts[0]), float(parts[1])))
    if len(points) < 2:
        raise ValueError("LINESTRING needs at least 2 points")
    return tuple(points)


def format_wkt_linestring(points: Iterable[PlanarPoint]) -> str:
    inner = ", ".join(f"{_fmt(p.x)} {_fmt(p.y)}" for p in points)
    return f"LINESTRING ({inner})"


# ---------------------------------------------------------------------------
# Parsers: each one converts a raw row to a record, checking its fields
# in a fixed order, so a row with several faults reports the same one.

def _bus(row) -> BusRecord:
    kv = _voltage(row)
    return BusRecord(row["id"], row["name"], _point(row), kv)


def parse_buses(path) -> list[BusRecord]:
    """Parse Substation.csv. Duplicate ids abort with the row number."""
    return _read_rows(path, ("id", "name", "x", "y", "voltage_kv"), _bus, key="id", kind="bus")


def _line(row) -> LineRecord:
    bus_a = _require_id(row["bus_a"], "bus_a")
    bus_b = _require_id(row["bus_b"], "bus_b")
    if bus_a == bus_b:
        raise InvalidValue(f"line {row['id']} is a self-loop on {bus_a}")
    kv = _voltage(row)
    geometry = None
    raw_wkt = row.get("wkt_geometry", "").strip()
    if raw_wkt:
        try:
            geometry = parse_wkt_linestring(raw_wkt)
        except ValueError as exc:
            raise InvalidValue(str(exc)) from None
    return LineRecord(row["id"], bus_a, bus_b, kv, geometry)


def parse_lines(path) -> list[LineRecord]:
    return _read_rows(
        path, ("id", "bus_a", "bus_b", "voltage_kv"), _line, ("wkt_geometry",),
        key="id", kind="line",
    )


def _generator(row) -> GeneratorRecord:
    cap = _nonnegative(row, "max_capacity_mw")
    return GeneratorRecord(row["id"], _require_id(row["bus_id"], "bus_id"), cap, row["fuel_type"])


def parse_generators(path) -> list[GeneratorRecord]:
    return _read_rows(
        path, ("id", "bus_id", "max_capacity_mw", "fuel_type"), _generator,
        key="id", kind="generator",
    )


def _parse_border_rows(path, id_column: str):
    """Shared reader for the two border files. Returns ordered shapes."""
    # vertices[id] -> {ring_index: {vertex_index: point}}, ids in file order
    vertices: dict[str, dict[int, dict[int, PlanarPoint]]] = {}
    names: dict[str, str] = {}

    def add_vertex(row) -> None:
        shape_id = _require_id(row[id_column], id_column)
        ring_i = _int(row["ring_index"], "ring_index")
        vertex_i = _int(row["vertex_index"], "vertex_index")
        if ring_i < 0 or vertex_i < 0:
            raise InvalidValue("negative ring/vertex index")
        point = _point(row)
        if names.setdefault(shape_id, row["name"]) != row["name"]:
            raise InvalidValue(f"{id_column} {shape_id} listed under two names")
        ring = vertices.setdefault(shape_id, {}).setdefault(ring_i, {})
        if vertex_i in ring:
            raise DuplicateId(f"duplicate vertex {vertex_i} in ring {ring_i} of {shape_id}")
        ring[vertex_i] = point

    _read_rows(path, (id_column, "name", "ring_index", "vertex_index", "x", "y"), add_vertex)

    shapes = []
    for shape_id, shape in vertices.items():
        rings = []
        for ring_i in sorted(shape):
            ring = shape[ring_i]
            rings.append(tuple(ring[i] for i in sorted(ring)))
        try:
            polygon = PlanarPolygon(tuple(rings))
        except ValueError as exc:
            raise InvalidValue(f"{id_column} {shape_id}: {exc}", path=path) from None
        shapes.append((shape_id, names[shape_id], polygon))
    return shapes


def parse_planning_area_polygons(path) -> list[PlanningArea]:
    """Parse PlanningAreaBorder.csv; loads and population are merged later."""
    return [
        PlanningArea(shape_id, name, polygon)
        for shape_id, name, polygon in _parse_border_rows(path, "area_id")
    ]


def parse_city_polygons(path) -> list[CityPolygon]:
    return [
        CityPolygon(shape_id, name, polygon)
        for shape_id, name, polygon in _parse_border_rows(path, "city_id")
    ]


def _population_point(row) -> PopulationPoint:
    pop = _nonnegative(row, "population", _int)
    return PopulationPoint(_require_id(row["city_id"], "city_id"), _point(row), pop)


def parse_population_points(path) -> list[PopulationPoint]:
    return _read_rows(path, ("city_id", "x", "y", "population"), _population_point)


def parse_hourly_loads(path) -> list[AreaLoad]:
    return _read_rows(
        path,
        ("area_id", "name", "avg_hourly_load_mw"),
        lambda row: AreaLoad(
            row["area_id"], row["name"], _nonnegative(row, "avg_hourly_load_mw")
        ),
        key="area_id",
        kind="area",
    )


def parse_snapshot_outputs(path) -> dict[str, float]:
    """Parse Snapshot.csv into generator id -> output (MW)."""
    return dict(
        _read_rows(
            path,
            ("generator_id", "output_mw"),
            lambda row: (row["generator_id"], _nonnegative(row, "output_mw")),
            key="generator_id",
            kind="generator",
        )
    )


# ---------------------------------------------------------------------------
# Serializers (canonical form; parse -> serialize normalizes a file) and writers

def _write_rows(fh, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    out = io.StringIO()
    _write_rows(out, header, rows)
    return out.getvalue()


def _open_output(path):
    """Open ``path`` for writing as UTF-8 without newline translation,
    creating its parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends as ``text`` holds them."""
    with _open_output(path) as fh:
        fh.write(text)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Stream a header and rows to ``path`` as CSV with ``\\n`` line ends."""
    with _open_output(path) as fh:
        _write_rows(fh, header, rows)


def serialize_buses(records: Iterable[BusRecord]) -> str:
    return _write_csv(
        ("id", "name", "x", "y", "voltage_kv"),
        (
            (b.id, b.name, _fmt(b.location.x), _fmt(b.location.y), _fmt(b.voltage_kv))
            for b in records
        ),
    )


def serialize_lines(records: Iterable[LineRecord]) -> str:
    records = list(records)
    with_geometry = any(r.geometry is not None for r in records)
    header = ["id", "bus_a", "bus_b", "voltage_kv"]
    if with_geometry:
        header.append("wkt_geometry")
    rows = []
    for r in records:
        row = [r.id, r.endpoint_a, r.endpoint_b, _fmt(r.voltage_kv)]
        if with_geometry:
            row.append("" if r.geometry is None else format_wkt_linestring(r.geometry))
        rows.append(row)
    return _write_csv(header, rows)


def serialize_generators(records: Iterable[GeneratorRecord]) -> str:
    return _write_csv(
        ("id", "bus_id", "max_capacity_mw", "fuel_type"),
        ((g.id, g.bus_id, _fmt(g.max_capacity_mw), g.fuel_type) for g in records),
    )


def serialize_hourly_loads(records: Iterable[AreaLoad]) -> str:
    return _write_csv(
        ("area_id", "name", "avg_hourly_load_mw"),
        ((a.area_id, a.name, _fmt(a.avg_hourly_load_mw)) for a in records),
    )


def _border_rows(shape_id: str, name: str, boundary: PlanarPolygon):
    for ring_i, ring in enumerate(boundary.rings):
        for vertex_i, point in enumerate(ring[:-1]):  # open form on disk
            yield (shape_id, name, str(ring_i), str(vertex_i), _fmt(point.x), _fmt(point.y))


def serialize_planning_area_polygons(areas: Iterable[PlanningArea]) -> str:
    rows = []
    for area in areas:
        rows.extend(_border_rows(area.id, area.name, area.boundary))
    return _write_csv(("area_id", "name", "ring_index", "vertex_index", "x", "y"), rows)


def serialize_city_polygons(cities: Iterable[CityPolygon]) -> str:
    rows = []
    for city in cities:
        rows.extend(_border_rows(city.id, city.name, city.boundary))
    return _write_csv(("city_id", "name", "ring_index", "vertex_index", "x", "y"), rows)


def serialize_population_points(points: Iterable[PopulationPoint]) -> str:
    return _write_csv(
        ("city_id", "x", "y", "population"),
        (
            (p.city_id, _fmt(p.location.x), _fmt(p.location.y), str(p.population))
            for p in points
        ),
    )


def serialize_snapshot_outputs(outputs: Mapping[str, float]) -> str:
    return _write_csv(
        ("generator_id", "output_mw"),
        ((gen_id, _fmt(mw)) for gen_id, mw in sorted(outputs.items())),
    )


# ---------------------------------------------------------------------------
# Linking, region assignment, validation

def _area_of(
    point: PlanarPoint, planning_areas: Sequence[PlanningArea], subject: str
) -> PlanningArea | None:
    """The planning area holding ``point``; None outside every area.

    A point on a border shared by several areas goes to the one that
    holds it strictly inside, or, when it lies only on their
    boundaries, to the lowest area id. Two areas that both hold it
    strictly inside overlap, which raises OverlappingAreas.
    """
    # Misses build no tuple: nearly every area misses every point.
    where = [(a, w) for a in planning_areas if (w := locate(point, a.boundary))]
    if len(where) <= 1:
        return where[0][0] if where else None
    interior = [a for a, w in where if w != BOUNDARY]
    if len(interior) > 1:
        raise OverlappingAreas(
            f"{subject} lies in planning areas " + ", ".join(sorted(a.id for a, _ in where))
        )
    return interior[0] if interior else min((a for a, _ in where), key=lambda a: a.id)


def assign_regions(
    buses: Iterable[BusRecord],
    planning_areas: Sequence[PlanningArea],
    city_polygons: Sequence[CityPolygon],
) -> list[BusRecord]:
    """Annotate each bus with its planning area and urban flag.

    Areas are assumed to partition the territory: a bus strictly inside
    two areas is a hard error, while a bus on a shared border lands in
    one area as :func:`_area_of` describes. A bus outside every area
    keeps ``planning_area_id=None``. Deterministic and independent of
    record order.
    """
    annotated = []
    for bus in buses:
        area = _area_of(bus.location, planning_areas, f"bus {bus.id}")
        area_id = area.id if area is not None else None
        urban = any(locate(bus.location, city.boundary) for city in city_polygons)
        annotated.append(
            BusRecord(bus.id, bus.name, bus.location, bus.voltage_kv, area_id, urban)
        )
    return annotated


def aggregate_population(
    points: Iterable[PopulationPoint], planning_areas: Sequence[PlanningArea]
) -> dict[str, int]:
    """Sum population points into their containing planning area."""
    totals = {area.id: 0 for area in planning_areas}
    for point in points:
        area = _area_of(
            point.location, planning_areas, f"population point for city {point.city_id}"
        )
        if area is not None:
            totals[area.id] += point.population
    return totals


def build_dataset(
    *,
    buses: Sequence[BusRecord],
    lines: Sequence[LineRecord],
    generators: Sequence[GeneratorRecord] = (),
    planning_areas: Sequence[PlanningArea] = (),
    area_loads: Sequence[AreaLoad] = (),
    city_polygons: Sequence[CityPolygon] = (),
    population_points: Sequence[PopulationPoint] = (),
) -> GridDataset:
    """Link, annotate, and freeze parsed records into a GridDataset.

    Raises DanglingReference for any cross-file id that does not
    resolve, and OverlappingAreas if two area polygons both hold a bus
    or population point strictly inside.
    """
    bus_ids = {b.id for b in buses}
    for line in lines:
        for endpoint in (line.endpoint_a, line.endpoint_b):
            if endpoint not in bus_ids:
                raise DanglingReference(
                    f"line {line.id} references unknown bus {endpoint}"
                )
    for gen in generators:
        if gen.bus_id not in bus_ids:
            raise DanglingReference(
                f"generator {gen.id} references unknown bus {gen.bus_id}"
            )
    area_ids = {a.id for a in planning_areas}
    for load in area_loads:
        if load.area_id not in area_ids:
            raise DanglingReference(
                f"hourly load references unknown planning area {load.area_id}"
            )

    population = aggregate_population(population_points, planning_areas)
    loads = {load.area_id: load.avg_hourly_load_mw for load in area_loads}
    merged_areas = tuple(
        replace(
            area,
            avg_hourly_load_mw=loads.get(area.id, 0.0),
            population=population.get(area.id, 0),
        )
        for area in sorted(planning_areas, key=lambda a: a.id)
    )
    annotated = assign_regions(buses, merged_areas, tuple(city_polygons))

    return GridDataset(
        buses=tuple(sorted(annotated, key=lambda b: b.id)),
        lines=tuple(sorted(lines, key=lambda l: l.id)),
        generators=tuple(sorted(generators, key=lambda g: g.id)),
        planning_areas=merged_areas,
        city_polygons=tuple(sorted(city_polygons, key=lambda c: c.id)),
    )


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Non-fatal dataset findings; hard errors raise during build."""

    unassigned_buses: tuple[str, ...] = ()
    isolated_buses: tuple[str, ...] = ()
    voltage_anomalies: tuple[str, ...] = ()
    duplicate_geometry: tuple[str, ...] = ()

    @property
    def is_clean(self) -> bool:
        return not (
            self.unassigned_buses
            or self.isolated_buses
            or self.voltage_anomalies
            or self.duplicate_geometry
        )

    def entries(self) -> list[str]:
        lines = []
        lines += [f"unassigned bus {b}" for b in self.unassigned_buses]
        lines += [f"isolated bus {b}" for b in self.isolated_buses]
        lines += [
            f"line {l} voltage exceeds both endpoint voltages"
            for l in self.voltage_anomalies
        ]
        lines += [f"duplicate geometry: {d}" for d in self.duplicate_geometry]
        return lines


def validate_dataset(dataset: GridDataset) -> ValidationReport:
    """Report unassigned buses, isolated buses, voltage anomalies, and
    duplicated geometry. None of these abort the pipeline; lines rated
    above both endpoints are later handled by the voltage-class rules.
    """
    unassigned = tuple(
        b.id for b in dataset.buses if b.planning_area_id is None
    )

    degree: dict[str, int] = {b.id: 0 for b in dataset.buses}
    for line in dataset.lines:
        degree[line.endpoint_a] += 1
        degree[line.endpoint_b] += 1
    isolated = tuple(sorted(b for b, d in degree.items() if d == 0))

    kv = {b.id: b.voltage_kv for b in dataset.buses}
    anomalies = tuple(
        line.id
        for line in dataset.lines
        if line.voltage_kv > kv[line.endpoint_a] and line.voltage_kv > kv[line.endpoint_b]
    )

    duplicates = []
    seen_locations: dict[tuple[float, float], str] = {}
    for bus in dataset.buses:
        key = (bus.location.x, bus.location.y)
        if key in seen_locations:
            duplicates.append(f"buses {seen_locations[key]},{bus.id}")
        else:
            seen_locations[key] = bus.id
    seen_geometry: dict[tuple, str] = {}
    for line in dataset.lines:
        if line.geometry is None:
            continue  # bare parallel circuits are legitimate, not duplicates
        key = tuple((p.x, p.y) for p in line.geometry)
        if key in seen_geometry:
            duplicates.append(f"lines {seen_geometry[key]},{line.id}")
        else:
            seen_geometry[key] = line.id

    return ValidationReport(
        unassigned_buses=unassigned,
        isolated_buses=isolated,
        voltage_anomalies=anomalies,
        duplicate_geometry=tuple(duplicates),
    )


# ---------------------------------------------------------------------------
# Directory loading

DATASET_FILES = {
    "buses": "Substation.csv",
    "lines": "Line.csv",
    "generators": "Generator.csv",
    "planning_areas": "PlanningAreaBorder.csv",
    "cities": "CityBorder.csv",
    "population": "CityPopulationPoint.csv",
    "hourly_loads": "HourlyLoad.csv",
}


def load_dataset(data_dir) -> GridDataset:
    """Parse the canonical file family under ``data_dir`` and link it."""
    data_dir = Path(data_dir)
    paths = {key: data_dir / name for key, name in DATASET_FILES.items()}
    missing = [p.name for p in paths.values() if not p.is_file()]
    if missing:
        raise IngestError(
            f"missing dataset file(s) in {data_dir}: " + ", ".join(sorted(missing))
        )
    return build_dataset(
        buses=parse_buses(paths["buses"]),
        lines=parse_lines(paths["lines"]),
        generators=parse_generators(paths["generators"]),
        planning_areas=parse_planning_area_polygons(paths["planning_areas"]),
        area_loads=parse_hourly_loads(paths["hourly_loads"]),
        city_polygons=parse_city_polygons(paths["cities"]),
        population_points=parse_population_points(paths["population"]),
    )
