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
1) of the offending record. Each parser is a converter from one raw row,
the ``csv.reader`` list read by the fixed column positions of its
schema, to one record, run by :func:`_read_rows`, which alone attaches
that location. A point is a plain ``(x, y)`` float pair, checked finite
once, where its floats are parsed. Cross-file references (line
endpoints, generator buses, load area ids) are checked at link time in
:func:`build_dataset`, not at parse time.

Both border files parse to :class:`Border` records, inputs only, as
population points and area loads are: the GridDataset keeps no border.

Within one load, each distinct WKT point, border vertex and voltage is
one object (hash-consing), found in a table local to the parse and keyed
by value, which is exact for nonzero finite floats. The WKT reader,
:func:`parse_wkt_linestring`, takes its point table as an argument. The
line parse of :func:`load_dataset` starts its tables from the buses just
parsed, so a line end is its bus's own ``id`` string and a WKT point at
a substation is that bus's own ``location``. A pair with a zero
coordinate is never looked up in a table, so never shared, because
``0.0 == -0.0`` and sharing could flip its sign and change a record's
``repr``.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Sequence

from .geometry import BOUNDARY, PlanarPolygon, Point, locate


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
    location: Point
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
    geometry: tuple[Point, ...] | None = None


@dataclass(frozen=True, slots=True)
class GeneratorRecord:
    id: str
    bus_id: str
    max_capacity_mw: float
    fuel_type: str


@dataclass(frozen=True, slots=True)
class Border:
    """One shape of a border file: a planning area or a city."""

    id: str
    name: str
    boundary: PlanarPolygon


@dataclass(frozen=True, slots=True)
class PlanningArea:
    """Administrative region: its hourly load and its border's population."""

    id: str
    name: str
    avg_hourly_load_mw: float
    population: int


@dataclass(frozen=True, slots=True)
class PopulationPoint:
    city_id: str
    location: Point
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
    guaranteed to resolve once :func:`build_dataset` has returned. No
    border is kept. Instances are safe to share across concurrent readers.
    """

    buses: tuple[BusRecord, ...]
    lines: tuple[LineRecord, ...]
    generators: tuple[GeneratorRecord, ...]
    planning_areas: tuple[PlanningArea, ...]


# ---------------------------------------------------------------------------
# Low-level CSV helpers

def _read_rows(
    path, required: Sequence[str], make, optional: Sequence[str] = (), *, kind=""
) -> list:
    """Validate the header, then return each row's ``make(row)`` that is
    not None (the border parse collects its vertices itself).

    Each row reaches ``make`` as the ``csv.reader`` list of raw strings.
    The header must list the required columns in order, optionally
    followed (in order) by a prefix-free subset of the optional ones, so
    every column has a fixed position, and every row must have as many
    fields. Blank lines are skipped. A leading BOM (common in spreadsheet
    exports) is tolerated. If ``kind`` is given, column 0 is the key: it
    is stripped in place and must be non-empty and unique, and a repeat
    raises DuplicateId naming the ``kind`` of record.

    An IngestError raised here or by ``make`` is raised again with the
    file and the physical 1-based line on which the record starts (the
    header is row 1; a quoted field may span lines), so converters
    report only what is wrong. Bytes that are not UTF-8 raise
    InvalidValue with the row that holds the first bad byte, and a
    record the csv module rejects (a field over ``csv.field_size_limit``,
    as an unclosed quote makes) raises InvalidValue with its row.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    seen: set[str] = set()
    records = []
    lineno = None
    end = 0  # last physical line read so far
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
            end = reader.line_num
            for row in reader:
                # A quoted field may span lines: report the record's first.
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise InvalidValue(f"expected {len(header)} fields, found {len(row)}")
                if kind:
                    record_id = row[0] = _require_id(row[0], header[0])
                    if record_id in seen:
                        raise DuplicateId(f"duplicate {kind} id {record_id}")
                    seen.add(record_id)
                record = make(row)
                if record is not None:
                    records.append(record)
        except IngestError as exc:
            raise type(exc)(str(exc), path=path, row=lineno) from None
        except csv.Error as exc:
            # Raised while reading the next record, which starts after ``end``.
            raise InvalidValue(str(exc), path=path, row=end + 1) from None
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
    if not math.isfinite(value):
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


def _nonnegative(raw: str, column: str, parse=_float):
    value = parse(raw, column)
    if value < 0:
        raise InvalidValue(f"{column} must be >= 0, got {value}")
    return value


def _voltage(raw: str) -> float:
    kv = _float(raw, "voltage_kv", cls=NonNumericVoltage)
    if kv <= 0:
        raise InvalidValue(f"voltage_kv must be > 0, got {kv}")
    return kv


def _point(x: str, y: str) -> Point:
    return (_float(x, "x"), _float(y, "y"))


_WKT_LINESTRING = re.compile(r"^\s*LINESTRING\s*\((.*)\)\s*$", re.IGNORECASE)


def parse_wkt_linestring(text: str, shared: dict[Point, Point]) -> tuple[Point, ...]:
    """The points of a WKT LINESTRING, taking each point with no zero
    coordinate from ``shared`` if an equal one is there, else adding it."""
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
        point = (x, y)
        points.append(shared.setdefault(point, point) if x and y else point)
    if len(points) < 2:
        raise ValueError("LINESTRING needs at least 2 points")
    return tuple(points)


# ---------------------------------------------------------------------------
# Parsers: each one converts a raw row to a record, reading its schema's
# columns by position and checking its fields in a fixed order, so a row
# with several faults reports the same one.

def parse_buses(path) -> list[BusRecord]:
    """Parse Substation.csv. Duplicate ids abort with the row number.
    The buses of one parse hold one float object per distinct voltage."""
    volts: dict[float, float] = {}

    def bus(row) -> BusRecord:
        kv = _voltage(row[4])
        location = _point(row[2], row[3])
        return BusRecord(row[0], row[1], location, volts.setdefault(kv, kv))

    return _read_rows(path, ("id", "name", "x", "y", "voltage_kv"), bus, kind="bus")


def parse_lines(path, buses: Sequence[BusRecord] = ()) -> list[LineRecord]:
    """Parse Line.csv. The lines of one parse hold one object per
    distinct value of three kinds: one ``str`` for a bus id, not one per
    line end; one float per voltage; and one ``(x, y)`` pair per WKT point
    with no zero coordinate, so the line ends that meet at a substation
    share its point. A pair with a zero coordinate is kept as parsed,
    because ``(0.0, y) == (-0.0, y)`` and sharing would change its sign.

    ``buses`` are records as :func:`parse_buses` returns them, whose
    objects the lines reuse: a line end equal to a bus's ``id`` is that
    string, and a WKT point with no zero coordinate equal to a bus's
    ``location`` is that tuple. As their locations are pairs of floats,
    they change no value; an end that names none of them is still a line
    end, left for :func:`build_dataset` to reject."""
    endpoints: dict[str, str] = {b.id: b.id for b in buses}
    volts: dict[float, float] = {}
    points: dict[Point, Point] = {b.location: b.location for b in buses}

    def line(row) -> LineRecord:
        bus_a = _require_id(row[1], "bus_a")
        bus_b = _require_id(row[2], "bus_b")
        if bus_a == bus_b:
            raise InvalidValue(f"line {row[0]} is a self-loop on {bus_a}")
        kv = _voltage(row[3])
        geometry = None
        raw_wkt = row[4].strip() if len(row) > 4 else ""
        if raw_wkt:
            try:
                geometry = parse_wkt_linestring(raw_wkt, points)
            except ValueError as exc:
                raise InvalidValue(str(exc)) from None
        bus_a = endpoints.setdefault(bus_a, bus_a)
        bus_b = endpoints.setdefault(bus_b, bus_b)
        return LineRecord(row[0], bus_a, bus_b, volts.setdefault(kv, kv), geometry)

    return _read_rows(
        path, ("id", "bus_a", "bus_b", "voltage_kv"), line, ("wkt_geometry",), kind="line"
    )


def _generator(row) -> GeneratorRecord:
    cap = _nonnegative(row[2], "max_capacity_mw")
    return GeneratorRecord(row[0], _require_id(row[1], "bus_id"), cap, row[3])


def parse_generators(path) -> list[GeneratorRecord]:
    return _read_rows(
        path, ("id", "bus_id", "max_capacity_mw", "fuel_type"), _generator, kind="generator"
    )


_BORDER_COLUMNS = ("name", "ring_index", "vertex_index", "x", "y")


def _parse_border_rows(path, id_column: str) -> list[Border]:
    """Read one of the two border files into one Border per shape, in
    the order of each shape's first row. A ring's rows may come in any
    order: ``vertex_index`` orders them, and gaps are allowed.

    A row's fields go through the ``int`` and ``float`` builtins in one
    step. Only a row that fails there (a field that is no number, an
    empty id, a negative index or a non-finite coordinate) goes through
    the checked converters, one field at a time, which raise the error
    of its first fault; so every row is judged as by the checked chain
    alone, and a well-formed row costs no more than its conversions.
    Neighbouring shapes of one parse share their common vertices, as
    :func:`parse_lines` shares WKT points.
    """
    # vertices[id] -> {ring_index: {vertex_index: (x, y)}}, ids in file order
    vertices: dict[str, dict[int, dict[int, Point]]] = defaultdict(lambda: defaultdict(dict))
    names: dict[str, str] = {}
    shared: dict[Point, Point] = {}

    def add_vertex(row) -> None:
        try:
            shape_id = row[0].strip()
            ring_i, vertex_i = int(row[2]), int(row[3])
            x, y = float(row[4]), float(row[5])
            # x + y is finite if both are, unless it overflows; the
            # checked chain lets such a row through
            if not shape_id or ring_i < 0 or vertex_i < 0 or not math.isfinite(x + y):
                raise ValueError
        except ValueError:
            shape_id = _require_id(row[0], id_column)
            ring_i = _int(row[2], "ring_index")
            vertex_i = _int(row[3], "vertex_index")
            if ring_i < 0 or vertex_i < 0:
                raise InvalidValue("negative ring/vertex index")
            x, y = _point(row[4], row[5])
        if names.setdefault(shape_id, row[1]) != row[1]:
            raise InvalidValue(f"{id_column} {shape_id} listed under two names")
        ring = vertices[shape_id][ring_i]
        if vertex_i in ring:
            raise DuplicateId(f"duplicate vertex {vertex_i} in ring {ring_i} of {shape_id}")
        point = (x, y)
        ring[vertex_i] = shared.setdefault(point, point) if x and y else point

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


def parse_planning_area_polygons(path) -> list[Border]:
    """Parse PlanningAreaBorder.csv into one Border per planning area."""
    return _parse_border_rows(path, "area_id")


def parse_city_polygons(path) -> list[Border]:
    return _parse_border_rows(path, "city_id")


def _population_point(row) -> PopulationPoint:
    pop = _nonnegative(row[3], "population", _int)
    return PopulationPoint(_require_id(row[0], "city_id"), _point(row[1], row[2]), pop)


def parse_population_points(path) -> list[PopulationPoint]:
    return _read_rows(path, ("city_id", "x", "y", "population"), _population_point)


def parse_hourly_loads(path) -> list[AreaLoad]:
    return _read_rows(
        path, ("area_id", "name", "avg_hourly_load_mw"),
        lambda row: AreaLoad(row[0], row[1], _nonnegative(row[2], "avg_hourly_load_mw")),
        kind="area",
    )


def parse_snapshot_outputs(path) -> dict[str, float]:
    """Parse Snapshot.csv into generator id -> output (MW)."""
    rows = _read_rows(
        path, ("generator_id", "output_mw"),
        lambda row: (row[0], _nonnegative(row[1], "output_mw")), kind="generator",
    )
    return dict(rows)


# ---------------------------------------------------------------------------
# Writers

def _open_output(path):
    """Open ``path`` for writing as UTF-8 without newline translation,
    creating its parent directory. An OSError becomes an IngestError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot write {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends as ``text`` holds them."""
    with _open_output(path) as fh:
        fh.write(text)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Stream a header and rows to ``path`` as CSV with ``\\n`` line ends."""
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Linking, region assignment, validation

def _holding(point: Point, shapes: Sequence[Border]) -> list:
    """``(shape, locate(point, shape.boundary))`` for each of ``shapes``
    whose boundary holds ``point``, in order. Nearly every shape misses
    every point, so one whose bounding box misses it (inclusive, so a
    boundary point is kept) gets no :func:`locate` call, and a miss
    builds no tuple."""
    x, y = point
    return [
        (s, w) for s in shapes
        if (box := s.boundary.bbox)[0] <= x <= box[2] and box[1] <= y <= box[3]
        and (w := locate(point, s.boundary))
    ]


def _area_of(point: Point, planning_areas: Sequence[Border], subject: str) -> Border | None:
    """The planning area holding ``point``; None outside every area.

    A point on a border shared by several areas goes to the one that
    holds it strictly inside, or, when it lies only on their
    boundaries, to the lowest area id. Two areas that both hold it
    strictly inside overlap, which raises OverlappingAreas.
    """
    where = _holding(point, planning_areas)
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
    planning_areas: Sequence[Border],
    city_polygons: Sequence[Border],
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
        urban = bool(_holding(bus.location, city_polygons))
        annotated.append(
            BusRecord(bus.id, bus.name, bus.location, bus.voltage_kv, area_id, urban)
        )
    return annotated


def aggregate_population(
    points: Iterable[PopulationPoint], planning_areas: Sequence[Border]
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


def link_area_loads(
    area_loads: Iterable[AreaLoad], planning_areas: Iterable[Border | PlanningArea], path=None
) -> dict[str, float]:
    """``{area_id: avg_hourly_load_mw}`` of ``area_loads``, read from
    ``path`` if given. An area id that names no planning area raises
    DanglingReference, and one listed twice DuplicateId (naming
    ``path``)."""
    area_ids = {a.id for a in planning_areas}
    loads = {}
    for load in area_loads:
        if load.area_id not in area_ids:
            raise DanglingReference(
                f"hourly load references unknown planning area {load.area_id}", path=path
            )
        if load.area_id in loads:
            raise DuplicateId(f"duplicate area load id {load.area_id}", path=path)
        loads[load.area_id] = load.avg_hourly_load_mw
    return loads


def _by_id(kind: str, records: Iterable) -> tuple:
    """``records`` sorted by id; two that share an id raise DuplicateId."""
    ordered = tuple(sorted(records, key=lambda r: r.id))
    for before, after in pairwise(ordered):
        if before.id == after.id:
            raise DuplicateId(f"duplicate {kind} id {after.id}")
    return ordered


def build_dataset(
    *,
    buses: Sequence[BusRecord],
    lines: Sequence[LineRecord],
    generators: Sequence[GeneratorRecord] = (),
    planning_areas: Sequence[Border] = (),
    area_loads: Sequence[AreaLoad] = (),
    city_polygons: Sequence[Border] = (),
    population_points: Sequence[PopulationPoint] = (),
) -> GridDataset:
    """Link, annotate, and freeze parsed records into a GridDataset.

    Raises DanglingReference for any cross-file id that does not
    resolve, DuplicateId for an id that two records of one kind share,
    and OverlappingAreas if two area polygons both hold a bus or
    population point strictly inside.
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
    areas = _by_id("planning area", planning_areas)
    loads = link_area_loads(area_loads, areas)

    population = aggregate_population(population_points, areas)
    annotated = assign_regions(buses, areas, _by_id("city", city_polygons))

    return GridDataset(
        buses=_by_id("bus", annotated),
        lines=_by_id("line", lines),
        generators=_by_id("generator", generators),
        planning_areas=tuple(
            PlanningArea(a.id, a.name, loads.get(a.id, 0.0), population[a.id]) for a in areas
        ),
    )


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Non-fatal dataset findings; hard errors raise during build."""

    unassigned_buses: tuple[str, ...] = ()
    isolated_buses: tuple[str, ...] = ()
    voltage_anomalies: tuple[str, ...] = ()
    duplicate_geometry: tuple[str, ...] = ()

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
    unassigned = tuple(b.id for b in dataset.buses if b.planning_area_id is None)

    ends = {bus for line in dataset.lines for bus in (line.endpoint_a, line.endpoint_b)}
    isolated = tuple(b.id for b in dataset.buses if b.id not in ends)

    kv = {b.id: b.voltage_kv for b in dataset.buses}
    anomalies = tuple(
        line.id
        for line in dataset.lines
        if line.voltage_kv > kv[line.endpoint_a] and line.voltage_kv > kv[line.endpoint_b]
    )

    duplicates = _repeats("buses", ((b.location, b.id) for b in dataset.buses))
    duplicates += _repeats("lines", ((l.geometry, l.id) for l in dataset.lines))

    return ValidationReport(
        unassigned_buses=unassigned,
        isolated_buses=isolated,
        voltage_anomalies=anomalies,
        duplicate_geometry=tuple(duplicates),
    )


def _repeats(kind: str, keyed_ids) -> list[str]:
    """``"<kind> <first id>,<id>"`` for each id whose key an earlier id holds.
    A None key never repeats: bare parallel circuits have no geometry."""
    first: dict = {}
    repeats = []
    for key, item_id in keyed_ids:
        if key in first:
            repeats.append(f"{kind} {first[key]},{item_id}")
        elif key is not None:
            first[key] = item_id
    return repeats


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
    buses = parse_buses(paths["buses"])
    return build_dataset(
        buses=buses,
        lines=parse_lines(paths["lines"], buses),
        generators=parse_generators(paths["generators"]),
        planning_areas=parse_planning_area_polygons(paths["planning_areas"]),
        area_loads=parse_hourly_loads(paths["hourly_loads"]),
        city_polygons=parse_city_polygons(paths["cities"]),
        population_points=parse_population_points(paths["population"]),
    )
