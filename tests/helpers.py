"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import argparse
import math
from pathlib import Path
from types import MappingProxyType

from gridtopo.cli import _build_parser
from gridtopo.direction import Direction, Orientation, Provenance
from gridtopo.dispatch import BusLoad, GenerationSnapshot
from gridtopo.geometry import PlanarPoint, PlanarPolygon
from gridtopo.graph import Grid, build_grid
from gridtopo.ingest import (
    BusRecord,
    CityPolygon,
    GeneratorRecord,
    GridDataset,
    LineRecord,
    PlanningArea,
    PopulationPoint,
)

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())

_DUMMY_RING = (
    PlanarPoint(0.0, 0.0),
    PlanarPoint(1.0, 0.0),
    PlanarPoint(1.0, 1.0),
)


def write_latin1_substations(path, bad_row: int, newline: str = "\n", bom: bool = False) -> None:
    """A 2,001-row Substation.csv encoded as Latin-1; physical row
    ``bad_row`` (the header is row 1) holds the one non-UTF-8 byte."""
    rows = ["id,name,x,y,voltage_kv"]
    rows += [f"B{n},Bus {n},{n}.0,0.0,138.0" for n in range(2, 2002)]
    rows[bad_row - 1] = rows[bad_row - 1].replace(",", "\u00e9,", 1)
    text = newline.join(rows) + newline
    Path(path).write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode("latin-1"))


def command_flags() -> dict[str, set[str]]:
    """Each ``gridtopo`` subcommand's option strings, ``--help`` aside."""
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }


def dummy_polygon() -> PlanarPolygon:
    return PlanarPolygon((_DUMMY_RING,))


def toy_dataset(bus_specs, line_specs=(), gen_specs=(), area_specs=()) -> GridDataset:
    """Assemble a GridDataset directly, bypassing file parsing.

    bus_specs:  (id, kv[, area_id[, urban]])
    line_specs: (id, bus_a, bus_b, kv)
    gen_specs:  (id, bus_id, capacity_mw)
    area_specs: (id, avg_hourly_load_mw[, population])
    """
    buses = []
    for n, spec in enumerate(bus_specs):
        bus_id, kv, *rest = spec
        area = rest[0] if len(rest) > 0 else None
        urban = rest[1] if len(rest) > 1 else False
        buses.append(
            BusRecord(
                bus_id,
                bus_id,
                PlanarPoint(float(n), float(n % 7)),
                float(kv),
                area,
                bool(urban),
            )
        )
    lines = [LineRecord(i, a, b, float(kv)) for i, a, b, kv in line_specs]
    gens = [GeneratorRecord(i, bus, float(cap), "GAS") for i, bus, cap in gen_specs]
    areas = []
    for spec in area_specs:
        area_id, load, *rest = spec
        areas.append(
            PlanningArea(
                area_id,
                area_id,
                dummy_polygon(),
                float(load),
                int(rest[0]) if rest else 0,
            )
        )
    return GridDataset(
        buses=tuple(sorted(buses, key=lambda b: b.id)),
        lines=tuple(sorted(lines, key=lambda l: l.id)),
        generators=tuple(sorted(gens, key=lambda g: g.id)),
        planning_areas=tuple(sorted(areas, key=lambda a: a.id)),
        city_polygons=(),
    )


def make_orientation(grid: Grid, endpoints) -> Orientation:
    """Orientation from a {line_id: (from_bus, to_bus)} mapping."""
    directions = {}
    for line_id, (frm, to) in endpoints.items():
        line = grid.lines[line_id]
        if (frm, to) == (line.endpoint_a, line.endpoint_b):
            directions[line_id] = Direction.A_TO_B
        elif (frm, to) == (line.endpoint_b, line.endpoint_a):
            directions[line_id] = Direction.B_TO_A
        else:
            raise ValueError(f"{line_id}: {frm}->{to} does not match endpoints")
    provenance = {line_id: Provenance.BFS_TREE for line_id in directions}
    return Orientation(
        directions=MappingProxyType(directions),
        provenance=MappingProxyType(provenance),
    )


def lp_case(bus_ids, arcs, caps, loads):
    """Standalone LP instance: returns (grid, orientation, snapshot, bus_load).

    arcs: [(line_id, from_bus, to_bus)]; caps/loads: {bus: MW}.
    """
    dataset = toy_dataset(
        [(b, 138.0) for b in bus_ids],
        [(line_id, frm, to, 138.0) for line_id, frm, to in arcs],
        [(f"G_{b}", b, caps.get(b, 0.0)) for b in bus_ids if b in caps],
    )
    grid = build_grid(dataset)
    orientation = make_orientation(
        grid, {line_id: (frm, to) for line_id, frm, to in arcs}
    )
    snapshot = GenerationSnapshot(
        outputs=MappingProxyType({b: float(v) for b, v in caps.items()})
    )
    bus_load = BusLoad(
        values=MappingProxyType({b: float(loads.get(b, 0.0)) for b in bus_ids})
    )
    return grid, orientation, snapshot, bus_load


def random_lp_instance(rng, max_buses=6, max_lines=8, min_buses=2):
    n = rng.randint(min_buses, max_buses)
    bus_ids = [f"B{i}" for i in range(n)]
    m = rng.randint(1, max_lines)
    arcs = []
    for j in range(m):
        frm, to = rng.sample(bus_ids, 2)
        arcs.append((f"L{j}", frm, to))
    caps = {
        b: round(rng.uniform(0.0, 20.0), 3)
        for b in bus_ids
        if rng.random() > 0.25
    }
    loads = {
        b: round(rng.uniform(0.0, 20.0), 3)
        for b in bus_ids
        if rng.random() > 0.25
    }
    return bus_ids, arcs, caps, loads


def oracle_lp_objective(bus_ids, arcs, caps, loads) -> float:
    """Brute-force oracle for the flow LP objective.

    The objective equals total load minus the maximum total generation
    routable to load sinks, i.e. total load minus the max flow of
    source->caps->lines(inf)->loads->sink. Max flow equals the minimum
    cut, and every cut corresponds to a bus subset closed under
    outgoing arcs (an arc leaving the subset would cost infinity), so
    exhaustively enumerating all 2^n subsets is exact.
    """
    n = len(bus_ids)
    index = {b: i for i, b in enumerate(bus_ids)}
    pairs = [(frm, to) for _id, frm, to in arcs]
    best = math.inf
    for mask in range(1 << n):
        inside = {b for b in bus_ids if (mask >> index[b]) & 1}
        if any(frm in inside and to not in inside for frm, to in pairs):
            continue
        cut = sum(loads.get(b, 0.0) for b in inside) + sum(
            caps.get(b, 0.0) for b in bus_ids if b not in inside
        )
        best = min(best, cut)
    return sum(loads.values()) - best


def random_connected_dataset(rng, max_buses=50):
    """Random connected multigraph dataset for orientation properties."""
    n = rng.randint(2, max_buses)
    kv_levels = [25.0, 69.0, 138.0, 240.0, 500.0]
    bus_specs = [(f"B{i:02d}", rng.choice(kv_levels)) for i in range(n)]
    line_specs = []
    for i in range(1, n):  # random spanning tree keeps it connected
        other = rng.randrange(i)
        line_specs.append(
            (f"L{len(line_specs):03d}", f"B{i:02d}", f"B{other:02d}", rng.choice(kv_levels))
        )
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        line_specs.append(
            (f"L{len(line_specs):03d}", f"B{a:02d}", f"B{b:02d}", rng.choice(kv_levels))
        )
    gen_specs = []
    for i in range(n):
        if rng.random() < 0.3:
            cap = round(rng.uniform(0.0, 100.0), 1) if rng.random() > 0.2 else 0.0
            gen_specs.append((f"G{i:02d}", f"B{i:02d}", cap))
    return toy_dataset(bus_specs, line_specs, gen_specs)


def _square(x0, y0, x1, y1) -> PlanarPolygon:
    ring = (PlanarPoint(x0, y0), PlanarPoint(x1, y0), PlanarPoint(x1, y1), PlanarPoint(x0, y1))
    return PlanarPolygon((ring,))


def planar_lattice_records(rng, rows, cols, areas_per_side=4, cities=10) -> dict:
    """Seeded planar-lattice grid as ``build_dataset`` keyword arguments.

    Buses sit at cell centres of a rows x cols lattice with 69/138/240/500
    kV classes. A random spanning tree keeps the grid connected and
    further lattice edges bring the line count to about 1.4 per bus; a
    few lines are rated below both endpoints. One bus in ten has a
    generator, half of them at 0 MW, so the residual stage sees many
    subgraphs. Cell borders cut the lattice into areas_per_side**2
    rectangular planning areas, so no bus lies on an area border, and
    ``cities`` one-cell squares carry a population point each.
    """
    cell = 10.0
    ids = [[f"B{r:03d}_{c:03d}" for c in range(cols)] for r in range(rows)]
    kv = {
        bus: rng.choices((69.0, 138.0, 240.0, 500.0), (0.35, 0.4, 0.15, 0.1))[0]
        for row in ids
        for bus in row
    }
    buses = [
        BusRecord(bus, bus, PlanarPoint((c + 0.5) * cell, (r + 0.5) * cell), kv[bus])
        for r, row in enumerate(ids)
        for c, bus in enumerate(row)
    ]
    edges = [(ids[r][c], ids[r][c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(ids[r][c], ids[r + 1][c]) for r in range(rows - 1) for c in range(cols)]
    rng.shuffle(edges)
    parent = {bus: bus for bus in kv}

    def root(bus):
        while parent[bus] != bus:
            parent[bus] = parent[parent[bus]]
            bus = parent[bus]
        return bus

    tree, extra = [], []
    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            extra.append((a, b))
        else:
            parent[ra] = rb
            tree.append((a, b))
    chosen = tree + extra[: int(0.4 * len(kv)) + 1]
    lines = []
    for n, (a, b) in enumerate(chosen):
        rating = min(kv[a], kv[b])
        if rng.random() < 0.04 and rating > 69.0:
            rating = 69.0  # below both endpoint classes: a free-flow line
        lines.append(LineRecord(f"L{n:05d}", a, b, rating))
    generators = [
        GeneratorRecord(f"G{n:05d}", bus.id, rng.uniform(10.0, 500.0) if n % 2 else 0.0, "GAS")
        for n, bus in enumerate(rng.sample(buses, len(buses) // 10))
    ]
    xs = [cell * (j * cols // areas_per_side) for j in range(areas_per_side + 1)]
    ys = [cell * (i * rows // areas_per_side) for i in range(areas_per_side + 1)]
    planning_areas = [
        PlanningArea(f"A{i}{j}", f"A{i}{j}", _square(xs[j], ys[i], xs[j + 1], ys[i + 1]))
        for i in range(areas_per_side)
        for j in range(areas_per_side)
    ]
    city_cells = rng.sample([(r, c) for r in range(rows) for c in range(cols)], cities)
    city_polygons = [
        CityPolygon(f"C{n}", f"C{n}", _square(c * cell, r * cell, (c + 1) * cell, (r + 1) * cell))
        for n, (r, c) in enumerate(city_cells)
    ]
    population_points = [
        PopulationPoint(f"C{n}", PlanarPoint((c + 0.25) * cell, (r + 0.25) * cell), 1000)
        for n, (r, c) in enumerate(city_cells)
    ]
    return {
        "buses": buses,
        "lines": lines,
        "generators": generators,
        "planning_areas": planning_areas,
        "city_polygons": city_polygons,
        "population_points": population_points,
    }
