"""Seeded synthetic grid datasets written as the package's CSV family.

A dataset is a planar lattice of buses on a 4 x 4 board of square
planning areas. A random spanning tree of the lattice keeps the grid
connected; further lattice edges are added until the line count is
reached. Buses get 69/138/240/500 kV classes, a share of them carry a
generator, and ten cells hold a city. ``Snapshot.csv`` takes a share
of the generators offline (0 MW), and optional ``HourlyLoad_<year>.csv``
files give per-year area loads for the similarity report.

Border rings have a chosen number of vertices. With 4 they are plain
squares; with more, every side of an area square is subdivided and its
interior vertices wiggle sideways like a digitized border, and each city
is a star-shaped ring around its cell centre. Two areas that share a
side share its vertices exactly.

Coordinates are continuous. Every bus and population point is kept at
least ``MARGIN`` away from every area and city border (area wiggles stay
within ``MARGIN / 2`` of the straight side), so the generator knows the
true planning area and urban flag of each one without a point-in-polygon
test. This keeps the data clear of a known defect: a point that lies on
the shared border of two planning areas aborts ``build_dataset`` with
``OverlappingAreas``. That defect is covered by the package's tests, not
by this benchmark.

The same seed and spec give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

__all__ = ["GridSpec", "Dataset", "WORKLOAD_SPECS", "generate", "write_dataset"]

CELL = 100.0  # side of one planning-area square
AREA_CELLS = 4  # planning areas form an AREA_CELLS x AREA_CELLS board
CITIES = 10
GENERATOR_SHARE = 0.10  # buses with a generator
MARGIN = 1.0  # minimum distance of a bus or population point from a border
KV_WEIGHTS = ((69.0, 0.35), (138.0, 0.40), (240.0, 0.15), (500.0, 0.10))
KV_CLASS = {69.0: 0, 138.0: 1, 240.0: 2, 500.0: 2}  # 240 and 500 kV merge
FUELS = ("GAS", "COAL", "HYDRO", "WIND", "SOLAR")
FREE_FLOW_SHARE = 0.04  # lines rated below both endpoint classes
ANOMALY_SHARE = 0.02  # lines rated above both endpoint classes


@dataclass(frozen=True)
class GridSpec:
    """Shape of one synthetic dataset."""

    rows: int
    cols: int
    lines: int  # exact line count, at least rows * cols - 1
    area_ring_vertices: int = 4
    city_ring_vertices: int = 4
    population_points: int = 40
    offline_share: float = 0.20  # generators at 0 MW in Snapshot.csv
    load_years: int = 0  # HourlyLoad_<year>.csv files

    @property
    def buses(self) -> int:
        return self.rows * self.cols


WORKLOAD_SPECS = {
    # Each pass takes 3-5 s on a 2-vCPU 2.1 GHz Xeon, so a 30 s run holds
    # six to ten of them and its median rides out the host's slow spells
    # of a few seconds. That puts paper_solve at half the paper's 855 lines.
    # The solve pipeline: 324 buses, 426 lines, plain square borders.
    "paper_solve": GridSpec(rows=18, cols=18, lines=426),
    # A 7k-bus backbone; half the generators report 0 MW at the time point.
    "backbone_7k": GridSpec(rows=84, cols=84, lines=9880, offline_share=0.5),
    # 600 buses under digitized borders of ~500 vertices per ring.
    "digitized_borders": GridSpec(
        rows=24,
        cols=25,
        lines=800,
        area_ring_vertices=500,
        city_ring_vertices=500,
        population_points=300,
        load_years=3,
    ),
}


@dataclass(frozen=True)
class Dataset:
    """CSV file texts plus the ground truth the generator knows."""

    files: dict  # file name -> text
    truth: dict  # "buses": bus id -> [area id, is_urban]; "population": area id -> total


def _csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _num(value: float) -> str:
    return repr(round(value, 4))


def _warp(p: float, k: int) -> float:
    """Map a position in cell units to world units, clear of cell borders."""
    cell = min(int(p), k - 1)
    return cell * CELL + MARGIN + (p - cell) * (CELL - 2 * MARGIN)


def _side_vertices(rng: random.Random, start, end, count: int):
    """Interior vertices of one area side, wiggling within MARGIN / 2."""
    (x0, y0), (x1, y1) = start, end
    nx, ny = (y0 - y1) / CELL, (x1 - x0) / CELL  # unit normal
    phase, freq = rng.uniform(0.0, 2 * math.pi), rng.randint(2, 6)
    points = []
    for i in range(1, count):
        t = i / count
        offset = 0.5 * MARGIN * (
            0.6 * math.sin(2 * math.pi * freq * t + phase) + 0.4 * rng.uniform(-1.0, 1.0)
        )
        points.append(
            (
                round(x0 + (x1 - x0) * t + nx * offset, 4),
                round(y0 + (y1 - y0) * t + ny * offset, 4),
            )
        )
    return points


def _area_rings(rng: random.Random, k: int, vertices: int):
    """Ring per area cell (cx, cy); shared sides share their vertices."""
    per_side = max(1, vertices // 4)
    horizontal = {}  # (row of the side, column) -> vertices, left to right
    vertical = {}  # (column of the side, row) -> vertices, bottom to top
    for r in range(k + 1):
        for c in range(k):
            horizontal[r, c] = _side_vertices(
                rng, (c * CELL, r * CELL), ((c + 1) * CELL, r * CELL), per_side
            )
    for c in range(k + 1):
        for r in range(k):
            vertical[c, r] = _side_vertices(
                rng, (c * CELL, r * CELL), (c * CELL, (r + 1) * CELL), per_side
            )
    rings = {}
    for cy in range(k):
        for cx in range(k):
            x0, y0, x1, y1 = cx * CELL, cy * CELL, (cx + 1) * CELL, (cy + 1) * CELL
            rings[cx, cy] = (
                [(x0, y0)]
                + horizontal[cy, cx]
                + [(x1, y0)]
                + vertical[cx + 1, cy]
                + [(x1, y1)]
                + horizontal[cy + 1, cx][::-1]
                + [(x0, y1)]
                + vertical[cx, cy][::-1]
            )
    return rings


def _city_ring(rng: random.Random, centre, radius: float, vertices: int):
    """A square (4 vertices) or a wiggly star-shaped ring around ``centre``."""
    cx, cy = centre
    if vertices == 4:
        return [
            (cx - radius, cy - radius),
            (cx + radius, cy - radius),
            (cx + radius, cy + radius),
            (cx - radius, cy + radius),
        ]
    phases = [rng.uniform(0.0, 2 * math.pi) for _ in range(3)]
    ring = []
    for j in range(vertices):
        theta = 2 * math.pi * j / vertices
        wiggle = (
            0.08 * math.sin(3 * theta + phases[0])
            + 0.05 * math.sin(7 * theta + phases[1])
            + 0.02 * math.sin(19 * theta + phases[2])
        )
        r = radius * (1.0 + wiggle)
        ring.append((round(cx + r * math.cos(theta), 4), round(cy + r * math.sin(theta), 4)))
    return ring


def _radii(ring, centre):
    """(inner, outer): every point nearer than inner is inside the
    star-shaped ring, every point farther than outer is outside."""
    cx, cy = centre
    outer = max(math.hypot(x - cx, y - cy) for x, y in ring)
    inner = math.inf
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        dx, dy = bx - ax, by - ay
        t = max(0.0, min(1.0, ((cx - ax) * dx + (cy - ay) * dy) / (dx * dx + dy * dy)))
        inner = min(inner, math.hypot(ax + t * dx - cx, ay + t * dy - cy))
    return inner, outer


def _spanning_lines(rng: random.Random, rows: int, cols: int, count: int):
    """A random spanning tree of the lattice plus extra lattice edges."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    if not rows * cols - 1 <= count <= len(edges):
        raise ValueError(f"line count {count} outside [{rows * cols - 1}, {len(edges)}]")
    rng.shuffle(edges)
    parent = list(range(rows * cols))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tree, rest = [], []
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            rest.append((a, b))
        else:
            parent[ra] = rb
            tree.append((a, b))
    return sorted(tree + rest[: count - len(tree)])


def _line_kv(rng: random.Random, kv_a: float, kv_b: float) -> float:
    low_class = min(KV_CLASS[kv_a], KV_CLASS[kv_b])
    high_class = max(KV_CLASS[kv_a], KV_CLASS[kv_b])
    draw = rng.random()
    if draw < FREE_FLOW_SHARE and low_class > 0:
        return rng.choice([kv for kv, cls in KV_CLASS.items() if cls < low_class])
    if draw > 1.0 - ANOMALY_SHARE and high_class < 2:
        return rng.choice([kv for kv, cls in KV_CLASS.items() if cls > high_class])
    return min(kv_a, kv_b)


def generate(spec: GridSpec, seed: int) -> Dataset:
    """Build the CSV family for ``spec`` from ``seed``."""
    rng = random.Random(seed)
    k = AREA_CELLS
    area_id = {(cx, cy): f"A{cy * k + cx + 1:02d}" for cy in range(k) for cx in range(k)}

    # Cities sit at the centres of distinct cells.
    city_cells = sorted(rng.sample(sorted(area_id), CITIES))
    cities = []
    for n, (cx, cy) in enumerate(city_cells, start=1):
        centre = ((cx + 0.5) * CELL, (cy + 0.5) * CELL)
        radius = rng.uniform(0.22, 0.28) * CELL
        ring = _city_ring(rng, centre, radius, spec.city_ring_vertices)
        cities.append((f"C{n:02d}", (cx, cy), centre, ring, _radii(ring, centre)))

    # Buses: jittered lattice, warped away from area borders, then pushed
    # radially out of the uncertain band around any city border.
    bus_rows, truth = [], {}
    kv_values = [kv for kv, _ in KV_WEIGHTS]
    kv_weights = [w for _, w in KV_WEIGHTS]
    bus_kv = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            px = (c + 0.5 + rng.uniform(-0.35, 0.35)) / spec.cols * k
            py = (r + 0.5 + rng.uniform(-0.35, 0.35)) / spec.rows * k
            x, y = _warp(px, k), _warp(py, k)
            cell = (int(x // CELL), int(y // CELL))
            urban = False
            for _cid, city_cell, (ccx, ccy), _ring, (inner, outer) in cities:
                if city_cell != cell:
                    continue
                dist = math.hypot(x - ccx, y - ccy)
                if inner - MARGIN <= dist <= outer + MARGIN:
                    target = (
                        inner - MARGIN * rng.uniform(1.1, 2.0)
                        if dist - inner < outer - dist
                        else outer + MARGIN * rng.uniform(1.1, 2.0)
                    )
                    x = ccx + (x - ccx) * target / dist
                    y = ccy + (y - ccy) * target / dist
                    dist = target
                urban = dist < inner
            x, y = round(x, 4), round(y, 4)
            bus_id = f"B{r * spec.cols + c:05d}"
            kv = rng.choices(kv_values, kv_weights)[0]
            bus_kv.append(kv)
            bus_rows.append((bus_id, f"Bus {r * spec.cols + c}", _num(x), _num(y), repr(kv)))
            truth[bus_id] = [area_id[cell], urban]

    line_rows = []
    for n, (a, b) in enumerate(_spanning_lines(rng, spec.rows, spec.cols, spec.lines)):
        if rng.random() < 0.5:
            a, b = b, a
        kv = _line_kv(rng, bus_kv[a], bus_kv[b])
        (_, _, xa, ya, _), (_, _, xb, yb, _) = bus_rows[a], bus_rows[b]
        line_rows.append(
            (f"L{n:05d}", bus_rows[a][0], bus_rows[b][0], repr(kv),
             f"LINESTRING ({xa} {ya}, {xb} {yb})")
        )

    gen_buses = sorted(rng.sample(range(spec.buses), round(GENERATOR_SHARE * spec.buses)))
    gen_rows, caps = [], []
    for n, bus in enumerate(gen_buses, start=1):
        cap = round(rng.uniform(20.0, 400.0), 1)
        caps.append(cap)
        gen_rows.append((f"G{n:05d}", bus_rows[bus][0], repr(cap), rng.choice(FUELS)))
    offline = set(rng.sample(range(len(gen_rows)), round(spec.offline_share * len(gen_rows))))
    snapshot_rows = [
        (row[0], repr(0.0 if n in offline else round(caps[n] * rng.uniform(0.3, 1.0), 1)))
        for n, row in enumerate(gen_rows)
    ]

    area_rings = _area_rings(rng, k, spec.area_ring_vertices)
    border_rows = [
        (area_id[cell], f"Area {area_id[cell]}", 0, v, _num(x), _num(y))
        for cell in sorted(area_id, key=area_id.get)
        for v, (x, y) in enumerate(area_rings[cell])
    ]
    city_rows = [
        (cid, f"City {cid}", 0, v, _num(x), _num(y))
        for cid, _cell, _centre, ring, _radii_ in cities
        for v, (x, y) in enumerate(ring)
    ]
    population_rows = []
    area_population = {aid: 0 for aid in area_id.values()}
    for n in range(spec.population_points):
        cid, cell, (ccx, ccy), _ring, (inner, _outer) = cities[n % len(cities)]
        theta = rng.uniform(0.0, 2 * math.pi)
        dist = (inner - 2 * MARGIN) * math.sqrt(rng.random())
        population_rows.append(
            (cid, _num(ccx + dist * math.cos(theta)), _num(ccy + dist * math.sin(theta)),
             rng.randint(100, 50000))
        )
        area_population[area_id[cell]] += population_rows[-1][3]

    loads = {aid: round(rng.uniform(50.0, 600.0), 1) for aid in sorted(area_id.values())}
    load_header = ("area_id", "name", "avg_hourly_load_mw")
    files = {
        "Substation.csv": _csv(("id", "name", "x", "y", "voltage_kv"), bus_rows),
        "Line.csv": _csv(("id", "bus_a", "bus_b", "voltage_kv", "wkt_geometry"), line_rows),
        "Generator.csv": _csv(("id", "bus_id", "max_capacity_mw", "fuel_type"), gen_rows),
        "Snapshot.csv": _csv(("generator_id", "output_mw"), snapshot_rows),
        "PlanningAreaBorder.csv": _csv(
            ("area_id", "name", "ring_index", "vertex_index", "x", "y"), border_rows
        ),
        "CityBorder.csv": _csv(
            ("city_id", "name", "ring_index", "vertex_index", "x", "y"), city_rows
        ),
        "CityPopulationPoint.csv": _csv(("city_id", "x", "y", "population"), population_rows),
        "HourlyLoad.csv": _csv(
            load_header, [(aid, f"Area {aid}", repr(load)) for aid, load in loads.items()]
        ),
    }
    for year in range(2020, 2020 + spec.load_years):
        files[f"HourlyLoad_{year}.csv"] = _csv(
            load_header,
            [
                (aid, f"Area {aid}", repr(round(load * rng.uniform(0.9, 1.1), 1)))
                for aid, load in loads.items()
            ],
        )
    return Dataset(files=files, truth={"buses": truth, "population": area_population})


def write_dataset(dataset: Dataset, data_dir: Path, truth_path: Path) -> None:
    """Write the CSV family into ``data_dir`` and the ground truth as JSON."""
    data_dir.mkdir(parents=True, exist_ok=True)
    for name, text in dataset.files.items():
        (data_dir / name).write_text(text, encoding="utf-8")
    truth_path.write_text(json.dumps(dataset.truth, sort_keys=True), encoding="utf-8")
