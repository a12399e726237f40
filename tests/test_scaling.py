"""Scaling guards: ingest-to-orientation work, CSV loading and the
solve chain must grow about linearly, region assignment walks about one
polygon per point, a paper-scale solve through the CLI stays fast, the
solve chain's heap peak grows about linearly under a pinned bound, one
parse keeps one object per distinct value, and one load hands its lines
the buses' own ids and locations."""

import dataclasses
import gc
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import gridtopo
from gridtopo import ingest
from gridtopo.demand import allocate_demand_index, write_demand_index_csv
from gridtopo.direction import orient_all, write_orientation_csv
from gridtopo.dispatch import (
    estimate_bus_load,
    make_snapshot,
    solve_flow_lp,
    write_solution_files,
)
from gridtopo.geometry import locate
from gridtopo.graph import build_grid
from gridtopo.ingest import DATASET_FILES, AreaLoad, build_dataset, load_dataset

from helpers import (
    FIXTURE_NAMES,
    FIXTURES,
    lattice_dataset,
    lattice_records,
    planar_lattice_records,
    serialize_buses,
    serialize_city_polygons,
    serialize_generators,
    serialize_hourly_loads,
    serialize_lines,
    serialize_planning_area_polygons,
    serialize_population_points,
)


def _cpu_seconds(work, arg) -> float:
    gc.collect()  # start each run with the same collector state
    start = time.process_time()
    work(arg)
    return time.process_time() - start


def _assert_about_linear(work, small, large) -> None:
    # 39 x 39 = 1521 and 78 x 78 = 6084 buses: about four times the work
    # if it is linear, sixteen if it is quadratic in buses or lines. The
    # sizes alternate and each keeps its fastest of three runs, so a slow
    # spell of a shared host hits both sizes alike.
    runs = [(_cpu_seconds(work, small), _cpu_seconds(work, large)) for _ in range(3)]
    best_small = min(s for s, _ in runs)
    best_large = min(l for _, l in runs)
    assert best_large / best_small < 8.0, f"{best_small:.3f} s -> {best_large:.3f} s"


def _build_and_orient(records) -> None:
    dataset = build_dataset(**records)
    orient_all(build_grid(dataset), make_snapshot(dataset))


def test_build_and_orient_scale_linearly():
    small = planar_lattice_records(random.Random(5), 39, 39)
    large = planar_lattice_records(random.Random(5), 78, 78)
    _assert_about_linear(_build_and_orient, small, large)


def test_region_assignment_walks_about_one_polygon_per_point(monkeypatch):
    # 1521 buses and 10 population points against 16 planning areas and
    # 10 cities: a point lies in one area's bounding box and seldom in a
    # city's, so a box test before each walk leaves about one walk per
    # point, where a walk per (point, polygon) pair makes 39,661.
    records = planar_lattice_records(random.Random(5), 39, 39)
    calls = 0

    def counting_locate(point, polygon):
        nonlocal calls
        calls += 1
        return locate(point, polygon)

    monkeypatch.setattr(ingest, "locate", counting_locate)
    build_dataset(**records)
    points = len(records["buses"]) + len(records["population_points"])
    assert calls <= 2 * points, f"{calls} locate calls for {points} points"


def _solve_chain(case) -> None:
    grid, snapshot, orientation, demand_index, out_dir = case
    load = estimate_bus_load(demand_index, snapshot, orientation, grid)
    solution = solve_flow_lp(orientation, grid, load, snapshot)
    write_solution_files(solution, orientation, grid, out_dir)
    write_orientation_csv(orientation, grid, out_dir / "orientation.csv")


def _solve_case(rows, cols, out_dir):
    dataset = lattice_dataset(random.Random(5), rows, cols, positive_caps=True)
    grid = build_grid(dataset)
    snapshot = make_snapshot(dataset)
    orientation = orient_all(grid, snapshot)
    return grid, snapshot, orientation, allocate_demand_index(dataset), out_dir


def test_solve_chain_scales_linearly(tmp_path):
    # Bus loads, the flow solve and both writers, every generator online.
    small = _solve_case(39, 39, tmp_path / "small")
    large = _solve_case(78, 78, tmp_path / "large")
    _assert_about_linear(_solve_chain, small, large)


def _write_dataset(records, data_dir) -> None:
    """Write ``records`` as the canonical file family through the
    ``serialize_*`` helpers; without ``area_loads`` in ``records``, every
    area loads 100 MW."""
    loads = records.get("area_loads") or [
        AreaLoad(a.id, a.name, 100.0) for a in records["planning_areas"]
    ]
    records = {**records, "area_loads": loads}
    texts = {
        "buses": serialize_buses(records["buses"]),
        "lines": serialize_lines(records["lines"]),
        "generators": serialize_generators(records["generators"]),
        "planning_areas": serialize_planning_area_polygons(records["planning_areas"]),
        "cities": serialize_city_polygons(records["city_polygons"]),
        "population": serialize_population_points(records["population_points"]),
        "hourly_loads": serialize_hourly_loads(loads),
    }
    for key, name in DATASET_FILES.items():
        ingest.write_text(data_dir / name, texts[key])
    assert load_dataset(data_dir) == build_dataset(**records)


def test_load_dataset_from_csv_scales_linearly(tmp_path):
    small, large = tmp_path / "small", tmp_path / "large"
    _write_dataset(planar_lattice_records(random.Random(5), 39, 39), small)
    _write_dataset(planar_lattice_records(random.Random(5), 78, 78), large)
    _assert_about_linear(load_dataset, small, large)


def test_paper_scale_solve_through_the_cli_takes_under_a_second(tmp_path):
    # 25 x 25 = 625 buses and 875 lines, about the paper's 855. The
    # wall time counts the fresh interpreter's start and imports too.
    data, out = tmp_path / "data", tmp_path / "solution"
    _write_dataset(planar_lattice_records(random.Random(5), 25, 25), data)
    src = str(Path(gridtopo.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "gridtopo", "solve", "--data-dir", str(data), "--out", str(out)]
    started = time.perf_counter()
    result = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - started
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("objective=")
    assert elapsed < 1.0, f"paper-scale solve took {elapsed:.3f} s"


def solve_chain_heap(data_dir, out_dir) -> dict[str, tuple[int, int]]:
    """Run ``solve`` without a snapshot on the CSV family in ``data_dir``
    under tracemalloc, writing to ``out_dir``; return each stage's live
    bytes after it and its peak, in chain order. A stage's peak counts
    from the end of the stage before, so the largest is the chain's peak."""
    stages: dict[str, tuple[int, int]] = {}

    def done(stage: str) -> None:
        stages[stage] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()

    gc.collect()  # the collector starts each chain from the same counts
    tracemalloc.start()
    try:
        dataset = load_dataset(data_dir)
        done("load_dataset")
        grid = build_grid(dataset)
        done("build_grid")
        snapshot = make_snapshot(dataset)
        done("make_snapshot")
        orientation = orient_all(grid, snapshot)
        done("orient_all")
        index = allocate_demand_index(dataset)
        done("allocate_demand_index")
        load = estimate_bus_load(index, snapshot, orientation, grid)
        done("estimate_bus_load")
        solution = solve_flow_lp(orientation, grid, load, snapshot)
        done("solve_flow_lp")
        write_solution_files(solution, orientation, grid, out_dir)
        write_orientation_csv(orientation, grid, out_dir / "orientation.csv")
        write_demand_index_csv(index, out_dir / "demand_index.csv")
        done("writers")
    finally:
        tracemalloc.stop()
    return stages


def _drawn_lines(records) -> list:
    """``records``' lines, each drawn from its bus a through the left edge
    of bus a's lattice cell to its bus b. That bend lies on x = 0 for a
    bus in the first column, so the geometries repeat pairs with a zero
    coordinate as well as nonzero ones."""
    at = {bus.id: bus.location for bus in records["buses"]}
    return [
        dataclasses.replace(
            line, geometry=(a := at[line.endpoint_a], (a[0] - 5.0, a[1]), at[line.endpoint_b])
        )
        for line in records["lines"]
    ]


def chain_peaks_per_element(work_dir) -> tuple[float, float]:
    """The solve chain's heap peak in bytes per (bus + line) on a 25 x 25
    and a 50 x 50 ``lattice_records`` grid, its lines drawn as
    ``_drawn_lines`` draws them, written to CSV under ``work_dir``. Needs
    no pytest, so any interpreter can run it:

        PYTHONPATH=src:tests python -c "import tempfile, test_scaling as t; \\
            print(t.chain_peaks_per_element(t.Path(tempfile.mkdtemp())))"
    """
    peaks = []
    for side in (25, 50):
        records = lattice_records(random.Random(5), side, side, positive_caps=True)
        records["lines"] = _drawn_lines(records)
        data = Path(work_dir) / f"data_{side}"
        _write_dataset(records, data)
        stages = solve_chain_heap(data, Path(work_dir) / f"solution_{side}")
        elements = len(records["buses"]) + len(records["lines"])
        peaks.append(max(peak for _, peak in stages.values()) / elements)
    return peaks[0], peaks[1]


#: The larger grid's chain peak per (bus + line), in bytes, by Python
#: minor version: the value measured with 3.10.13 and 3.11.7, plus a 5%
#: margin for patch releases. A change may lower a pin, never raise it;
#: only a change of the gate's grid re-pins it.
CHAIN_PEAK_PER_ELEMENT = {(3, 10): 603, (3, 11): 538}


def test_solve_chain_heap_is_about_linear_and_under_the_pin(tmp_path):
    # Four times the buses and lines: a linear heap keeps its peak per
    # element, a quadratic one would quadruple it. The smaller grid's
    # fixed costs weigh more, so its figure is the larger one.
    small, large = chain_peaks_per_element(tmp_path)
    assert large < 1.25 * small, f"{small:.0f} -> {large:.0f} B per bus + line"
    pin = CHAIN_PEAK_PER_ELEMENT.get(sys.version_info[:2])
    if pin is not None:  # an unpinned version checks the ratio only
        assert large <= pin, f"{large:.0f} B per bus + line, pinned at {pin}"


def _assert_one_object_per_nonzero_pair(points) -> None:
    """Every pair with no zero coordinate is one object per value, and
    every occurrence of a pair with a zero coordinate is its own."""
    zeros = [p for p in points if not (p[0] and p[1])]
    assert len(set(zeros)) < len(zeros), "no zero pair repeats, so the gate cannot see one shared"
    nonzero = {p for p in points if p[0] and p[1]}
    assert len({id(p) for p in points}) == len(nonzero) + len(zeros)


def test_one_parse_keeps_one_object_per_distinct_value(tmp_path):
    records = lattice_records(random.Random(5), 25, 25)
    records["lines"] = _drawn_lines(records)
    _write_dataset(records, tmp_path)
    dataset = load_dataset(tmp_path)

    _assert_one_object_per_nonzero_pair([p for line in dataset.lines for p in line.geometry])
    areas = ingest.parse_planning_area_polygons(tmp_path / DATASET_FILES["planning_areas"])
    rings = [ring[:-1] for area in areas for ring in area.boundary.rings]
    _assert_one_object_per_nonzero_pair([p for ring in rings for p in ring])
    for kind in (dataset.buses, dataset.lines):
        volts = [record.voltage_kv for record in kind]
        assert len({id(kv) for kv in volts}) == len(set(volts))
    # neighbouring areas hold their common vertices as one object
    common = 0
    for ring, other in itertools.combinations(rings, 2):
        theirs = {p: p for p in other}
        for p in ring:
            if p in theirs and p[0] and p[1]:
                assert p is theirs[p]
                common += 1
    assert common


def test_one_load_reuses_each_bus_id_and_location_in_its_lines(tmp_path):
    records = lattice_records(random.Random(5), 25, 25)
    records["lines"] = _drawn_lines(records)
    _write_dataset(records, tmp_path)
    dataset = load_dataset(tmp_path)

    ids = {bus.id: bus.id for bus in dataset.buses}
    locations = {bus.location: bus.location for bus in dataset.buses}
    assert len(locations) == len(dataset.buses), "two buses share a location"
    at_buses, zeros = 0, []
    for line in dataset.lines:
        assert line.endpoint_a is ids[line.endpoint_a]
        assert line.endpoint_b is ids[line.endpoint_b]
        for p in line.geometry:
            if not (p[0] and p[1]):
                zeros.append(p)
            elif p in locations:
                assert p is locations[p]
                at_buses += 1
    assert at_buses >= 2 * len(dataset.lines)
    # a pair with a zero coordinate is its own object at each occurrence
    assert len(set(zeros)) < len(zeros), "no zero pair repeats, so the gate cannot see one shared"
    assert len({id(p) for p in zeros}) == len(zeros)


def _load_without_shared_buses(data_dir):
    """``load_dataset(data_dir)``, but with the lines parsed on their own."""
    paths = {key: Path(data_dir) / name for key, name in DATASET_FILES.items()}
    return build_dataset(
        buses=ingest.parse_buses(paths["buses"]),
        lines=ingest.parse_lines(paths["lines"]),
        generators=ingest.parse_generators(paths["generators"]),
        planning_areas=ingest.parse_planning_area_polygons(paths["planning_areas"]),
        area_loads=ingest.parse_hourly_loads(paths["hourly_loads"]),
        city_polygons=ingest.parse_city_polygons(paths["cities"]),
        population_points=ingest.parse_population_points(paths["population"]),
    )


def test_load_dataset_reads_as_the_lines_parsed_without_buses(tmp_path):
    records = lattice_records(random.Random(5), 25, 25)
    records["lines"] = _drawn_lines(records)
    _write_dataset(records, tmp_path)
    for data_dir in [tmp_path, *(FIXTURES / name for name in FIXTURE_NAMES)]:
        assert repr(load_dataset(data_dir)) == repr(_load_without_shared_buses(data_dir)), data_dir
