"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines. Tolerances are pinned here, not configurable.
"""

import math
import random
import time

import pytest

from gridtopo.cli import cli_main
from gridtopo.demand import allocate_demand_index, cosine_similarity, pearson, similarity_report
from gridtopo.direction import apply_heuristics, entry_points, orient_all, residual_subgraphs
from gridtopo.dispatch import estimate_bus_load, make_snapshot, solve_flow_lp
from gridtopo.graph import build_grid
from gridtopo.ingest import load_dataset

from helpers import (
    FIXTURES,
    FIXTURE_NAMES,
    lp_case,
    oracle_lp_objective,
    random_connected_dataset,
    random_lp_instance,
    toy_dataset,
)

HEURISTIC_STABLE = ("TwoEndVoltage", "GeneratorSource")


def ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def run_pipeline(fixture: str, seed: int = 42):
    dataset = load_dataset(FIXTURES / fixture)
    grid = build_grid(dataset)
    snapshot = make_snapshot(dataset, "max")
    orientation = orient_all(grid, snapshot, seed)
    index = allocate_demand_index(dataset)
    bus_load = estimate_bus_load(index, snapshot, orientation, grid)
    return solve_flow_lp(orientation, grid, bus_load, snapshot)


def test_criterion_1_lp_residual_on_all_fixtures():
    """Every shipped fixture solves with nodal residual <= 1e-6, < 1 s total."""
    assert len(FIXTURE_NAMES) >= 6
    started = time.perf_counter()
    worst = 0.0
    for fixture in FIXTURE_NAMES:
        solution = run_pipeline(fixture)
        worst = max(worst, solution.max_residual)
        assert solution.max_residual <= 1e-6, fixture
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fixture solves took {elapsed:.3f}s"
    ok("1", f"{len(FIXTURE_NAMES)} fixtures, max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_lp_objective_matches_bruteforce_oracle():
    """200 random instances (<=6 buses, <=8 lines) agree with the
    enumeration oracle within 1e-6, in under 30 s."""
    rng = random.Random(20_2020)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        bus_ids, arcs, caps, loads = random_lp_instance(rng, max_buses=6, max_lines=8)
        grid, orientation, snapshot, bus_load = lp_case(bus_ids, arcs, caps, loads)
        solution = solve_flow_lp(orientation, grid, bus_load, snapshot)
        expected = oracle_lp_objective(bus_ids, arcs, caps, loads)
        deviation = abs(solution.objective - expected)
        worst = max(worst, deviation)
        assert deviation <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok("2", f"200 instances, worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_demand_allocation_worked_example():
    """RDI 100 over 5 urban + 3 non-urban buses: 16.96 and 5.0667 each."""
    dataset = toy_dataset(
        [(f"u{i}", 138, "A", True) for i in range(5)]
        + [(f"r{i}", 138, "A", False) for i in range(3)],
        area_specs=[("A", 100.0)],
    )
    index = allocate_demand_index(dataset, 0.848)
    for i in range(5):
        assert abs(index.values[f"u{i}"] - 16.96) <= 1e-4
    for i in range(3):
        assert abs(index.values[f"r{i}"] - 5.0667) <= 1e-4
    ok("3", "urban 16.96, non-urban 5.0667 within 1e-4")


def test_criterion_4_mass_balance_on_random_areas():
    """500 random area fixtures conserve per-area load within 1e-9 rel."""
    rng = random.Random(44_044)
    for trial in range(500):
        n_urban = rng.randint(0, 6)
        n_rural = rng.randint(0 if n_urban else 1, 6)
        load = rng.uniform(0.0, 1000.0)
        share = rng.random()
        buses = [(f"u{i}", 138, "A", True) for i in range(n_urban)]
        buses += [(f"r{i}", 138, "A", False) for i in range(n_rural)]
        dataset = toy_dataset(buses, area_specs=[("A", load)])
        index = allocate_demand_index(dataset, share)
        total = math.fsum(index.values.values())
        assert abs(total - load) <= 1e-9 * max(load, 1.0), trial
    ok("4", "500 random areas conserve load within 1e-9 relative")


def test_criterion_5_similarity_oracles_and_report_shape():
    """cosine/pearson match naive oracles within 1e-12 over 1,000 pairs;
    the report has one row per supplied year."""
    rng = random.Random(5_5055)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(2, 100)
        a = [rng.uniform(0.0, 1000.0) for _ in range(n)]
        b = [rng.uniform(0.0, 1000.0) for _ in range(n)]
        naive_cos = sum(x * y for x, y in zip(a, b)) / (
            sum(x * x for x in a) ** 0.5 * sum(y * y for y in b) ** 0.5
        )
        ma, mb = sum(a) / n, sum(b) / n
        cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
        naive_r = cov / (
            sum((x - ma) ** 2 for x in a) ** 0.5 * sum((y - mb) ** 2 for y in b) ** 0.5
        )
        worst = max(
            worst,
            abs(cosine_similarity(a, b) - naive_cos),
            abs(pearson(a, b) - naive_r),
        )
        assert worst <= 1e-12
    dataset = load_dataset(FIXTURES / "grid30")
    yearly = {
        "2020": {"A1": 280.0, "A2": 160.0, "A3": 45.0},
        "2021": {"A1": 300.0, "A2": 150.0, "A3": 60.0},
        "2022": {"A1": 315.0, "A2": 148.0, "A3": 72.0},
    }
    rows = similarity_report(dataset, yearly)
    assert [row.year for row in rows] == ["2020", "2021", "2022"]
    ok("5", f"1,000 vector pairs within {worst:.1e}; one report row per year")


@pytest.mark.skip(
    reason="data-dependent: requires the published provincial dataset, which is "
    "not bundled; with it supplied the 2021 row must reproduce cosine 0.8959 "
    "and Pearson 0.9080 within 5e-4"
)
def test_criterion_5_optional_published_dataset_similarity():
    pass


def test_criterion_6_orientation_totality_and_reachability():
    """500 random connected graphs (<=50 buses): total orientation,
    residual reachability from entries, heuristic stage seed-invariant."""
    rng = random.Random(66_066)
    for trial in range(500):
        dataset = random_connected_dataset(rng, max_buses=50)
        grid = build_grid(dataset)
        snapshot = make_snapshot(dataset, "max")
        seed_a, seed_b = rng.randrange(10_000), rng.randrange(10_000)

        orientation = orient_all(grid, snapshot, seed_a)
        assert set(orientation.directions) == set(grid.lines), trial
        assert len(orientation.directions) == len(grid.lines)

        other = orient_all(grid, snapshot, seed_b)
        assert dict(orientation.provenance) == dict(other.provenance)
        for line_id, provenance in orientation.provenance.items():
            if provenance.value in HEURISTIC_STABLE:
                assert orientation.directions[line_id] == other.directions[line_id]

        partial = apply_heuristics(grid, snapshot, seed_a)
        for subgraph in residual_subgraphs(grid, partial):
            entries, _ = entry_points(subgraph, grid, snapshot, partial)
            member = set(subgraph)
            lines = {
                line_id
                for line_id, line in grid.lines.items()
                if line_id not in partial.directions and line.endpoint_a in member
            }
            reached = set(entries)
            frontier = list(entries)
            while frontier:
                bus = frontier.pop()
                for line in grid.adjacency[bus]:
                    frm, to = orientation.from_to(line)
                    if line.id in lines and frm == bus and to not in reached:
                        reached.add(to)
                        frontier.append(to)
            assert reached == member, trial
    ok("6", "500 random graphs: total, reachable, heuristics seed-invariant")


def test_criterion_7_full_pipeline_byte_determinism(tmp_path, capsys):
    """Two identical CLI runs produce byte-identical orientation,
    solution, and GeoJSON artifacts."""
    outputs = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        solution_dir = run_dir / "solution"
        assert (
            cli_main(
                [
                    "solve",
                    "--data-dir",
                    str(FIXTURES / "grid30"),
                    "--seed",
                    "42",
                    "--out",
                    str(solution_dir),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "render",
                    "--data-dir",
                    str(FIXTURES / "grid30"),
                    "--seed",
                    "42",
                    "--format",
                    "geojson",
                    "--out",
                    str(run_dir / "render.geojson"),
                ]
            )
            == 0
        )
        outputs.append(
            {
                "orientation": (solution_dir / "orientation.csv").read_bytes(),
                "flows": (solution_dir / "flows.csv").read_bytes(),
                "buses": (solution_dir / "buses.csv").read_bytes(),
                "summary": (solution_dir / "summary.txt").read_bytes(),
                "geojson": (run_dir / "render.geojson").read_bytes(),
            }
        )
    capsys.readouterr()  # swallow the CLI chatter
    assert outputs[0] == outputs[1]
    ok("7", "orientation, solution, and GeoJSON byte-identical across runs")


@pytest.mark.skip(
    reason="data-dependent: requires the published provincial export; with it, "
    "heuristics must direct exactly 355 of 855 lines, and the morning-vs-"
    "baseline diff is reported informationally (seed-sensitive)"
)
def test_criterion_8_published_dataset_counts():
    pass
