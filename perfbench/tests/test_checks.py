"""A corrupted output must fail its check and count as a failed pass."""

import json
from dataclasses import replace
from types import MappingProxyType

import pytest

import gridtopo.dispatch
from gridtopo.direction import Direction, Provenance
from gridtopo.dispatch import BusLoad
from perfbench import checks, passes
from perfbench.generate import GridSpec, generate, write_dataset
from perfbench.trace import NullTracer

SPEC = GridSpec(
    rows=6,
    cols=5,
    lines=38,
    area_ring_vertices=24,
    city_ring_vertices=24,
    population_points=12,
    load_years=2,
)


@pytest.fixture
def dataset_dir(tmp_path):
    data = generate(SPEC, 5)
    write_dataset(data, tmp_path / "data", tmp_path / "truth.json")
    return tmp_path


def _run(dataset_dir, workload):
    out = dataset_dir / f"out-{workload}"
    out.mkdir()
    outcome = passes.PASSES[workload](dataset_dir / "data", out, NullTracer())
    truth = json.loads((dataset_dir / "truth.json").read_text())
    return outcome, out, truth


@pytest.mark.parametrize("workload", sorted(passes.PASSES))
def test_clean_pass_has_no_failures(dataset_dir, workload):
    outcome, out, truth = _run(dataset_dir, workload)
    failures, provenance, digest = passes.check(workload, outcome, out, truth)
    assert failures == []
    assert sum(provenance.values()) == SPEC.lines
    assert len(digest) == 64
    counts = passes.decision_counts(outcome, provenance)
    assert counts["direction.residual_subgraphs"] >= 0


def _flip(orientation, line_id):
    directions = dict(orientation.directions)
    directions[line_id] = (
        Direction.B_TO_A if directions[line_id] is Direction.A_TO_B else Direction.A_TO_B
    )
    return replace(orientation, directions=MappingProxyType(directions))


def test_flipped_heuristic_line_fails(dataset_dir):
    outcome, _out, _truth = _run(dataset_dir, "paper_solve")
    line_id = next(
        l for l, p in outcome.orientation.provenance.items() if p is Provenance.TWO_END_VOLTAGE
    )
    flipped = _flip(outcome.orientation, line_id)
    assert checks.check_orientation(outcome.grid, outcome.snapshot, flipped)


def test_flipped_line_in_written_csv_fails(dataset_dir):
    outcome, _out, _truth = _run(dataset_dir, "backbone_7k")
    path = outcome.orientation_csv
    header, first, *rest = path.read_text().splitlines()
    line_id, frm, to, provenance = first.split(",")
    path.write_text("\n".join([header, f"{line_id},{to},{frm},{provenance}", *rest]) + "\n")
    assert checks.check_orientation(outcome.grid, outcome.snapshot, outcome.orientation, path)


def test_perturbed_bus_load_fails(dataset_dir):
    outcome, _out, _truth = _run(dataset_dir, "paper_solve")
    values = dict(outcome.bus_load.values)
    bus = sorted(values)[0]
    values[bus] += 1.0
    perturbed = BusLoad(values=MappingProxyType(values))
    assert checks.check_bus_load(perturbed, outcome.snapshot)
    assert checks.check_solution(
        outcome.solution, perturbed, outcome.snapshot, outcome.orientation, outcome.grid
    )


def test_wrong_objective_fails(dataset_dir):
    outcome, _out, _truth = _run(dataset_dir, "paper_solve")
    wrong = replace(outcome.solution, objective=outcome.solution.objective + 1.0)
    assert checks.check_solution(
        wrong, outcome.bus_load, outcome.snapshot, outcome.orientation, outcome.grid
    )


def test_wrong_demand_index_and_region_fail(dataset_dir):
    outcome, _out, truth = _run(dataset_dir, "digitized_borders")
    values = dict(outcome.index.values)
    values[sorted(values)[0]] *= 2.0
    wrong = replace(outcome.index, values=MappingProxyType(values))
    assert checks.check_demand_index(outcome.dataset, wrong)
    bus = sorted(truth["buses"])[0]
    truth["buses"][bus][1] = not truth["buses"][bus][1]
    assert checks.check_truth(outcome.dataset, truth)


def test_corrupted_output_counts_as_failed_pass(dataset_dir, monkeypatch):
    original = gridtopo.dispatch.estimate_bus_load

    def perturbed(*args):
        load = original(*args)
        values = dict(load.values)
        values[sorted(values)[0]] += 0.5
        return BusLoad(values=MappingProxyType(values))

    monkeypatch.setattr(gridtopo.dispatch, "estimate_bus_load", perturbed)
    truth = json.loads((dataset_dir / "truth.json").read_text())
    (dataset_dir / "out").mkdir()
    record = passes.run_pass(
        "backbone_7k", dataset_dir / "data", dataset_dir / "out", truth, traced=False
    )
    assert record["wall_s"] is not None
    assert not record["ok"]
    assert any("bus-load mass" in f for f in record["failures"])
