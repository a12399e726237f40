from dataclasses import replace

import pytest

from gridtopo.ingest import load_dataset
from perfbench import checks
from perfbench.generate import WORKLOAD_SPECS, GridSpec, generate, write_dataset

SMALL = GridSpec(
    rows=8,
    cols=6,
    lines=60,
    area_ring_vertices=40,
    city_ring_vertices=40,
    population_points=20,
    load_years=2,
)


def scaled(name: str) -> GridSpec:
    """The workload's spec on a 12 x 10 lattice, borders unchanged."""
    return replace(WORKLOAD_SPECS[name], rows=12, cols=10, lines=150)


def test_same_seed_same_bytes():
    first, second = generate(SMALL, 7), generate(SMALL, 7)
    assert first.files == second.files
    assert first.truth == second.truth
    assert generate(SMALL, 8).files != first.files


def test_workload_sizes_are_exact():
    data = generate(WORKLOAD_SPECS["paper_solve"], 3)
    assert len(data.files["Substation.csv"].splitlines()) - 1 == 324
    assert len(data.files["Line.csv"].splitlines()) - 1 == 426


def test_ring_vertex_counts():
    files = generate(scaled("digitized_borders"), 1).files
    vertices = {}
    for row in files["PlanningAreaBorder.csv"].splitlines()[1:]:
        area = row.split(",")[0]
        vertices[area] = vertices.get(area, 0) + 1
    assert set(vertices.values()) == {500}


def test_line_count_outside_lattice_is_rejected():
    with pytest.raises(ValueError):
        generate(replace(SMALL, lines=10), 1)


@pytest.mark.parametrize("name", sorted(WORKLOAD_SPECS))
def test_generated_dataset_loads_and_matches_truth(tmp_path, name):
    spec = WORKLOAD_SPECS[name] if name == "paper_solve" else scaled(name)
    data = generate(spec, 11)
    write_dataset(data, tmp_path / "data", tmp_path / "truth.json")
    dataset = load_dataset(tmp_path / "data")
    assert len(dataset.buses) == spec.buses
    assert len(dataset.lines) == spec.lines
    assert checks.check_truth(dataset, data.truth) == []
