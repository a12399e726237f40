import math
import random

import pytest

from gridtopo.demand import (
    ConstantVector,
    ZeroVector,
    allocate_demand_index,
    cosine_similarity,
    pearson,
    similarity_report,
    write_demand_index_csv,
)
from gridtopo.ingest import load_dataset

from helpers import FIXTURES, toy_dataset


# --- similarity metrics ------------------------------------------------------

def test_cosine_orthogonal_and_colinear():
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)


def test_cosine_hand_computed():
    assert cosine_similarity([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-15)


def test_cosine_errors():
    with pytest.raises(ZeroVector):
        cosine_similarity([0, 0], [1, 2])
    with pytest.raises(ValueError):
        cosine_similarity([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        cosine_similarity([], [])


def test_pearson_exact_correlations():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_hand_computed():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)


def test_pearson_errors():
    with pytest.raises(ConstantVector):
        pearson([2, 2, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])


def _naive_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    return dot / (sum(x * x for x in a) ** 0.5 * sum(y * y for y in b) ** 0.5)


def _naive_pearson(a, b):
    n = len(a)
    ma, mb = sum(a) / n, sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / (va * vb) ** 0.5


def test_metrics_match_naive_oracles():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 100)
        a = [rng.uniform(0, 1000) for _ in range(n)]
        b = [rng.uniform(0, 1000) for _ in range(n)]
        assert abs(cosine_similarity(a, b) - _naive_cosine(a, b)) < 1e-12
        assert abs(pearson(a, b) - _naive_pearson(a, b)) < 1e-12


# --- similarity report ---------------------------------------------------------

def test_report_identical_vectors_score_one():
    dataset = toy_dataset(
        [("s1", 138, "A1"), ("s2", 138, "A2"), ("s3", 138, "A3")],
        area_specs=[("A1", 10.0, 100), ("A2", 20.0, 200), ("A3", 40.0, 400)],
    )
    (row,) = similarity_report(dataset, {"2021": {"A1": 100, "A2": 200, "A3": 400}})
    assert row.cosine == pytest.approx(1.0)
    assert row.pearson == pytest.approx(1.0)


def test_report_one_row_per_year_sorted():
    dataset = toy_dataset(
        [("s1", 138, "A1")],
        area_specs=[("A1", 10.0, 120), ("A2", 5.0, 60), ("A3", 2.0, 10)],
    )
    years = {"2022": {"A1": 9, "A2": 4, "A3": 2}, "2020": {"A1": 8, "A2": 6, "A3": 1}}
    rows = similarity_report(dataset, years)
    assert [r.year for r in rows] == ["2020", "2022"]


@pytest.mark.parametrize("years", [{"2021": {"A1": 10.0}}, {}])
def test_report_needs_two_planning_areas(years):
    dataset = toy_dataset([("s1", 138, "A1")], area_specs=[("A1", 10.0, 120)])
    with pytest.raises(ValueError) as err:
        similarity_report(dataset, years)
    assert str(err.value) == "similarity needs at least 2 planning areas, dataset has 1"


def test_report_matches_brute_force_on_fixture():
    dataset = load_dataset(FIXTURES / "grid30")
    population = [float(a.population) for a in dataset.planning_areas]
    yearly = {"x": {"A1": 280.0, "A2": 160.0, "A3": 45.0}}
    (row,) = similarity_report(dataset, yearly)
    loads = [280.0, 160.0, 45.0]
    assert abs(row.cosine - _naive_cosine(population, loads)) < 1e-12
    assert abs(row.pearson - _naive_pearson(population, loads)) < 1e-12


# --- demand allocation -----------------------------------------------------------

def test_worked_example_five_urban_three_rural():
    dataset = toy_dataset(
        [(f"u{i}", 138, "A1", True) for i in range(5)]
        + [(f"r{i}", 138, "A1", False) for i in range(3)],
        area_specs=[("A1", 100.0)],
    )
    index = allocate_demand_index(dataset, 0.848)
    for i in range(5):
        assert index.values[f"u{i}"] == pytest.approx(16.96, abs=1e-9)
    for i in range(3):
        assert index.values[f"r{i}"] == pytest.approx(15.2 / 3, abs=1e-9)


def test_two_urban_two_rural_split():
    dataset = toy_dataset(
        [("u1", 138, "A1", True), ("u2", 138, "A1", True),
         ("r1", 138, "A1", False), ("r2", 138, "A1", False)],
        area_specs=[("A1", 200.0)],
    )
    index = allocate_demand_index(dataset, 0.848)
    assert index.values["u1"] == pytest.approx(84.8)
    assert index.values["r1"] == pytest.approx(15.2)


def test_single_category_reassignment():
    dataset = toy_dataset([("u1", 138, "A1", True)], area_specs=[("A1", 50.0)])
    index = allocate_demand_index(dataset, 0.848)
    assert index.values["u1"] == pytest.approx(50.0)
    assert any("reassigned" in warning for warning in index.warnings)

    dataset = toy_dataset(
        [("r1", 138, "A1", False), ("r2", 138, "A1", False)],
        area_specs=[("A1", 30.0)],
    )
    index = allocate_demand_index(dataset, 0.848)
    assert index.values["r1"] == pytest.approx(15.0)


def test_urban_share_one_zeroes_rural():
    dataset = toy_dataset(
        [("u1", 138, "A1", True), ("r1", 138, "A1", False)],
        area_specs=[("A1", 80.0)],
    )
    index = allocate_demand_index(dataset, 1.0)
    assert index.values["u1"] == pytest.approx(80.0)
    assert index.values["r1"] == 0.0


def test_area_without_buses_is_flagged():
    dataset = toy_dataset(
        [("u1", 138, "A1", True)],
        area_specs=[("A1", 10.0), ("A9", 99.0)],
    )
    index = allocate_demand_index(dataset)
    assert any("A9" in warning for warning in index.warnings)
    assert math.fsum(index.values.values()) == pytest.approx(10.0)


def test_bus_outside_areas_gets_zero_and_flag():
    dataset = toy_dataset(
        [("u1", 138, "A1", True), ("lost", 138, None)],
        area_specs=[("A1", 10.0)],
    )
    index = allocate_demand_index(dataset)
    assert index.values["lost"] == 0.0
    assert any("outside" in warning for warning in index.warnings)


def test_invalid_urban_share_rejected():
    dataset = toy_dataset([("u1", 138, "A1", True)], area_specs=[("A1", 1.0)])
    with pytest.raises(ValueError):
        allocate_demand_index(dataset, 1.5)
    with pytest.raises(ValueError):
        allocate_demand_index(dataset, -0.1)


def test_mass_balance_on_random_areas():
    rng = random.Random(4011)
    for _ in range(100):
        areas = []
        buses = []
        for a in range(rng.randint(1, 5)):
            area_id = f"A{a}"
            areas.append((area_id, round(rng.uniform(0, 500), 3)))
            for b in range(rng.randint(1, 8)):
                buses.append((f"{area_id}b{b}", 138, area_id, rng.random() < 0.5))
        dataset = toy_dataset(buses, area_specs=areas)
        share = rng.random()
        index = allocate_demand_index(dataset, share)
        per_area = {area_id: 0.0 for area_id, _ in areas}
        for bus in dataset.buses:
            per_area[bus.planning_area_id] += index.values[bus.id]
        for area in dataset.planning_areas:
            expected = area.avg_hourly_load_mw
            got = per_area[area.id]
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
        for value in index.values.values():
            assert value >= 0.0


def test_equal_weights_within_category():
    dataset = toy_dataset(
        [("u1", 138, "A1", True), ("u2", 240, "A1", True), ("u3", 69, "A1", True),
         ("r1", 138, "A1", False), ("r2", 500, "A1", False)],
        area_specs=[("A1", 123.456)],
    )
    index = allocate_demand_index(dataset, 0.7)
    urban_values = {index.values["u1"], index.values["u2"], index.values["u3"]}
    rural_values = {index.values["r1"], index.values["r2"]}
    assert len(urban_values) == 1 and len(rural_values) == 1


def test_demand_index_csv(tmp_path):
    dataset = toy_dataset(
        [("b2", 138, "A1", True), ("b1", 138, "A1", False)],
        area_specs=[("A1", 10.0)],
    )
    index = allocate_demand_index(dataset)
    path = tmp_path / "demand_index.csv"
    write_demand_index_csv(index, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bus_id,rdi"
    assert lines[1].startswith("b1,") and lines[2].startswith("b2,")
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(10.0)
