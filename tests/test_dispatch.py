import math
import random
from types import MappingProxyType

import pytest

from gridtopo.demand import DemandIndex
from gridtopo.dispatch import (
    estimate_bus_load,
    make_snapshot,
    reachable_buses,
    solve_flow_lp,
    write_solution_files,
)
from gridtopo.graph import build_grid
from gridtopo.ingest import load_dataset, serialize_snapshot_outputs

from helpers import (
    FIXTURES,
    lp_case,
    oracle_lp_objective,
    random_lp_instance,
    toy_dataset,
)


def index_of(values):
    return DemandIndex(values=MappingProxyType(dict(values)))


# --- snapshots -------------------------------------------------------------

def test_max_capacity_snapshot_copies_caps():
    dataset = toy_dataset(
        [("a", 138), ("b", 138)],
        [("l1", "a", "b", 138)],
        [("g1", "a", 815.0), ("g2", "b", 400.0)],
    )
    snap = make_snapshot(dataset, "max")
    assert dict(snap.outputs) == {"g1": 815.0, "g2": 400.0}
    assert snap.mode == "max" and snap.warnings == ()


def test_timepoint_defaults_missing_generators(tmp_path):
    dataset = toy_dataset(
        [("a", 138)], [], [("g1", "a", 100.0), ("g2", "a", 50.0)]
    )
    path = tmp_path / "Snapshot.csv"
    path.write_text("generator_id,output_mw\ng1,100.0\n", encoding="utf-8")
    snap = make_snapshot(dataset, "timepoint", path)
    assert dict(snap.outputs) == {"g1": 100.0, "g2": 0.0}
    assert any("g2" in w for w in snap.warnings)
    assert snap.label == "Snapshot"


def test_timepoint_accepts_overcapacity_with_warning(tmp_path):
    dataset = toy_dataset([("a", 138)], [], [("g1", "a", 10.0)])
    path = tmp_path / "Snapshot.csv"
    path.write_text("generator_id,output_mw\ng1,12.5\n", encoding="utf-8")
    snap = make_snapshot(dataset, "timepoint", path)
    assert snap.outputs["g1"] == 12.5
    assert any("exceeds capacity" in w for w in snap.warnings)


def test_timepoint_warns_on_unknown_generator(tmp_path):
    dataset = toy_dataset([("a", 138)], [], [("g1", "a", 10.0)])
    path = tmp_path / "Snapshot.csv"
    path.write_text("generator_id,output_mw\ng1,1.0\ngX,5.0\n", encoding="utf-8")
    snap = make_snapshot(dataset, "timepoint", path)
    assert "gX" not in snap.outputs
    assert any("gX" in w for w in snap.warnings)


def test_snapshot_mode_validation(tmp_path):
    dataset = toy_dataset([("a", 138)])
    with pytest.raises(ValueError):
        make_snapshot(dataset, "timepoint")
    with pytest.raises(ValueError):
        make_snapshot(dataset, "whatever")


# --- reachability ------------------------------------------------------------

def test_reachability_examples():
    grid, orientation, _snap, _load = lp_case(
        ["a", "b", "c"], [("l1", "a", "b"), ("l2", "b", "c")], {}, {}
    )
    assert reachable_buses(orientation, grid, "a") == {"a", "b", "c"}
    assert reachable_buses(orientation, grid, "c") == {"c"}

    grid, orientation, _snap, _load = lp_case(
        ["a", "b", "c", "d"],
        [("l1", "a", "b"), ("l2", "a", "c"), ("l3", "b", "d"), ("l4", "c", "d")],
        {},
        {},
    )
    assert reachable_buses(orientation, grid, "a") == {"a", "b", "c", "d"}


# --- load attribution ----------------------------------------------------------

def test_proportional_attribution():
    grid, orientation, snap, _ = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 100.0}, {}
    )
    load = estimate_bus_load(index_of({"a": 1.0, "b": 3.0}), snap, orientation, grid)
    assert load.values["a"] == pytest.approx(25.0)
    assert load.values["b"] == pytest.approx(75.0)


def test_generator_reaching_only_itself():
    grid, orientation, snap, _ = lp_case(
        ["a", "b"], [("l1", "b", "a")], {"a": 100.0}, {}
    )
    load = estimate_bus_load(index_of({"a": 5.0, "b": 5.0}), snap, orientation, grid)
    assert load.values["a"] == pytest.approx(100.0)
    assert load.values["b"] == 0.0


def test_superposed_generators_with_uniform_index():
    grid, orientation, snap, _ = lp_case(
        ["a", "b"],
        [("l1", "a", "b"), ("l2", "b", "a")],
        {"a": 50.0, "b": 50.0},
        {},
    )
    load = estimate_bus_load(index_of({"a": 1.0, "b": 1.0}), snap, orientation, grid)
    assert load.values["a"] == pytest.approx(50.0)
    assert load.values["b"] == pytest.approx(50.0)


def test_zero_index_sum_attributes_to_self():
    grid, orientation, snap, _ = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 40.0}, {}
    )
    load = estimate_bus_load(index_of({"a": 0.0, "b": 0.0}), snap, orientation, grid)
    assert load.values["a"] == pytest.approx(40.0)
    assert load.warnings and "zero demand index" in load.warnings[0]
    assert load.total() == pytest.approx(40.0)


def test_attribution_conserves_generation():
    rng = random.Random(616)
    for _ in range(30):
        bus_ids, arcs, caps, _loads = random_lp_instance(rng)
        grid, orientation, snap, _ = lp_case(bus_ids, arcs, caps, {})
        index = index_of({b: rng.uniform(0.1, 5.0) for b in bus_ids})
        load = estimate_bus_load(index, snap, orientation, grid)
        assert load.total() == pytest.approx(snap.total_output(), rel=1e-9, abs=1e-9)


# --- the flow LP -----------------------------------------------------------------

def test_lp_two_bus_forced_balance():
    grid, orientation, snap, load = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 10.0}, {"b": 10.0}
    )
    solution = solve_flow_lp(orientation, grid, load, snap)
    assert solution.flows["l1"] == pytest.approx(10.0, abs=1e-9)
    assert solution.injections["a"] == pytest.approx(10.0, abs=1e-9)
    assert solution.objective == pytest.approx(0.0, abs=1e-9)
    assert solution.max_residual <= 1e-6


def test_lp_chain_deficit_lands_downstream():
    grid, orientation, snap, load = lp_case(
        ["a", "b", "c"],
        [("l1", "a", "b"), ("l2", "b", "c")],
        {"a": 5.0},
        {"c": 8.0},
    )
    solution = solve_flow_lp(orientation, grid, load, snap)
    assert solution.objective == pytest.approx(3.0, abs=1e-9)
    assert solution.flows["l1"] == pytest.approx(5.0, abs=1e-9)
    assert solution.flows["l2"] == pytest.approx(5.0, abs=1e-9)
    assert solution.mismatch["c"] == pytest.approx(3.0, abs=1e-9)


def test_lp_diamond_split_totals_only():
    grid, orientation, snap, load = lp_case(
        ["a", "b", "c", "d"],
        [("l1", "a", "b"), ("l2", "b", "d"), ("l3", "a", "c"), ("l4", "c", "d")],
        {"a": 10.0},
        {"d": 10.0},
    )
    solution = solve_flow_lp(orientation, grid, load, snap)
    assert solution.objective == pytest.approx(0.0, abs=1e-9)
    # the split between the two branches is non-unique; only totals count
    assert solution.flows["l1"] + solution.flows["l3"] == pytest.approx(10.0, abs=1e-9)
    assert solution.flows["l2"] + solution.flows["l4"] == pytest.approx(10.0, abs=1e-9)


def test_lp_empty_grid():
    grid, orientation, snap, load = lp_case([], [], {}, {})
    solution = solve_flow_lp(orientation, grid, load, snap)
    assert solution.objective == 0.0
    assert solution.max_residual == 0.0


def test_lp_matches_bruteforce_oracle():
    rng = random.Random(31337)
    for _ in range(60):
        bus_ids, arcs, caps, loads = random_lp_instance(rng)
        grid, orientation, snap, load = lp_case(bus_ids, arcs, caps, loads)
        solution = solve_flow_lp(orientation, grid, load, snap)
        expected = oracle_lp_objective(bus_ids, arcs, caps, loads)
        assert solution.objective == pytest.approx(expected, abs=1e-6)
        assert solution.max_residual <= 1e-6


def test_lp_matches_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    import numpy as np

    rng = random.Random(90210)
    for _ in range(40):
        bus_ids, arcs, caps, loads = random_lp_instance(rng)
        grid, orientation, snap, load = lp_case(bus_ids, arcs, caps, loads)
        solution = solve_flow_lp(orientation, grid, load, snap)

        n, m = len(bus_ids), len(arcs)
        pos = {b: i for i, b in enumerate(bus_ids)}
        A = np.zeros((n, m + 2 * n))
        rhs = np.zeros(n)
        c = np.zeros(m + 2 * n)
        c[m + n :] = 1.0
        for col, (_lid, frm, to) in enumerate(arcs):
            A[pos[frm], col] -= 1.0
            A[pos[to], col] += 1.0
        for i, bus in enumerate(bus_ids):
            A[i, m + i] = 1.0
            A[i, m + n + i] = 1.0
            rhs[i] = loads.get(bus, 0.0)
        bounds = (
            [(0, None)] * m
            + [(0, caps.get(b, 0.0)) for b in bus_ids]
            + [(0, None)] * n
        )
        reference = linprog(c, A_eq=A, b_eq=rhs, bounds=bounds, method="highs")
        assert reference.status == 0
        assert solution.objective == pytest.approx(reference.fun, abs=1e-7)


def test_lp_matches_networkx_beyond_bruteforce_size():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4242)
    for _ in range(30):
        bus_ids, arcs, caps, loads = random_lp_instance(
            rng, min_buses=50, max_buses=500, max_lines=1000
        )
        grid, orientation, snap, load = lp_case(bus_ids, arcs, caps, loads)
        solution = solve_flow_lp(orientation, grid, load, snap)

        network = nx.DiGraph()
        network.add_nodes_from(("source", "sink"))
        for bus, cap in caps.items():
            network.add_edge("source", ("bus", bus), capacity=cap)
        for bus, demand in loads.items():
            network.add_edge(("bus", bus), "sink", capacity=demand)
        for _lid, frm, to in arcs:
            network.add_edge(("bus", frm), ("bus", to))  # no capacity: unbounded
        total_load = sum(loads.values())
        expected = total_load - nx.maximum_flow_value(network, "source", "sink")

        assert abs(solution.objective - expected) <= 1e-9 * max(1.0, total_load)
        assert solution.objective >= 0.0
        assert all(e >= 0.0 for e in solution.mismatch.values())
        assert all(f >= 0.0 for f in solution.flows.values())
        assert all(
            caps.get(bus, 0.0) - injection >= 0.0
            for bus, injection in solution.injections.items()
        )
        assert solution.max_residual <= 1e-6


def test_lp_rejects_negative_inputs():
    grid, orientation, snap, load = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": -1.0}, {"b": 1.0}
    )
    with pytest.raises(ValueError, match="generation"):
        solve_flow_lp(orientation, grid, load, snap)
    grid, orientation, snap, load = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 1.0}, {"b": -1.0}
    )
    with pytest.raises(ValueError, match="loads"):
        solve_flow_lp(orientation, grid, load, snap)


def test_lp_conservation_and_lower_bound():
    rng = random.Random(171717)
    for _ in range(50):
        bus_ids, arcs, caps, loads = random_lp_instance(rng)
        grid, orientation, snap, load = lp_case(bus_ids, arcs, caps, loads)
        solution = solve_flow_lp(orientation, grid, load, snap)
        total_load = sum(loads.values())
        total_cap = sum(caps.values())
        balance = (
            solution.total_injection()
            - total_load
            + math.fsum(solution.mismatch.values())
        )
        assert abs(balance) <= 1e-6
        assert solution.objective >= max(0.0, total_load - total_cap) - 1e-9
        assert all(f >= 0.0 for f in solution.flows.values())
        assert all(e >= 0.0 for e in solution.mismatch.values())


def test_lp_lower_bound_tight_on_complete_graph():
    # all-to-all connectivity: the only unavoidable deficit is cap shortfall
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randint(2, 5)
        bus_ids = [f"B{i}" for i in range(n)]
        arcs = []
        k = 0
        for a in bus_ids:
            for b in bus_ids:
                if a != b:
                    arcs.append((f"L{k}", a, b))
                    k += 1
        caps = {b: rng.uniform(0, 10) for b in bus_ids}
        loads = {b: rng.uniform(0, 10) for b in bus_ids}
        grid, orientation, snap, load = lp_case(bus_ids, arcs, caps, loads)
        solution = solve_flow_lp(orientation, grid, load, snap)
        expected = max(0.0, sum(loads.values()) - sum(caps.values()))
        assert solution.objective == pytest.approx(expected, abs=1e-6)


def test_full_pipeline_zero_mismatch_on_fixture():
    from gridtopo.demand import allocate_demand_index
    from gridtopo.direction import orient_all

    dataset = load_dataset(FIXTURES / "grid30")
    grid = build_grid(dataset)
    snap = make_snapshot(dataset, "max")
    orientation = orient_all(grid, snap, 42)
    index = allocate_demand_index(dataset)
    load = estimate_bus_load(index, snap, orientation, grid)
    solution = solve_flow_lp(orientation, grid, load, snap)
    # loads were attributed within reachable sets, so everything is servable
    assert solution.objective == pytest.approx(0.0, abs=1e-6)
    assert solution.max_residual <= 1e-6


def test_write_solution_files(tmp_path):
    grid, orientation, snap, load = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 10.0}, {"b": 10.0}
    )
    solution = solve_flow_lp(orientation, grid, load, snap)
    paths = write_solution_files(solution, orientation, grid, tmp_path / "out")
    flows = paths["flows"].read_text().splitlines()
    buses = paths["buses"].read_text().splitlines()
    assert flows[0] == "line_id,from_bus,to_bus,flow_mw"
    assert flows[1] == "l1,a,b,10.0"
    assert buses[0] == "bus_id,injection_mw,load_mw,epsilon_mw"
    assert "objective_mw = 0.0" in paths["summary"].read_text()


def test_serialize_snapshot_round_trip(tmp_path):
    from gridtopo.ingest import parse_snapshot_outputs

    outputs = {"g2": 4.25, "g1": 0.0}
    path = tmp_path / "Snapshot.csv"
    path.write_text(serialize_snapshot_outputs(outputs), encoding="utf-8")
    assert parse_snapshot_outputs(path) == outputs
