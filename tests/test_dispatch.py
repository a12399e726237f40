import dataclasses
import math
import random
import re
import shutil
import time
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import dispatch
from gridtopo.demand import DemandIndex, allocate_demand_index
from gridtopo.direction import orient_all
from gridtopo.dispatch import (
    GenerationSnapshot,
    estimate_bus_load,
    make_snapshot,
    reachable_buses,
    solve_flow_lp,
    write_solution_files,
)
from gridtopo.graph import build_grid
from gridtopo.ingest import (
    GeneratorRecord,
    load_dataset,
    parse_generators,
    parse_snapshot_outputs,
)

from helpers import (
    FIXTURE_NAMES,
    FIXTURES,
    lattice_dataset,
    lp_case,
    oracle_lp_objective,
    random_connected_dataset,
    random_lp_instance,
    serialize_generators,
    serialize_snapshot_outputs,
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
    assert dict(snap.outputs) == {"a": 815.0, "b": 400.0}
    assert snap.warnings == ()


def test_timepoint_defaults_missing_generators(tmp_path):
    dataset = toy_dataset(
        [("a", 138), ("b", 138)], [], [("g1", "a", 100.0), ("g2", "b", 50.0)]
    )
    path = tmp_path / "Snapshot.csv"
    path.write_text("generator_id,output_mw\ng1,100.0\n", encoding="utf-8")
    snap = make_snapshot(dataset, "timepoint", path)
    assert dict(snap.outputs) == {"a": 100.0, "b": 0.0}
    assert any("g2" in w for w in snap.warnings)


def test_timepoint_accepts_overcapacity_with_warning(tmp_path):
    dataset = toy_dataset([("a", 138)], [], [("g1", "a", 10.0)])
    path = tmp_path / "Snapshot.csv"
    path.write_text("generator_id,output_mw\ng1,12.5\n", encoding="utf-8")
    snap = make_snapshot(dataset, "timepoint", path)
    assert snap.outputs["a"] == 12.5
    assert any("exceeds capacity" in w for w in snap.warnings)


def test_timepoint_warns_on_unknown_generator(tmp_path):
    dataset = toy_dataset([("a", 138)], [], [("g1", "a", 10.0)])
    path = tmp_path / "Snapshot.csv"
    path.write_text("generator_id,output_mw\ng1,1.0\ngX,5.0\n", encoding="utf-8")
    snap = make_snapshot(dataset, "timepoint", path)
    assert dict(snap.outputs) == {"a": 1.0}
    assert any("gX" in w for w in snap.warnings)


def test_snapshot_mode_validation(tmp_path):
    dataset = toy_dataset([("a", 138)])
    with pytest.raises(ValueError):
        make_snapshot(dataset, "timepoint")
    with pytest.raises(ValueError):
        make_snapshot(dataset, "whatever")
    missing = tmp_path / "no" / "such" / "Snapshot.csv"
    with pytest.raises(ValueError, match=re.escape(str(missing))):
        make_snapshot(dataset, "max", missing)


def _stacked_fixture(name, root):
    """Copy of fixture ``name`` under ``root`` that stacks three more
    generators on each generator's bus, with capacities whose float sum
    depends on its order, and a Snapshot.csv that omits one generator,
    puts one above capacity and lists two unknown ones."""
    data = root / name
    shutil.copytree(FIXTURES / name, data)
    rng = random.Random(name)
    gens = parse_generators(data / "Generator.csv")
    gens += [
        GeneratorRecord(f"{g.id}_{k}", g.bus_id, rng.choice([0.1, 0.2, 0.3, 1e16]), "GAS")
        for g in gens
        for k in range(3)
    ]
    gens.sort(key=lambda g: g.id)
    (data / "Generator.csv").write_text(serialize_generators(gens), encoding="utf-8")
    reported = {g.id: rng.choice([0.0, g.max_capacity_mw / 3]) for g in gens[1:]}
    reported[gens[-1].id] = 2 * gens[-1].max_capacity_mw + 1.0
    reported.update({"Z_unknown": 5.0, "A_unknown": 1.0})
    (data / "Snapshot.csv").write_text(serialize_snapshot_outputs(reported), encoding="utf-8")
    return data


def _reference_snapshot(data, mode):
    """Per-generator outputs and warnings read straight from the files,
    then summed per bus in generator id order from 0.0."""
    gens = sorted(parse_generators(data / "Generator.csv"), key=lambda g: g.id)
    if mode == "max":
        reported = {g.id: g.max_capacity_mw for g in gens}
    else:
        reported = parse_snapshot_outputs(data / "Snapshot.csv")
    warnings = []
    for g in gens:
        if g.id not in reported:
            warnings.append(f"generator {g.id} missing from snapshot; output set to 0")
        elif reported[g.id] > g.max_capacity_mw:
            warnings.append(
                f"generator {g.id} output {reported[g.id]} exceeds capacity "
                f"{g.max_capacity_mw}; accepted"
            )
    unknown = sorted(set(reported) - {g.id for g in gens})
    warnings += [f"snapshot lists unknown generator {g}; ignored" for g in unknown]
    outputs = {
        bus: sum((reported.get(g.id, 0.0) for g in gens if g.bus_id == bus), 0.0)
        for bus in {g.bus_id for g in gens}
    }
    return outputs, warnings


@pytest.mark.parametrize("stacked", [False, True], ids=["shipped", "stacked"])
@pytest.mark.parametrize("mode", ["max", "timepoint"])
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_snapshot_sums_each_bus_like_the_per_generator_reference(tmp_path, fixture, mode, stacked):
    data = _stacked_fixture(fixture, tmp_path) if stacked else FIXTURES / fixture
    snapshot_path = data / "Snapshot.csv" if mode == "timepoint" else None
    snap = make_snapshot(load_dataset(data), mode, snapshot_path)
    outputs, warnings = _reference_snapshot(data, mode)
    assert dict(snap.outputs) == outputs
    assert list(snap.warnings) == warnings
    if stacked and mode == "timepoint":
        kinds = ("missing from snapshot", "exceeds capacity", "unknown generator")
        assert all(any(kind in w for w in warnings) for kind in kinds)


# --- reachability ------------------------------------------------------------

def test_reachability_examples():
    grid, orientation, _snap, _load = lp_case(
        ["a", "b", "c"], [("l1", "a", "b"), ("l2", "b", "c")], {}, {}
    )
    assert set(reachable_buses(orientation, grid, "a")) == {"a", "b", "c"}
    assert set(reachable_buses(orientation, grid, "c")) == {"c"}

    grid, orientation, _snap, _load = lp_case(
        ["a", "b", "c", "d"],
        [("l1", "a", "b"), ("l2", "a", "c"), ("l3", "b", "d"), ("l4", "c", "d")],
        {},
        {},
    )
    assert set(reachable_buses(orientation, grid, "a")) == {"a", "b", "c", "d"}


def test_reach_walk_records_the_line_that_first_reached_each_bus():
    grid, orientation, _snap, _load = lp_case(
        ["a", "b", "c", "d"],
        [("l1", "a", "b"), ("l2", "a", "c"), ("l3", "b", "d"), ("l4", "c", "d")],
        {},
        {},
    )
    parents = reachable_buses(orientation, grid, "a")
    assert parents["a"] is None
    assert parents["b"] is grid.lines["l1"] and parents["c"] is grid.lines["l2"]
    assert parents["d"] in (grid.lines["l3"], grid.lines["l4"])
    order = list(parents)
    for bus, line in parents.items():
        if line is not None:
            frm, _to = orientation.from_to(line)
            assert order.index(frm) < order.index(bus)


def _reach_cases(tmp_path):
    """Every fixture, and 20 random connected grids with a drawn Snapshot.csv,
    each as (grid, snapshot) in both snapshot modes."""
    for name in FIXTURE_NAMES:
        dataset = load_dataset(FIXTURES / name)
        for mode in ("max", "timepoint"):
            path = FIXTURES / name / "Snapshot.csv" if mode == "timepoint" else None
            yield build_grid(dataset), make_snapshot(dataset, mode, path)
    rng = random.Random(2718)
    for case in range(20):
        dataset = random_connected_dataset(rng, max_buses=40)
        path = tmp_path / f"Snapshot{case}.csv"
        reported = {g.id: rng.choice([0.0, g.max_capacity_mw / 2]) for g in dataset.generators}
        path.write_text(serialize_snapshot_outputs(reported), encoding="utf-8")
        yield build_grid(dataset), make_snapshot(dataset, "max")
        yield build_grid(dataset), make_snapshot(dataset, "timepoint", path)


def test_reach_walk_matches_networkx_descendants_and_hands_on_line_records(tmp_path):
    nx = pytest.importorskip("networkx")
    walks = 0
    for grid, snap in _reach_cases(tmp_path):
        orientation = orient_all(grid, snap, 42)
        oriented = nx.DiGraph()
        oriented.add_nodes_from(grid.adjacency)
        oriented.add_edges_from(orientation.from_to(line) for line in grid.lines.values())
        for bus in grid.adjacency:
            if snap.outputs.get(bus, 0.0) <= 0.0:
                continue
            parents = reachable_buses(orientation, grid, bus)
            assert set(parents) == {bus} | nx.descendants(oriented, bus)
            order = list(parents)
            assert order[0] == bus and parents[bus] is None
            for member, line in list(parents.items())[1:]:
                assert line is grid.lines[line.id]
                frm, to = orientation.from_to(line)
                assert to == member
                assert order.index(frm) < order.index(member)
            walks += 1
    assert walks > 100


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


def test_routing_carries_each_share_down_the_reach_tree():
    grid, orientation, snap, _ = lp_case(
        ["a", "b", "c", "d"],
        [("l1", "a", "b"), ("l2", "b", "c"), ("l3", "b", "d"), ("l4", "d", "a")],
        {"a": 100.0},
        {},
    )
    load = estimate_bus_load(
        index_of({"a": 1.0, "b": 1.0, "c": 2.0, "d": 4.0}), snap, orientation, grid
    )
    # a feeds b, and b feeds c and d; l4 closes a cycle back to a
    assert dict(load.routing) == pytest.approx({"l1": 87.5, "l2": 25.0, "l3": 50.0})


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


def _assert_matches_networkx(attributed: bool) -> None:
    """With ``attributed``, the loads and the starting flow come from
    ``estimate_bus_load``; without, the loads are random and the solve
    starts from zero flow."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(4242)
    for _ in range(30):
        bus_ids, arcs, caps, loads = random_lp_instance(
            rng, min_buses=50, max_buses=500, max_lines=1000
        )
        grid, orientation, snap, load = lp_case(bus_ids, arcs, caps, loads)
        if attributed:
            index = index_of({b: rng.uniform(0.0, 5.0) for b in bus_ids})
            load = estimate_bus_load(index, snap, orientation, grid)
            loads = dict(load.values)
        solution = solve_flow_lp(orientation, grid, load, snap)
        if attributed:
            assert solution.iterations == 0

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


def test_lp_cancels_flow_to_reach_a_load_a_forward_walk_cannot():
    # a serves c first; b reaches d only through c, cancelling a's flow
    # on l1 back to a, which then serves d.
    grid, orientation, snap, load = lp_case(
        ["a", "b", "c", "d"],
        [("l1", "a", "c"), ("l2", "a", "d"), ("l3", "b", "c")],
        {"a": 1.0, "b": 1.0},
        {"c": 1.0, "d": 1.0},
    )
    solution = solve_flow_lp(orientation, grid, load, snap)
    assert solution.objective == 0.0
    assert dict(solution.flows) == {"l1": 0.0, "l2": 1.0, "l3": 1.0}
    assert solution.iterations == 2
    assert solution.max_residual == 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lp_matches_networkx_on_any_float_outputs_and_loads(data):
    """Outputs and loads are any nonnegative floats up to 1e6 MW,
    subnormals included, for which float sums still balance within
    1e-6 MW: the max-flow compares its bottlenecks with 0.0 exactly."""
    nx = pytest.importorskip("networkx")
    n = data.draw(st.integers(2, 7), label="buses")
    bus_ids = [f"B{i}" for i in range(n)]
    ends = st.tuples(st.sampled_from(bus_ids), st.sampled_from(bus_ids))
    pairs = data.draw(st.lists(ends.filter(lambda p: p[0] != p[1]), min_size=1, max_size=10))
    arcs = [(f"L{j}", frm, to) for j, (frm, to) in enumerate(pairs)]
    mw = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True)
    caps = data.draw(st.dictionaries(st.sampled_from(bus_ids), mw), label="outputs")
    loads = data.draw(st.dictionaries(st.sampled_from(bus_ids), mw), label="loads")
    grid, orientation, snap, load = lp_case(bus_ids, arcs, caps, loads)
    solution = solve_flow_lp(orientation, grid, load, snap)

    network = nx.DiGraph()
    network.add_nodes_from(("source", "sink"))
    for bus, cap in caps.items():
        network.add_edge("source", bus, capacity=cap)
    for bus, demand in loads.items():
        network.add_edge(bus, "sink", capacity=demand)
    for _lid, frm, to in arcs:
        network.add_edge(frm, to)  # no capacity: unbounded
    total_load = math.fsum(loads.values())
    expected = total_load - nx.maximum_flow_value(network, "source", "sink")
    assert abs(solution.objective - expected) <= 1e-9 * max(1.0, total_load)
    assert all(f >= 0.0 for f in solution.flows.values())
    assert all(e >= 0.0 for e in solution.mismatch.values())
    assert solution.max_residual <= 1e-6


def test_lp_matches_networkx_beyond_bruteforce_size():
    _assert_matches_networkx(attributed=False)


def test_lp_matches_networkx_from_the_attribution_routing():
    _assert_matches_networkx(attributed=True)


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
    grid, orientation, snap, load = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 1.0}, {"b": 1.0}
    )
    nan_load = dataclasses.replace(load, values={"a": math.nan, "b": 1.0})
    with pytest.raises(ValueError, match="loads.*bus a"):
        solve_flow_lp(orientation, grid, nan_load, snap)
    infinite = GenerationSnapshot(outputs={"a": math.inf})
    with pytest.raises(ValueError, match="generation.*bus a"):
        solve_flow_lp(orientation, grid, load, infinite)
    routed = dataclasses.replace(load, routing={"l1": 1.0})
    with pytest.raises(ValueError, match="generation.*bus a"):
        solve_flow_lp(orientation, grid, routed, infinite)


def test_lp_refuses_a_negative_or_non_finite_routing():
    grid, orientation, snap, load = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 1.0}, {"b": 1.0}
    )
    for routed in (-1.0, math.inf, math.nan):
        bad = dataclasses.replace(load, routing={"l1": routed})
        with pytest.raises(ValueError, match="line l1"):
            solve_flow_lp(orientation, grid, bad, snap)


def _two_bus_case():
    return lp_case(["a", "b"], [("l1", "a", "b")], {"a": 1.0}, {"b": 1.0})


def test_lp_refuses_loads_on_a_bus_outside_the_grid():
    grid, orientation, snap, load = _two_bus_case()
    stray = dataclasses.replace(load, values={**load.values, "z": 2.0, "y": 1.0})
    with pytest.raises(ValueError, match="^bus loads name bus y, which is not in the grid$"):
        solve_flow_lp(orientation, grid, stray, snap)


def test_lp_refuses_outputs_on_a_bus_outside_the_grid():
    grid, orientation, snap, load = _two_bus_case()
    stray = GenerationSnapshot(outputs={**snap.outputs, "z": 2.0, "y": 1.0})
    with pytest.raises(ValueError, match="^generation outputs name bus y, which is not in the grid$"):
        solve_flow_lp(orientation, grid, load, stray)


def test_lp_refuses_routed_flow_on_a_line_outside_the_grid():
    grid, orientation, snap, load = _two_bus_case()
    stray = dataclasses.replace(load, routing={"l1": 1.0, "l9": 0.5, "l8": 0.0})
    with pytest.raises(ValueError, match="^routed flows name line l8, which is not in the grid$"):
        solve_flow_lp(orientation, grid, stray, snap)


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


# --- starting from the attribution's routing ------------------------------------

def _attributed(dataset, mode="max", snapshot_path=None):
    """Orient ``dataset`` and attribute its loads as ``solve`` does."""
    grid = build_grid(dataset)
    snap = make_snapshot(dataset, mode, snapshot_path)
    orientation = orient_all(grid, snap, 42)
    load = estimate_bus_load(allocate_demand_index(dataset), snap, orientation, grid)
    return grid, orientation, snap, load


def test_full_pipeline_zero_mismatch_on_fixture():
    grid, orientation, snap, load = _attributed(load_dataset(FIXTURES / "grid30"))
    solution = solve_flow_lp(orientation, grid, load, snap)
    # loads were attributed within reachable sets, so everything is servable
    assert solution.objective == pytest.approx(0.0, abs=1e-6)
    assert solution.max_residual <= 1e-6


def _assert_warm_matches_cold(grid, orientation, snap, load):
    warm = solve_flow_lp(orientation, grid, load, snap)
    cold = solve_flow_lp(orientation, grid, dataclasses.replace(load, routing=None), snap)
    tolerance = 1e-9 * max(1.0, cold.total_load())
    assert warm.iterations == 0
    assert abs(warm.objective - cold.objective) <= tolerance
    for bus in cold.injections:
        assert abs(warm.injections[bus] - cold.injections[bus]) <= tolerance
        assert abs(warm.mismatch[bus] - cold.mismatch[bus]) <= tolerance
    assert warm.max_residual <= 1e-6
    assert all(f >= 0.0 for f in warm.flows.values())


@pytest.mark.parametrize("mode", ["max", "timepoint"])
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_warm_solve_matches_cold_solve_on_fixtures(fixture, mode):
    data = FIXTURES / fixture
    snapshot_path = data / "Snapshot.csv" if mode == "timepoint" else None
    _assert_warm_matches_cold(*_attributed(load_dataset(data), mode, snapshot_path))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(4, 16),
    cols=st.integers(4, 16),
    positive_caps=st.booleans(),
)
def test_warm_solve_matches_cold_solve_on_lattices(seed, rows, cols, positive_caps):
    dataset = lattice_dataset(random.Random(seed), rows, cols, positive_caps)
    _assert_warm_matches_cold(*_attributed(dataset))


def test_attributed_solve_takes_no_augmenting_path_at_scale():
    # 78 x 78 = 6084 buses with 608 generators online: started from zero
    # flow, the max-flow pushes about 4,600 augmenting paths here.
    dataset = lattice_dataset(random.Random(5), 78, 78, positive_caps=True)
    grid, orientation, snap, load = _attributed(dataset)
    solution = solve_flow_lp(orientation, grid, load, snap)
    assert solution.iterations == 0
    assert solution.max_residual <= 1e-6


def test_cold_solve_at_scale_matches_the_warm_solve_in_budget():
    # Per-phase tree pushes keep the cold solve near 0.1 s here; one
    # augmenting path per walk would take several seconds.
    case = _attributed(lattice_dataset(random.Random(5), 78, 78, positive_caps=True))
    start = time.process_time()
    _assert_warm_matches_cold(*case)
    assert time.process_time() - start <= 2.0


def test_a_perturbed_routing_shows_in_max_residual(monkeypatch):
    # A routing is returned as the solution: no max-flow runs to repair it.
    def no_max_flow(*args):
        raise AssertionError("a routed solve ran the max-flow")

    monkeypatch.setattr(dispatch, "_max_flow", no_max_flow)
    grid, orientation, snap, load = _attributed(load_dataset(FIXTURES / "grid30"))
    line_id = max(load.routing, key=load.routing.get)
    routing = {**load.routing, line_id: load.routing[line_id] + 1.0}
    solution = solve_flow_lp(orientation, grid, dataclasses.replace(load, routing=routing), snap)
    assert solution.max_residual == pytest.approx(1.0)
    assert solution.flows == {l: routing.get(l, 0.0) for l in grid.lines}
    assert solution.injections == snap.bus_totals(grid)
    assert all(e == 0.0 for e in solution.mismatch.values())
    assert solution.iterations == 0


def test_write_solution_files(tmp_path):
    grid, orientation, snap, load = lp_case(
        ["a", "b"], [("l1", "a", "b")], {"a": 10.0}, {"b": 10.0}
    )
    solution = solve_flow_lp(orientation, grid, load, snap)
    out_dir = tmp_path / "out"
    write_solution_files(solution, orientation, grid, out_dir)
    flows = (out_dir / "flows.csv").read_text().splitlines()
    buses = (out_dir / "buses.csv").read_text().splitlines()
    assert flows[0] == "line_id,from_bus,to_bus,flow_mw"
    assert flows[1] == "l1,a,b,10.0"
    assert buses[0] == "bus_id,injection_mw,load_mw,epsilon_mw"
    assert "objective_mw = 0.0" in (out_dir / "summary.txt").read_text()


def test_serialize_snapshot_round_trip(tmp_path):
    from gridtopo.ingest import parse_snapshot_outputs

    outputs = {"g2": 4.25, "g1": 0.0}
    path = tmp_path / "Snapshot.csv"
    path.write_text(serialize_snapshot_outputs(outputs), encoding="utf-8")
    assert parse_snapshot_outputs(path) == outputs
