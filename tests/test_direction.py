import dataclasses
import random
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from gridtopo import rng as seeded
from gridtopo.direction import (
    Direction,
    Provenance,
    apply_heuristics,
    entry_points,
    orient_all,
    read_orientation_csv,
    residual_subgraphs,
    write_orientation_csv,
)
from gridtopo.dispatch import GenerationSnapshot, make_snapshot
from gridtopo.graph import build_grid, voltage_class
from gridtopo.ingest import (
    DuplicateId,
    InvalidValue,
    UnexpectedColumn,
    build_dataset,
    load_dataset,
)

from helpers import FIXTURES, planar_lattice_records, random_connected_dataset, toy_dataset


def snapshot_for(dataset):
    return make_snapshot(dataset, "max")


def lattice_datasets(rng, count):
    """``count`` seeded planar-lattice datasets of 50-500 buses."""
    datasets = []
    for _ in range(count):
        rows = rng.randint(8, 22)
        cols = rng.randint(max(8, -(-50 // rows)), 500 // rows)
        datasets.append(build_dataset(**planar_lattice_records(rng, rows, cols)))
    return datasets


def grid_with(buses, lines, gens=()):
    dataset = toy_dataset(buses, lines, gens)
    return build_grid(dataset), snapshot_for(dataset)


# --- stage 1: heuristics ----------------------------------------------------

def test_high_to_low_voltage():
    grid, snap = grid_with([("hi", 240), ("lo", 138)], [("l1", "hi", "lo", 240)])
    partial = apply_heuristics(grid, snap)
    assert partial.directions["l1"] is Direction.A_TO_B
    assert partial.provenance["l1"] is Provenance.TWO_END_VOLTAGE
    assert partial.conflicts == ()


def test_generator_wins_over_voltage_and_flags_conflict():
    # active generator at the 138 kV end pushes against the voltage rule
    grid, snap = grid_with(
        [("a", 138), ("b", 240)], [("l1", "a", "b", 240)], [("g1", "a", 10)]
    )
    partial = apply_heuristics(grid, snap)
    assert partial.directions["l1"] is Direction.A_TO_B
    assert partial.provenance["l1"] is Provenance.GENERATOR_SOURCE
    assert partial.conflicts == ("l1",)


def test_zero_output_generator_does_not_apply():
    grid, snap = grid_with(
        [("a", 138), ("b", 240)], [("l1", "a", "b", 240)], [("g1", "a", 0.0)]
    )
    partial = apply_heuristics(grid, snap)
    assert partial.directions["l1"] is Direction.B_TO_A
    assert partial.provenance["l1"] is Provenance.TWO_END_VOLTAGE
    assert partial.conflicts == ()


def test_generators_at_both_ends_randomize():
    grid, snap = grid_with(
        [("a", 240), ("b", 240)],
        [("l1", "a", "b", 240)],
        [("g1", "a", 5), ("g2", "b", 7)],
    )
    partial = apply_heuristics(grid, snap, seed=42)
    assert partial.provenance["l1"] is Provenance.BOTH_ENDS_GENERATOR_RANDOM
    assert apply_heuristics(grid, snap, seed=42).directions == partial.directions
    flipped = {
        apply_heuristics(grid, snap, seed=s).directions["l1"] for s in range(24)
    }
    assert flipped == {Direction.A_TO_B, Direction.B_TO_A}


def test_line_below_both_endpoints_is_deferred():
    grid, snap = grid_with([("a", 240), ("b", 500)], [("l1", "a", "b", 138)])
    partial = apply_heuristics(grid, snap)
    assert "l1" not in partial.directions
    assert partial.free_flow == {"l1"}


def test_active_generator_beats_free_flow_deferral():
    grid, snap = grid_with(
        [("a", 240), ("b", 240)], [("l1", "a", "b", 138)], [("g1", "b", 3)]
    )
    partial = apply_heuristics(grid, snap)
    assert partial.directions["l1"] is Direction.B_TO_A
    assert partial.provenance["l1"] is Provenance.GENERATOR_SOURCE


def test_interchangeable_240_500_tie_goes_to_bfs():
    grid, snap = grid_with([("a", 500), ("b", 240)], [("l1", "a", "b", 500)])
    partial = apply_heuristics(grid, snap)
    assert "l1" not in partial.directions
    assert partial.free_flow == frozenset()


# --- residual subgraphs -----------------------------------------------------

def test_no_residual_when_all_directed():
    grid, snap = grid_with([("hi", 240), ("lo", 138)], [("l1", "hi", "lo", 240)])
    partial = apply_heuristics(grid, snap)
    assert residual_subgraphs(grid, partial) == ()


def test_single_undirected_line_forms_subgraph():
    grid, snap = grid_with([("a", 138), ("b", 138)], [("l1", "a", "b", 138)])
    partial = apply_heuristics(grid, snap)
    assert residual_subgraphs(grid, partial) == (("a", "b"),)


def test_undirected_path_collects_all_buses():
    grid, snap = grid_with(
        [("a", 138), ("b", 138), ("c", 138), ("d", 138)],
        [("l1", "a", "b", 138), ("l2", "b", "c", 138), ("l3", "c", "d", 138)],
    )
    partial = apply_heuristics(grid, snap)
    assert residual_subgraphs(grid, partial) == (("a", "b", "c", "d"),)


# --- entry points -------------------------------------------------------------

def test_entry_external_inflow_bus_in_uniform_subgraph():
    grid, snap = grid_with(
        [("a", 240), ("b", 138), ("c", 138)],
        [("l1", "a", "b", 138), ("l2", "b", "c", 138)],
    )
    partial = apply_heuristics(grid, snap)
    # l1 (240 -> 138) was directed; l2 remains, both ends 138 kV, no
    # generation, so only the stage-1 inflow into b qualifies.
    (sub,) = residual_subgraphs(grid, partial)
    assert sub == ("b", "c")
    entries, fallback = entry_points(sub, grid, snap, partial)
    assert entries == ("b",)
    assert not fallback


def test_entry_mixed_class_subgraph_uses_top_class():
    dataset = toy_dataset(
        [("a", 240), ("b", 138), ("c", 138)],
        [("l1", "a", "b", 240), ("l2", "b", "c", 138)],
    )
    grid = build_grid(dataset)
    snap = snapshot_for(dataset)
    # Treat every line as residual so the subgraph mixes 240 and 138.
    empty = _all_residual(grid)
    (sub,) = residual_subgraphs(grid, empty)
    assert sub == ("a", "b", "c")
    entries, fallback = entry_points(sub, grid, snap, empty)
    assert entries == ("a",) and not fallback


def test_entry_uniform_subgraph_with_generator():
    grid, snap = grid_with(
        [("a", 138), ("b", 138), ("c", 138)],
        [("l1", "a", "b", 138), ("l2", "b", "c", 138)],
        [("g1", "b", 4)],
    )
    partial = apply_heuristics(grid, snap)
    subs = residual_subgraphs(grid, partial)
    # both lines were directed away from b by the generator rule
    assert subs == ()
    # remove the generator influence by zeroing output: now uniform+inactive
    snap_zero = GenerationSnapshot(outputs=MappingProxyType({"b": 0.0}))
    partial = apply_heuristics(grid, snap_zero)
    (sub,) = residual_subgraphs(grid, partial)
    entries, fallback = entry_points(sub, grid, snap, partial)  # active snapshot
    assert entries == ("b",) and not fallback


def test_entry_fallback_when_no_signal():
    grid, snap = grid_with(
        [("a", 138), ("b", 138)], [("l1", "a", "b", 138)]
    )
    partial = apply_heuristics(grid, snap)
    (sub,) = residual_subgraphs(grid, partial)
    entries, fallback = entry_points(sub, grid, snap, partial)
    assert entries == ("a",)
    assert fallback


# --- BFS orientation ----------------------------------------------------------

def _all_residual(grid):
    from gridtopo.direction import PartialOrientation

    return PartialOrientation(
        directions=MappingProxyType({}),
        provenance=MappingProxyType({}),
        conflicts=(),
        free_flow=frozenset(),
        fed=frozenset(),
    )


def test_bfs_single_source_chain():
    # No bus carries a signal, so the lowest-id bus a is the one entry.
    grid, snap = grid_with(
        [("a", 138), ("b", 138), ("c", 138)],
        [("l1", "a", "b", 138), ("l2", "b", "c", 138)],
    )
    orientation = orient_all(grid, snap)
    assert orientation.warnings == (
        "no entry point found for subgraph starting at a; falling back to its lowest-id bus",
    )
    assert dict(orientation.directions) == {"l1": Direction.A_TO_B, "l2": Direction.A_TO_B}
    assert set(orientation.provenance.values()) == {Provenance.BFS_TREE}


def test_bfs_triangle_cross_edge_randomized():
    grid, snap = grid_with(
        [("a", 138), ("b", 138), ("c", 138)],
        [("l1", "a", "b", 138), ("l2", "a", "c", 138), ("l3", "b", "c", 138)],
    )
    orientation = orient_all(grid, snap, seed=42)  # entry a, the fallback
    assert orientation.directions["l1"] is Direction.A_TO_B
    assert orientation.directions["l2"] is Direction.A_TO_B
    assert orientation.provenance["l3"] is Provenance.RESIDUAL_RANDOM
    seen = {orient_all(grid, snap, seed=s).directions["l3"] for s in range(24)}
    assert seen == {Direction.A_TO_B, Direction.B_TO_A}


def test_bfs_two_entries_meet_in_the_middle():
    # x -> a and y -> d are stage-1 lines, so their heads a and d are the
    # entries of the residual 138 kV chain a-b-c-d.
    grid, snap = grid_with(
        [("a", 138), ("b", 138), ("c", 138), ("d", 138), ("x", 240), ("y", 240)],
        [
            ("l1", "a", "b", 138),
            ("l2", "b", "c", 138),
            ("l3", "c", "d", 138),
            ("lx", "x", "a", 240),
            ("ly", "y", "d", 240),
        ],
    )
    orientation = orient_all(grid, snap)
    assert orientation.warnings == ()
    assert orientation.directions["l1"] is Direction.A_TO_B  # a -> b
    assert orientation.directions["l3"] is Direction.B_TO_A  # d -> c
    assert orientation.provenance["l1"] is Provenance.BFS_TREE
    assert orientation.provenance["l3"] is Provenance.BFS_TREE
    assert orientation.provenance["l2"] is Provenance.RESIDUAL_RANDOM


# --- full orientation -----------------------------------------------------------

def test_orient_all_pure_voltage_fixture():
    grid, snap = grid_with(
        [("a", 500), ("b", 240), ("c", 138), ("d", 69)],
        [("l1", "a", "c", 240), ("l2", "b", "c", 240), ("l3", "c", "d", 138)],
    )
    orientation = orient_all(grid, snap)
    assert set(orientation.provenance.values()) == {Provenance.TWO_END_VOLTAGE}
    assert orientation.heuristic_count == 3


def test_orient_all_mixed_fixture_provenances():
    dataset = load_dataset(FIXTURES / "mixed")
    grid = build_grid(dataset)
    orientation = orient_all(grid, make_snapshot(dataset, "max"), seed=42)
    counts = orientation.provenance_counts()
    assert counts[Provenance.BOTH_ENDS_GENERATOR_RANDOM] == 2  # parallel pair
    assert counts[Provenance.GENERATOR_SOURCE] == 1
    assert counts[Provenance.SPECIAL_FREE_FLOW] == 1  # island tree edge
    assert orientation.warnings == (
        "no entry point found for subgraph starting at S4; falling back to its lowest-id bus",
    )
    assert orientation.directions["L4"] is Direction.A_TO_B  # lowest-id entry


def test_orient_all_total_and_deterministic():
    rng = random.Random(555)
    datasets = [random_connected_dataset(rng, max_buses=25) for _ in range(20)]
    for dataset in datasets + lattice_datasets(random.Random(556), 6):
        grid = build_grid(dataset)
        snap = snapshot_for(dataset)
        first = orient_all(grid, snap, seed=7)
        again = orient_all(grid, snap, seed=7)
        assert set(first.directions) == set(grid.lines)
        assert dict(first.directions) == dict(again.directions)
        assert dict(first.provenance) == dict(again.provenance)


def test_heuristic_stage_is_seed_invariant():
    rng = random.Random(808)
    stable = {
        Provenance.TWO_END_VOLTAGE,
        Provenance.GENERATOR_SOURCE,
        Provenance.BFS_TREE,
        Provenance.SPECIAL_FREE_FLOW,
    }
    datasets = [random_connected_dataset(rng, max_buses=25) for _ in range(10)]
    for dataset in datasets + lattice_datasets(random.Random(809), 6):
        grid = build_grid(dataset)
        snap = snapshot_for(dataset)
        a = orient_all(grid, snap, seed=1)
        b = orient_all(grid, snap, seed=2)
        assert dict(a.provenance) == dict(b.provenance)
        for line_id, provenance in a.provenance.items():
            if provenance in stable:
                assert a.directions[line_id] == b.directions[line_id], line_id


def test_h3_dominance_on_random_graphs():
    rng = random.Random(321)
    for _ in range(10):
        dataset = random_connected_dataset(rng, max_buses=25)
        grid = build_grid(dataset)
        snap = snapshot_for(dataset)
        orientation = orient_all(grid, snap, seed=rng.randrange(1000))
        for line_id, line in grid.lines.items():
            active_a = snap.outputs.get(line.endpoint_a, 0.0) > 0
            active_b = snap.outputs.get(line.endpoint_b, 0.0) > 0
            if active_a != active_b:
                frm, _to = orientation.from_to(line)
                assert frm == (line.endpoint_a if active_a else line.endpoint_b)


#: Class rank of each kV level that ``random_connected_dataset`` draws,
#: as the README ranks them: 240 kV and 500 kV count as one class.
_README_CLASS = {25.0: 0, 69.0: 1, 138.0: 2, 240.0: 3, 500.0: 3}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grid_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stage_one_follows_the_readme_rules_on_random_grids(grid_seed, data):
    """Every line's stage-1 decision, conflict flag and deferral, against
    the README's rules written out line by line: a generator end pushes
    power away; generators at both ends toss the seeded coin; a line
    rated below both endpoint classes is free flow; otherwise endpoint
    classes that differ run high to low. A conflict is a generator
    decision whose generating end has the lower class."""
    dataset = random_connected_dataset(random.Random(grid_seed), max_buses=30)
    grid = build_grid(dataset)
    mw = st.one_of(st.just(0.0), st.floats(0.0, 100.0))
    outputs = data.draw(st.dictionaries(st.sampled_from(sorted(grid.buses)), mw), label="outputs")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    partial = apply_heuristics(grid, GenerationSnapshot(outputs), seed)

    expected, conflicts, free_flow = {}, [], set()
    for line_id, line in grid.lines.items():
        a, b = line.endpoint_a, line.endpoint_b
        class_a = _README_CLASS[grid.buses[a].voltage_kv]
        class_b = _README_CLASS[grid.buses[b].voltage_kv]
        gen_a = outputs.get(a, 0.0) > 0.0
        gen_b = outputs.get(b, 0.0) > 0.0
        if gen_a and gen_b:
            ends = (a, b) if seeded.coin(seed, line_id) else (b, a)
            expected[line_id] = (Provenance.BOTH_ENDS_GENERATOR_RANDOM, ends)
        elif gen_a or gen_b:
            expected[line_id] = (Provenance.GENERATOR_SOURCE, (a, b) if gen_a else (b, a))
            if (class_a < class_b) if gen_a else (class_b < class_a):
                conflicts.append(line_id)
        elif _README_CLASS[line.voltage_kv] < min(class_a, class_b):
            free_flow.add(line_id)
        elif class_a != class_b:
            expected[line_id] = (Provenance.TWO_END_VOLTAGE, (a, b) if class_a > class_b else (b, a))

    decided = {
        line_id: (
            partial.provenance[line_id],
            (line.endpoint_a, line.endpoint_b)
            if partial.directions[line_id] is Direction.A_TO_B
            else (line.endpoint_b, line.endpoint_a),
        )
        for line_id, line in grid.lines.items()
        if line_id in partial.directions
    }
    assert decided == expected
    assert set(partial.provenance) == set(partial.directions)
    assert partial.conflicts == tuple(sorted(conflicts))
    assert partial.free_flow == free_flow
    assert partial.fed == {to for _provenance, (_frm, to) in expected.values()}


def test_residual_reachability_from_entries():
    rng = random.Random(2024)
    cases = [
        (random_connected_dataset(rng, max_buses=30), rng.randrange(10_000)) for _ in range(15)
    ]
    lattice_rng = random.Random(2025)
    cases += [(d, lattice_rng.randrange(10_000)) for d in lattice_datasets(lattice_rng, 6)]
    for dataset, seed in cases:
        grid = build_grid(dataset)
        snap = snapshot_for(dataset)
        partial = apply_heuristics(grid, snap, seed)
        orientation = orient_all(grid, snap, seed)
        for sub in residual_subgraphs(grid, partial):
            entries, _ = entry_points(sub, grid, snap, partial)
            member = set(sub)
            lines = _residual_lines(grid, partial, sub)
            reached = set(entries)
            frontier = list(entries)
            while frontier:
                bus = frontier.pop()
                for line in grid.adjacency[bus]:
                    frm, to = orientation.from_to(line)
                    if line.id in lines and frm == bus and to not in reached:
                        reached.add(to)
                        frontier.append(to)
            assert reached == member


# --- CSV round trip ---------------------------------------------------------------

def test_orientation_csv_round_trip(tmp_path):
    """The diamond fixture plus seeded 50-500-bus lattice grids."""
    datasets = [load_dataset(FIXTURES / "diamond")] + lattice_datasets(random.Random(5150), 8)
    kinds = set()
    for n, dataset in enumerate(datasets):
        grid = build_grid(dataset)
        orientation = orient_all(grid, make_snapshot(dataset, "max"), seed=42 + n)
        path = tmp_path / f"grid{n}" / "orientation.csv"
        write_orientation_csv(orientation, grid, path)
        endpoints, provenance = read_orientation_csv(path)
        assert endpoints == orientation.endpoint_map(grid)
        assert provenance == {
            line_id: p.value for line_id, p in orientation.provenance.items()
        }
        kinds.update(orientation.provenance.values())
    assert kinds == set(Provenance)


_ORIENTATION_HEADER = "line_id,from_bus,to_bus,provenance\n"


@pytest.mark.parametrize(
    "text, error, row",
    [
        (_ORIENTATION_HEADER + "L1,A,B,BfsTree\nL1,B,A,BfsTree\n", DuplicateId, 3),
        (_ORIENTATION_HEADER + "L1,A\n", InvalidValue, 2),
        (_ORIENTATION_HEADER + "L1,A,B,BfsTree,extra\n", InvalidValue, 2),
        ("line_id,to_bus,from_bus,provenance\nL1,A,B,BfsTree\n", UnexpectedColumn, 1),
    ],
    ids=["duplicate-line-id", "short-row", "extra-field", "reordered-header"],
)
def test_read_orientation_csv_rejects_malformed_file(tmp_path, text, error, row):
    path = tmp_path / "orientation.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as err:
        read_orientation_csv(path)
    assert (err.value.path, err.value.row) == (path, row)


# --- stage 2 against its full-scan definitions ------------------------------------

def _reference_residual_subgraphs(grid, partial):
    """The incident-map definition: components over a map of undirected
    lines per bus, started from each bus in sorted order."""
    incident = {}
    for line_id, line in grid.lines.items():
        if line_id not in partial.directions:
            incident.setdefault(line.endpoint_a, []).append((line_id, line.endpoint_b))
            incident.setdefault(line.endpoint_b, []).append((line_id, line.endpoint_a))
    seen = set()
    subgraphs = []
    for start in sorted(incident):
        if start in seen:
            continue
        seen.add(start)
        stack, buses = [start], []
        while stack:
            bus = stack.pop()
            buses.append(bus)
            for _line_id, neighbor in incident[bus]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        subgraphs.append(tuple(sorted(buses)))
    return tuple(subgraphs)


def _residual_lines(grid, partial, subgraph):
    """The lines of a residual subgraph: the undirected lines at its buses."""
    member = set(subgraph)
    return {
        line_id
        for line_id, line in grid.lines.items()
        if line_id not in partial.directions and line.endpoint_a in member
    }


def _reference_entry_points(subgraph, grid, snapshot, partial):
    """The full-scan definition: every generator and every stage-1 line."""
    classes = {bus: voltage_class(grid.buses[bus].voltage_kv) for bus in subgraph}
    top = max(classes.values())
    entries = set()
    if min(classes.values()) < top:
        entries.update(bus for bus, cls in classes.items() if cls == top)
    entries.update(bus for bus in subgraph if snapshot.outputs.get(bus, 0.0) > 0.0)
    member = set(subgraph)
    for line_id, direction in partial.directions.items():
        line = grid.lines[line_id]
        head = line.endpoint_b if direction is Direction.A_TO_B else line.endpoint_a
        if head in member:
            entries.add(head)
    if entries:
        return tuple(sorted(entries)), False
    return (subgraph[0],), True


def _oracle_case(rng):
    """Random connected grid of 50-500 buses with a varied share of signal.

    Few voltage levels and little generation leave large uniform residual
    subgraphs, some of them without any entry signal (the fallback).
    """
    n = rng.randint(50, 500)
    levels = rng.sample([25.0, 69.0, 138.0, 240.0, 500.0], rng.randint(1, 5))
    gen_share = rng.choice([0.0, 0.02, 0.3])
    bus_specs = [(f"B{i:03d}", rng.choice(levels)) for i in range(n)]
    line_specs = [
        (f"L{i:04d}", f"B{i:03d}", f"B{rng.randrange(i):03d}", rng.choice(levels))
        for i in range(1, n)
    ]
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.sample(range(n), 2)
        line_id = f"L{len(line_specs) + 1:04d}"
        line_specs.append((line_id, f"B{a:03d}", f"B{b:03d}", rng.choice(levels)))
    gen_specs = [
        (f"G{i:03d}", f"B{i:03d}", rng.choice([0.0, 50.0]))
        for i in range(n)
        if rng.random() < gen_share
    ]
    dataset = toy_dataset(bus_specs, line_specs, gen_specs)
    return build_grid(dataset), snapshot_for(dataset)


def test_residual_subgraphs_match_incident_map_reference():
    rng = random.Random(7070)
    cases = [_oracle_case(rng) for _ in range(40)]
    cases += [(build_grid(d), snapshot_for(d)) for d in lattice_datasets(random.Random(7071), 8)]
    subgraph_count = 0
    for grid, snap in cases:
        for partial in (apply_heuristics(grid, snap), _all_residual(grid)):
            expected = _reference_residual_subgraphs(grid, partial)
            assert residual_subgraphs(grid, partial) == expected
            # The subgraphs' lines partition the undirected lines.
            lines = [l for sub in expected for l in _residual_lines(grid, partial, sub)]
            assert sorted(lines) == [l for l in sorted(grid.lines) if l not in partial.directions]
            subgraph_count += len(expected)
    assert subgraph_count > len(cases)


class _CountingRows(Mapping):
    """An adjacency mapping that counts the rows read from it."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __getitem__(self, bus):
        self.reads += 1
        return self.rows[bus]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def test_entry_points_match_full_scan_reference():
    rng = random.Random(8080)
    seen = {"uniform": 0, "mixed": 0, "generation": 0, "no_generation": 0, "fallback": 0}
    for _ in range(40):
        grid, snap = _oracle_case(rng)
        partial = apply_heuristics(grid, snap)
        assert partial.fed == {
            grid.lines[l].endpoint_b if d is Direction.A_TO_B else grid.lines[l].endpoint_a
            for l, d in partial.directions.items()
        }
        # Entry points must read no adjacency row of ``counted``.
        rows = _CountingRows(grid.adjacency)
        counted = dataclasses.replace(grid, adjacency=rows)
        # A snapshot other than the partial's must be the one that is read.
        other = GenerationSnapshot(
            outputs=MappingProxyType({b: rng.choice([0.0, 5.0]) for b in snap.outputs})
        )
        for sub in residual_subgraphs(grid, partial):
            for snapshot in (snap, other):
                expected = _reference_entry_points(sub, grid, snapshot, partial)
                assert entry_points(sub, counted, snapshot, partial) == expected
                generating = any(snapshot.outputs.get(b, 0.0) > 0.0 for b in sub)
                seen["generation" if generating else "no_generation"] += 1
                seen["fallback"] += expected[1]
            classes = {voltage_class(grid.buses[b].voltage_kv) for b in sub}
            seen["uniform" if len(classes) == 1 else "mixed"] += 1
        assert rows.reads == 0
    assert all(count > 0 for count in seen.values()), seen


def test_orient_all_matches_full_scan_reference(monkeypatch):
    import gridtopo.direction as direction_module

    rng = random.Random(9090)
    cases = [(_oracle_case(rng), rng.randrange(10_000)) for _ in range(15)]
    linear = [orient_all(grid, snap, seed) for (grid, snap), seed in cases]
    monkeypatch.setattr(direction_module, "residual_subgraphs", _reference_residual_subgraphs)
    monkeypatch.setattr(direction_module, "entry_points", _reference_entry_points)
    for ((grid, snap), seed), got in zip(cases, linear):
        want = orient_all(grid, snap, seed)
        assert dict(got.directions) == dict(want.directions)
        assert dict(got.provenance) == dict(want.provenance)
        assert (got.conflicts, got.warnings) == (want.conflicts, want.warnings)
