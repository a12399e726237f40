"""Orientation and load attribution read the scenario where it lives.

``apply_heuristics`` and ``estimate_bus_load`` read each bus's output
as ``snapshot.outputs.get(bus, 0.0)`` instead of a dense per-bus copy,
and ``orient_all`` builds each of its maps once, in line-id order,
growing every residual subgraph's BFS tree into one map. The references
below are the copying definitions they replace, stage 2 as one
``bfs_orient`` per subgraph; every map must come out equal to theirs
bit for bit, iteration order included.
"""

import math
import random
import struct
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo import rng
from gridtopo.demand import allocate_demand_index
from gridtopo.direction import (
    DEFAULT_SEED,
    Direction,
    Orientation,
    Provenance,
    apply_heuristics,
    entry_points,
    orient_all,
    residual_subgraphs,
)
from gridtopo.dispatch import (
    BusLoad,
    GenerationSnapshot,
    estimate_bus_load,
    make_snapshot,
    reachable_buses,
)
from gridtopo.graph import Grid, build_grid
from gridtopo.ingest import load_dataset

from helpers import FIXTURE_NAMES, FIXTURES, lattice_dataset, random_connected_dataset


@dataclass(frozen=True, slots=True)
class ResidualSubgraph:
    buses: tuple[str, ...]
    lines: tuple[str, ...]


def bfs_orient(
    grid: Grid,
    subgraph: ResidualSubgraph,
    entries: tuple[str, ...],
    seed: int = DEFAULT_SEED,
    free_flow: frozenset[str] = frozenset(),
) -> tuple[dict[str, Direction], dict[str, Provenance]]:
    """Stage 2 for one subgraph: multi-source BFS orientation.

    All entries start at depth 0; buses are dequeued FIFO and their
    neighbors visited in sorted (bus id, line id) order, so the tree is
    deterministic. Tree edges point parent to child. Non-tree edges
    get a per-line seeded-random direction afterwards; reachability is
    already guaranteed by the tree alone.
    """
    if not entries:
        raise ValueError("bfs_orient requires at least one entry point")
    remaining = set(subgraph.lines)
    directions: dict[str, Direction] = {}
    provenance: dict[str, Provenance] = {}

    visited = set(entries)
    queue = deque(sorted(entries))
    while queue:
        bus = queue.popleft()
        for line in grid.adjacency[bus]:
            line_id = line.id
            neighbor = line.endpoint_b if line.endpoint_a == bus else line.endpoint_a
            if line_id not in remaining:
                continue  # directed already, by a heuristic or as a tree edge
            if neighbor in visited:
                continue  # non-tree edge; randomized below
            directions[line_id] = (
                Direction.A_TO_B if bus == line.endpoint_a else Direction.B_TO_A
            )
            provenance[line_id] = (
                Provenance.SPECIAL_FREE_FLOW
                if line_id in free_flow
                else Provenance.BFS_TREE
            )
            remaining.discard(line_id)
            visited.add(neighbor)
            queue.append(neighbor)

    for line_id in sorted(remaining):
        directions[line_id] = (
            Direction.A_TO_B if rng.coin(seed, line_id) else Direction.B_TO_A
        )
        provenance[line_id] = Provenance.RESIDUAL_RANDOM
    return directions, provenance


def _reference_orient_all(grid, snapshot, seed):
    """Stage 1's maps copied, one BFS orientation per residual subgraph
    merged in, then copied into line order."""
    partial = apply_heuristics(grid, snapshot, seed)
    directions = dict(partial.directions)
    provenance = dict(partial.provenance)
    warnings = []
    for buses in residual_subgraphs(grid, partial):
        member = set(buses)
        lines = sorted(
            line_id
            for line_id, line in grid.lines.items()
            if line_id not in partial.directions and line.endpoint_a in member
        )
        subgraph = ResidualSubgraph(buses, tuple(lines))
        entries, used_fallback = entry_points(buses, grid, snapshot, partial)
        if used_fallback:
            warnings.append(
                f"no entry point found for subgraph starting at {subgraph.buses[0]}; "
                "falling back to its lowest-id bus"
            )
        sub_dir, sub_prov = bfs_orient(grid, subgraph, entries, seed, partial.free_flow)
        directions.update(sub_dir)
        provenance.update(sub_prov)
    missing = [l for l in grid.lines if l not in directions]
    if missing:
        raise RuntimeError(f"orientation left lines undirected: {missing}")
    return Orientation(
        directions=MappingProxyType({l: directions[l] for l in grid.lines}),
        provenance=MappingProxyType({l: provenance[l] for l in grid.lines}),
        conflicts=partial.conflicts,
        warnings=tuple(warnings),
    )


def _reference_bus_load(demand_index, snapshot, orientation, grid):
    """Attribution over the dense ``bus_totals`` copy of the outputs."""
    loads = {bus: 0.0 for bus in grid.adjacency}
    routing = {}
    warnings = []
    for bus, output in snapshot.bus_totals(grid).items():
        if output <= 0.0:
            continue
        parents = reachable_buses(orientation, grid, bus)
        index_sum = math.fsum(demand_index.values.get(r, 0.0) for r in parents)
        if index_sum == 0.0:
            warnings.append(
                f"zero demand index over buses reachable from {bus}; "
                f"attributing {output} MW to {bus} itself"
            )
            loads[bus] += output
            continue
        below = {}
        for member in parents:
            weight = demand_index.values.get(member, 0.0) / index_sum
            below[member] = weight * output
            loads[member] += below[member]
        for member in reversed(parents):
            line = parents[member]
            if line is not None:
                routing[line.id] = routing.get(line.id, 0.0) + below[member]
                below[orientation.from_to(line)[0]] += below[member]
    return BusLoad(
        values=MappingProxyType(loads),
        warnings=tuple(warnings),
        routing=MappingProxyType(routing),
    )


def _bits(mapping):
    """``mapping``'s items in iteration order, each float as its 64 bits."""
    return [(key, struct.pack("<d", value)) for key, value in mapping.items()]


def _scenario(name, mode):
    data = FIXTURES / name
    dataset = load_dataset(data)
    snapshot = make_snapshot(dataset, mode, data / "Snapshot.csv" if mode == "timepoint" else None)
    return dataset, snapshot


CASES = [(name, mode) for name in FIXTURE_NAMES for mode in ("max", "timepoint")]

#: (seed, rows, cols, positive_caps) for the lattice comparisons.
LATTICES = [
    (seed, 4 + (3 * seed) % 13, 5 + (2 * seed) % 11, seed % 2 == 1) for seed in range(1, 13)
]


def _assert_matches_references(dataset, snapshot, seed=42):
    grid = build_grid(dataset)
    got = orient_all(grid, snapshot, seed)
    want = _reference_orient_all(grid, snapshot, seed)
    assert list(got.directions) == list(grid.lines)
    assert list(got.directions.items()) == list(want.directions.items())
    assert list(got.provenance.items()) == list(want.provenance.items())
    assert (got.conflicts, got.warnings) == (want.conflicts, want.warnings)

    index = allocate_demand_index(dataset)
    load = estimate_bus_load(index, snapshot, got, grid)
    reference = _reference_bus_load(index, snapshot, want, grid)
    assert _bits(load.values) == _bits(reference.values)
    assert _bits(load.routing) == _bits(reference.routing)
    assert load.warnings == reference.warnings


@pytest.mark.parametrize("name,mode", CASES)
def test_stages_match_the_copying_references_on_fixtures(name, mode):
    _assert_matches_references(*_scenario(name, mode))


@pytest.mark.parametrize("seed,rows,cols,positive_caps", LATTICES)
def test_stages_match_the_copying_references_on_lattices(seed, rows, cols, positive_caps):
    dataset = lattice_dataset(random.Random(seed), rows, cols, positive_caps)
    _assert_matches_references(dataset, make_snapshot(dataset), seed)


@pytest.mark.parametrize("name,mode", CASES)
def test_orientation_and_attribution_never_expand_the_outputs(monkeypatch, name, mode):
    dataset, snapshot = _scenario(name, mode)

    def dense_copy(self, grid):
        raise AssertionError("a stage built the dense per-bus outputs")

    monkeypatch.setattr(GenerationSnapshot, "bus_totals", dense_copy)
    grid = build_grid(dataset)
    orientation = orient_all(grid, snapshot, 42)
    load = estimate_bus_load(allocate_demand_index(dataset), snapshot, orientation, grid)
    assert list(orientation.directions) == list(grid.lines)
    assert list(load.values) == list(grid.adjacency)


def _several_subgraphs_with_a_fallback(start, max_buses, seed):
    """The first ``random_connected_dataset`` from seed ``start`` on whose
    max-output orientation under ``seed`` has two or more residual
    subgraphs and at least one entry-point fallback."""
    for case_seed in range(start, start + 1000):
        dataset = random_connected_dataset(random.Random(case_seed), max_buses)
        grid = build_grid(dataset)
        snapshot = make_snapshot(dataset, "max")
        partial = apply_heuristics(grid, snapshot, seed)
        subgraphs = residual_subgraphs(grid, partial)
        if len(subgraphs) >= 2 and any(
            entry_points(buses, grid, snapshot, partial)[1] for buses in subgraphs
        ):
            return dataset, snapshot
    raise AssertionError(f"no qualifying grid from seed {start}")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    start=st.integers(0, 10**6),
    max_buses=st.sampled_from((10, 25, 50)),
    seed=st.integers(0, 10**4),
)
def test_orient_all_matches_the_per_subgraph_reference_on_random_grids(start, max_buses, seed):
    dataset, snapshot = _several_subgraphs_with_a_fallback(start, max_buses, seed)
    grid = build_grid(dataset)
    got = orient_all(grid, snapshot, seed)
    want = _reference_orient_all(grid, snapshot, seed)
    assert list(got.directions.items()) == list(want.directions.items())
    assert list(got.provenance.items()) == list(want.provenance.items())
    assert (got.conflicts, got.warnings) == (want.conflicts, want.warnings)
    assert want.warnings
