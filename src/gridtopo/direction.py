"""Assign a flow direction to every transmission line.

Stage 1 applies physical heuristics line by line, strongest signal
first:

1. An active generator at exactly one endpoint pushes flow away from
   it. Two active-generator endpoints get a seeded-random direction
   (the link is redundant for everyone else's supply either way).
2. A line rated below both endpoint classes carries atypical transfers
   (or reflects a recording gap), so flow is treated as free between
   its terminals: the line is deliberately left undirected here.
3. Endpoint classes differing: high feeds low.

Stage 2 collects the still-undirected lines into connected residual
subgraphs and orients each by multi-source BFS from its entry points:
buses of the top voltage class (only meaningful when the subgraph
mixes classes), buses with active generation, and buses already fed by
a stage-1 direction. BFS tree edges point parent to child; leftover
non-tree edges get a seeded-random direction, which cannot break
reachability. Heuristic directions are never overwritten.

All voltage comparisons use :func:`gridtopo.graph.voltage_class`, so
240 kV and 500 kV are interchangeable. The whole procedure is a pure
function of (grid, snapshot, seed).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from . import rng
from .graph import Grid
from .ingest import LineRecord, _read_rows, write_csv

if TYPE_CHECKING:
    from .dispatch import GenerationSnapshot

DEFAULT_SEED = 42


class Direction(Enum):
    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


class Provenance(Enum):
    TWO_END_VOLTAGE = "TwoEndVoltage"
    GENERATOR_SOURCE = "GeneratorSource"
    SPECIAL_FREE_FLOW = "SpecialFreeFlow"
    BOTH_ENDS_GENERATOR_RANDOM = "BothEndsGeneratorRandom"
    BFS_TREE = "BfsTree"
    RESIDUAL_RANDOM = "ResidualRandom"


#: Provenances decided before the BFS stage.
HEURISTIC_PROVENANCES = frozenset(
    {
        Provenance.TWO_END_VOLTAGE,
        Provenance.GENERATOR_SOURCE,
        Provenance.BOTH_ENDS_GENERATOR_RANDOM,
    }
)


@dataclass(frozen=True)
class Orientation:
    """Total direction assignment with per-line provenance."""

    directions: Mapping[str, Direction]
    provenance: Mapping[str, Provenance]
    conflicts: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    def from_to(self, line: LineRecord) -> tuple[str, str]:
        if self.directions[line.id] is Direction.A_TO_B:
            return line.endpoint_a, line.endpoint_b
        return line.endpoint_b, line.endpoint_a

    def endpoint_map(self, grid: Grid) -> dict[str, tuple[str, str]]:
        return {line_id: self.from_to(grid.lines[line_id]) for line_id in self.directions}

    @property
    def heuristic_count(self) -> int:
        return sum(1 for p in self.provenance.values() if p in HEURISTIC_PROVENANCES)

    def provenance_counts(self) -> dict[Provenance, int]:
        counts = {p: 0 for p in Provenance}
        for p in self.provenance.values():
            counts[p] += 1
        return counts


@dataclass(frozen=True)
class PartialOrientation:
    """Stage-1 output: heuristic directions plus deferred lines."""

    directions: Mapping[str, Direction]
    provenance: Mapping[str, Provenance]
    conflicts: tuple[str, ...]
    free_flow: frozenset[str]  # undirected lines deferred by rule 2


@dataclass(frozen=True, slots=True)
class ResidualSubgraph:
    buses: tuple[str, ...]
    lines: tuple[str, ...]


def apply_heuristics(
    grid: Grid, snapshot: "GenerationSnapshot", seed: int = DEFAULT_SEED
) -> PartialOrientation:
    """Stage 1: direct every line the physical heuristics can decide.

    Lines the heuristics cannot (or deliberately do not) decide stay
    absent from the returned mapping. A generator decision that
    contradicts the two-end voltage rule wins but is flagged as a
    conflict.
    """
    outputs = snapshot.bus_totals(grid)
    directions: dict[str, Direction] = {}
    provenance: dict[str, Provenance] = {}
    conflicts: list[str] = []
    free_flow: set[str] = set()

    for line_id, line in grid.lines.items():
        class_a = grid.bus_class(line.endpoint_a)
        class_b = grid.bus_class(line.endpoint_b)
        class_line = grid.line_class(line_id)
        active_a = outputs[line.endpoint_a] > 0.0
        active_b = outputs[line.endpoint_b] > 0.0

        voltage_rule = None
        if class_a > class_b:
            voltage_rule = Direction.A_TO_B
        elif class_b > class_a:
            voltage_rule = Direction.B_TO_A

        if active_a and active_b:
            directions[line_id] = (
                Direction.A_TO_B if rng.coin(seed, line_id) else Direction.B_TO_A
            )
            provenance[line_id] = Provenance.BOTH_ENDS_GENERATOR_RANDOM
            continue
        if active_a or active_b:
            chosen = Direction.A_TO_B if active_a else Direction.B_TO_A
            directions[line_id] = chosen
            provenance[line_id] = Provenance.GENERATOR_SOURCE
            if voltage_rule is not None and voltage_rule is not chosen:
                conflicts.append(line_id)
            continue
        if class_line < class_a and class_line < class_b:
            free_flow.add(line_id)
            continue
        if voltage_rule is not None:
            directions[line_id] = voltage_rule
            provenance[line_id] = Provenance.TWO_END_VOLTAGE

    return PartialOrientation(
        directions=MappingProxyType(directions),
        provenance=MappingProxyType(provenance),
        conflicts=tuple(sorted(conflicts)),
        free_flow=frozenset(free_flow),
    )


def residual_subgraphs(grid: Grid, partial: PartialOrientation) -> tuple[ResidualSubgraph, ...]:
    """Connected components of the grid restricted to undirected lines."""
    undirected = [l for l in grid.lines if l not in partial.directions]
    incident: dict[str, list[tuple[str, str]]] = {}
    for line_id in undirected:
        line = grid.lines[line_id]
        incident.setdefault(line.endpoint_a, []).append((line_id, line.endpoint_b))
        incident.setdefault(line.endpoint_b, []).append((line_id, line.endpoint_a))

    seen: set[str] = set()
    subgraphs: list[ResidualSubgraph] = []
    for start in sorted(incident):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        buses: list[str] = []
        line_ids: set[str] = set()
        while stack:
            bus = stack.pop()
            buses.append(bus)
            for line_id, neighbor in incident[bus]:
                line_ids.add(line_id)
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        subgraphs.append(ResidualSubgraph(tuple(sorted(buses)), tuple(sorted(line_ids))))
    return tuple(subgraphs)


def entry_points(
    subgraph: ResidualSubgraph,
    grid: Grid,
    snapshot: "GenerationSnapshot",
    partial: PartialOrientation,
) -> tuple[tuple[str, ...], bool]:
    """Buses through which power enters the subgraph.

    Union of: (a) top-voltage-class buses, counted only when the
    subgraph mixes classes (in a uniform subgraph voltage carries no
    signal); (b) buses with active generation; (c) buses already fed by
    a stage-1 directed line. Returns ``(entries, used_fallback)``; when
    every rule comes up empty the lowest-id bus serves as entry so the
    subgraph still gets a deterministic orientation.

    Only the subgraph's own buses and their adjacency rows are read, so
    the cost is O(subgraph buses + their degree): every stage-1 directed
    line appears in its head's adjacency row.
    """
    classes = {bus: grid.bus_class(bus) for bus in subgraph.buses}
    top = max(classes.values())
    entries: set[str] = set()
    if min(classes.values()) < top:
        entries.update(bus for bus, cls in classes.items() if cls == top)

    for bus in subgraph.buses:
        if snapshot.outputs.get(bus, 0.0) > 0.0 or _fed_by_stage_one(bus, grid, partial):
            entries.add(bus)

    if entries:
        return tuple(sorted(entries)), False
    return (subgraph.buses[0],), True


def _fed_by_stage_one(bus: str, grid: Grid, partial: PartialOrientation) -> bool:
    for line_id, _neighbor in grid.adjacency[bus]:
        direction = partial.directions.get(line_id)
        if direction is None:
            continue
        line = grid.lines[line_id]
        head = line.endpoint_b if direction is Direction.A_TO_B else line.endpoint_a
        if head == bus:
            return True
    return False


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
        for line_id, neighbor in grid.adjacency[bus]:
            if line_id not in remaining:
                continue  # directed already, by a heuristic or as a tree edge
            if neighbor in visited:
                continue  # non-tree edge; randomized below
            line = grid.lines[line_id]
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


def orient_all(
    grid: Grid, snapshot: "GenerationSnapshot", seed: int = DEFAULT_SEED
) -> Orientation:
    """Run both stages and return a total orientation."""
    partial = apply_heuristics(grid, snapshot, seed)
    directions = dict(partial.directions)
    provenance = dict(partial.provenance)
    warnings: list[str] = []

    for subgraph in residual_subgraphs(grid, partial):
        entries, used_fallback = entry_points(subgraph, grid, snapshot, partial)
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
        directions=MappingProxyType({l: directions[l] for l in sorted(directions)}),
        provenance=MappingProxyType({l: provenance[l] for l in sorted(provenance)}),
        conflicts=partial.conflicts,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# CSV export / import

_ORIENTATION_COLUMNS = ("line_id", "from_bus", "to_bus", "provenance")


def write_orientation_csv(orientation: Orientation, grid: Grid, path) -> None:
    rows = (
        (line_id, *orientation.from_to(grid.lines[line_id]), orientation.provenance[line_id].value)
        for line_id in sorted(orientation.directions)
    )
    write_csv(path, _ORIENTATION_COLUMNS, rows)


def read_orientation_csv(path) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """Read an orientation export; returns (line -> (from, to), line -> provenance).

    The header must be ``line_id,from_bus,to_bus,provenance`` in that
    order. A malformed header, a row with the wrong number of fields or
    a repeated ``line_id`` raises an IngestError naming the file and row.
    """
    rows = _read_rows(path, _ORIENTATION_COLUMNS, tuple, kind="line")
    endpoints = {line: (from_bus, to_bus) for line, from_bus, to_bus, _ in rows}
    return endpoints, {line: provenance for line, _, _, provenance in rows}
