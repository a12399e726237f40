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

Stage 2 walks the grid's adjacency for the connected residual
subgraphs of still-undirected lines and grows one multi-source BFS
tree in each, from its entry points: buses of the top voltage class
(only meaningful when the subgraph mixes classes), buses with active
generation, and the heads of stage-1 lines, which stage 1 records as
it decides. Buses are dequeued FIFO from the sorted entries and their
lines visited in adjacency order, so each tree is deterministic; a
tree line points parent to child. Every residual line off the trees
gets a seeded-random direction keyed by its id, which cannot break
reachability. Heuristic directions are never overwritten.

All voltage comparisons use :func:`gridtopo.graph.voltage_class`, so
240 kV and 500 kV are interchangeable. Stage 1 ranks each bus once, in
a map it drops when it returns; stage 2 ranks only its own subgraph's
buses. The whole procedure is a pure function of (grid, snapshot, seed).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from . import rng
from .graph import Grid, voltage_class
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
        return {line_id: self.from_to(line) for line_id, line in grid.lines.items()}

    @property
    def heuristic_count(self) -> int:
        counts = self.provenance_counts()
        return sum(counts[p] for p in HEURISTIC_PROVENANCES)

    def provenance_counts(self) -> dict[Provenance, int]:
        counts = {p: 0 for p in Provenance}
        for p in self.provenance.values():
            counts[p] += 1
        return counts


@dataclass(frozen=True)
class PartialOrientation:
    """Stage-1 output: heuristic directions, the buses they feed (``fed``), and deferred lines."""

    directions: Mapping[str, Direction]
    provenance: Mapping[str, Provenance]
    conflicts: tuple[str, ...]
    free_flow: frozenset[str]  # undirected lines deferred by rule 2
    fed: frozenset[str]


def apply_heuristics(
    grid: Grid, snapshot: "GenerationSnapshot", seed: int = DEFAULT_SEED
) -> PartialOrientation:
    """Stage 1: direct every line the physical heuristics can decide.

    Lines the heuristics cannot (or deliberately do not) decide stay
    absent from the returned mapping. A generator decision that
    contradicts the two-end voltage rule wins but is flagged as a
    conflict.
    """
    outputs = snapshot.outputs
    rank = {bus: voltage_class(record.voltage_kv) for bus, record in grid.buses.items()}
    directions: dict[str, Direction] = {}
    provenance: dict[str, Provenance] = {}
    conflicts: list[str] = []
    free_flow: set[str] = set()
    fed: set[str] = set()

    for line_id, line in grid.lines.items():
        class_a = rank[line.endpoint_a]
        class_b = rank[line.endpoint_b]
        class_line = voltage_class(line.voltage_kv)
        active_a = outputs.get(line.endpoint_a, 0.0) > 0.0
        active_b = outputs.get(line.endpoint_b, 0.0) > 0.0

        if active_a and active_b:
            chosen = Direction.A_TO_B if rng.coin(seed, line_id) else Direction.B_TO_A
            rule = Provenance.BOTH_ENDS_GENERATOR_RANDOM
        elif active_a or active_b:
            chosen = Direction.A_TO_B if active_a else Direction.B_TO_A
            rule = Provenance.GENERATOR_SOURCE
            if class_a != class_b and (class_a > class_b) != active_a:
                conflicts.append(line_id)
        elif class_line < class_a and class_line < class_b:
            free_flow.add(line_id)
            continue
        elif class_a != class_b:
            chosen = Direction.A_TO_B if class_a > class_b else Direction.B_TO_A
            rule = Provenance.TWO_END_VOLTAGE
        else:
            continue
        directions[line_id] = chosen
        provenance[line_id] = rule
        fed.add(line.endpoint_b if chosen is Direction.A_TO_B else line.endpoint_a)

    return PartialOrientation(
        directions=MappingProxyType(directions),
        provenance=MappingProxyType(provenance),
        conflicts=tuple(sorted(conflicts)),
        free_flow=frozenset(free_flow),
        fed=frozenset(fed),
    )


def residual_subgraphs(grid: Grid, partial: PartialOrientation) -> tuple[tuple[str, ...], ...]:
    """Connected components of the grid restricted to undirected lines,
    each as its sorted bus ids, in order of their lowest bus id."""
    directed = partial.directions
    seen: set[str] = set()
    subgraphs: list[tuple[str, ...]] = []
    for line_id, line in grid.lines.items():
        if line_id in directed or line.endpoint_a in seen:
            continue
        seen.add(line.endpoint_a)
        stack = [line.endpoint_a]
        buses: list[str] = []
        while stack:
            bus = stack.pop()
            buses.append(bus)
            for line in grid.adjacency[bus]:
                neighbor = line.endpoint_b if line.endpoint_a == bus else line.endpoint_a
                if line.id not in directed and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        subgraphs.append(tuple(sorted(buses)))
    subgraphs.sort()  # no two subgraphs share a bus, so this orders by lowest id
    return tuple(subgraphs)


def entry_points(
    subgraph: tuple[str, ...],
    grid: Grid,
    snapshot: "GenerationSnapshot",
    partial: PartialOrientation,
) -> tuple[tuple[str, ...], bool]:
    """Buses through which power enters the subgraph (its sorted bus ids).

    Union of: (a) top-voltage-class buses, counted only when the
    subgraph mixes classes (in a uniform subgraph voltage carries no
    signal); (b) buses with active generation; (c) buses already fed by
    a stage-1 directed line. Returns ``(entries, used_fallback)``, the
    entries sorted; when every rule comes up empty the lowest-id bus
    serves as entry so the subgraph still gets a deterministic
    orientation.

    Only the subgraph's own buses are read, each looked up once in the
    snapshot and in ``partial.fed``, so the cost is O(subgraph buses)
    and no adjacency row is walked.
    """
    classes = {bus: voltage_class(grid.buses[bus].voltage_kv) for bus in subgraph}
    top = max(classes.values())
    entries: set[str] = set()
    if min(classes.values()) < top:
        entries.update(bus for bus, cls in classes.items() if cls == top)
    for bus in subgraph:
        if snapshot.outputs.get(bus, 0.0) > 0.0 or bus in partial.fed:
            entries.add(bus)

    if entries:
        return tuple(sorted(entries)), False
    return subgraph[:1], True


def orient_all(
    grid: Grid, snapshot: "GenerationSnapshot", seed: int = DEFAULT_SEED
) -> Orientation:
    """Run both stages into two maps keyed once, in line order: stage 1's decisions,
    then stage 2's BFS trees as they grow, then a seeded coin for each line left."""
    partial = apply_heuristics(grid, snapshot, seed)
    # Walked before the maps are keyed, so its bus set is freed before they are allocated.
    subgraphs = residual_subgraphs(grid, partial)
    directions = dict.fromkeys(grid.lines)
    provenance = dict.fromkeys(grid.lines)
    directions.update(partial.directions)
    provenance.update(partial.provenance)
    warnings: list[str] = []

    for subgraph in subgraphs:
        entries, used_fallback = entry_points(subgraph, grid, snapshot, partial)
        if used_fallback:
            warnings.append(
                f"no entry point found for subgraph starting at {subgraph[0]}; "
                "falling back to its lowest-id bus"
            )
        visited = set(entries)
        queue = deque(entries)
        while queue:
            bus = queue.popleft()
            for line in grid.adjacency[bus]:
                forward = bus == line.endpoint_a
                neighbor = line.endpoint_b if forward else line.endpoint_a
                if directions[line.id] is not None or neighbor in visited:
                    continue  # directed already, or its far end is in the tree already
                directions[line.id] = Direction.A_TO_B if forward else Direction.B_TO_A
                provenance[line.id] = (
                    Provenance.SPECIAL_FREE_FLOW
                    if line.id in partial.free_flow
                    else Provenance.BFS_TREE
                )
                visited.add(neighbor)
                queue.append(neighbor)

    for line_id, direction in directions.items():
        if direction is None:
            directions[line_id] = (
                Direction.A_TO_B if rng.coin(seed, line_id) else Direction.B_TO_A
            )
            provenance[line_id] = Provenance.RESIDUAL_RANDOM
    return Orientation(
        directions=MappingProxyType(directions),
        provenance=MappingProxyType(provenance),
        conflicts=partial.conflicts,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# CSV export / import

_ORIENTATION_COLUMNS = ("line_id", "from_bus", "to_bus", "provenance")


def write_orientation_csv(orientation: Orientation, grid: Grid, path) -> None:
    rows = (
        (line_id, *orientation.from_to(line), orientation.provenance[line_id].value)
        for line_id, line in grid.lines.items()
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
