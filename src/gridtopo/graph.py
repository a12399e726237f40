"""Undirected multigraph over buses and lines, and the voltage-class rule.

Parallel circuits between the same pair of buses are kept as distinct
edges; collapsing them would corrupt flow totals downstream. A bus's
adjacency row holds its lines' own records, so each line is one object
however many walks read it. The grid is topology only: generation
belongs to a scenario (``dispatch.GenerationSnapshot``), and one grid
serves several.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .ingest import BusRecord, GridDataset, LineRecord

# 500 kV circuits act as interregional extensions of the 240 kV
# backbone, so both voltages share one class rank.
_MERGED_KV = {500.0: 240.0}


def voltage_class(kv: float) -> float:
    """Map a kV level to its class rank. 240 kV and 500 kV share a rank;
    all other levels rank by raw kV."""
    kv = float(kv)
    if kv <= 0:
        raise ValueError(f"voltage must be positive, got {kv}")
    return _MERGED_KV.get(kv, kv)


@dataclass(frozen=True)
class Grid:
    """Immutable adjacency view of a GridDataset: ``buses`` and ``lines``
    map ids to their records, and ``adjacency[bus]`` lists the bus's own
    ``LineRecord``s, the objects in ``lines``, sorted by (the other
    endpoint, line id), every line once per endpoint. All three mappings
    iterate in id order.
    """

    buses: Mapping[str, BusRecord]
    lines: Mapping[str, LineRecord]
    adjacency: Mapping[str, tuple[LineRecord, ...]]


def build_grid(dataset: GridDataset) -> Grid:
    """Index ``dataset``'s buses and lines; its tuples are already sorted
    by id, so each mapping is built once, in that order, and a stable
    sort of a bus's lines by their other endpoint keeps ids in order."""
    adjacency: dict[str, list[LineRecord]] = {b.id: [] for b in dataset.buses}
    for line in dataset.lines:
        adjacency[line.endpoint_a].append(line)
        adjacency[line.endpoint_b].append(line)
    return Grid(
        buses=MappingProxyType({b.id: b for b in dataset.buses}),
        lines=MappingProxyType({l.id: l for l in dataset.lines}),
        adjacency=MappingProxyType(
            {
                bus: tuple(
                    sorted(
                        lines, key=lambda l: l.endpoint_b if l.endpoint_a == bus else l.endpoint_a
                    )
                )
                for bus, lines in adjacency.items()
            }
        ),
    )
