"""Undirected multigraph over buses and lines, plus voltage-class order.

Parallel circuits between the same pair of buses are kept as distinct
edges; collapsing them would corrupt flow totals downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .ingest import BusRecord, GeneratorRecord, GridDataset, LineRecord

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
    """Immutable adjacency view of a GridDataset.

    ``adjacency[bus]`` lists ``(line_id, neighbor_bus)`` pairs sorted by
    (neighbor, line id); every line appears exactly once per endpoint.
    """

    buses: Mapping[str, BusRecord]
    lines: Mapping[str, LineRecord]
    adjacency: Mapping[str, tuple[tuple[str, str], ...]]
    generators_by_bus: Mapping[str, tuple[GeneratorRecord, ...]]

    def line_class(self, line_id: str) -> float:
        return voltage_class(self.lines[line_id].voltage_kv)

    def bus_class(self, bus_id: str) -> float:
        return voltage_class(self.buses[bus_id].voltage_kv)


def build_grid(dataset: GridDataset) -> Grid:
    buses = {b.id: b for b in dataset.buses}
    lines = {l.id: l for l in dataset.lines}
    adjacency: dict[str, list[tuple[str, str]]] = {b: [] for b in sorted(buses)}
    for line in dataset.lines:
        adjacency[line.endpoint_a].append((line.id, line.endpoint_b))
        adjacency[line.endpoint_b].append((line.id, line.endpoint_a))
    gens: dict[str, list[GeneratorRecord]] = {}
    for gen in dataset.generators:
        gens.setdefault(gen.bus_id, []).append(gen)
    return Grid(
        buses=MappingProxyType({b: buses[b] for b in sorted(buses)}),
        lines=MappingProxyType({l: lines[l] for l in sorted(lines)}),
        adjacency=MappingProxyType(
            {
                bus: tuple(sorted(pairs, key=lambda p: (p[1], p[0])))
                for bus, pairs in adjacency.items()
            }
        ),
        generators_by_bus=MappingProxyType(
            {bus: tuple(members) for bus, members in sorted(gens.items())}
        ),
    )
