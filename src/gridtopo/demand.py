"""Demand-side modeling: similarity checks and per-bus demand weights.

Planning-area hourly load is disaggregated to buses through a relative
demand index (RDI): a configurable urban share of each area's load is
split evenly over the area's urban buses, the remainder evenly over
its non-urban buses. The companion similarity report quantifies how
well area population mirrors area load, which is what justifies the
population-driven split in the first place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from .ingest import GridDataset, write_csv

#: Fraction of each area's load assigned to urban buses. The default is
#: the 2021 census urban-population share for Alberta; override it for
#: other territories or vintages.
DEFAULT_URBAN_SHARE = 0.848


class ZeroVector(ValueError):
    pass


class ConstantVector(ValueError):
    pass


def _check_pair(a: Sequence[float], b: Sequence[float], minimum: int) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < minimum:
        raise ValueError(f"need at least {minimum} components, got {len(a)}")


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """dot(a, b) / (|a| |b|); raises ZeroVector on an all-zero input."""
    _check_pair(a, b, 1)
    dot = math.fsum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(x * x for x in a))
    norm_b = math.sqrt(math.fsum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine similarity undefined for an all-zero vector")
    return dot / (norm_a * norm_b)


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample correlation of paired values; raises ConstantVector when
    either input has no variance."""
    _check_pair(a, b, 2)
    mean_a = math.fsum(a) / len(a)
    mean_b = math.fsum(b) / len(b)
    dev_a = [x - mean_a for x in a]
    dev_b = [y - mean_b for y in b]
    var_a = math.fsum(x * x for x in dev_a)
    var_b = math.fsum(y * y for y in dev_b)
    if var_a == 0.0 or var_b == 0.0:
        raise ConstantVector("correlation undefined for a constant vector")
    cov = math.fsum(x * y for x, y in zip(dev_a, dev_b))
    return cov / math.sqrt(var_a * var_b)


@dataclass(frozen=True, slots=True)
class SimilarityRow:
    year: str
    cosine: float
    pearson: float


def similarity_report(
    dataset: GridDataset, yearly_loads: Mapping[str, Mapping[str, float]]
) -> tuple[SimilarityRow, ...]:
    """Compare each year's area-load vector against the single area
    population vector. Vectors align on sorted area ids; an area
    missing from a year's mapping contributes 0. Correlation needs at
    least two areas. An all-zero or constant vector raises ZeroVector or
    ConstantVector naming the year and the vector."""
    if len(dataset.planning_areas) < 2:
        raise ValueError(
            "similarity needs at least 2 planning areas, "
            f"dataset has {len(dataset.planning_areas)}"
        )
    area_ids = [a.id for a in dataset.planning_areas]
    population = [float(a.population) for a in dataset.planning_areas]
    rows = []
    for year in sorted(yearly_loads):
        loads = [float(yearly_loads[year].get(area_id, 0.0)) for area_id in area_ids]
        try:
            cosine, correlation = cosine_similarity(population, loads), pearson(population, loads)
        except (ZeroVector, ConstantVector) as exc:
            # the same measure of population against itself tells which vector failed
            measure = cosine_similarity if isinstance(exc, ZeroVector) else pearson
            try:
                measure(population, population)
                vector = f"the {year} area load"
            except type(exc):
                vector = "the area population"
            raise type(exc)(f"year {year}: {exc}: {vector}") from None
        rows.append(SimilarityRow(year=str(year), cosine=cosine, pearson=correlation))
    return tuple(rows)


@dataclass(frozen=True)
class DemandIndex:
    """Nonnegative relative demand weight per bus.

    Within every planning area that has at least one bus, the weights
    sum to the area's average hourly load. ``allocate_demand_index``
    builds ``values`` in bus id order, the order it is written in.
    """

    values: Mapping[str, float]
    warnings: tuple[str, ...] = ()


def allocate_demand_index(
    dataset: GridDataset, urban_share: float = DEFAULT_URBAN_SHARE
) -> DemandIndex:
    """Split each area's load over its buses via the urban share.

    Urban buses share ``urban_share * load`` evenly; non-urban buses
    share the rest. When an area has buses of only one category, the
    other category's share is reassigned to it so the area's load mass
    is conserved. Areas without buses (and buses without an area) get a
    warning rather than a guess.
    """
    if not 0.0 <= urban_share <= 1.0:
        raise ValueError(f"urban_share must be within [0, 1], got {urban_share}")

    values: dict[str, float] = {b.id: 0.0 for b in dataset.buses}
    warnings: list[str] = []

    by_area: dict[str, list] = {a.id: [] for a in dataset.planning_areas}
    homeless = 0
    for bus in dataset.buses:
        if bus.planning_area_id is None:
            homeless += 1
        else:
            by_area[bus.planning_area_id].append(bus)
    if homeless:
        warnings.append(f"{homeless} bus(es) outside every planning area get index 0")

    for area in dataset.planning_areas:
        members = by_area[area.id]
        if not members:
            warnings.append(f"planning area {area.id} has no buses; its load is unallocated")
            continue
        urban = [b for b in members if b.is_urban]
        rural = [b for b in members if not b.is_urban]
        share_urban = urban_share * area.avg_hourly_load_mw
        share_rural = (1.0 - urban_share) * area.avg_hourly_load_mw
        if not urban:
            share_rural += share_urban
            share_urban = 0.0
            warnings.append(f"planning area {area.id}: urban share reassigned (no urban buses)")
        elif not rural:
            share_urban += share_rural
            share_rural = 0.0
            warnings.append(
                f"planning area {area.id}: non-urban share reassigned (no non-urban buses)"
            )
        # one float per area and category, shared by its buses
        for group, share in ((urban, share_urban), (rural, share_rural)):
            each = share / len(group) if group else 0.0
            for bus in group:
                values[bus.id] = each

    return DemandIndex(values=MappingProxyType(values), warnings=tuple(warnings))


def write_demand_index_csv(index: DemandIndex, path) -> None:
    write_csv(
        path,
        ("bus_id", "rdi"),
        ((bus_id, repr(value)) for bus_id, value in index.values.items()),
    )


def write_similarity_csv(rows: Sequence[SimilarityRow], path) -> None:
    write_csv(
        path,
        ("year", "cosine", "pearson"),
        ((row.year, repr(row.cosine), repr(row.pearson)) for row in rows),
    )
