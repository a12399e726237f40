"""Planar geometry for map-digitized grid data.

Coordinates are abstract planar units (digitized map positions). No
geodesy, projection, or datum handling is applied anywhere; the numbers
are taken at face value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["PlanarPoint", "PlanarPolygon", "point_in_polygon", "point_on_boundary"]


@dataclass(frozen=True, slots=True)
class PlanarPoint:
    """A point in abstract planar map units."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinate ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class PlanarPolygon:
    """A polygon as a sequence of closed rings.

    Ring 0 is the outer boundary; any further rings are holes.
    Containment uses even-odd semantics, so ring orientation is
    irrelevant and holes simply toggle insideness. Each stored ring is
    normalized to be explicitly closed (first vertex == last vertex).
    ``bbox`` is ``(min_x, min_y, max_x, max_y)`` over every vertex.
    """

    rings: tuple[tuple[PlanarPoint, ...], ...]
    bbox: tuple[float, float, float, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.rings:
            raise ValueError("polygon needs at least one ring")
        normalized = []
        for ring in self.rings:
            ring = tuple(ring)
            if ring and ring[0] == ring[-1]:
                ring = ring[:-1]
            if len({(p.x, p.y) for p in ring}) < 3:
                raise ValueError("ring needs at least 3 distinct vertices")
            normalized.append(ring + (ring[0],))
        object.__setattr__(self, "rings", tuple(normalized))
        xs = [p.x for ring in normalized for p in ring]
        ys = [p.y for ring in normalized for p in ring]
        object.__setattr__(self, "bbox", (min(xs), min(ys), max(xs), max(ys)))

    def edges(self):
        for ring in self.rings:
            for a, b in zip(ring, ring[1:]):
                yield a, b


def _on_segment(p: PlanarPoint, a: PlanarPoint, b: PlanarPoint) -> bool:
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if cross != 0.0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def point_in_polygon(p: PlanarPoint, poly: PlanarPolygon) -> bool:
    """Even-odd ray-casting containment test.

    Convention: a point lying exactly on any edge (in the float
    arithmetic sense) counts as inside. This keeps features digitized
    on a shared boundary line deterministic. A point strictly outside
    the bounding box is outside without walking the edges (an on-edge
    point never is); this also keeps rounding in the crossing abscissa
    from counting a point just left of a vertex as inside.
    """
    min_x, min_y, max_x, max_y = poly.bbox
    if p.x < min_x or p.x > max_x or p.y < min_y or p.y > max_y:
        return False
    inside = False
    for a, b in poly.edges():
        if _on_segment(p, a, b):
            return True
        # Half-open vertical rule: each edge covers [min(y), max(y)).
        if (a.y > p.y) != (b.y > p.y):
            x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < x_cross:
                inside = not inside
    return inside


def point_on_boundary(p: PlanarPoint, poly: PlanarPolygon) -> bool:
    """Whether ``p`` lies exactly on an edge of any ring of ``poly``."""
    return any(_on_segment(p, a, b) for a, b in poly.edges())
