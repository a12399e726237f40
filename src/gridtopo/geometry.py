"""Planar geometry for map-digitized grid data.

Coordinates are abstract planar units (digitized map positions). No
geodesy, projection, or datum handling is applied anywhere; the numbers
are taken at face value.

Region assignment rests on one walk, :func:`locate`, which tells a point
``OUTSIDE``, on the ``BOUNDARY`` of, or ``INSIDE`` a polygon. It rejects
a point outside the bounding box at once, and it skips an edge whose
y-range misses the point's height before any other arithmetic on it
(Haines, "Point in Polygon Strategies", Graphics Gems IV, 1994). The
skip is exact: such an edge can neither hold the point nor cross the
ray through it, so only the edges at the point's height are tested, and
with the same arithmetic as a walk over every edge. A point exactly on
an edge or a vertex is on the ``BOUNDARY``. ``BOUNDARY`` is truthy, so
region assignment counts such a point as inside; ``ingest`` settles a
point on a border that several areas share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Results of :func:`locate`; ``OUTSIDE`` is the only falsy one.
OUTSIDE, BOUNDARY, INSIDE = 0, 1, 2


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


def _on_segment(p: PlanarPoint, a: PlanarPoint, b: PlanarPoint) -> bool:
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if cross != 0.0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def locate(p: PlanarPoint, poly: PlanarPolygon) -> int:
    """Even-odd ray cast: ``OUTSIDE``, ``BOUNDARY`` or ``INSIDE``.

    A point lying exactly on any edge (in the float arithmetic sense) is
    on the ``BOUNDARY``. A point strictly outside the bounding box is
    ``OUTSIDE`` without walking the edges (an on-edge point never is);
    this also keeps rounding in the crossing abscissa from counting a
    point just left of a vertex as inside. An edge whose y-range misses
    ``p.y`` is skipped: it can neither hold ``p`` nor cross its ray.
    """
    px, py = p.x, p.y
    min_x, min_y, max_x, max_y = poly.bbox
    if px < min_x or px > max_x or py < min_y or py > max_y:
        return OUTSIDE
    inside = False
    for ring in poly.rings:
        for a, b in zip(ring, ring[1:]):
            ay, by = a.y, b.y
            if (py < ay and py < by) or (py > ay and py > by):
                continue
            if _on_segment(p, a, b):
                return BOUNDARY
            # Half-open vertical rule: each edge covers [min(y), max(y)).
            if (ay > py) != (by > py):
                x_cross = a.x + (py - ay) * (b.x - a.x) / (by - ay)
                if px < x_cross:
                    inside = not inside
    return INSIDE if inside else OUTSIDE
