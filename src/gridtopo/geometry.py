"""Planar geometry for map-digitized grid data.

Coordinates are abstract planar units (digitized map positions). No
geodesy, projection, or datum handling is applied anywhere; the numbers
are taken at face value. A point is a plain ``(x, y)`` pair of finite
floats, not an object of its own. ``ingest`` checks each coordinate
once, where it parses it; :class:`PlanarPolygon` checks its vertices,
so a polygon built in code holds finite ones too.

Region assignment rests on one walk, :func:`locate`, which tells a point
``OUTSIDE``, on the ``BOUNDARY`` of, or ``INSIDE`` a polygon. It rejects
a point outside the bounding box at once. Otherwise it walks only the
edges of one horizontal band: each polygon of 9 edges or more cuts its
bounding box's height into ``isqrt(edge count)`` bands of equal height
and lists, for each band, every edge whose closed y-range meets it (a
slab decomposition, Dobkin & Lipton, "Multidimensional searching
problems", SIAM J. Comput. 1976); a smaller polygon is walked whole.
Within the band it skips an edge whose y-range
misses the point's height before any other arithmetic on it (Haines,
"Point in Polygon Strategies", Graphics Gems IV, 1994). Both cuts are
exact. A point and an edge endpoint go to their band by one formula
that is monotone in y, so every edge whose y-range holds the point's
height is in the point's band; an edge left out can neither hold the
point nor cross the ray through it. The parity of the crossings does
not depend on the order the edges are visited in, and any edge holding
the point makes it ``BOUNDARY``, so the result is the one a walk over
every edge gives, with the same arithmetic. A point exactly on an edge
or a vertex is on the ``BOUNDARY``. ``BOUNDARY`` is truthy, so region
assignment counts such a point as inside; ``ingest`` settles a point on
a border that several areas share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Results of :func:`locate`; ``OUTSIDE`` is the only falsy one.
OUTSIDE, BOUNDARY, INSIDE = 0, 1, 2


#: A point in abstract planar map units: ``(x, y)``, both finite.
Point = tuple[float, float]

#: A run of consecutive ring vertices; its edges are its consecutive pairs.
Chain = tuple[Point, ...]


@dataclass(frozen=True, slots=True)
class PlanarPolygon:
    """A polygon as a sequence of closed rings.

    Ring 0 is the outer boundary; any further rings are holes.
    Containment uses even-odd semantics, so ring orientation is
    irrelevant and holes simply toggle insideness. Each stored ring is
    normalized to be explicitly closed (first vertex == last vertex).
    Every coordinate must be finite (``ValueError`` otherwise).
    ``bbox`` is ``(min_x, min_y, max_x, max_y)`` over every vertex.
    ``bands`` is ``(scale, chains by band)``: the bbox's height cut into
    ``k = isqrt(edge count)`` bands of equal height, band
    ``min(k - 1, int((y - min_y) * scale))`` holding height ``y``, with
    ``scale = k / height``. Each band lists every edge of every ring
    whose closed y-range meets it, as chains of consecutive edges, so an
    edge spanning several bands is listed in each. A polygon with fewer
    than 9 edges (two bands gain nothing on a 4-vertex square, whose
    sides each span both), or whose height is 0, overflows to inf or is
    so small that ``k / height`` does, has no bands: ``(0.0, ())``, and
    :func:`locate` walks its rings whole.
    """

    rings: tuple[tuple[Point, ...], ...]
    bbox: tuple[float, float, float, float] = field(init=False, compare=False, repr=False)
    bands: tuple[float, tuple[tuple[Chain, ...], ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.rings:
            raise ValueError("polygon needs at least one ring")
        rings = []
        for ring in self.rings:
            ring = tuple(ring)
            if ring and ring[0] == ring[-1]:
                ring = ring[:-1]
            rings.append(ring)
        xs = [x for ring in rings for x, _ in ring]
        ys = [y for ring in rings for _, y in ring]
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            bad = next(p for p in zip(xs, ys) if not all(map(math.isfinite, p)))
            raise ValueError(f"non-finite coordinate {bad}")
        if any(len(set(ring)) < 3 for ring in rings):
            raise ValueError("ring needs at least 3 distinct vertices")
        object.__setattr__(self, "rings", tuple(ring + ring[:1] for ring in rings))
        min_y, max_y = min(ys), max(ys)
        object.__setattr__(self, "bbox", (min(xs), min_y, max(xs), max_y))
        object.__setattr__(self, "bands", _bands(self.rings, min_y, max_y - min_y))


# One object for every polygon without bands, so such a polygon costs no
# memory beyond its rings.
_NO_BANDS: tuple[float, tuple] = (0.0, ())


def _bands(
    rings: tuple[tuple[Point, ...], ...], min_y: float, height: float
) -> tuple[float, tuple[tuple[Chain, ...], ...]]:
    """``PlanarPolygon.bands``, from one band index per vertex: an edge
    goes into every band from its lower endpoint's to its upper one's."""
    k = math.isqrt(sum(len(ring) - 1 for ring in rings))
    scale = k / height if 0.0 < height < math.inf else math.inf
    if k < 3 or scale == math.inf:
        return _NO_BANDS
    last = k - 1
    bands: list[list[Chain]] = [[] for _ in range(k)]
    for ring in rings:
        # min(last, int((y - min_y) * scale)), as in locate
        at = [j if (j := int((y - min_y) * scale)) < k else last for _, y in ring]
        edges: list[list[int]] = [[] for _ in range(k)]
        for i, ja, jb in zip(range(len(ring)), at, at[1:]):
            if ja == jb:
                edges[ja].append(i)
            else:
                for j in range(min(ja, jb), max(ja, jb) + 1):
                    edges[j].append(i)
        for band, idx in zip(bands, edges):
            # each run of consecutive edges i..j is the chain ring[i:j + 2]
            starts = [t for t in range(len(idx)) if t == 0 or idx[t] != idx[t - 1] + 1]
            for start, end in zip(starts, [*starts[1:], len(idx)]):
                band.append(ring[idx[start]:idx[end - 1] + 2])
    return scale, tuple(map(tuple, bands))


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    (px, py), (ax, ay), (bx, by) = p, a, b
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if cross != 0.0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def locate(p: Point, poly: PlanarPolygon) -> int:
    """Even-odd ray cast: ``OUTSIDE``, ``BOUNDARY`` or ``INSIDE``.

    A point lying exactly on any edge (in the float arithmetic sense) is
    on the ``BOUNDARY``. A point strictly outside the bounding box is
    ``OUTSIDE`` without walking the edges (an on-edge point never is);
    this also keeps rounding in the crossing abscissa from counting a
    point just left of a vertex as inside. Otherwise only the chains of
    ``p``'s band (``PlanarPolygon.bands``) are walked, or every ring of
    a polygon without bands: ``p``'s y goes to its band by the formula
    that placed the edges, which is monotone in y, so every edge whose
    y-range holds it is there. An edge whose y-range misses it is
    skipped: it can neither hold ``p`` nor cross its ray.
    """
    px, py = p
    min_x, min_y, max_x, max_y = poly.bbox
    if px < min_x or px > max_x or py < min_y or py > max_y:
        return OUTSIDE
    scale, bands = poly.bands
    band = bands[min(len(bands) - 1, int((py - min_y) * scale))] if scale else poly.rings
    inside = False
    for chain in band:
        for a, b in zip(chain, chain[1:]):
            (ax, ay), (bx, by) = a, b
            if (py < ay and py < by) or (py > ay and py > by):
                continue
            if _on_segment(p, a, b):
                return BOUNDARY
            # Half-open vertical rule: each edge covers [min(y), max(y)).
            if (ay > py) != (by > py):
                x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
                if px < x_cross:
                    inside = not inside
    return INSIDE if inside else OUTSIDE
