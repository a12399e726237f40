import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridtopo import geometry
from gridtopo.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    PlanarPoint,
    PlanarPolygon,
    locate,
)

P = PlanarPoint


def square(x0=0.0, y0=0.0, x1=1.0, y1=1.0):
    return (P(x0, y0), P(x1, y0), P(x1, y1), P(x0, y1))


def _edges(poly):
    """Every edge of every ring, in order."""
    for ring in poly.rings:
        yield from zip(ring, ring[1:])


def test_point_requires_finite_coordinates():
    with pytest.raises(ValueError):
        P(float("nan"), 0.0)
    with pytest.raises(ValueError):
        P(0.0, float("inf"))


def test_polygon_normalizes_closure():
    open_ring = square()
    closed_ring = square() + (P(0.0, 0.0),)
    assert PlanarPolygon((open_ring,)).rings == PlanarPolygon((closed_ring,)).rings
    ring = PlanarPolygon((open_ring,)).rings[0]
    assert ring[0] == ring[-1]


def test_polygon_rejects_degenerate_rings():
    with pytest.raises(ValueError):
        PlanarPolygon(())
    with pytest.raises(ValueError):
        PlanarPolygon(((P(0, 0), P(1, 1)),))
    with pytest.raises(ValueError):
        PlanarPolygon(((P(0, 0), P(1, 1), P(0, 0), P(1, 1)),))


def test_unit_square_containment():
    poly = PlanarPolygon((square(),))
    assert locate(P(0.5, 0.5), poly) != OUTSIDE
    assert locate(P(2.0, 0.0), poly) == OUTSIDE
    assert locate(P(-0.1, 0.5), poly) == OUTSIDE


def test_on_edge_and_vertex_count_inside():
    poly = PlanarPolygon((square(),))
    assert locate(P(0.0, 0.5), poly) != OUTSIDE  # edge
    assert locate(P(0.5, 1.0), poly) != OUTSIDE  # edge
    assert locate(P(0.0, 0.0), poly) != OUTSIDE  # vertex


def test_hole_excludes_interior_by_even_odd():
    poly = PlanarPolygon((square(), square(0.25, 0.25, 0.75, 0.75)))
    assert locate(P(0.5, 0.5), poly) == OUTSIDE  # inside the hole
    assert locate(P(0.1, 0.5), poly) != OUTSIDE  # in the annulus
    assert locate(P(0.25, 0.5), poly) != OUTSIDE  # on the hole edge
    assert locate(P(2.0, 2.0), poly) == OUTSIDE


# --- winding-number oracle ------------------------------------------------

def _winding_inside(p, ring):
    total = 0.0
    for a, b in zip(ring, ring[1:]):
        ax, ay = a.x - p.x, a.y - p.y
        bx, by = b.x - p.x, b.y - p.y
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi


def _segment_distance(p, a, b):
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = p.x - a.x, p.y - a.y
    seg_len2 = vx * vx + vy * vy
    t = 0.0 if seg_len2 == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / seg_len2))
    dx, dy = p.x - (a.x + t * vx), p.y - (a.y + t * vy)
    return math.hypot(dx, dy)


def _random_star_polygon(rng, vertices=12):
    cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(vertices))
    ring = tuple(
        P(cx + r * math.cos(t), cy + r * math.sin(t))
        for t, r in ((t, rng.uniform(0.5, 2.0)) for t in angles)
    )
    return PlanarPolygon((ring,))


def test_matches_winding_oracle_on_random_simple_polygons():
    rng = random.Random(1301)
    checked = 0
    for _ in range(20):
        poly = _random_star_polygon(rng)
        ring = poly.rings[0]
        for _ in range(50):
            p = P(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if min(_segment_distance(p, a, b) for a, b in zip(ring, ring[1:])) < 1e-9:
                continue  # boundary points follow the documented convention instead
            assert (locate(p, poly) != OUTSIDE) == _winding_inside(p, ring)
            checked += 1
    assert checked >= 950


# --- bounding-box prefilter against the unfiltered ray cast -------------------

def _reference_on_segment(p, a, b):
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if cross != 0.0:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def _reference_ray_cast(p, poly):
    """The even-odd walk over every edge, without the bounding-box test."""
    inside = False
    for a, b in _edges(poly):
        if _reference_on_segment(p, a, b):
            return True
        if (a.y > p.y) != (b.y > p.y):
            x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < x_cross:
                inside = not inside
    return inside


def _strictly_outside_bbox(p, poly):
    min_x, min_y, max_x, max_y = poly.bbox
    return p.x < min_x or p.x > max_x or p.y < min_y or p.y > max_y


@st.composite
def _star_polygons(draw):
    """Star-shaped ring around a centre, optionally with a star-shaped hole."""
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    cx, cy = draw(coord), draw(coord)
    n = draw(st.integers(3, 12))
    jitter = draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.5, 50.0), min_size=n, max_size=n))
    angles = [2 * math.pi * (k + j) / n for k, j in enumerate(jitter)]

    def ring(scale):
        return tuple(
            P(cx + scale * r * math.cos(t), cy + scale * r * math.sin(t))
            for t, r in zip(angles, radii)
        )

    rings = [ring(1.0)]
    if draw(st.booleans()):
        rings.append(ring(0.5 * min(radii) / max(radii)))
    return PlanarPolygon(tuple(rings))


@st.composite
def _probe_points(draw, poly):
    """Random points, vertices, edge midpoints and points one ulp off the bbox."""
    min_x, min_y, max_x, max_y = poly.bbox
    vertices = [v for ring in poly.rings for v in ring]
    kind = draw(st.sampled_from(["random", "vertex", "midpoint", "ulp_outside"]))
    if kind == "random":
        return P(
            draw(st.floats(min_x - 1.0, max_x + 1.0)),
            draw(st.floats(min_y - 1.0, max_y + 1.0)),
        )
    if kind == "vertex":
        return draw(st.sampled_from(vertices))
    if kind == "midpoint":
        a, b = draw(st.sampled_from(list(_edges(poly))))
        return P((a.x + b.x) / 2, (a.y + b.y) / 2)
    v = draw(st.sampled_from(vertices))
    side = draw(st.sampled_from(["left", "right", "below", "above"]))
    if side == "left":
        return P(math.nextafter(min_x, -math.inf), v.y)
    if side == "right":
        return P(math.nextafter(max_x, math.inf), v.y)
    if side == "below":
        return P(v.x, math.nextafter(min_y, -math.inf))
    return P(v.x, math.nextafter(max_y, math.inf))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bbox_prefilter_matches_unfiltered_ray_cast(data):
    poly = data.draw(_star_polygons())
    for _ in range(5):
        p = data.draw(_probe_points(poly))
        if _strictly_outside_bbox(p, poly):
            # every vertex, so the whole polygon, lies inside the box
            assert locate(p, poly) == OUTSIDE
        else:
            assert (locate(p, poly) != OUTSIDE) == _reference_ray_cast(p, poly)


def test_point_left_of_bbox_is_outside_despite_crossing_rounding():
    # x_cross of edge (0.1, 3) -> (0, 0) at y = 0 rounds to -1.4e-17, so
    # the unfiltered walk counts the point just left of (0, 0) as inside.
    poly = PlanarPolygon(((P(0.1, 3.0), P(0.0, 0.0), P(1.0, 0.0)),))
    p = P(-1e-17, 0.0)
    assert _reference_ray_cast(p, poly)
    assert locate(p, poly) == OUTSIDE


def test_bbox_is_derived_and_ignored_by_equality():
    a = PlanarPolygon((square(0.0, 0.0, 2.0, 1.0), square(0.5, 0.25, 1.0, 0.75)))
    b = PlanarPolygon((square(0.0, 0.0, 2.0, 1.0), square(0.5, 0.25, 1.0, 0.75)))
    assert a.bbox == (0.0, 0.0, 2.0, 1.0)
    assert a == b and hash(a) == hash(b)
    assert "bbox" not in repr(a)


def test_point_on_boundary():
    poly = PlanarPolygon((square(), square(0.25, 0.25, 0.75, 0.75)))
    assert locate(P(1.0, 0.5), poly) == BOUNDARY
    assert locate(P(0.0, 0.0), poly) == BOUNDARY
    assert locate(P(0.25, 0.5), poly) == BOUNDARY  # hole edge
    assert locate(P(0.1, 0.5), poly) != BOUNDARY
    assert locate(P(2.0, 0.5), poly) != BOUNDARY


# --- locate against the unfiltered walk ------------------------------------------

def _reference_locate(p, poly):
    """Every edge is tested: an on-edge scan, then the even-odd ray cast."""
    if any(_reference_on_segment(p, a, b) for a, b in _edges(poly)):
        return BOUNDARY
    return INSIDE if _reference_ray_cast(p, poly) else OUTSIDE


@st.composite
def _flattened_star_polygons(draw):
    """A star polygon, some of whose vertices take the y of the one before,
    so that some edges are horizontal."""
    poly = draw(_star_polygons())
    rings = []
    for ring in poly.rings:
        ring = list(ring[:-1])
        for k in range(1, len(ring)):
            if draw(st.booleans()):
                ring[k] = P(ring[k].x, ring[k - 1].y)
        rings.append(tuple(ring))
    try:
        return PlanarPolygon(tuple(rings))
    except ValueError:
        assume(False)


@st.composite
def _locate_probes(draw, poly):
    """Besides ``_probe_points``: points on horizontal edges, and points one
    ulp above or below a vertex's height."""
    kind = draw(st.sampled_from(["probe", "horizontal", "ulp_height"]))
    horizontal = [(a, b) for a, b in _edges(poly) if a.y == b.y]
    if kind == "probe" or (kind == "horizontal" and not horizontal):
        return draw(_probe_points(poly))
    if kind == "horizontal":
        a, b = draw(st.sampled_from(horizontal))
        return P(draw(st.floats(min(a.x, b.x), max(a.x, b.x))), a.y)
    v = draw(st.sampled_from([v for ring in poly.rings for v in ring]))
    min_x, _, max_x, _ = poly.bbox
    x = draw(st.sampled_from([v.x, draw(st.floats(min_x, max_x))]))
    return P(x, math.nextafter(v.y, draw(st.sampled_from([-math.inf, math.inf]))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_locate_matches_unfiltered_walk(data):
    poly = data.draw(_flattened_star_polygons())
    for _ in range(8):
        p = data.draw(_locate_probes(poly))
        expected = OUTSIDE if _strictly_outside_bbox(p, poly) else _reference_locate(p, poly)
        assert locate(p, poly) == expected


def test_locate_tests_only_edges_at_the_points_height(monkeypatch):
    # A 500-vertex ring close to a circle: a horizontal line meets few edges.
    rng = random.Random(6)
    poly = PlanarPolygon((tuple(
        P(r * math.cos(t), r * math.sin(t))
        for t, r in ((2 * math.pi * k / 500, rng.uniform(0.99, 1.01)) for k in range(500))
    ),))
    edges = list(_edges(poly))
    calls = []

    def counted(p, a, b):
        calls.append((a, b))
        return _reference_on_segment(p, a, b)

    monkeypatch.setattr(geometry, "_on_segment", counted)
    min_x, min_y, max_x, max_y = poly.bbox
    probes = [P(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y)) for _ in range(50)]
    probes += [v for v in poly.rings[0][:50]]
    for p in probes:
        calls.clear()
        result = locate(p, poly)
        at_height = [(a, b) for a, b in edges if min(a.y, b.y) <= p.y <= max(a.y, b.y)]
        assert len(calls) <= len(at_height) < len(edges) // 10
        assert set(calls) <= set(at_height)
        assert result == _reference_locate(p, poly)
    for p in (P(min_x - 1.0, min_y), P(max_x, max_y + 1e-9), P(0.5 * (min_x + max_x), min_y - 1.0)):
        calls.clear()
        assert locate(p, poly) == OUTSIDE
        assert calls == []
