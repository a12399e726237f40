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
    PlanarPolygon,
    locate,
)


def P(x, y):
    """A point, as the package holds one: an ``(x, y)`` pair."""
    return (x, y)


def square(x0=0.0, y0=0.0, x1=1.0, y1=1.0):
    return (P(x0, y0), P(x1, y0), P(x1, y1), P(x0, y1))


def _edges(poly):
    """Every edge of every ring, in order."""
    for ring in poly.rings:
        yield from zip(ring, ring[1:])


@pytest.mark.parametrize(
    "bad, message",
    [(P(float("nan"), 0.5), "(nan, 0.5)"), (P(0.5, -math.inf), "(0.5, -inf)")],
    ids=["nan", "inf"],
)
def test_polygon_requires_finite_vertices(bad, message):
    # Parsers check each coordinate as they read it; a polygon built
    # directly checks its own vertices.
    with pytest.raises(ValueError) as err:
        PlanarPolygon((square(), square()[:2] + (bad,)))
    assert str(err.value) == f"non-finite coordinate {message}"


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
    (px, py), total = p, 0.0
    for (ax, ay), (bx, by) in zip(ring, ring[1:]):
        ax, ay = ax - px, ay - py
        bx, by = bx - px, by - py
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi


def _segment_distance(p, a, b):
    (px, py), (ax, ay), (bx, by) = p, a, b
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    seg_len2 = vx * vx + vy * vy
    t = 0.0 if seg_len2 == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / seg_len2))
    dx, dy = px - (ax + t * vx), py - (ay + t * vy)
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
    (px, py), (ax, ay), (bx, by) = p, a, b
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if cross != 0.0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _reference_ray_cast(p, poly):
    """The even-odd walk over every edge, without the bounding-box test."""
    (px, py), inside = p, False
    for a, b in _edges(poly):
        if _reference_on_segment(p, a, b):
            return True
        (ax, ay), (bx, by) = a, b
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < x_cross:
                inside = not inside
    return inside


def _strictly_outside_bbox(p, poly):
    (px, py), (min_x, min_y, max_x, max_y) = p, poly.bbox
    return px < min_x or px > max_x or py < min_y or py > max_y


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
        return P((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    v = draw(st.sampled_from(vertices))
    side = draw(st.sampled_from(["left", "right", "below", "above"]))
    if side == "left":
        return P(math.nextafter(min_x, -math.inf), v[1])
    if side == "right":
        return P(math.nextafter(max_x, math.inf), v[1])
    if side == "below":
        return P(v[0], math.nextafter(min_y, -math.inf))
    return P(v[0], math.nextafter(max_y, math.inf))


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
    assert "bbox" not in repr(a) and "bands" not in repr(a)


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
                ring[k] = P(ring[k][0], ring[k - 1][1])
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
    horizontal = [(a, b) for a, b in _edges(poly) if a[1] == b[1]]
    if kind == "probe" or (kind == "horizontal" and not horizontal):
        return draw(_probe_points(poly))
    if kind == "horizontal":
        a, b = draw(st.sampled_from(horizontal))
        return P(draw(st.floats(min(a[0], b[0]), max(a[0], b[0]))), a[1])
    v = draw(st.sampled_from([v for ring in poly.rings for v in ring]))
    min_x, _, max_x, _ = poly.bbox
    x = draw(st.sampled_from([v[0], draw(st.floats(min_x, max_x))]))
    return P(x, math.nextafter(v[1], draw(st.sampled_from([-math.inf, math.inf]))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_locate_matches_unfiltered_walk(data):
    poly = data.draw(_flattened_star_polygons())
    for _ in range(8):
        p = data.draw(_locate_probes(poly))
        expected = OUTSIDE if _strictly_outside_bbox(p, poly) else _reference_locate(p, poly)
        assert locate(p, poly) == expected


class _WalkedBand(tuple):
    """A band of ``PlanarPolygon.bands`` that records each walk over it."""

    walked: list

    def __iter__(self):
        self.walked.append(self)
        return super().__iter__()


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
    walked = []
    scale, bands = poly.bands
    assert len(bands) == math.isqrt(len(edges))
    # each band's chains are runs of consecutive edges: the ring meets a
    # band in two arcs, one of which the ring's first vertex may split
    assert all(set(zip(c, c[1:])) <= set(edges) for band in bands for c in band)
    assert max(len(band) for band in bands) <= 3
    recorded = tuple(map(_WalkedBand, bands))
    for band in recorded:
        band.walked = walked
    object.__setattr__(poly, "bands", (scale, recorded))
    min_x, min_y, max_x, max_y = poly.bbox
    probes = [P(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y)) for _ in range(50)]
    probes += [v for v in poly.rings[0][:50]]
    for p in probes:
        calls.clear()
        walked.clear()
        result = locate(p, poly)
        at_height = [(a, b) for a, b in edges if min(a[1], b[1]) <= p[1] <= max(a[1], b[1])]
        # one band is walked; it lists every edge at p's height and a
        # fifth of the edges at most
        assert len(walked) == 1
        band_edges = [e for chain in walked[0] for e in zip(chain, chain[1:])]
        assert set(at_height) <= set(band_edges)
        assert len(band_edges) <= len(edges) // 5
        assert len(calls) <= len(at_height) < len(edges) // 10
        assert set(calls) <= set(at_height)
        assert result == _reference_locate(p, poly)
    for p in (P(min_x - 1.0, min_y), P(max_x, max_y + 1e-9), P(0.5 * (min_x + max_x), min_y - 1.0)):
        calls.clear()
        walked.clear()
        assert locate(p, poly) == OUTSIDE
        assert calls == [] and walked == []


# --- many-vertex rings, whose edges spread over many bands --------------------

@st.composite
def _wiggly_square_polygons(draw):
    """A square of 50-300 vertices, each pushed radially in or out, with an
    optional hole of the same kind; some vertices take the y of the one
    before, so that some edges are horizontal, and some move to a band
    boundary's height or one ulp off it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cx, cy = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
    half = rng.uniform(0.01, 100.0)
    flatten = rng.choice([0.0, 0.1, 0.5])

    def ring(scale):
        n = rng.randint(50, 300)
        vertices = []
        for k in range(n):
            # walk the square's perimeter, 4 units around
            t = 4.0 * (k + rng.uniform(0.0, 0.9)) / n
            side, f = int(t), t - int(t)
            u, v = [(f, 0.0), (1.0, f), (1.0 - f, 1.0), (0.0, 1.0 - f)][side]
            r = scale * half * rng.uniform(0.8, 1.2)
            vertices.append(P(cx + r * (2.0 * u - 1.0), cy + r * (2.0 * v - 1.0)))
        for k in range(1, n):
            if rng.random() < flatten:
                vertices[k] = P(vertices[k][0], vertices[k - 1][1])
        return vertices

    rings = [ring(1.0)]
    if draw(st.booleans()):
        rings.append(ring(0.3))
    # Band boundaries as PlanarPolygon will place them; vertices at the
    # extreme heights stay, so the bbox does not move.
    ys = [v[1] for r in rings for v in r]
    min_y, max_y = min(ys), max(ys)
    k = math.isqrt(len(ys))
    step = (max_y - min_y) / k
    snap = rng.choice([0.0, 0.1, 0.3])
    for r in rings:
        for i, v in enumerate(r):
            if min_y < v[1] < max_y and rng.random() < snap:
                y = min_y + round((v[1] - min_y) / step) * step
                if rng.random() < 0.3:
                    y = math.nextafter(y, rng.choice([-math.inf, math.inf]))
                r[i] = P(v[0], min(max(y, min_y), max_y))
    try:
        return PlanarPolygon(tuple(map(tuple, rings)))
    except ValueError:
        assume(False)


@st.composite
def _band_probes(draw, poly):
    """A vertex, an edge midpoint, a point on a horizontal edge, or a point
    at a band boundary; at that height or one ulp either side of it."""
    edges = list(_edges(poly))
    min_x, min_y, max_x, max_y = poly.bbox
    kind = draw(st.sampled_from(["vertex", "midpoint", "horizontal", "band"]))
    horizontal = [(a, b) for a, b in edges if a[1] == b[1]]
    if kind == "vertex":
        p = draw(st.sampled_from(edges))[0]
    elif kind == "midpoint" or (kind == "horizontal" and not horizontal):
        a, b = draw(st.sampled_from(edges))
        p = P((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    elif kind == "horizontal":
        a, b = draw(st.sampled_from(horizontal))
        p = P(draw(st.floats(min(a[0], b[0]), max(a[0], b[0]))), a[1])
    else:
        k = math.isqrt(len(edges))
        y = min_y + draw(st.integers(0, k)) * (max_y - min_y) / k
        vertex_x = draw(st.sampled_from(edges))[0][0]
        p = P(draw(st.sampled_from([draw(st.floats(min_x, max_x)), vertex_x])), y)
    shift = draw(st.sampled_from([None, -math.inf, math.inf]))
    return p if shift is None else P(p[0], math.nextafter(p[1], shift))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_band_walk_matches_unfiltered_walk_on_many_vertex_rings(data):
    poly = data.draw(_wiggly_square_polygons())
    assert len(poly.bands[1]) > 1
    for _ in range(10):
        p = data.draw(_band_probes(poly))
        expected = OUTSIDE if _strictly_outside_bbox(p, poly) else _reference_locate(p, poly)
        assert locate(p, poly) == expected


# A 40-vertex ring of height 0, of a height that overflows to inf, and of
# a subnormal height, for which k / height overflows.
@pytest.mark.parametrize("y_scale", [0.0, 1e308, 1e-310], ids=["flat", "huge", "tiny"])
def test_degenerate_height_falls_back_to_the_whole_walk(y_scale):
    angles = [2 * math.pi * k / 40 for k in range(40)]
    poly = PlanarPolygon((tuple(P(math.cos(t), y_scale * math.sin(t)) for t in angles),))
    min_x, min_y, max_x, max_y = poly.bbox
    edges = list(_edges(poly))
    assert math.isqrt(len(edges)) > 2
    assert poly.bands == (0.0, ())
    ys = sorted({v[1] for v in poly.rings[0]})
    heights = ys + [math.nextafter(y, d) for y in ys for d in (-math.inf, math.inf)]
    heights = [y for y in heights if math.isfinite(y)]
    xs = sorted({v[0] for v in poly.rings[0]}) + [0.5 * (min_x + max_x), 0.25]
    probes = [P(x, y) for x in xs for y in heights]
    probes += [P(a[0] / 2 + b[0] / 2, a[1] / 2 + b[1] / 2) for a, b in edges]
    for p in probes:
        expected = OUTSIDE if _strictly_outside_bbox(p, poly) else _reference_locate(p, poly)
        assert locate(p, poly) == expected
