"""Static renderings of an oriented (and optionally solved) grid.

GeoJSON is the primary output: buses as Point features, lines as
LineString features whose coordinates run in the assigned direction.
Load and flow intensity is encoded as a linear two-color ramp
normalized per render to the [min, max] of the plotted quantity. DOT
output captures the directed topology with provenance attributes, and
SVG is a flat projection of the GeoJSON with the same colors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .direction import Orientation
from .dispatch import FlowSolution
from .graph import Grid

__all__ = [
    "RenderStyle",
    "DEFAULT_STYLE",
    "render_geojson",
    "geojson_text",
    "render_dot",
    "render_svg",
]


def _hex_to_rgb(color: str) -> tuple[int, int, int]:
    color = color.strip()
    if not (len(color) == 7 and color.startswith("#")):
        raise ValueError(f"expected #rrggbb color, got {color!r}")
    return tuple(int(color[i : i + 2], 16) for i in (1, 3, 5))  # type: ignore[return-value]


def _lerp_hex(low: str, high: str, t: float) -> str:
    lo, hi = _hex_to_rgb(low), _hex_to_rgb(high)
    mixed = tuple(round(a + (b - a) * t) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*mixed)


@dataclass(frozen=True, slots=True)
class RenderStyle:
    """Two-color ramps for buses (load) and lines (flow).

    Normalization is per render: the plotted quantity's minimum maps to
    the ramp bottom, its maximum to the ramp top. A degenerate range
    (all values equal, or no solution supplied) renders at the bottom
    color.
    """

    bus_ramp: tuple[str, str] = ("#2c7bb6", "#d7191c")
    line_ramp: tuple[str, str] = ("#2c7bb6", "#d7191c")

    def __post_init__(self) -> None:
        for color in (*self.bus_ramp, *self.line_ramp):
            _hex_to_rgb(color)

    def bus_color(self, t: float) -> str:
        return _lerp_hex(*self.bus_ramp, t)

    def line_color(self, t: float) -> str:
        return _lerp_hex(*self.line_ramp, t)


DEFAULT_STYLE = RenderStyle()

#: SVG viewport width in user units; the height follows the data's aspect.
SVG_WIDTH = 800.0


def _normalizer(values: Mapping[str, float]):
    if not values:
        return lambda _key: 0.0
    low = min(values.values())
    high = max(values.values())
    if high <= low:
        return lambda _key: 0.0
    return lambda key: (values[key] - low) / (high - low)


def render_geojson(
    grid: Grid,
    orientation: Orientation,
    solution: FlowSolution | None = None,
    style: RenderStyle = DEFAULT_STYLE,
) -> dict:
    """Build a GeoJSON FeatureCollection; features are sorted by id.

    Buses are colored by load, lines by flow, both normalized to the
    render's own [min, max]. Without a solution everything renders at
    the ramp bottom and the flow/load properties are omitted.
    """
    features = []
    line_t = _normalizer(dict(solution.flows)) if solution is not None else (lambda _k: 0.0)
    bus_t = _normalizer(dict(solution.loads)) if solution is not None else (lambda _k: 0.0)

    for bus_id, bus in grid.buses.items():
        properties = {"id": bus_id, "voltage_kv": bus.voltage_kv}
        if solution is not None:
            properties["load_mw"] = solution.loads.get(bus_id, 0.0)
            properties["epsilon_mw"] = solution.mismatch.get(bus_id, 0.0)
        properties["color"] = style.bus_color(bus_t(bus_id))
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [bus.location.x, bus.location.y],
                },
                "properties": properties,
            }
        )

    for line_id, line in grid.lines.items():
        frm, to = orientation.from_to(line)
        points = line.geometry
        if points is None:
            points = (grid.buses[line.endpoint_a].location, grid.buses[line.endpoint_b].location)
        coords = [[p.x, p.y] for p in points]
        if frm != line.endpoint_a:
            coords.reverse()  # coordinates run from -> to
        properties = {"id": line_id, "direction": f"{frm}->{to}"}
        if solution is not None:
            properties["flow_mw"] = solution.flows.get(line_id, 0.0)
        properties["color"] = style.line_color(line_t(line_id))
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": properties,
            }
        )

    return {"type": "FeatureCollection", "features": features}


def geojson_text(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(grid: Grid, orientation: Orientation) -> str:
    """Directed-graph DOT text with provenance as an edge attribute."""
    lines = ["digraph grid {"]
    for bus_id in grid.buses:
        lines.append(f"  {_dot_quote(bus_id)};")
    for line_id, line in grid.lines.items():
        frm, to = orientation.from_to(line)
        provenance = orientation.provenance[line_id].value
        lines.append(
            f"  {_dot_quote(frm)} -> {_dot_quote(to)} "
            f"[label={_dot_quote(line_id)}, provenance={_dot_quote(provenance)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_svg(
    grid: Grid,
    orientation: Orientation,
    solution: FlowSolution | None = None,
    style: RenderStyle = DEFAULT_STYLE,
) -> str:
    """Flat SVG projection of the GeoJSON content (same color ramps)."""
    document = render_geojson(grid, orientation, solution, style)
    xs: list[float] = []
    ys: list[float] = []
    for feature in document["features"]:
        geometry = feature["geometry"]
        coords = (
            [geometry["coordinates"]]
            if geometry["type"] == "Point"
            else geometry["coordinates"]
        )
        for x, y in coords:
            xs.append(x)
            ys.append(y)
    if not xs:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {SVG_WIDTH:g} {SVG_WIDTH:g}"/>\n'
        )
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y) or 1.0
    margin = 0.05 * span
    scale = SVG_WIDTH / (span + 2 * margin)

    def project(x: float, y: float) -> tuple[float, float]:
        return (
            (x - min_x + margin) * scale,
            (max_y - y + margin) * scale,  # flip: SVG y grows downward
        )

    height = (max_y - min_y + 2 * margin) * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {SVG_WIDTH:.2f} {height:.2f}">'
    ]
    bus_radius = max(3.0, SVG_WIDTH / 200.0)
    for feature in document["features"]:
        geometry = feature["geometry"]
        color = feature["properties"]["color"]
        if geometry["type"] == "LineString":
            points = " ".join(
                "{:.2f},{:.2f}".format(*project(x, y)) for x, y in geometry["coordinates"]
            )
            parts.append(
                f'  <polyline fill="none" stroke="{color}" stroke-width="2" '
                f'points="{points}"/>'
            )
    for feature in document["features"]:
        geometry = feature["geometry"]
        if geometry["type"] != "Point":
            continue
        color = feature["properties"]["color"]
        cx, cy = project(*geometry["coordinates"])
        parts.append(
            f'  <circle cx="{cx:.2f}" cy="{cy:.2f}" r="{bus_radius:.2f}" '
            f'fill="{color}"><title>{feature["properties"]["id"]}</title></circle>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
