"""Static renderings of an oriented (and optionally solved) grid.

GeoJSON is the primary output: buses as Point features, lines as
LineString features whose coordinates run in the assigned direction.
Load and flow intensity is encoded as a linear two-color ramp
normalized per render to the [min, max] of the plotted quantity. DOT
output captures the directed topology with provenance attributes, and
SVG is a flat projection of the same features with the same colors.
"""

from __future__ import annotations

import json
from typing import Mapping

from .direction import Orientation
from .dispatch import FlowSolution
from .graph import Grid

#: Bottom and top RGB of the one ramp that colors buses by load and
#: lines by flow. Normalization is per render: the plotted quantity's
#: minimum maps to the bottom, its maximum to the top. A degenerate
#: range (all values equal, or no solution supplied) renders at the
#: bottom color.
RAMP = ((0x2C, 0x7B, 0xB6), (0xD7, 0x19, 0x1C))

#: The ramp under its older name, still passed to ``render_svg`` by the
#: benchmark's pass.
DEFAULT_STYLE = RAMP

#: SVG viewport width in user units; the height follows the data's aspect.
SVG_WIDTH = 800.0


def _colors(keys, values: Mapping[str, float], ramp) -> list[str]:
    """The ramp color of each key's value, normalized to the values' [min, max]."""
    (r0, g0, b0), (r1, g1, b1) = ramp
    low = min(values.values(), default=0.0)
    high = max(values.values(), default=0.0)
    if high <= low:
        return [f"#{r0:02x}{g0:02x}{b0:02x}"] * len(keys)
    colors = []
    for key in keys:
        t = (values[key] - low) / (high - low)
        colors.append(
            "#{:02x}{:02x}{:02x}".format(
                round(r0 + (r1 - r0) * t), round(g0 + (g1 - g0) * t), round(b0 + (b1 - b0) * t)
            )
        )
    return colors


def _features(grid: Grid, orientation: Orientation, solution: FlowSolution | None, ramp):
    """Per bus ``(id, point, color)`` and per line ``(id, from, to,
    points from -> to, color)``, in grid order."""
    loads = solution.loads if solution is not None else {}
    flows = solution.flows if solution is not None else {}
    buses = [
        (bus_id, bus.location, color)
        for (bus_id, bus), color in zip(grid.buses.items(), _colors(grid.buses, loads, ramp))
    ]
    lines = []
    for (line_id, line), color in zip(grid.lines.items(), _colors(grid.lines, flows, ramp)):
        frm, to = orientation.from_to(line)
        points = line.geometry
        if points is None:
            points = (grid.buses[line.endpoint_a].location, grid.buses[line.endpoint_b].location)
        if frm != line.endpoint_a:
            points = points[::-1]
        lines.append((line_id, frm, to, points, color))
    return buses, lines


def render_geojson(
    grid: Grid, orientation: Orientation, solution: FlowSolution | None = None
) -> dict:
    """Build a GeoJSON FeatureCollection: buses, then lines, in grid order.

    Buses are colored by load, lines by flow, both normalized to the
    render's own [min, max]. Without a solution everything renders at
    the ramp bottom and the flow/load properties are omitted.
    """
    buses, lines = _features(grid, orientation, solution, RAMP)
    features = []
    for bus_id, point, color in buses:
        properties = {"id": bus_id, "voltage_kv": grid.buses[bus_id].voltage_kv}
        if solution is not None:
            properties["load_mw"] = solution.loads.get(bus_id, 0.0)
            properties["epsilon_mw"] = solution.mismatch.get(bus_id, 0.0)
        properties["color"] = color
        geometry = {"type": "Point", "coordinates": [point.x, point.y]}
        features.append({"type": "Feature", "geometry": geometry, "properties": properties})
    for line_id, frm, to, points, color in lines:
        properties = {"id": line_id, "direction": f"{frm}->{to}"}
        if solution is not None:
            properties["flow_mw"] = solution.flows.get(line_id, 0.0)
        properties["color"] = color
        geometry = {"type": "LineString", "coordinates": [[p.x, p.y] for p in points]}
        features.append({"type": "Feature", "geometry": geometry, "properties": properties})
    return {"type": "FeatureCollection", "features": features}


def geojson_text(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _xml_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
    ramp=RAMP,
) -> str:
    """Flat SVG projection of the GeoJSON features (same colors): lines
    as polylines, then buses as circles titled with their id."""
    buses, lines = _features(grid, orientation, solution, ramp)
    points = [point for _bus_id, point, _color in buses]
    points += [p for _line_id, _frm, _to, line_points, _color in lines for p in line_points]
    if not points:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {SVG_WIDTH:g} {SVG_WIDTH:g}"/>\n'
        )
    min_x = min(p.x for p in points)
    max_x = max(p.x for p in points)
    min_y = min(p.y for p in points)
    max_y = max(p.y for p in points)
    span = max(max_x - min_x, max_y - min_y) or 1.0
    margin = 0.05 * span
    scale = SVG_WIDTH / (span + 2 * margin)

    def project(p) -> tuple[float, float]:
        return (
            (p.x - min_x + margin) * scale,
            (max_y - p.y + margin) * scale,  # flip: SVG y grows downward
        )

    height = (max_y - min_y + 2 * margin) * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {SVG_WIDTH:.2f} {height:.2f}">'
    ]
    for _line_id, _frm, _to, line_points, color in lines:
        projected = " ".join("{:.2f},{:.2f}".format(*project(p)) for p in line_points)
        parts.append(
            f'  <polyline fill="none" stroke="{color}" stroke-width="2" points="{projected}"/>'
        )
    bus_radius = max(3.0, SVG_WIDTH / 200.0)
    for bus_id, point, color in buses:
        cx, cy = project(point)
        parts.append(
            f'  <circle cx="{cx:.2f}" cy="{cy:.2f}" r="{bus_radius:.2f}" '
            f'fill="{color}"><title>{_xml_text(bus_id)}</title></circle>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
