"""Per-layer metrics: what each one measures and what it should move.

Layers are the package's modules. Each entry names the end-to-end metric
the layer metric should move and the workloads where it should show; on
the other workloads the prediction is no change. A time metric is the
total duration of its spans in the traced pass, and reads 0 on a
workload whose pass does not make that call.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "LAYER_METRICS", "layer_metrics"]

#: End-to-end metric -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

ALL = ("paper_solve", "backbone_7k", "digitized_borders")

#: Per-layer metric -> (unit, end-to-end metric it should move, workloads).
LAYER_METRICS = {
    "ingest.parse_s": ("s", "wall_s", ("digitized_borders", "backbone_7k")),
    "ingest.build_dataset_s": ("s", "wall_s", ("digitized_borders", "backbone_7k")),
    "ingest.input_rows": ("count", None, ()),
    "ingest.input_bytes": ("bytes", None, ()),
    "ingest.polygon_edges": ("count", None, ()),
    "graph.build_grid_s": ("s", "wall_s", ("backbone_7k",)),
    "direction.orient_all_s": ("s", "wall_s", ("backbone_7k",)),
    "direction.residual_subgraphs": ("count", None, ()),
    "direction.heuristic_lines": ("count", None, ()),
    "direction.bfs_tree_lines": ("count", None, ()),
    "direction.residual_random_lines": ("count", None, ()),
    "direction.fallback_subgraphs": ("count", None, ()),
    "direction.conflicts": ("count", None, ()),
    "demand.allocate_s": ("s", "wall_s", ("digitized_borders",)),
    "demand.similarity_s": ("s", "wall_s", ("digitized_borders",)),
    "dispatch.make_snapshot_s": ("s", "wall_s", ("backbone_7k",)),
    "dispatch.bus_load_s": ("s", "wall_s", ("backbone_7k",)),
    "dispatch.reach_total": ("count", None, ()),
    "dispatch.solve_s": ("s", "wall_s, peak_rss_mb", ("paper_solve",)),
    "dispatch.solver_work": ("count", None, ()),
    "analysis.direction_diff_s": ("s", "wall_s", ("paper_solve",)),
    "analysis.changed_lines": ("count", None, ()),
    "render.svg_s": ("s", "wall_s", ("paper_solve",)),
    "io.write_s": ("s", "wall_s", ALL),
    "io.output_bytes": ("bytes", None, ()),
    "bench.trace_overhead_s": ("s", None, ()),
}

PARSERS = {
    "ingest.parse_buses",
    "ingest.parse_lines",
    "ingest.parse_generators",
    "ingest.parse_planning_area_polygons",
    "ingest.parse_hourly_loads",
    "ingest.parse_city_polygons",
    "ingest.parse_population_points",
}

#: Time metric -> span names it totals.
SPANS = {
    "ingest.build_dataset_s": {"ingest.build_dataset"},
    "graph.build_grid_s": {"graph.build_grid"},
    "direction.orient_all_s": {"direction.orient_all"},
    "demand.allocate_s": {"demand.allocate_demand_index"},
    "demand.similarity_s": {"demand.similarity_report"},
    "dispatch.make_snapshot_s": {"dispatch.make_snapshot"},
    "dispatch.bus_load_s": {"dispatch.estimate_bus_load"},
    "dispatch.solve_s": {"dispatch.solve_flow_lp"},
    "analysis.direction_diff_s": {"analysis.direction_diff"},
    "render.svg_s": {"render.render_svg"},
    "io.write_s": {
        "dispatch.write_solution_files",
        "direction.write_orientation_csv",
        "demand.write_demand_index_csv",
        "demand.write_similarity_csv",
        "io.write_svg",
    },
}


def layer_metrics(spans: list[dict], values: dict) -> dict:
    """Per-layer metrics from a traced pass's spans plus counted values.

    ``ingest.parse_s`` counts only the parser calls ``load_dataset``
    makes, not the yearly load files the similarity step reads.
    """
    names = {s["id"]: s["name"] for s in spans}
    metrics = dict(values)
    metrics["ingest.parse_s"] = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in PARSERS and names.get(s["parent"]) == "ingest.load_dataset"
    )
    for metric, span_names in SPANS.items():
        metrics[metric] = sum(s["end"] - s["start"] for s in spans if s["name"] in span_names)
    return {name: metrics[name] for name in LAYER_METRICS}
