"""gridtopo: rebuild a directed transmission-network model from open data.

The pipeline ingests a CSV family describing substations, lines,
generators, planning areas, city borders, population points, and area
loads; assigns a direction to every line; disaggregates area load to a
per-bus demand index; attributes generation to reachable buses; and
solves a flow-conservation LP for line loadings. Renderings and
scenario diffs sit on top.
"""

from .analysis import DirectionDiff, direction_diff
from .demand import (
    DEFAULT_URBAN_SHARE,
    DemandIndex,
    allocate_demand_index,
    cosine_similarity,
    pearson,
    similarity_report,
)
from .direction import (
    DEFAULT_SEED,
    Direction,
    Orientation,
    Provenance,
    apply_heuristics,
    bfs_orient,
    entry_points,
    orient_all,
    residual_subgraphs,
)
from .dispatch import (
    MODE_MAX_CAPACITY,
    MODE_TIME_POINT,
    BusLoad,
    FlowSolution,
    GenerationSnapshot,
    estimate_bus_load,
    make_snapshot,
    reachable_buses,
    solve_flow_lp,
)
from .geometry import PlanarPoint, PlanarPolygon, point_in_polygon
from .graph import Grid, VoltageClass, build_grid, undirected_components, voltage_class
from .ingest import (
    BusRecord,
    GeneratorRecord,
    GridDataset,
    LineRecord,
    PlanningArea,
    ValidationReport,
    assign_regions,
    build_dataset,
    load_dataset,
    validate_dataset,
)
from .render import RenderStyle, render_dot, render_geojson, render_svg

__version__ = "0.1.0"

_FETCH_NAMES = frozenset({"fetch_dataset", "parse_manifest"})


def __getattr__(name):
    # fetch pulls in urllib and ssl; load it only when one of its names is used.
    if name in _FETCH_NAMES:
        from . import fetch

        return getattr(fetch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "DEFAULT_SEED",
    "DEFAULT_URBAN_SHARE",
    "MODE_MAX_CAPACITY",
    "MODE_TIME_POINT",
    "BusLoad",
    "BusRecord",
    "DemandIndex",
    "Direction",
    "DirectionDiff",
    "FlowSolution",
    "GenerationSnapshot",
    "GeneratorRecord",
    "Grid",
    "GridDataset",
    "LineRecord",
    "Orientation",
    "PlanarPoint",
    "PlanarPolygon",
    "PlanningArea",
    "Provenance",
    "RenderStyle",
    "ValidationReport",
    "VoltageClass",
    "allocate_demand_index",
    "apply_heuristics",
    "assign_regions",
    "bfs_orient",
    "build_dataset",
    "build_grid",
    "cosine_similarity",
    "direction_diff",
    "entry_points",
    "estimate_bus_load",
    "fetch_dataset",
    "load_dataset",
    "make_snapshot",
    "orient_all",
    "parse_manifest",
    "pearson",
    "point_in_polygon",
    "reachable_buses",
    "render_dot",
    "render_geojson",
    "render_svg",
    "residual_subgraphs",
    "similarity_report",
    "solve_flow_lp",
    "undirected_components",
    "validate_dataset",
    "voltage_class",
]
