"""Command-line pipeline orchestration.

Subcommands: fetch, validate, orient, similarity, demand-index, solve,
diff, render. Every run ends with one machine-readable summary line:

    objective=<f> max_residual=<f> lines=<n> directed_heuristic=<n> [changed=<n>]

``nan`` marks fields a subcommand does not compute. Exit codes: 0 on
success, 1 for usage/data validation errors, 2 for internal errors.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import __version__, ingest
from .analysis import direction_diff
from .demand import (
    DEFAULT_URBAN_SHARE,
    allocate_demand_index,
    similarity_report,
    write_demand_index_csv,
    write_similarity_csv,
)
from .direction import DEFAULT_SEED, orient_all, read_orientation_csv, write_orientation_csv
from .dispatch import (
    MODE_MAX_CAPACITY,
    MODE_TIME_POINT,
    estimate_bus_load,
    make_snapshot,
    solve_flow_lp,
    write_solution_files,
)
from .graph import build_grid
from .ingest import (
    IngestError,
    link_area_loads,
    load_dataset,
    validate_dataset,
    write_text,
)
from .render import geojson_text, render_dot, render_geojson, render_svg


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our own
    # error handling so usage problems exit 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    data = _Parser(add_help=False)
    data.add_argument("--data-dir", type=Path, default=Path("."), help="dataset directory")
    scenario = _Parser(add_help=False)
    scenario.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random-stage seed")
    scenario.add_argument(
        "--mode",
        choices=(MODE_MAX_CAPACITY, MODE_TIME_POINT),
        default=MODE_MAX_CAPACITY,
        help="generation scenario mode",
    )
    scenario.add_argument("--snapshot", type=Path, help="Snapshot.csv for timepoint mode")
    urban = _Parser(add_help=False)
    urban.add_argument(
        "--urban-share",
        type=float,
        default=DEFAULT_URBAN_SHARE,
        help="fraction of area load assigned to urban buses",
    )
    out = _Parser(add_help=False)
    out.add_argument("--out", type=Path, help="output path")
    solve = [data, scenario, urban, out]

    parser = _Parser(prog="gridtopo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gridtopo {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("fetch", parents=[data], help="download manifest datasets")
    p.add_argument("--manifest", type=Path, help="manifest file (default: <data-dir>/manifest.txt)")
    p.add_argument("--cache-dir", type=Path, help="cache directory (default: <data-dir>)")
    p.set_defaults(run=_cmd_fetch)
    p = sub.add_parser("validate", parents=[data], help="load and report dataset findings")
    p.set_defaults(run=_cmd_validate)
    p = sub.add_parser(
        "orient", parents=[data, scenario, out], help="assign directions, export CSV"
    )
    p.set_defaults(run=_cmd_orient)
    p = sub.add_parser(
        "similarity", parents=[data, out], help="population vs load similarity report"
    )
    p.set_defaults(run=_cmd_similarity)
    p = sub.add_parser("demand-index", parents=[data, urban, out], help="per-bus demand index CSV")
    p.set_defaults(run=_cmd_demand_index)
    p = sub.add_parser("solve", parents=solve, help="orient, allocate, and solve the flow LP")
    p.set_defaults(run=_cmd_solve)
    p = sub.add_parser("diff", help="compare two orientation CSVs")
    p.add_argument("baseline", type=Path)
    p.add_argument("other", type=Path)
    p.set_defaults(run=_cmd_diff)
    p = sub.add_parser("render", parents=solve, help="emit geojson/dot/svg rendering")
    p.add_argument("--format", choices=("geojson", "dot", "svg"), default="geojson", dest="fmt")
    p.set_defaults(run=_cmd_render)
    return parser


def _summary(solution=None, lines=0, heuristic=0, changed=None) -> str:
    if solution is None:
        objective = max_residual = "nan"
    else:
        objective = repr(float(solution.objective))
        max_residual = repr(float(solution.max_residual))
    text = (
        f"objective={objective} max_residual={max_residual} "
        f"lines={lines} directed_heuristic={heuristic}"
    )
    if changed is not None:
        text += f" changed={changed}"
    return text


def _warnings(*stages) -> list[str]:
    return [f"warning: {message}" for stage in stages for message in stage.warnings]


def _warn(lines) -> None:
    """The one stderr print of a successful run, after its outputs are written."""
    sys.stderr.writelines(f"{line}\n" for line in lines)


def _oriented(args, dataset):
    grid = build_grid(dataset)
    snapshot = make_snapshot(dataset, args.mode, args.snapshot)
    orientation = orient_all(grid, snapshot, args.seed)
    warnings = _warnings(snapshot, orientation)
    if orientation.conflicts:
        warnings.append("conflicting heuristics on: " + ", ".join(orientation.conflicts))
    return grid, snapshot, orientation, warnings


def _solved(args, dataset):
    """Orient, allocate demand and solve the flow LP; stderr lines in stage order."""
    grid, snapshot, orientation, warnings = _oriented(args, dataset)
    index = allocate_demand_index(dataset, args.urban_share)
    bus_load = estimate_bus_load(index, snapshot, orientation, grid)
    solution = solve_flow_lp(orientation, grid, bus_load, snapshot)
    return grid, orientation, solution, warnings + _warnings(index, bus_load)


def _cmd_fetch(args) -> str:
    # Imported here: urllib and ssl are slow to import and no other command needs them.
    from .fetch import FetchError, fetch_dataset

    manifest = args.manifest or (args.data_dir / "manifest.txt")
    cache_dir = args.cache_dir or args.data_dir
    try:
        paths = fetch_dataset(manifest, cache_dir)
    except FetchError as exc:
        raise ValueError(str(exc)) from exc
    for path in paths:
        print(path)
    return _summary()


def _cmd_validate(args) -> str:
    dataset = load_dataset(args.data_dir)
    report = validate_dataset(dataset)
    for entry in report.entries():
        print(entry)
    if report.is_clean:
        print("dataset is clean")
    return _summary(lines=len(dataset.lines))


def _cmd_orient(args) -> str:
    dataset = load_dataset(args.data_dir)
    grid, _snapshot, orientation, warnings = _oriented(args, dataset)
    write_orientation_csv(orientation, grid, args.out or Path("orientation.csv"))
    _warn(warnings)
    return _summary(lines=len(dataset.lines), heuristic=orientation.heuristic_count)


def _yearly_loads(data_dir: Path, dataset):
    yearly = {
        # Called through the module, as load_dataset calls it, so a wrapper
        # put on gridtopo.ingest (a tracer, a call counter) sees these parses too.
        path.stem.split("_", 1)[1]: link_area_loads(
            ingest.parse_hourly_loads(path), dataset.planning_areas, path
        )
        for path in sorted(data_dir.glob("HourlyLoad_*.csv"))
    }
    return yearly or {"all": {a.id: a.avg_hourly_load_mw for a in dataset.planning_areas}}


def _cmd_similarity(args) -> str:
    dataset = load_dataset(args.data_dir)
    rows = similarity_report(dataset, _yearly_loads(args.data_dir, dataset))
    write_similarity_csv(rows, args.out or Path("similarity.csv"))
    for row in rows:
        print(f"{row.year}: cosine={row.cosine:.4f} pearson={row.pearson:.4f}")
    return _summary(lines=len(dataset.lines))


def _cmd_demand_index(args) -> str:
    dataset = load_dataset(args.data_dir)
    index = allocate_demand_index(dataset, args.urban_share)
    write_demand_index_csv(index, args.out or Path("demand_index.csv"))
    _warn(_warnings(index))
    return _summary(lines=len(dataset.lines))


def _cmd_solve(args) -> str:
    dataset = load_dataset(args.data_dir)
    grid, orientation, solution, warnings = _solved(args, dataset)
    out_dir = args.out or Path("solution")
    write_solution_files(solution, orientation, grid, out_dir)
    write_orientation_csv(orientation, grid, Path(out_dir) / "orientation.csv")
    _warn(warnings)
    return _summary(solution, len(dataset.lines), orientation.heuristic_count)


def _cmd_diff(args) -> str:
    baseline, _ = read_orientation_csv(args.baseline)
    other, _ = read_orientation_csv(args.other)
    diff = direction_diff(baseline, other)
    for line_id in diff.changed:
        old, new = diff.pairs[line_id]
        print(f"{line_id}: {old[0]}->{old[1]} becomes {new[0]}->{new[1]}")
    return _summary(lines=diff.total, changed=diff.changed_count)


def _cmd_render(args) -> str:
    dataset = load_dataset(args.data_dir)
    if args.fmt == "dot":
        grid, _snapshot, orientation, warnings = _oriented(args, dataset)
        solution, text = None, render_dot(grid, orientation)
    else:
        grid, orientation, solution, warnings = _solved(args, dataset)
        if args.fmt == "svg":
            text = render_svg(grid, orientation, solution)
        else:
            text = geojson_text(render_geojson(grid, orientation, solution))
    write_text(args.out or Path(f"render.{args.fmt}"), text)
    _warn(warnings)
    return _summary(solution, len(dataset.lines), orientation.heuristic_count)


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        # The scenario flags of orient, solve and render, checked before any file is read.
        timepoint = getattr(args, "mode", None) == MODE_TIME_POINT
        if timepoint and args.snapshot is None:
            raise _UsageError("--mode timepoint requires --snapshot")
        if not timepoint and getattr(args, "snapshot", None) is not None:
            raise _UsageError("--snapshot requires --mode timepoint")
        print(args.run(args))
        return 0
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IngestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help/--version
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception:
        traceback.print_exc()
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
