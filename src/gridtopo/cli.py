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

from . import __version__
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
    parse_hourly_loads,
    validate_dataset,
    write_text,
)
from .render import DEFAULT_STYLE, geojson_text, render_dot, render_geojson, render_svg


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our own
    # error handling so usage problems exit 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--data-dir", type=Path, default=Path("."), help="dataset directory")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random-stage seed")
    common.add_argument(
        "--urban-share",
        type=float,
        default=DEFAULT_URBAN_SHARE,
        help="fraction of area load assigned to urban buses",
    )
    common.add_argument(
        "--mode",
        choices=(MODE_MAX_CAPACITY, MODE_TIME_POINT),
        default=MODE_MAX_CAPACITY,
        help="generation scenario mode",
    )
    common.add_argument("--snapshot", type=Path, help="Snapshot.csv for timepoint mode")
    common.add_argument("--out", type=Path, help="output path")
    common.add_argument(
        "--format", choices=("geojson", "dot", "svg"), default="geojson", dest="fmt"
    )

    parser = _Parser(prog="gridtopo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gridtopo {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("fetch", parents=[common], help="download manifest datasets")
    p.add_argument("--manifest", type=Path, help="manifest file (default: <data-dir>/manifest.txt)")
    p.add_argument("--cache-dir", type=Path, help="cache directory (default: <data-dir>)")

    sub.add_parser("validate", parents=[common], help="load and report dataset findings")
    sub.add_parser("orient", parents=[common], help="assign directions, export CSV")
    sub.add_parser("similarity", parents=[common], help="population vs load similarity report")
    sub.add_parser("demand-index", parents=[common], help="per-bus demand index CSV")
    sub.add_parser("solve", parents=[common], help="orient, allocate, and solve the flow LP")

    p = sub.add_parser("diff", parents=[common], help="compare two orientation CSVs")
    p.add_argument("baseline", type=Path)
    p.add_argument("other", type=Path)

    sub.add_parser("render", parents=[common], help="emit geojson/dot/svg rendering")
    return parser


def _summary(objective=None, max_residual=None, lines=0, heuristic=0, changed=None) -> str:
    def fmt(value) -> str:
        return "nan" if value is None else repr(float(value))

    text = (
        f"objective={fmt(objective)} max_residual={fmt(max_residual)} "
        f"lines={lines} directed_heuristic={heuristic}"
    )
    if changed is not None:
        text += f" changed={changed}"
    return text


def _snapshot_for(args, dataset):
    if args.mode == MODE_TIME_POINT and args.snapshot is None:
        raise _UsageError("--mode timepoint requires --snapshot")
    return make_snapshot(dataset, args.mode, args.snapshot)


def _orientation_for(args, dataset):
    grid = build_grid(dataset)
    snapshot = _snapshot_for(args, dataset)
    orientation = orient_all(grid, snapshot, args.seed)
    return grid, snapshot, orientation


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
    grid, _snapshot, orientation = _orientation_for(args, dataset)
    write_orientation_csv(orientation, grid, args.out or Path("orientation.csv"))
    for warning in orientation.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if orientation.conflicts:
        print(
            "conflicting heuristics on: " + ", ".join(orientation.conflicts),
            file=sys.stderr,
        )
    return _summary(lines=len(dataset.lines), heuristic=orientation.heuristic_count)


def _yearly_loads(data_dir: Path, dataset):
    yearly = {
        path.stem.split("_", 1)[1]: link_area_loads(
            parse_hourly_loads(path), dataset.planning_areas, path
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
    for flag in index.flags:
        print(f"warning: {flag}", file=sys.stderr)
    return _summary(lines=len(dataset.lines))


def _cmd_solve(args) -> str:
    dataset = load_dataset(args.data_dir)
    grid, snapshot, orientation = _orientation_for(args, dataset)
    index = allocate_demand_index(dataset, args.urban_share)
    bus_load = estimate_bus_load(index, snapshot, orientation, grid)
    solution = solve_flow_lp(orientation, grid, bus_load, snapshot)
    out_dir = args.out or Path("solution")
    write_solution_files(solution, orientation, grid, out_dir)
    write_orientation_csv(orientation, grid, Path(out_dir) / "orientation.csv")
    for warning in (*snapshot.warnings, *bus_load.warnings, *orientation.warnings):
        print(f"warning: {warning}", file=sys.stderr)
    return _summary(
        objective=solution.objective,
        max_residual=solution.max_residual,
        lines=len(dataset.lines),
        heuristic=orientation.heuristic_count,
    )


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
    grid, snapshot, orientation = _orientation_for(args, dataset)
    solution = None
    if args.fmt in ("geojson", "svg"):
        index = allocate_demand_index(dataset, args.urban_share)
        bus_load = estimate_bus_load(index, snapshot, orientation, grid)
        solution = solve_flow_lp(orientation, grid, bus_load, snapshot)
    if args.fmt == "geojson":
        text = geojson_text(render_geojson(grid, orientation, solution, DEFAULT_STYLE))
    elif args.fmt == "svg":
        text = render_svg(grid, orientation, solution, DEFAULT_STYLE)
    else:
        text = render_dot(grid, orientation)
    write_text(args.out or Path(f"render.{args.fmt}"), text)
    return _summary(
        objective=None if solution is None else solution.objective,
        max_residual=None if solution is None else solution.max_residual,
        lines=len(dataset.lines),
        heuristic=orientation.heuristic_count,
    )


_COMMANDS = {
    "fetch": _cmd_fetch,
    "validate": _cmd_validate,
    "orient": _cmd_orient,
    "similarity": _cmd_similarity,
    "demand-index": _cmd_demand_index,
    "solve": _cmd_solve,
    "diff": _cmd_diff,
    "render": _cmd_render,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        print(_COMMANDS[args.command](args))
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
