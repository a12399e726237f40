"""One benchmark pass, run in a fresh interpreter by ``run.py``.

    PYTHONPATH=src python3 -m perfbench.passes --workload paper_solve \\
        --data DIR --truth FILE --out DIR --trace 0

A pass makes the calls a CLI command makes, in the same order, and is
timed from the first ``load_dataset`` call to the last output file
written; importing the package is not part of it. After the timed span
the outputs are checked and the decision counts are taken, and one JSON
object is printed as the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from gridtopo import analysis, cli, demand, direction, dispatch, graph, ingest, render

from perfbench import checks
from perfbench.trace import NullTracer, Tracer

SEED = direction.DEFAULT_SEED  # the CLI's default --seed


@dataclass
class Outcome:
    """What a pass produced, for the checks and counts."""

    dataset: object
    index: object
    grid: object = None
    snapshot: object = None
    orientation: object = None
    bus_load: object = None
    solution: object = None
    diff: object = None
    orientation_csv: Path | None = None
    validation: object = None


def paper_solve(data: Path, out: Path, tracer) -> Outcome:
    """``solve`` in max-capacity mode, then a time-point orientation, its
    direction diff against the baseline, and ``render --format svg``."""
    dataset = ingest.load_dataset(data)
    grid = graph.build_grid(dataset)
    snapshot = dispatch.make_snapshot(dataset, dispatch.MODE_MAX_CAPACITY, None)
    orientation = direction.orient_all(grid, snapshot, SEED)
    index = demand.allocate_demand_index(dataset, demand.DEFAULT_URBAN_SHARE)
    bus_load = dispatch.estimate_bus_load(index, snapshot, orientation, grid)
    solution = dispatch.solve_flow_lp(orientation, grid, bus_load, snapshot)
    dispatch.write_solution_files(solution, orientation, grid, out / "solution")
    orientation_csv = out / "solution" / "orientation.csv"
    direction.write_orientation_csv(orientation, grid, orientation_csv)
    timepoint = dispatch.make_snapshot(dataset, dispatch.MODE_TIME_POINT, data / "Snapshot.csv")
    timepoint_orientation = direction.orient_all(grid, timepoint, SEED)
    diff = analysis.direction_diff(
        orientation.endpoint_map(grid), timepoint_orientation.endpoint_map(grid)
    )
    svg = render.render_svg(grid, orientation, solution, render.DEFAULT_STYLE)
    with tracer.span("io.write_svg"):
        (out / "render.svg").write_text(svg, encoding="utf-8")
    return Outcome(
        dataset, index, grid, snapshot, orientation, bus_load, solution, diff, orientation_csv
    )


def backbone_7k(data: Path, out: Path, tracer) -> Outcome:
    """``solve`` in time-point mode up to ``estimate_bus_load``, then the
    orientation and demand-index CSVs."""
    dataset = ingest.load_dataset(data)
    grid = graph.build_grid(dataset)
    snapshot = dispatch.make_snapshot(dataset, dispatch.MODE_TIME_POINT, data / "Snapshot.csv")
    orientation = direction.orient_all(grid, snapshot, SEED)
    index = demand.allocate_demand_index(dataset, demand.DEFAULT_URBAN_SHARE)
    bus_load = dispatch.estimate_bus_load(index, snapshot, orientation, grid)
    orientation_csv = out / "orientation.csv"
    direction.write_orientation_csv(orientation, grid, orientation_csv)
    demand.write_demand_index_csv(index, out / "demand_index.csv")
    return Outcome(
        dataset, index, grid, snapshot, orientation, bus_load, orientation_csv=orientation_csv
    )


def digitized_borders(data: Path, out: Path, tracer) -> Outcome:
    """The ``validate``, ``demand-index`` and ``similarity`` commands."""
    dataset = ingest.load_dataset(data)
    validation = ingest.validate_dataset(dataset)
    index = demand.allocate_demand_index(dataset, demand.DEFAULT_URBAN_SHARE)
    rows = demand.similarity_report(dataset, cli._yearly_loads(data, dataset))
    demand.write_demand_index_csv(index, out / "demand_index.csv")
    demand.write_similarity_csv(rows, out / "similarity.csv")
    return Outcome(dataset, index, validation=validation)


PASSES = {f.__name__: f for f in (paper_solve, backbone_7k, digitized_borders)}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(workload: str, outcome: Outcome, out: Path, truth: dict):
    """Run the output checks; return the failures, the orientation's
    provenance histogram and the written orientation CSV's sha256."""
    failures = checks.check_demand_index(outcome.dataset, outcome.index)
    if workload == "digitized_borders":
        failures += checks.check_truth(outcome.dataset, truth)
        if outcome.validation.unassigned_buses or outcome.validation.isolated_buses:
            failures.append("validate_dataset reports unassigned or isolated buses")
        # The pass orients nothing; orient in max-capacity mode (the CLI
        # default) so the orientation and load checks cover this data too.
        outcome.grid = graph.build_grid(outcome.dataset)
        outcome.snapshot = dispatch.make_snapshot(outcome.dataset)
        outcome.orientation = direction.orient_all(outcome.grid, outcome.snapshot, SEED)
        outcome.bus_load = dispatch.estimate_bus_load(
            outcome.index, outcome.snapshot, outcome.orientation, outcome.grid
        )
        outcome.orientation_csv = out / "check" / "orientation.csv"
        outcome.orientation_csv.parent.mkdir()
        direction.write_orientation_csv(outcome.orientation, outcome.grid, outcome.orientation_csv)

    grid, snapshot, orientation = outcome.grid, outcome.snapshot, outcome.orientation
    failures += checks.check_orientation(grid, snapshot, orientation, outcome.orientation_csv)
    failures += checks.check_bus_load(outcome.bus_load, snapshot)
    if outcome.solution is not None:
        failures += checks.check_solution(
            outcome.solution, outcome.bus_load, snapshot, orientation, grid
        )

    provenance = {p.value: n for p, n in orientation.provenance_counts().items()}
    return failures, provenance, _digest(outcome.orientation_csv)


def decision_counts(outcome: Outcome, provenance: dict) -> dict:
    """The traced pass's graph and decision counts, taken after the checks."""
    grid, snapshot, orientation = outcome.grid, outcome.snapshot, outcome.orientation
    partial = direction.apply_heuristics(grid, snapshot, SEED)
    return {
        "direction.residual_subgraphs": len(direction.residual_subgraphs(grid, partial)),
        "direction.heuristic_lines": orientation.heuristic_count,
        "direction.bfs_tree_lines": provenance["BfsTree"],
        "direction.residual_random_lines": provenance["ResidualRandom"],
        "direction.fallback_subgraphs": sum(
            w.startswith("no entry point found") for w in orientation.warnings
        ),
        "direction.conflicts": len(orientation.conflicts),
        "dispatch.reach_total": sum(
            len(dispatch.reachable_buses(orientation, grid, bus))
            for bus, output in snapshot.bus_totals(grid).items()
            if output > 0.0
        ),
        "dispatch.solver_work": 0 if outcome.solution is None else outcome.solution.iterations,
        "analysis.changed_lines": 0 if outcome.diff is None else outcome.diff.changed_count,
    }


def run_pass(workload: str, data: Path, out: Path, truth: dict, traced: bool) -> dict:
    tracer = Tracer() if traced else NullTracer()
    record = {"ok": False, "wall_s": None, "failures": []}
    try:
        with tracer.patched():
            start = time.perf_counter()
            outcome = PASSES[workload](data, out, tracer)
            record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        failures, provenance, digest = check(workload, outcome, out, truth)
        if traced:
            record["counts"] = decision_counts(outcome, provenance)
    except Exception:
        record["failures"].append(traceback.format_exc())
        return record
    record.update(
        ok=not failures,
        failures=failures[:20],
        provenance=provenance,
        orientation_sha256=digest,
    )
    if traced:
        record["spans"] = tracer.records()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--truth", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    truth = json.loads(args.truth.read_text(encoding="utf-8"))
    record = run_pass(args.workload, args.data, args.out, truth, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
