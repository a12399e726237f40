"""Stage-timed benchmark of the gridtopo pipeline.

    python3 perfbench/run.py --workload paper_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. This script generates the workload's
dataset as CSV files under ``perfbench/_run/``, then runs each pass in a
fresh child interpreter, one at a time, with ``src`` on ``PYTHONPATH``.
``perfbench.passes`` makes the CLI's calls into the package, checks the
outputs and reports back.

The dataset comes from the fixed ``DATA_SEED``, not from ``--seed``:
with a dataset per seed, a 650-bus LP's pivot count alone spread by
about 8% (IQR over median) across ten seeds, so runs would differ by
their data as well as by the host. ``--seed`` names the run and is kept in its
record; every seed measures the same work.

With ``--trace 0`` it reports the end-to-end metrics:

* ``wall_s``: one pass, from the first ``load_dataset`` call to the last
  output file written (import excluded), median over the passes run
  until ``--seconds`` have gone by (at least one);
* ``setup_s``: a fresh interpreter started until ``import gridtopo.cli``
  finishes, median of the cold starts made after one warm-up, one before
  each pass and at least ``SETUP_STARTS``;
* ``peak_rss_mb``: the pass child's ``ru_maxrss`` at the end of the
  timed span, median over the passes.

Passes that raise or fail an output check count in ``failed``;
``fail_frac`` is ``failed / attempted``. With ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics of
``perfbench.layers``; the two must write the same orientation. The last
line of standard output is one JSON object; the full record, with the
spans, goes to ``perfbench/_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.generate import WORKLOAD_SPECS, generate, write_dataset  # noqa: E402
from perfbench.layers import END_TO_END, LAYER_METRICS, layer_metrics  # noqa: E402

WORK = ROOT / "perfbench" / "_run"
DATA_SEED = 1
SETUP_STARTS = 9
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def cold_start_seconds(env: dict, timeout: float) -> float:
    """Spawn until the child has imported the CLI.

    The child reads the same system-wide monotonic clock when the import
    finishes, so the wait for its exit (which ``subprocess`` polls in
    steps of up to 50 ms when given a timeout) is not measured.
    """
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import gridtopo.cli, time; print(time.perf_counter())"],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=timeout,
    )
    return float(done.stdout) - start


def run_child(
    workload: str, run_dir: Path, name: str, traced: bool, env: dict, timeout: float
) -> dict:
    command = [
        sys.executable, "-m", "perfbench.passes",
        "--workload", workload,
        "--data", str(run_dir / "data"),
        "--truth", str(run_dir / "truth.json"),
        "--out", str(run_dir / name),
        "--trace", str(int(traced)),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": None, "failures": [f"pass timed out after {timeout:.0f} s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {
            "ok": False,
            "wall_s": None,
            "failures": [f"pass exited {done.returncode}: {done.stderr.strip()[-2000:]}"],
        }
    return json.loads(lines[-1])


def input_counts(data_dir: Path) -> dict:
    files = sorted(data_dir.glob("*.csv"))
    rows = sum(len(f.read_text(encoding="utf-8").splitlines()) - 1 for f in files)
    edges = sum(
        len((data_dir / name).read_text(encoding="utf-8").splitlines()) - 1
        for name in ("PlanningAreaBorder.csv", "CityBorder.csv")
    )
    return {
        "ingest.input_rows": rows,
        "ingest.input_bytes": sum(f.stat().st_size for f in files),
        "ingest.polygon_edges": edges,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate, run the passes and return the full record."""
    env = _env()
    deadline = time.perf_counter() + RUN_DEADLINE_S

    def remaining() -> float:
        return max(1.0, deadline - time.perf_counter())

    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        write_dataset(
            generate(WORKLOAD_SPECS[workload], DATA_SEED), run_dir / "data", run_dir / "truth.json"
        )
        record = {"workload": workload, "seed": seed, "trace": int(trace)}
        if not trace:
            cold_start_seconds(env, remaining())  # warm-up: byte-compiles the package
            setup, passes, begin = [], [], time.perf_counter()
            while True:
                # One cold start per pass spreads the starts over the run.
                setup.append(cold_start_seconds(env, remaining()))
                passes.append(
                    run_child(workload, run_dir, f"out{len(passes)}", False, env, remaining())
                )
                last = passes[-1]["wall_s"] or 0.0
                if time.perf_counter() - begin >= seconds or 2 * last > remaining():
                    break
            while len(setup) < SETUP_STARTS:
                setup.append(cold_start_seconds(env, remaining()))
            walls = [p["wall_s"] for p in passes if p["wall_s"] is not None]
            rss = [p["peak_rss_mb"] for p in passes if p["wall_s"] is not None]
            record["setup_samples"] = setup
            metrics = {}
            if walls:
                values = {
                    "wall_s": statistics.median(walls),
                    "setup_s": statistics.median(setup),
                    "peak_rss_mb": statistics.median(rss),
                }
                metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        else:
            plain = run_child(workload, run_dir, "plain", False, env, remaining())
            traced = run_child(workload, run_dir, "traced", True, env, remaining())
            passes = [plain, traced]
            metrics = {}
            if plain["ok"] and traced["ok"]:
                if plain["orientation_sha256"] != traced["orientation_sha256"]:
                    traced["ok"] = False
                    traced["failures"].append("traced pass wrote a different orientation")
                values = dict(traced["counts"], **input_counts(run_dir / "data"))
                values["io.output_bytes"] = traced["output_bytes"]
                values["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
                metrics = {
                    name: _metric(value, LAYER_METRICS[name][0])
                    for name, value in layer_metrics(traced["spans"], values).items()
                }
        failed = sum(not p["ok"] for p in passes)
        record.update(
            attempted=len(passes),
            failed=failed,
            passes=passes,
            metrics=metrics,
            correct=failed == 0 and bool(metrics),
        )
        return record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def describe(record: dict) -> list[str]:
    """Human-readable lines for one workload's record."""
    name, attempted, failed = record["workload"], record["attempted"], record["failed"]
    lines = [f"== {name} seed={record['seed']} trace={record['trace']}"]
    for metric, entry in record["metrics"].items():
        if record["trace"]:
            _unit, moves, workloads = LAYER_METRICS[metric]
            note = f"  (moves {moves} on {', '.join(workloads)})" if moves else ""
        elif metric == "setup_s":
            note = f"  (median of {len(record['setup_samples'])} starts)"
        else:
            note = f"  (median of {sum(p['wall_s'] is not None for p in record['passes'])} passes)"
        lines.append(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}{note}")
    lines.append(
        f"  {'fail_frac':32s} {failed / attempted:.6g} ratio  ({failed} of {attempted} passes)"
    )
    for p in record["passes"]:
        if "orientation_sha256" in p:
            lines.append(f"  orientation sha256 {p['orientation_sha256']}")
            lines.append(f"  provenance {json.dumps(p['provenance'], sort_keys=True)}")
            break
    for p in record["passes"]:
        for failure in p["failures"]:
            lines.append(f"  FAILED: {failure}")
    return lines


def save(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Stage-timed gridtopo benchmark.")
    parser.add_argument("--workload", choices=[*WORKLOAD_SPECS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gridtopo" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'gridtopo'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOAD_SPECS) if args.workload == "all" else [args.workload]
    records = []
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        save(record)
        print("\n".join(describe(record)), flush=True)
        records.append(record)
    if not all(r["metrics"] for r in records):
        print("error: no pass completed; no result", file=sys.stderr)
        return 1
    summary = [
        {key: r[key] for key in ("correct", "attempted", "failed", "metrics")} for r in records
    ]
    if len(summary) == 1:
        print(json.dumps(summary[0]))
    else:
        print(json.dumps({r["workload"]: s for r, s in zip(records, summary)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
