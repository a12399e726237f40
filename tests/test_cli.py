import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridtopo
from gridtopo.cli import cli_main
from gridtopo.demand import allocate_demand_index
from gridtopo.direction import orient_all
from gridtopo.dispatch import estimate_bus_load, make_snapshot
from gridtopo.graph import build_grid
from gridtopo.ingest import load_dataset

from helpers import FIXTURE_NAMES, FIXTURES, command_flags, write_latin1_substations


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_line(out):
    lines = [l for l in out.strip().splitlines() if l.startswith("objective=")]
    assert len(lines) == 1, out
    return dict(part.split("=", 1) for part in lines[0].split())


def test_unknown_subcommand_exits_1(capsys):
    code, _out, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_no_subcommand_exits_1(capsys):
    code, _out, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


SOLVE_FLAGS = {"--data-dir", "--seed", "--mode", "--snapshot", "--urban-share", "--out"}

#: The flags each command reads, and no others.
COMMAND_FLAGS = {
    "fetch": {"--data-dir", "--manifest", "--cache-dir"},
    "validate": {"--data-dir"},
    "orient": {"--data-dir", "--seed", "--mode", "--snapshot", "--out"},
    "similarity": {"--data-dir", "--out"},
    "demand-index": {"--data-dir", "--urban-share", "--out"},
    "solve": SOLVE_FLAGS,
    "diff": set(),
    "render": SOLVE_FLAGS | {"--format"},
}


def test_each_command_takes_only_the_flags_it_reads():
    assert command_flags() == COMMAND_FLAGS
    assert sum(map(len, COMMAND_FLAGS.values())) == 27


GRID30 = str(FIXTURES / "grid30")


#: A flag each command would ignore, with arguments that are valid otherwise.
IGNORED_FLAGS = [
    (["validate", "--data-dir", GRID30, "--seed", "7"], "--seed"),
    (["validate", "--data-dir", GRID30, "--out", "x"], "--out"),
    (["diff", "--out", "x", "a.csv", "b.csv"], "--out"),
    (["solve", "--data-dir", GRID30, "--format", "svg"], "--format"),
    (["similarity", "--data-dir", GRID30, "--urban-share", "0.5"], "--urban-share"),
    (["demand-index", "--data-dir", GRID30, "--mode", "max"], "--mode"),
    (["orient", "--data-dir", GRID30, "--urban-share", "0.5"], "--urban-share"),
    (["fetch", "--data-dir", GRID30, "--seed", "7"], "--seed"),
]


@pytest.mark.parametrize(
    "argv, flag", IGNORED_FLAGS, ids=[f"{argv[0]} {flag}" for argv, flag in IGNORED_FLAGS]
)
def test_flag_a_command_does_not_read_exits_1(capsys, monkeypatch, tmp_path, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage" in err.lower()
    assert f"error: unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command", ["orient", "solve", "render"])
def test_snapshot_without_timepoint_mode_exits_1(capsys, monkeypatch, tmp_path, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, command, "--data-dir", GRID30, "--mode", "max",
        "--snapshot", str(tmp_path / "missing.csv"),
    )
    assert code == 1
    assert out == ""
    assert "usage" in err.lower()
    assert err.endswith("error: --snapshot requires --mode timepoint\n")


@pytest.mark.parametrize("command", ["orient", "solve", "render"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (("--mode", "timepoint"), "--mode timepoint requires --snapshot"),
        (("--snapshot", "Snapshot.csv"), "--snapshot requires --mode timepoint"),
    ],
    ids=["timepoint-without-snapshot", "snapshot-without-timepoint"],
)
def test_scenario_usage_error_comes_before_the_dataset(capsys, tmp_path, command, flags, message):
    code, out, err = run(capsys, command, "--data-dir", str(tmp_path / "missing"), *flags)
    assert (code, out) == (1, "")
    assert "usage" in err.lower()
    assert err.endswith(f"error: {message}\n")
    assert "missing dataset file" not in err


def stage_stderr(data: Path, stages: set[str], snapshot_csv=None) -> str:
    """The warnings of ``stages``, run through the library, in stage order."""
    dataset = load_dataset(data)
    grid = build_grid(dataset)
    snapshot = make_snapshot(dataset, "max" if snapshot_csv is None else "timepoint", snapshot_csv)
    orientation = orient_all(grid, snapshot)
    index = allocate_demand_index(dataset)
    bus_load = estimate_bus_load(index, snapshot, orientation, grid)
    lines = []
    if "orient" in stages:
        lines += [f"warning: {m}" for m in (*snapshot.warnings, *orientation.warnings)]
        if orientation.conflicts:
            lines.append("conflicting heuristics on: " + ", ".join(orientation.conflicts))
    if "demand" in stages:
        lines += [f"warning: {m}" for m in index.warnings]
    if "bus-load" in stages:
        lines += [f"warning: {m}" for m in bus_load.warnings]
    return "".join(f"{line}\n" for line in lines)


#: Each command that runs a warning stage, its extra arguments, and those stages.
WARNING_RUNS = {
    "orient": (["orient"], {"orient"}),
    "solve": (["solve"], {"orient", "demand", "bus-load"}),
    "render-geojson": (["render", "--format", "geojson"], {"orient", "demand", "bus-load"}),
    "render-dot": (["render", "--format", "dot"], {"orient"}),
    "render-svg": (["render", "--format", "svg"], {"orient", "demand", "bus-load"}),
    "demand-index": (["demand-index"], {"demand"}),
}
WARNING_CASES = [
    (fixture, run_name, mode)
    for fixture in FIXTURE_NAMES
    for run_name in WARNING_RUNS
    for mode in ("max", "timepoint")
    if mode == "max"
    or (run_name in ("orient", "solve") and (FIXTURES / fixture / "Snapshot.csv").is_file())
]


@pytest.mark.parametrize(
    "fixture, run_name, mode", WARNING_CASES, ids=["-".join(case) for case in WARNING_CASES]
)
def test_stderr_holds_the_warnings_of_each_stage_the_command_runs(
    capsys, monkeypatch, tmp_path, fixture, run_name, mode
):
    monkeypatch.chdir(tmp_path)
    data = FIXTURES / fixture
    argv, stages = WARNING_RUNS[run_name]
    snapshot_csv = data / "Snapshot.csv" if mode == "timepoint" else None
    if snapshot_csv is not None:
        argv = [*argv, "--mode", "timepoint", "--snapshot", str(snapshot_csv)]
    code, _out, err = run(capsys, *argv, "--data-dir", str(data))
    assert code == 0
    assert err == stage_stderr(data, stages, snapshot_csv)


def test_orient_timepoint_prints_the_snapshot_warning(capsys, tmp_path):
    code, _out, err = run(
        capsys, "orient", "--data-dir", GRID30, "--mode", "timepoint",
        "--snapshot", str(FIXTURES / "grid30" / "Snapshot.csv"),
        "--out", str(tmp_path / "orientation.csv"),
    )
    assert code == 0
    assert err == "warning: generator G03 output 260.0 exceeds capacity 250.0; accepted\n"


def test_missing_dataset_is_validation_error(capsys, tmp_path):
    code, _out, err = run(capsys, "validate", "--data-dir", str(tmp_path))
    assert code == 1
    assert "error" in err.lower()


def test_internal_error_exits_2(capsys, monkeypatch):
    import gridtopo.cli as cli_mod

    def explode(_path):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli_mod, "load_dataset", explode)
    code, _out, err = run(capsys, "validate", "--data-dir", str(FIXTURES / "pair"))
    assert code == 2
    assert "synthetic crash" in err


def test_validate_names_file_and_row_of_non_utf8_byte(capsys, tmp_path):
    data = tmp_path / "pair"
    shutil.copytree(FIXTURES / "pair", data)
    write_latin1_substations(data / "Substation.csv", 1502)
    code, out, err = run(capsys, "validate", "--data-dir", str(data))
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {data / 'Substation.csv'}: row 1502: "
        "not UTF-8: byte 0xe9 (invalid continuation byte)\n"
    )


def test_validate_names_file_and_row_of_oversize_field(capsys, tmp_path):
    data = tmp_path / "grid30"
    shutil.copytree(FIXTURES / "grid30", data)
    substations = data / "Substation.csv"
    rows = substations.read_text(encoding="utf-8").splitlines()
    rows[2] += '"' + "x" * 140_000  # an unclosed quote on row 3
    substations.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", "--data-dir", str(data))
    assert code == 1
    assert out == ""
    assert err == f"error: {substations}: row 3: field larger than field limit (131072)\n"


@pytest.mark.parametrize(
    "command, out, target",
    [
        ("solve", "file", "file/flows.csv"),  # the output directory is a file
        ("orient", "file/x.csv", "file/x.csv"),
        ("similarity", "file/x.csv", "file/x.csv"),
        ("render", "dir", "dir"),  # the output file is a directory
    ],
)
def test_unwritable_output_exits_1(capsys, tmp_path, command, out, target):
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    code, stdout, err = run(
        capsys, command, "--data-dir", str(FIXTURES / "grid30"), "--out", str(tmp_path / out)
    )
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: cannot write {tmp_path / target}: [Errno ")
    assert err.count("\n") == 1


def test_validate_clean_and_anomalous(capsys):
    code, out, _err = run(capsys, "validate", "--data-dir", str(FIXTURES / "pair"))
    assert code == 0
    assert "dataset is clean" in out
    assert summary_line(out)["lines"] == "1"

    code, out, _err = run(capsys, "validate", "--data-dir", str(FIXTURES / "ladder"))
    assert code == 0
    assert "L4" in out and "exceeds both endpoint voltages" in out


def test_orient_is_byte_deterministic(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        code, stdout, _err = run(
            capsys,
            "orient",
            "--data-dir",
            str(FIXTURES / "triangle"),
            "--seed",
            "7",
            "--out",
            str(out),
        )
        assert code == 0
        assert summary_line(stdout)["directed_heuristic"] == "2"
    assert out_a.read_bytes() == out_b.read_bytes()


def test_orient_seed_changes_random_stage(capsys, tmp_path):
    texts = []
    for seed in ("3", "4"):
        out = tmp_path / f"seed{seed}.csv"
        code, _stdout, _err = run(
            capsys,
            "orient",
            "--data-dir",
            str(FIXTURES / "triangle"),
            "--seed",
            seed,
            "--out",
            str(out),
        )
        assert code == 0
        texts.append(out.read_text())
    # heuristic lines identical, the residual-random line may differ
    for a, b in zip(texts[0].splitlines(), texts[1].splitlines()):
        if "GeneratorSource" in a:
            assert a == b


def test_solve_reports_zero_objective(capsys, tmp_path):
    out_dir = tmp_path / "solution"
    code, out, _err = run(
        capsys,
        "solve",
        "--data-dir",
        str(FIXTURES / "pair"),
        "--mode",
        "max",
        "--out",
        str(out_dir),
    )
    assert code == 0
    summary = summary_line(out)
    assert float(summary["objective"]) == pytest.approx(0.0, abs=1e-9)
    assert float(summary["max_residual"]) <= 1e-6
    assert summary["lines"] == "1" and summary["directed_heuristic"] == "1"
    assert (out_dir / "flows.csv").exists()
    assert (out_dir / "buses.csv").exists()
    assert (out_dir / "summary.txt").exists()
    assert (out_dir / "orientation.csv").exists()


def test_solve_timepoint_requires_snapshot(capsys):
    code, _out, err = run(
        capsys, "solve", "--data-dir", str(FIXTURES / "pair"), "--mode", "timepoint"
    )
    assert code == 1
    assert "usage" in err.lower()
    assert err.endswith("error: --mode timepoint requires --snapshot\n")


def test_solve_timepoint_mode(capsys, tmp_path):
    code, out, _err = run(
        capsys,
        "solve",
        "--data-dir",
        str(FIXTURES / "grid30"),
        "--mode",
        "timepoint",
        "--snapshot",
        str(FIXTURES / "grid30" / "Snapshot.csv"),
        "--out",
        str(tmp_path / "tp"),
    )
    assert code == 0
    assert float(summary_line(out)["max_residual"]) <= 1e-6


def test_diff_between_scenarios(capsys, tmp_path):
    base = tmp_path / "base.csv"
    morning = tmp_path / "morning.csv"
    for out, mode_args in (
        (base, ["--mode", "max"]),
        (
            morning,
            ["--mode", "timepoint", "--snapshot", str(FIXTURES / "grid30" / "Snapshot.csv")],
        ),
    ):
        code, _out, _err = run(
            capsys,
            "orient",
            "--data-dir",
            str(FIXTURES / "grid30"),
            "--seed",
            "42",
            "--out",
            str(out),
            *mode_args,
        )
        assert code == 0

    code, out, _err = run(capsys, "diff", str(base), str(morning))
    assert code == 0
    summary = summary_line(out)
    assert summary["lines"] == "38"
    assert int(summary["changed"]) >= 1  # G02/G05 idle in the snapshot

    code, out, _err = run(capsys, "diff", str(base), str(base))
    assert code == 0
    assert summary_line(out)["changed"] == "0"


@pytest.mark.parametrize(
    "body, row, message",
    [
        ("L1,A,B,BfsTree\nL1,B,A,BfsTree\n", 3, "duplicate line id L1"),
        ("L1,A\n", 2, "expected 4 fields, found 2"),
        ("L1,A,B,BfsTree,extra\n", 2, "expected 4 fields, found 5"),
    ],
    ids=["duplicate-line-id", "short-row", "extra-field"],
)
def test_diff_rejects_malformed_orientation(capsys, tmp_path, body, row, message):
    header = "line_id,from_bus,to_bus,provenance\n"
    good = tmp_path / "good.csv"
    good.write_text(header + "L1,B,A,BfsTree\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text(header + body, encoding="utf-8")
    code, out, err = run(capsys, "diff", str(good), str(bad))
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: row {row}: {message}\n"


def test_similarity_rows_per_year(capsys, tmp_path):
    out = tmp_path / "similarity.csv"
    code, stdout, _err = run(
        capsys,
        "similarity",
        "--data-dir",
        str(FIXTURES / "grid30"),
        "--out",
        str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "year,cosine,pearson"
    assert [r.split(",")[0] for r in rows[1:]] == ["2020", "2021", "2022"]
    assert "2021" in stdout


def test_similarity_parses_hourly_loads_through_the_ingest_module(capsys, monkeypatch, tmp_path):
    # A wrapper on gridtopo.ingest (a tracer, this counter) sees every parse.
    import gridtopo.ingest as ingest

    parse, parsed = ingest.parse_hourly_loads, []

    def counted(path):
        parsed.append(Path(path).name)
        return parse(path)

    monkeypatch.setattr(ingest, "parse_hourly_loads", counted)
    out = tmp_path / "similarity.csv"
    code, _stdout, _err = run(capsys, "similarity", "--data-dir", GRID30, "--out", str(out))
    assert code == 0
    assert sorted(parsed) == [
        "HourlyLoad.csv", "HourlyLoad_2020.csv", "HourlyLoad_2021.csv", "HourlyLoad_2022.csv"
    ]


def test_similarity_falls_back_to_primary_load_file(capsys, tmp_path):
    data_dir = tmp_path / "data"
    shutil.copytree(FIXTURES / "grid30", data_dir)
    for extra in data_dir.glob("HourlyLoad_*.csv"):
        extra.unlink()
    out = tmp_path / "similarity.csv"
    code, _stdout, _err = run(
        capsys, "similarity", "--data-dir", str(data_dir), "--out", str(out)
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("all,")


def test_similarity_rejects_unknown_area_in_yearly_load(capsys, tmp_path):
    data_dir = tmp_path / "data"
    shutil.copytree(FIXTURES / "grid30", data_dir)
    yearly = data_dir / "HourlyLoad_2021.csv"
    with yearly.open("a", encoding="utf-8") as fh:
        fh.write("A9,Nowhere,10.0\n")
    out = tmp_path / "similarity.csv"
    code, stdout, err = run(
        capsys, "similarity", "--data-dir", str(data_dir), "--out", str(out)
    )
    assert code == 1
    assert stdout == ""
    assert err == f"error: {yearly}: hourly load references unknown planning area A9\n"
    assert not out.exists()


def test_demand_index_export(capsys, tmp_path):
    out = tmp_path / "demand_index.csv"
    code, _stdout, _err = run(
        capsys,
        "demand-index",
        "--data-dir",
        str(FIXTURES / "mixed"),
        "--urban-share",
        "0.848",
        "--out",
        str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "bus_id,rdi"
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows[1:]}
    assert values["S1"] == pytest.approx(16.96)  # 0.848 * 40 / 2
    assert values["S3"] == pytest.approx(6.08)  # 0.152 * 40
    assert values["S4"] == pytest.approx(3.0)  # reassigned island share


def test_render_formats(capsys, tmp_path):
    for fmt, checker in (
        ("geojson", lambda t: json.loads(t)["type"] == "FeatureCollection"),
        ("dot", lambda t: t.startswith("digraph grid {")),
        ("svg", lambda t: t.startswith("<svg")),
    ):
        out = tmp_path / f"render.{fmt}"
        code, stdout, _err = run(
            capsys,
            "render",
            "--data-dir",
            str(FIXTURES / "diamond"),
            "--format",
            fmt,
            "--out",
            str(out),
        )
        assert code == 0, fmt
        assert checker(out.read_text()), fmt
        if fmt == "dot":
            assert summary_line(stdout)["objective"] == "nan"
        else:
            assert float(summary_line(stdout)["objective"]) == pytest.approx(0.0)


def test_fetch_via_file_urls(capsys, tmp_path):
    src = tmp_path / "remote.csv"
    payload = b"generator_id,output_mw\n"
    src.write_bytes(payload)
    digest = hashlib.sha256(payload).hexdigest()
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"snapshot {src.as_uri()} {digest}\n", encoding="utf-8")
    cache = tmp_path / "cache"
    code, out, _err = run(
        capsys,
        "fetch",
        "--manifest",
        str(manifest),
        "--cache-dir",
        str(cache),
        "--data-dir",
        str(tmp_path),
    )
    assert code == 0
    assert f"snapshot-{digest[:16]}.csv" in out
    code, _out, err = run(
        capsys,
        "fetch",
        "--manifest",
        str(tmp_path / "nope.txt"),
        "--cache-dir",
        str(cache),
        "--data-dir",
        str(tmp_path),
    )
    assert code == 1
    assert err.startswith("error: cannot read manifest")


def test_cli_import_does_not_load_numpy():
    src = str(Path(gridtopo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    heavy = ("numpy", "gridtopo.fetch", "urllib.request")
    code = f"import sys, gridtopo.cli; sys.exit(any(m in sys.modules for m in {heavy!r}))"
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert result.returncode == 0
