"""Golden bytes: every CLI artifact, stdout and stderr on every fixture.

Each fixture goes through ``validate``, ``orient``, ``similarity``,
``demand-index``, ``solve`` with every generator at capacity and, where
the fixture ships a ``Snapshot.csv``, with ``--snapshot`` (the time
point), ``diff`` between the two solve orientations, and ``render`` in
every format. The sha256 of each output file and of each command's
stdout and stderr must match ``golden_sha256.json``. Outputs go to nested directories that do not
exist yet, so directory creation is covered too.

Regenerate the digests only when an output format changes on purpose:

    PYTHONPATH=src python tests/test_golden_bytes.py > tests/golden_sha256.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gridtopo.cli import cli_main

from helpers import FIXTURE_NAMES, FIXTURES

GOLDEN = Path(__file__).with_name("golden_sha256.json")


def _run(outputs: dict, name: str, *argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    outputs[f"{name}/exit"] = str(code).encode()
    outputs[f"{name}/stdout"] = out.getvalue().encode("utf-8")
    outputs[f"{name}/stderr"] = err.getvalue().encode("utf-8")


def _read(outputs: dict, name: str, path: Path) -> None:
    if path.is_file():
        outputs[name] = path.read_bytes()


def cli_artifacts(fixture: str, work: Path) -> dict[str, bytes]:
    """Run every command on one fixture; map artifact names to bytes.

    Exit codes are recorded, not asserted: ``similarity`` fails on a
    fixture with a single planning area, and that error is pinned too.
    Output files are read where the command wrote them.
    """
    data = FIXTURES / fixture
    out = work / "nested" / "out"
    outputs: dict[str, bytes] = {}
    _run(outputs, "validate", "validate", "--data-dir", data)
    _run(outputs, "orient", "orient", "--data-dir", data, "--out", out / "orient" / "orientation.csv")
    _run(outputs, "similarity", "similarity", "--data-dir", data, "--out", out / "sim" / "similarity.csv")
    _run(
        outputs, "demand-index",
        "demand-index", "--data-dir", data, "--out", out / "rdi" / "demand_index.csv",
    )
    modes = [("solve-max", [])]
    if (data / "Snapshot.csv").is_file():
        modes.append(("solve-timepoint", ["--snapshot", data / "Snapshot.csv"]))
    for name, mode_args in modes:
        _run(outputs, name, "solve", "--data-dir", data, *mode_args, "--out", out / name)
        for artifact in ("orientation.csv", "flows.csv", "buses.csv", "summary.txt"):
            _read(outputs, f"{name}/{artifact}", out / name / artifact)
    if len(modes) == 2:
        _run(
            outputs, "diff",
            "diff", out / "solve-max" / "orientation.csv", out / "solve-timepoint" / "orientation.csv",
        )
    for fmt in ("geojson", "dot", "svg"):
        target = out / "render" / f"render.{fmt}"
        _run(outputs, f"render-{fmt}", "render", "--data-dir", data, "--format", fmt, "--out", target)
        _read(outputs, f"render-{fmt}/render.{fmt}", target)
    _read(outputs, "orient/orientation.csv", out / "orient" / "orientation.csv")
    _read(outputs, "similarity/similarity.csv", out / "sim" / "similarity.csv")
    _read(outputs, "demand-index/demand_index.csv", out / "rdi" / "demand_index.csv")
    return outputs


def digests(fixture: str, work: Path) -> dict[str, str]:
    return {
        f"{fixture}/{name}": hashlib.sha256(payload).hexdigest()
        for name, payload in sorted(cli_artifacts(fixture, work).items())
    }


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_cli_outputs_match_golden_digests(fixture, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = {k: v for k, v in golden.items() if k.startswith(f"{fixture}/")}
    actual = digests(fixture, tmp_path)
    assert sorted(actual) == sorted(expected)
    assert actual == expected


if __name__ == "__main__":
    result = {}
    for name in FIXTURE_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            result.update(digests(name, Path(tmp)))
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
