"""Seeded fuzzing of the CLI on damaged copies of the grid30 fixture.

Each copy gets one to three mutations: a flipped bit, an inserted or a
deleted row, an odd number in place of a number, or a byte that is not
UTF-8. ``validate``, ``solve`` in both modes and ``render --format svg``
then run in-process on the copy. No run may exit 2 (an internal error),
and every ``error:`` line must name a dataset file and a row, or an id
that the damaged input holds.
"""

import contextlib
import csv
import io
import os
import random
import re

from gridtopo.cli import cli_main

from helpers import FIXTURES

SEED = 20250101
COPIES = 150
ODD_NUMBERS = (
    b"nan", b"inf", b"-inf", b"-1", b"0", b"1e999", b"", b"1e-320", b"0x10", b"1_0", b"x"
)
ID_COLUMNS = ("id", "bus_a", "bus_b", "bus_id", "area_id", "city_id", "generator_id")
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?")


def _flip_bit(rng, data: bytes) -> bytes:
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1 :]


def _insert_row(rng, data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    if rng.random() < 0.5:
        row = rng.choice(lines)  # a repeated id, or a second header
    else:
        fields = (b"S00", b"Z9", b"A1", b"1.5", b"", b'"q"')
        row = b",".join(rng.choice(fields) for _ in range(rng.randint(1, 7))) + b"\n"
    i = rng.randint(0, len(lines))
    return b"".join(lines[:i] + [row] + lines[i:])


def _delete_row(rng, data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _odd_number(rng, data: bytes) -> bytes:
    numbers = list(NUMBER.finditer(data))
    if not numbers:
        return data
    match = rng.choice(numbers)
    return data[: match.start()] + rng.choice(ODD_NUMBERS) + data[match.end() :]


def _non_utf8(rng, data: bytes) -> bytes:
    i = rng.randint(0, len(data))
    return data[:i] + rng.choice((b"\xe9", b"\xff", b"\x80")) + data[i:]


MUTATIONS = (_flip_bit, _insert_row, _delete_row, _odd_number, _non_utf8)


def _ids(files: dict) -> set[str]:
    """Every value of an id column in the damaged files."""
    ids = set()
    for data in files.values():
        for row in csv.DictReader(io.StringIO(data.decode("utf-8", "replace"), newline="")):
            ids.update(row[c].strip() for c in ID_COLUMNS if row.get(c))
    return ids


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, err.getvalue()


def test_damaged_copies_fail_cleanly_with_a_location(tmp_path):
    source = FIXTURES / "grid30"
    pristine = {p.name: p.read_bytes() for p in sorted(source.glob("*.csv"))}
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    located = re.compile(re.escape(f"error: {data}{os.sep}") + r"[^/\\:]+\.csv: row \d+: ")
    rng = random.Random(SEED)
    failures = []
    for copy in range(COPIES):
        files = dict(pristine)
        applied = []
        for _ in range(rng.randint(1, 3)):
            name, mutate = rng.choice(sorted(files)), rng.choice(MUTATIONS)
            files[name] = mutate(rng, files[name])
            applied.append(f"{mutate.__name__}({name})")
        for name, content in files.items():
            (data / name).write_bytes(content)
        ids = _ids(files)
        for argv in (
            ["validate"],
            ["solve", "--out", out / "solve"],
            ["solve", "--mode", "timepoint", "--snapshot", data / "Snapshot.csv", "--out", out / "tp"],
            ["render", "--format", "svg", "--out", out / "render.svg"],
        ):
            code, err = _run([argv[0], "--data-dir", data, *argv[1:]])
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            unlocated = [
                line for line in errors
                if not located.match(line) and not ids & set(re.findall(r"[^\s,:]+", line))
            ]
            if code not in (0, 1) or unlocated or (code == 1) != bool(errors):
                failures.append(f"copy {copy} {applied} {argv[0]}: exit {code}\n{err}")
    assert failures == []
