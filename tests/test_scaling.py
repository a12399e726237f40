"""Scaling guard: ingest-to-orientation work must grow about linearly."""

import gc
import random
import time

from gridtopo.direction import orient_all
from gridtopo.dispatch import make_snapshot
from gridtopo.graph import build_grid
from gridtopo.ingest import build_dataset

from helpers import planar_lattice_records


def _cpu_seconds(records) -> float:
    gc.collect()  # start each run with the same collector state
    start = time.process_time()
    dataset = build_dataset(**records)
    orient_all(build_grid(dataset), make_snapshot(dataset))
    return time.process_time() - start


def test_build_and_orient_scale_linearly():
    # 39 x 39 = 1521 and 78 x 78 = 6084 buses: about four times the work
    # if it is linear, sixteen if it is quadratic in buses or lines. The
    # sizes alternate and each keeps its fastest of three runs, so a slow
    # spell of a shared host hits both sizes alike.
    small = planar_lattice_records(random.Random(5), 39, 39)
    large = planar_lattice_records(random.Random(5), 78, 78)
    runs = [(_cpu_seconds(small), _cpu_seconds(large)) for _ in range(3)]
    best_small = min(s for s, _ in runs)
    best_large = min(l for _, l in runs)
    assert best_large / best_small < 8.0, f"{best_small:.3f} s -> {best_large:.3f} s"
