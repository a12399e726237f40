import json
from pathlib import Path

from perfbench.generate import WORKLOAD_SPECS
from perfbench.layers import END_TO_END, LAYER_METRICS

BENCHMARK = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())


def test_metrics_match_the_benchmark_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: spec[0] for name, spec in LAYER_METRICS.items()
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_SPECS)


def test_bounds_are_within_the_contract():
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
