import gridtopo.graph
from perfbench.layers import LAYER_METRICS, layer_metrics
from perfbench.trace import Tracer, self_times


def test_nested_spans_and_self_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    own = self_times(tracer.spans)
    outer = by_name["outer"]
    assert abs(own[outer.id] - (outer.seconds - by_name["inner"].seconds)) < 1e-12


def test_patched_restores_package_functions():
    original = gridtopo.graph.build_grid
    tracer = Tracer()
    with tracer.patched():
        assert gridtopo.graph.build_grid is not original
    assert gridtopo.graph.build_grid is original


def test_parse_time_counts_only_load_dataset_parsers():
    spans = [
        {"id": 0, "name": "ingest.load_dataset", "start": 0.0, "end": 5.0, "parent": None},
        {"id": 1, "name": "ingest.parse_buses", "start": 0.0, "end": 1.0, "parent": 0},
        {"id": 2, "name": "ingest.parse_hourly_loads", "start": 5.0, "end": 7.0, "parent": None},
        {"id": 3, "name": "io.write_svg", "start": 7.0, "end": 7.5, "parent": None},
    ]
    counts = {name: 0 for name, spec in LAYER_METRICS.items() if spec[0] != "s"}
    metrics = layer_metrics(spans, dict(counts, **{"bench.trace_overhead_s": 0.0}))
    assert metrics["ingest.parse_s"] == 1.0
    assert metrics["io.write_s"] == 0.5
    assert list(metrics) == list(LAYER_METRICS)
