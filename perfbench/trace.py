"""Spans around calls into the package, kept in memory for one pass.

The traced pass replaces public functions on the package's modules with
wrappers that record a span (name, start, end, parent) per call. Calls a
package function makes through its own module globals are caught too:
``load_dataset`` calling ``parse_buses`` and ``build_dataset`` yields child
spans of the ``ingest.load_dataset`` span. The package itself is not
changed; every attribute is put back when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "NullTracer", "TRACED_CALLS", "self_times"]

#: Package functions that get a span, by module. Span names are
#: ``<module>.<function>``.
TRACED_CALLS = {
    "ingest": (
        "load_dataset",
        "parse_buses",
        "parse_lines",
        "parse_generators",
        "parse_planning_area_polygons",
        "parse_hourly_loads",
        "parse_city_polygons",
        "parse_population_points",
        "build_dataset",
        "validate_dataset",
    ),
    "graph": ("build_grid",),
    "direction": ("orient_all", "write_orientation_csv"),
    "demand": (
        "allocate_demand_index",
        "similarity_report",
        "write_demand_index_csv",
        "write_similarity_csv",
    ),
    "dispatch": ("make_snapshot", "estimate_bus_load", "solve_flow_lp", "write_solution_files"),
    "analysis": ("direction_diff",),
    "render": ("render_svg",),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans with ``time.perf_counter``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self):
        """Wrap every function in TRACED_CALLS for the duration."""
        originals = []
        try:
            for module_name, functions in TRACED_CALLS.items():
                module = importlib.import_module(f"gridtopo.{module_name}")
                for fn_name in functions:
                    fn = getattr(module, fn_name)
                    originals.append((module, fn_name, fn))
                    setattr(module, fn_name, self.wrap(f"{module_name}.{fn_name}", fn))
            yield self
        finally:
            for module, fn_name, fn in reversed(originals):
                setattr(module, fn_name, fn)

    def records(self) -> list[dict]:
        """Spans in start order, each with its self time."""
        own = self_times(self.spans)
        ordered = sorted(self.spans, key=lambda s: s.start)
        return [dict(asdict(s), self_s=own[s.id]) for s in ordered]


class NullTracer:
    """Stand-in for the untraced pass: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def patched(self):
        return nullcontext(self)


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own
