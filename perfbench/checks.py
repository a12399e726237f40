"""Output checks for one benchmark pass.

Each check returns a list of failure messages; an empty list means the
output is correct. A pass with any failure counts as failed.
"""

from __future__ import annotations

import csv
import math

__all__ = [
    "check_orientation",
    "check_bus_load",
    "check_demand_index",
    "check_truth",
    "check_solution",
]

REL_TOL = 1e-9  # conservation checks: fsum totals agree to rounding
LP_RESIDUAL = 1e-6  # the README's nodal-balance bound
LP_REL_TOL = 1e-6  # LP objective against networkx max flow


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_orientation(grid, snapshot, orientation, csv_path=None) -> list[str]:
    """Total, consistent with the stage-1 rules it claims, and written
    out exactly as held in memory."""
    from gridtopo.direction import Provenance
    from gridtopo.graph import voltage_class

    failures = []
    lines = set(grid.lines)
    if set(orientation.directions) != lines or set(orientation.provenance) != lines:
        missing = sorted(lines - set(orientation.directions))
        return [f"orientation is not total: {len(missing)} line(s) undirected, e.g. {missing[:3]}"]

    outputs = snapshot.bus_totals(grid)
    for line_id, line in grid.lines.items():
        frm, to = orientation.from_to(line)
        provenance = orientation.provenance[line_id]
        if provenance is Provenance.GENERATOR_SOURCE and not (
            outputs[frm] > 0.0 and outputs[to] <= 0.0
        ):
            failures.append(f"line {line_id}: GeneratorSource does not leave the generator")
        if provenance is Provenance.TWO_END_VOLTAGE and not (
            voltage_class(grid.buses[frm].voltage_kv) > voltage_class(grid.buses[to].voltage_kv)
        ):
            failures.append(f"line {line_id}: TwoEndVoltage does not run high to low")

    if csv_path is not None:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = {row["line_id"]: row for row in csv.DictReader(fh)}
        if set(rows) != lines:
            failures.append(f"{csv_path.name}: line set differs from the grid")
        else:
            for line_id, line in grid.lines.items():
                row = rows[line_id]
                if (row["from_bus"], row["to_bus"]) != orientation.from_to(line) or (
                    row["provenance"] != orientation.provenance[line_id].value
                ):
                    failures.append(f"{csv_path.name}: line {line_id} differs from the orientation")
    return failures


def check_bus_load(bus_load, snapshot) -> list[str]:
    """Attributed load is non-negative and its mass equals total output."""
    failures = [f"bus {b}: negative load {v}" for b, v in bus_load.values.items() if v < 0.0]
    total, output = bus_load.total(), snapshot.total_output()
    if not _close(total, output, REL_TOL):
        failures.append(f"bus-load mass {total!r} differs from total output {output!r}")
    return failures


def check_demand_index(dataset, index) -> list[str]:
    """Each planning area's index sums to its load; other buses get 0."""
    failures = []
    members: dict[str, list[float]] = {a.id: [] for a in dataset.planning_areas}
    for bus in dataset.buses:
        value = index.values[bus.id]
        if bus.planning_area_id is None:
            if value != 0.0:
                failures.append(f"bus {bus.id} outside every area has index {value!r}")
        else:
            members[bus.planning_area_id].append(value)
    for area in dataset.planning_areas:
        if members[area.id]:
            total = math.fsum(members[area.id])
            if not _close(total, area.avg_hourly_load_mw, REL_TOL):
                failures.append(
                    f"area {area.id}: index sums to {total!r}, load is {area.avg_hourly_load_mw!r}"
                )
    return failures


def check_truth(dataset, truth) -> list[str]:
    """Region assignment matches what the generator placed."""
    failures = []
    for bus in dataset.buses:
        expected = truth["buses"][bus.id]
        if [bus.planning_area_id, bus.is_urban] != expected:
            failures.append(
                f"bus {bus.id}: area/urban {bus.planning_area_id}/{bus.is_urban}, "
                f"expected {expected[0]}/{expected[1]}"
            )
    for area in dataset.planning_areas:
        if area.population != truth["population"][area.id]:
            failures.append(
                f"area {area.id}: population {area.population}, "
                f"expected {truth['population'][area.id]}"
            )
    return failures


def check_solution(solution, bus_load, snapshot, orientation, grid) -> list[str]:
    """Nodal balance holds, and the objective is total load minus the
    networkx maximum flow of the same network."""
    import networkx as nx

    failures = []
    if not solution.max_residual <= LP_RESIDUAL:
        failures.append(f"max_residual {solution.max_residual!r} exceeds {LP_RESIDUAL}")
    if not solution.objective >= 0.0:
        failures.append(f"objective {solution.objective!r} is negative")

    network = nx.DiGraph()
    network.add_nodes_from(("source", "sink"))
    for bus, cap in snapshot.bus_totals(grid).items():
        if cap > 0.0:
            network.add_edge("source", ("bus", bus), capacity=cap)
    for bus, load in bus_load.values.items():
        if load > 0.0:
            network.add_edge(("bus", bus), "sink", capacity=load)
    for line in grid.lines.values():
        frm, to = orientation.from_to(line)
        network.add_edge(("bus", frm), ("bus", to))  # no capacity: unbounded
    total_load = bus_load.total()
    expected = total_load - nx.maximum_flow_value(network, "source", "sink")
    if not abs(solution.objective - expected) <= LP_REL_TOL * max(1.0, total_load):
        failures.append(
            f"objective {solution.objective!r} differs from load minus max flow {expected!r}"
        )
    return failures
