"""Scenario snapshots, load attribution, and the flow-conservation LP.

A generation scenario is output per bus: each generator's output,
either its maximum capacity (the baseline) or the value a Snapshot.csv
time point reports, is summed into its bus once, when the snapshot is
made; stages read it as ``outputs.get(bus, 0.0)``. Each generation
bus's output is attributed over the buses it reaches under the line
orientation, proportionally to the demand index, and routed back up
the ``LineRecord`` that first reached each bus; the LP then finds line
flows and injections that balance those bus loads.

LP formulation, per bus i (sets follow the orientation):

    minimize    sum_i eps_i
    subject to  inflow_i + gen_i - outflow_i - load_i + eps_i = 0
                0 <= gen_i <= cap_i
                flows >= 0, eps_i >= 0

``eps_i`` is the unserved demand at bus i, so the problem is always
feasible (shed everything) and the objective equals total load minus
total delivered generation. Flows carry no upper bounds because line
limits are not part of the dataset, which makes the LP exactly a
max-flow problem: source -> bus i with capacity cap_i, one
uncapacitated arc per oriented line, bus i -> sink with capacity
load_i. The objective is total load minus the max flow. The
attribution's routing fills every source arc, so by the source cut it
is a maximum flow and is returned as is (``FlowSolution.iterations`` is
0 on CLI runs); without a routing, shortest augmenting paths over the
grid find the max flow exactly. Per-line flows are one optimum among
possibly many; ``FlowSolution`` says which bus-level values are unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .demand import DemandIndex
from .direction import Orientation
from .graph import Grid
from .ingest import GridDataset, LineRecord, parse_snapshot_outputs, write_csv, write_text

MODE_MAX_CAPACITY = "max"
MODE_TIME_POINT = "timepoint"


@dataclass(frozen=True)
class GenerationSnapshot:
    """Generation per bus defining one scenario.

    ``outputs`` maps a bus id to its generators' summed MW, read as
    ``outputs.get(bus, 0.0)``; ``bus_totals`` is the solve's dense view.
    """

    outputs: Mapping[str, float]
    warnings: tuple[str, ...] = ()

    def bus_totals(self, grid: Grid) -> dict[str, float]:
        return {bus: self.outputs.get(bus, 0.0) for bus in grid.adjacency}

    def total_output(self) -> float:
        return math.fsum(self.outputs.values())


def make_snapshot(
    dataset: GridDataset,
    mode: str = MODE_MAX_CAPACITY,
    snapshot_path=None,
) -> GenerationSnapshot:
    """Build a scenario from capacities or from a Snapshot.csv file.

    Each generator's output is added into its bus as it is read, in
    generator id order, starting from 0.0. Time-point mode tolerates
    source noise: generators missing from the file default to 0 and
    outputs above nameplate capacity are accepted, both with a warning.
    """
    if mode == MODE_MAX_CAPACITY:
        if snapshot_path is not None:
            raise ValueError(f"max-capacity mode takes no snapshot file: {snapshot_path}")
        # Every generator reported at capacity: none of the warnings applies.
        reported = {g.id: g.max_capacity_mw for g in dataset.generators}
    elif mode != MODE_TIME_POINT:
        raise ValueError(f"unknown snapshot mode {mode!r}")
    elif snapshot_path is None:
        raise ValueError("time-point mode needs a snapshot file")
    else:
        reported = parse_snapshot_outputs(snapshot_path)

    warnings = []
    outputs: dict[str, float] = {}
    for gen in dataset.generators:
        value = reported.get(gen.id, 0.0)
        if gen.id not in reported:
            warnings.append(f"generator {gen.id} missing from snapshot; output set to 0")
        elif value > gen.max_capacity_mw:
            warnings.append(
                f"generator {gen.id} output {value} exceeds capacity "
                f"{gen.max_capacity_mw}; accepted"
            )
        outputs[gen.bus_id] = outputs.get(gen.bus_id, 0.0) + value
    for gen_id in sorted(set(reported) - {g.id for g in dataset.generators}):
        warnings.append(f"snapshot lists unknown generator {gen_id}; ignored")
    return GenerationSnapshot(outputs=MappingProxyType(outputs), warnings=tuple(warnings))


@dataclass(frozen=True)
class BusLoad:
    """Estimated load per bus (MW); conserves total attributed output.

    ``routing`` is the flow per line (MW, absent: 0) that carries these
    loads from their generation buses, and is the solve's answer;
    ``None`` leaves the solve to a max-flow from zero flow.
    """

    values: Mapping[str, float]
    warnings: tuple[str, ...] = ()
    routing: Mapping[str, float] | None = None

    def total(self) -> float:
        return math.fsum(self.values.values())


def reachable_buses(
    orientation: Orientation, grid: Grid, source_bus: str
) -> dict[str, LineRecord | None]:
    """Directed reachability walk from ``source_bus``: each reached bus,
    in discovery order, maps to the ``LineRecord`` of ``grid.lines``
    that first reached it (``None`` for ``source_bus``). Only a step to
    a bus not yet reached asks the orientation which way its line points."""
    parents: dict[str, LineRecord | None] = {source_bus: None}
    stack = [source_bus]
    while stack:
        bus = stack.pop()
        for line in grid.adjacency[bus]:
            to = line.endpoint_b if line.endpoint_a == bus else line.endpoint_a
            if to not in parents and orientation.from_to(line)[0] == bus:
                parents[to] = line
                stack.append(to)
    return parents


def estimate_bus_load(
    demand_index: DemandIndex,
    snapshot: GenerationSnapshot,
    orientation: Orientation,
    grid: Grid,
) -> BusLoad:
    """Attribute each generation bus's output over its reachable buses,
    proportionally to the demand index.

    A reachable set with zero total index cannot take a proportional
    share; the output is attributed to the generation bus itself (with
    a warning) so generation mass is conserved. Each share flows down
    the walk's tree; the per-line sums are the ``routing``.
    """
    loads = {bus: 0.0 for bus in grid.adjacency}
    routing: dict[str, float] = {}
    warnings = []
    for bus in grid.adjacency:
        output = snapshot.outputs.get(bus, 0.0)
        if output <= 0.0:
            continue
        parents = reachable_buses(orientation, grid, bus)
        index_sum = math.fsum(demand_index.values.get(r, 0.0) for r in parents)
        if index_sum == 0.0:
            warnings.append(
                f"zero demand index over buses reachable from {bus}; "
                f"attributing {output} MW to {bus} itself"
            )
            loads[bus] += output
            continue
        below = {}
        for member in parents:
            weight = demand_index.values.get(member, 0.0) / index_sum
            below[member] = weight * output
            loads[member] += below[member]
        # Reverse discovery order visits a bus after every bus below it.
        for member, line in reversed(parents.items()):
            if line is not None:
                routing[line.id] = routing.get(line.id, 0.0) + below[member]
                parent = line.endpoint_a if line.endpoint_b == member else line.endpoint_b
                below[parent] += below[member]
    return BusLoad(
        values=MappingProxyType(loads),
        warnings=tuple(warnings),
        routing=MappingProxyType(routing),
    )


@dataclass(frozen=True)
class FlowSolution:
    """Optimal flows, injections, and unserved demand for one scenario.

    ``loads`` echoes the LP's input bus loads so a solution is
    self-contained for export and rendering. ``iterations`` counts the
    max-flow's augmenting paths: 0 for an attributed ``BusLoad``, as on
    CLI runs, whose routing fills the source cut and is returned as is.
    Its bus-level values are unique (every source and sink arc is
    saturated); without a routing only ``objective`` and the totals are,
    and the per-bus split follows the order of the max-flow's walk.
    """

    flows: Mapping[str, float]
    injections: Mapping[str, float]
    mismatch: Mapping[str, float]
    loads: Mapping[str, float]
    objective: float
    max_residual: float
    iterations: int = 0

    def total_injection(self) -> float:
        return math.fsum(self.injections.values())

    def total_load(self) -> float:
        return math.fsum(self.loads.values())


def _max_flow(grid, tails, caps, loads) -> tuple[dict, dict, dict, int]:
    """Max-flow from zero flow by shortest augmenting paths over the grid.

    Returns each line's flow, each bus's spare output and unmet load,
    and the number of paths pushed. A phase walks breadth-first from
    every bus with spare output, crossing a line along its orientation
    (lines are uncapacitated) or back against positive flow, then pushes
    along the walk's tree path to each reached bus with unmet load, in
    the order reached; a path whose bottleneck (spare output, unmet load
    or backward flow) has dropped to 0.0 meanwhile is skipped. Phases
    end when the walk reaches no unmet load, which is the cut condition.

    Why this stays exact: a push adds residual room only back up the
    walk's tree, and the walk never leaves a bus through its load, so no
    push shortens a walk distance. A tree path that still has room is
    therefore a shortest augmenting path, and the bound of Edmonds and
    Karp (J. ACM 19(2), 1972) on their number holds. Each push leaves
    its bottleneck at exactly 0.0 (``x - x == 0.0``), so float
    capacities need no tolerance to terminate.
    """
    flows = dict.fromkeys(grid.lines, 0.0)
    spare, unmet = dict(caps), dict(loads)
    pushes = 0
    while True:
        # parents[bus] = (line_id, previous bus) on the walk's tree
        parents = {bus: None for bus, room in spare.items() if room > 0.0}
        order = list(parents)
        for bus in order:
            for line in grid.adjacency[bus]:
                neighbor = line.endpoint_b if line.endpoint_a == bus else line.endpoint_a
                if neighbor not in parents and (tails[line.id] == bus or flows[line.id] > 0.0):
                    parents[neighbor] = (line.id, bus)
                    order.append(neighbor)
        sinks = [bus for bus in order if unmet[bus] > 0.0]
        if not sinks:
            return flows, spare, unmet, pushes
        for sink in sinks:
            steps, root = [], sink
            while (step := parents[root]) is not None:
                steps.append(step)
                root = step[1]
            room = min(
                spare[root],
                unmet[sink],
                *(flows[line_id] for line_id, prev in steps if tails[line_id] != prev),
            )
            if room > 0.0:
                spare[root] -= room
                unmet[sink] -= room
                for line_id, prev in steps:
                    flows[line_id] += room if tails[line_id] == prev else -room
                pushes += 1


def solve_flow_lp(
    orientation: Orientation,
    grid: Grid,
    bus_load: BusLoad,
    snapshot: GenerationSnapshot,
) -> FlowSolution:
    """Solve the flow-conservation LP for one oriented scenario.

    Always feasible; ``mismatch`` absorbs any deficit. ``max_residual``
    is the largest nodal-balance violation recomputed from the returned
    numbers, and stays within 1e-6 of zero. Loads, outputs and routed
    flows must be finite, nonnegative and keyed by ``grid``'s bus (for
    flows, line) ids; the first offender in id order is named.

    A routing fills every source arc, so by the source cut it is a
    maximum flow: it is returned as is, with the outputs as injections
    and no unserved demand, and its float dust or any break in
    conservation shows only in ``max_residual``. Without a routing,
    shortest augmenting paths over the grid solve from zero flow, and
    two generators that can serve one load split it in the order their
    walk reaches it: only the totals are unique.
    """
    for what, kind, values, known in (
        ("bus loads", "bus", bus_load.values, grid.adjacency),
        ("generation outputs", "bus", snapshot.outputs, grid.adjacency),
        ("routed flows", "line", bus_load.routing or {}, grid.lines),
    ):
        unknown = min((key for key in values if key not in known), default=None)
        if unknown is not None:
            raise ValueError(f"{what} name {kind} {unknown}, which is not in the grid")
        bad = min((k for k, value in values.items() if not 0.0 <= value < math.inf), default=None)
        if bad is not None:
            raise ValueError(
                f"{what} must be finite and nonnegative: {kind} {bad} has {values[bad]!r}"
            )
    caps = snapshot.bus_totals(grid)
    loads = {bus: bus_load.values.get(bus, 0.0) for bus in grid.adjacency}

    tails = {line_id: orientation.from_to(line)[0] for line_id, line in grid.lines.items()}
    if bus_load.routing is not None:
        flows = {line_id: bus_load.routing.get(line_id, 0.0) for line_id in grid.lines}
        injections, mismatch, pushes = caps, dict.fromkeys(grid.adjacency, 0.0), 0
    else:
        flows, spare, mismatch, pushes = _max_flow(grid, tails, caps, loads)
        injections = {bus: caps[bus] - spare[bus] for bus in grid.adjacency}

    residual = 0.0
    for bus, incident in grid.adjacency.items():
        balance = injections[bus] - loads[bus] + mismatch[bus]
        for line in incident:
            balance += -flows[line.id] if tails[line.id] == bus else flows[line.id]
        residual = max(residual, abs(balance))

    return FlowSolution(
        flows=MappingProxyType(flows),
        injections=MappingProxyType(injections),
        mismatch=MappingProxyType(mismatch),
        loads=MappingProxyType(loads),
        objective=math.fsum(mismatch.values()),
        max_residual=residual,
        iterations=pushes,
    )


def write_solution_files(
    solution: FlowSolution,
    orientation: Orientation,
    grid: Grid,
    out_dir,
) -> None:
    """Write flows.csv, buses.csv, and summary.txt under ``out_dir``."""
    out_dir = Path(out_dir)
    flows = (
        (line_id, *orientation.from_to(line), repr(solution.flows[line_id]))
        for line_id, line in grid.lines.items()
    )
    write_csv(out_dir / "flows.csv", ("line_id", "from_bus", "to_bus", "flow_mw"), flows)
    write_csv(
        out_dir / "buses.csv",
        ("bus_id", "injection_mw", "load_mw", "epsilon_mw"),
        (
            (
                bus,
                repr(solution.injections[bus]),
                repr(solution.loads.get(bus, 0.0)),
                repr(solution.mismatch[bus]),
            )
            for bus in grid.adjacency
        ),
    )
    write_text(
        out_dir / "summary.txt",
        "\n".join(
            [
                f"objective_mw = {repr(solution.objective)}",
                f"max_residual_mw = {repr(solution.max_residual)}",
                f"total_injection_mw = {repr(solution.total_injection())}",
                f"total_load_mw = {repr(solution.total_load())}",
                f"buses = {len(solution.injections)}",
                f"lines = {len(solution.flows)}",
                "",
            ]
        ),
    )
