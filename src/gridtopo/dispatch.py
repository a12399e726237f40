"""Scenario snapshots, load attribution, and the flow-conservation LP.

A generation scenario is output per bus: each generator's output,
either its maximum capacity (the baseline) or the value a Snapshot.csv
time point reports, is summed into its bus once, when the snapshot is
made. Each generation bus's output is attributed over the buses it can
reach under the line orientation, proportionally to the demand index;
the LP then finds line flows and injections that balance those bus
loads.

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
load_i. The objective is total load minus the max flow, which Dinic's
algorithm finds exactly; injections, unserved demand and line flows
are read off the residual capacities. Only bus-level quantities and
the objective are contractual; per-line flows are one optimum among
possibly many. The solve starts from the routing the attribution
implies, so Dinic finds no augmenting path: ``FlowSolution.iterations``
is 0 on CLI runs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .demand import DemandIndex
from .direction import Orientation
from .graph import Grid
from .ingest import GridDataset, parse_snapshot_outputs, write_csv, write_text

MODE_MAX_CAPACITY = "max"
MODE_TIME_POINT = "timepoint"


@dataclass(frozen=True)
class GenerationSnapshot:
    """Generation per bus defining one scenario.

    ``outputs`` maps a bus id to the summed output (MW) of the
    generators at that bus; a bus without generators is absent.
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
    loads from their generation buses; ``None`` starts the solve from
    zero flow.
    """

    values: Mapping[str, float]
    warnings: tuple[str, ...] = ()
    routing: Mapping[str, float] | None = None

    def total(self) -> float:
        return math.fsum(self.values.values())


def reachable_buses(
    orientation: Orientation, grid: Grid, source_bus: str
) -> dict[str, str | None]:
    """Directed reachability walk from ``source_bus``: each reached bus,
    in discovery order, maps to the line that first reached it (``None``
    for ``source_bus``)."""
    parents: dict[str, str | None] = {source_bus: None}
    stack = [source_bus]
    while stack:
        bus = stack.pop()
        for line_id, neighbor in grid.adjacency[bus]:
            if neighbor not in parents and orientation.from_to(grid.lines[line_id])[0] == bus:
                parents[neighbor] = line_id
                stack.append(neighbor)
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
    totals = snapshot.bus_totals(grid)
    for bus in sorted(totals):
        output = totals[bus]
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
        for member in reversed(parents):
            line_id = parents[member]
            if line_id is not None:
                routing[line_id] = routing.get(line_id, 0.0) + below[member]
                below[orientation.from_to(grid.lines[line_id])[0]] += below[member]
    return BusLoad(
        values=MappingProxyType(loads),
        warnings=tuple(warnings),
        routing=MappingProxyType(routing),
    )


@dataclass(frozen=True)
class FlowSolution:
    """Optimal flows, injections, and unserved demand for one scenario.

    ``loads`` echoes the LP's input bus loads so a solution is
    self-contained for export and rendering. ``iterations`` is the
    solver's work: the number of augmenting paths the max-flow took, 0
    from an attributed ``BusLoad``'s routing, as on CLI runs.
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


def _max_flow(node_count, arcs, source, sink, flow=None) -> tuple[list[float], int]:
    """Dinic's max-flow over ``arcs``, a list of ``(tail, head, capacity)``.

    Starts from ``flow[k]`` on arc k (zero flow without it); any
    imbalance of the start stays in the result. Returns the residual
    capacities and the number of augmenting paths. Arc k's residual is
    ``residual[2 * k]``; its reverse arc's residual,
    ``residual[2 * k + 1]``, is the flow it carries. Each augmentation
    leaves its bottleneck arc at exactly 0.0, so float capacities need
    no tolerance to terminate.
    """
    head: list[int] = []
    residual: list[float] = []
    out: list[list[int]] = [[] for _ in range(node_count)]
    for k, (tail, to, capacity) in enumerate(arcs):
        carried = 0.0 if flow is None else flow[k]
        out[tail].append(len(head))
        out[to].append(len(head) + 1)
        head += (to, tail)
        residual += (capacity - carried, carried)

    augmentations = 0
    while True:
        level = [-1] * node_count
        level[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for arc in out[node]:
                if residual[arc] > 0.0 and level[head[arc]] < 0:
                    level[head[arc]] = level[node] + 1
                    queue.append(head[arc])
        if level[sink] < 0:
            return residual, augmentations

        # Blocking flow: iterative DFS along level-increasing arcs.
        cursor = [0] * node_count
        path: list[int] = []
        node = source
        while True:
            if node == sink:
                push = min(residual[arc] for arc in path)
                for arc in path:
                    residual[arc] -= push
                    residual[arc ^ 1] += push
                augmentations += 1
                saturated = next(k for k, arc in enumerate(path) if residual[arc] == 0.0)
                del path[saturated:]
                node = head[path[-1]] if path else source
                continue
            candidates = out[node]
            while cursor[node] < len(candidates):
                arc = candidates[cursor[node]]
                if residual[arc] > 0.0 and level[head[arc]] == level[node] + 1:
                    path.append(arc)
                    node = head[arc]
                    break
                cursor[node] += 1
            else:
                if node == source:
                    break
                node = head[path.pop() ^ 1]
                cursor[node] += 1


def solve_flow_lp(
    orientation: Orientation,
    grid: Grid,
    bus_load: BusLoad,
    snapshot: GenerationSnapshot,
) -> FlowSolution:
    """Solve the flow-conservation LP for one oriented scenario.

    Always feasible; ``mismatch`` absorbs any deficit. ``max_residual``
    is the largest nodal-balance violation recomputed from the returned
    numbers, and stays within 1e-6 of zero.

    With a routing, source arcs start at their output, sink arcs at
    their load and lines at their routed flow; the float dust of the
    routed sums shows only in ``max_residual``. A negative or non-finite
    routed flow is refused.
    """
    bus_ids = sorted(grid.adjacency)
    line_ids = sorted(grid.lines)
    n = len(bus_ids)
    bus_pos = {bus: i for i, bus in enumerate(bus_ids)}
    caps = snapshot.bus_totals(grid)
    loads = [bus_load.values.get(bus, 0.0) for bus in bus_ids]
    if min(loads, default=0.0) < 0.0:
        raise ValueError("bus loads must be nonnegative")
    if min(caps.values(), default=0.0) < 0.0:
        raise ValueError("generation outputs must be nonnegative")

    # Nodes: buses 0..n-1, source n, sink n+1. Arcs: source -> bus (cap),
    # bus -> sink (load), then one uncapacitated arc per oriented line.
    source, sink = n, n + 1
    arcs = [(source, i, caps[bus]) for i, bus in enumerate(bus_ids)]
    arcs += [(i, sink, loads[i]) for i in range(n)]
    for line_id in line_ids:
        frm, to = orientation.from_to(grid.lines[line_id])
        arcs.append((bus_pos[frm], bus_pos[to], math.inf))
    start = None
    if bus_load.routing is not None:
        start = [caps[bus] for bus in bus_ids] + loads
        for line_id in line_ids:
            routed = bus_load.routing.get(line_id, 0.0)
            if not 0.0 <= routed < math.inf:
                raise ValueError(
                    f"line {line_id}: routed flow {routed!r} must be finite and nonnegative"
                )
            start.append(routed)
    residual_caps, augmentations = _max_flow(n + 2, arcs, source, sink, start)

    injections = {bus: caps[bus] - residual_caps[2 * i] for i, bus in enumerate(bus_ids)}
    mismatch = {bus: residual_caps[2 * (n + i)] for i, bus in enumerate(bus_ids)}
    flows = {
        line_id: residual_caps[2 * (2 * n + k) + 1] for k, line_id in enumerate(line_ids)
    }

    residual = 0.0
    for i, bus in enumerate(bus_ids):
        balance = injections[bus] - loads[i] + mismatch[bus]
        for line_id, neighbor in grid.adjacency[bus]:
            frm, _to = orientation.from_to(grid.lines[line_id])
            balance += -flows[line_id] if frm == bus else flows[line_id]
        residual = max(residual, abs(balance))

    return FlowSolution(
        flows=MappingProxyType(flows),
        injections=MappingProxyType(injections),
        mismatch=MappingProxyType(mismatch),
        loads=MappingProxyType({bus: loads[i] for i, bus in enumerate(bus_ids)}),
        objective=math.fsum(mismatch.values()),
        max_residual=residual,
        iterations=augmentations,
    )


def write_solution_files(
    solution: FlowSolution,
    orientation: Orientation,
    grid: Grid,
    out_dir,
) -> dict[str, Path]:
    """Write flows.csv, buses.csv, and summary.txt under ``out_dir``."""
    out_dir = Path(out_dir)
    paths = {
        "flows": out_dir / "flows.csv",
        "buses": out_dir / "buses.csv",
        "summary": out_dir / "summary.txt",
    }
    flows = (
        (line_id, *orientation.from_to(grid.lines[line_id]), repr(solution.flows[line_id]))
        for line_id in sorted(solution.flows)
    )
    write_csv(paths["flows"], ("line_id", "from_bus", "to_bus", "flow_mw"), flows)
    write_csv(
        paths["buses"],
        ("bus_id", "injection_mw", "load_mw", "epsilon_mw"),
        (
            (
                bus,
                repr(solution.injections[bus]),
                repr(solution.loads.get(bus, 0.0)),
                repr(solution.mismatch[bus]),
            )
            for bus in sorted(solution.injections)
        ),
    )
    write_text(
        paths["summary"],
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
    return paths
