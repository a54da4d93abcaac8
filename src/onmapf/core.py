"""Instance model, timed paths, collision semantics, objectives, rationality bounds.

Timing conventions used throughout the package:

* a path owns the vertices ``start_time .. arrival_time`` where
  ``arrival_time = start_time + len(vertices) - 1``;
* an agent occupies a vertex for ``t`` in ``[start_time, arrival_time - 1]``
  only. It does not exist in the graph before it starts, and it is removed the
  instant it arrives at its goal, so the arrival vertex is never occupied;
* the edge of every move, including the final move into the goal, is in use
  for its departure step. Two agents may never traverse one edge in opposite
  directions during the same step, even if one of them is arriving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, UnplannedAgent
from .world import Graph, GridMap, _parse_int, shortest_dist


@dataclass(frozen=True)
class Agent:
    """One transportation request: go from start to goal, known from release on."""

    id: int
    start: int
    goal: int
    release: int

    def __post_init__(self):
        if self.start == self.goal:
            raise ValueError(f"agent {self.id}: goal must differ from start")
        if self.release < 0:
            raise ValueError(f"agent {self.id}: release time must be non-negative")


@dataclass(frozen=True)
class OnlineInstance:
    """A graph plus agents sorted by non-decreasing release time, ids 1..m."""

    graph: Graph
    agents: tuple[Agent, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        for i, agent in enumerate(self.agents, start=1):
            if agent.id != i:
                raise ValueError(f"agent ids must be 1..m in order, got {agent.id} at slot {i}")
            if i > 1 and agent.release < self.agents[i - 2].release:
                raise ValueError("agents must be sorted by non-decreasing release time")
            validate_agent(agent, self.graph)

    @property
    def m(self) -> int:
        return len(self.agents)

    def agent(self, agent_id: int) -> Agent:
        if not 1 <= agent_id <= len(self.agents):
            raise ValueError(f"agent id {agent_id} out of range 1..{len(self.agents)}")
        return self.agents[agent_id - 1]

    def dist(self, agent_id: int) -> int:
        a = self.agent(agent_id)
        return shortest_dist(self.graph, a.start, a.goal)


@dataclass(frozen=True)
class ReleaseGroup:
    time: int
    agent_ids: tuple[int, ...]


def partition_by_release(inst: OnlineInstance) -> list[ReleaseGroup]:
    """Split agents into groups of equal release time, in increasing time order."""
    groups: list[ReleaseGroup] = []
    for agent in inst.agents:
        if groups and groups[-1].time == agent.release:
            groups[-1] = ReleaseGroup(agent.release, groups[-1].agent_ids + (agent.id,))
        else:
            groups.append(ReleaseGroup(agent.release, (agent.id,)))
    return groups


@dataclass(frozen=True)
class Path:
    """A timed walk: entry j of ``vertices`` is the position at start_time + j."""

    start_time: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")

    @property
    def arrival_time(self) -> int:
        return self.start_time + len(self.vertices) - 1

    def position(self, t: int):
        """Vertex at time t for t in [start, arrival], else None."""
        if self.start_time <= t <= self.arrival_time:
            return self.vertices[t - self.start_time]
        return None


# A plan is simply a mapping agent id -> Path, possibly partial.
Plan = dict[int, Path]


def validate_agent(agent: Agent, graph: Graph) -> None:
    """Check that the agent's start and goal are vertices of the graph."""
    if not (0 <= agent.start < graph.vertex_count):
        raise ValueError(f"agent {agent.id}: start vertex out of range")
    if not (0 <= agent.goal < graph.vertex_count):
        raise ValueError(f"agent {agent.id}: goal vertex out of range")


def validate_path(path: Path, agent: Agent, graph: Graph) -> None:
    """Check a path against its agent: endpoints, release, adjacency."""
    if path.vertices[0] != agent.start:
        raise ValueError(f"agent {agent.id}: path must begin at its start vertex")
    if path.vertices[-1] != agent.goal:
        raise ValueError(f"agent {agent.id}: path must end at its goal vertex")
    if path.start_time < agent.release:
        raise ValueError(f"agent {agent.id}: path starts before its release time")
    for j in range(len(path.vertices) - 1):
        u, v = path.vertices[j], path.vertices[j + 1]
        if u != v and v not in graph.adjacency[u]:
            raise ValueError(f"agent {agent.id}: step {u}->{v} is not an edge")


@dataclass(frozen=True)
class Conflict:
    kind: str  # "vertex" or "edge"
    agents: tuple[int, int]
    time: int
    location: object  # vertex id, or (u, v) ordered by the lower agent's move


class DynamicObstacleSet:
    """Time-indexed vertex and move reservations of timed paths: the one place
    that knows which cells and moves a path holds.

    A path reserves its vertex for every step it actually occupies it, i.e.
    [start, arrival), and the move ``(u, v, t)`` of every non-wait step,
    including the final move into the goal, for its departure step ``t``:
    the triple ``(u, v, t)`` of each step from ``u`` at ``t`` to ``v != u``
    at ``t + 1``. Each reserved cell ``(v, t)`` and
    move maps to its first owner's id. ``shared`` lists every owner, in the
    order they were added, of each cell or move held twice or more, so a
    table without collisions keeps one id per key and no owner lists.

    The set is a cooperative-A* reservation table: ``online.run`` owns one,
    extends it with ``add_path`` as each path is committed, asks ``admits``
    whether a candidate path fits, and rebuilds it only after a
    rationalization fallback, which replaces committed paths.
    ``detect_conflicts`` reads its pairs from the table of a whole plan.
    """

    def __init__(self):
        self.vertex_reservations: dict[tuple[int, int], int] = {}
        self.edge_reservations: dict[tuple[int, int, int], int] = {}
        # cells are pairs and moves triples, so one dict holds both
        self.shared: dict[tuple[int, ...], list[int]] = {}

    def add_path(self, agent_id: int, path: Path) -> None:
        cells, moves, shared = self.vertex_reservations, self.edge_reservations, self.shared
        t = path.start_time
        steps = iter(path.vertices)
        u = next(steps)
        for v in steps:
            cell = (u, t)
            if cell in cells:
                shared.setdefault(cell, [cells[cell]]).append(agent_id)
            else:
                cells[cell] = agent_id
            if u != v:
                move = (u, v, t)
                if move in moves:
                    shared.setdefault(move, [moves[move]]).append(agent_id)
                else:
                    moves[move] = agent_id
            u = v
            t += 1

    def admits(self, path: Path) -> bool:
        """True unless the path occupies a reserved vertex or swaps with a
        reserved move: the one collision check the online loop makes."""
        cells, moves = self.vertex_reservations, self.edge_reservations
        t = path.start_time
        steps = iter(path.vertices)
        u = next(steps)
        for v in steps:
            if (u, t) in cells or u != v and (v, u, t) in moves:
                return False
            u = v
            t += 1
        return True


def build_obstacles(plan: Plan) -> DynamicObstacleSet:
    """Reservations for every planned agent, added in id order."""
    obstacles = DynamicObstacleSet()
    for agent_id in sorted(plan):
        obstacles.add_path(agent_id, plan[agent_id])
    return obstacles


def detect_conflicts(plan: Plan) -> list[Conflict]:
    """All vertex and edge collisions between the given paths.

    A vertex conflict needs both agents to actually occupy the vertex
    (arrivals do not occupy). An edge conflict is two agents traversing one
    edge in opposite directions in the same step; final moves count.

    The pairs are read from the plan's reservation table, built in id order:
    every two owners of a shared cell, and every owner of a move with every
    owner of its reverse. The cost is linear in the number of moves plus the
    number of conflicts: cells are read only where they are shared.
    """
    table = build_obstacles(plan)
    shared = table.shared
    conflicts = []
    for key, owners in shared.items():
        if len(key) == 2:  # a cell
            v, t = key
            for a_pos, i in enumerate(owners):
                for j in owners[a_pos + 1:]:
                    conflicts.append(Conflict("vertex", (i, j), t, v))
    moves = table.edge_reservations
    for move, owner in moves.items():
        u, v, t = move
        reverse = (v, u, t)
        rival = moves.get(reverse)
        if rival is not None:
            for j in shared.get(reverse, (rival,)):
                for i in shared.get(move, (owner,)):
                    if i < j:
                        conflicts.append(Conflict("edge", (i, j), t, (u, v)))
    conflicts.sort(key=lambda c: (c.time, c.agents, c.kind, str(c.location)))
    return conflicts


@dataclass(frozen=True)
class Metrics:
    flowtime: int
    makespan: int
    latency: int


def evaluate(plan: Plan, agent_ids, inst: OnlineInstance) -> Metrics:
    """Flowtime, makespan and latency of the plan restricted to the given agents."""
    agent_ids = sorted(agent_ids)
    if not agent_ids:
        raise ValueError("cannot evaluate an empty agent set")
    flowtime = 0
    makespan = 0
    dist_sum = 0
    for i in agent_ids:
        path = plan.get(i)
        if path is None:
            raise UnplannedAgent(f"agent {i} has no path")
        agent = inst.agent(i)
        flowtime += path.arrival_time - agent.release
        makespan = max(makespan, path.arrival_time)
        dist_sum += inst.dist(i)
    return Metrics(flowtime, makespan, flowtime - dist_sum)


def sequential_chain(graph: Graph, agents, after: int = 0):
    """Route the agents one at a time, in the given order.

    Yields ``(agent, start, arrival)``: each agent starts at
    ``max(release, previous arrival)`` (``after`` for the first) and walks a
    shortest path without waiting. This is the paper's sequential reference
    algorithm; its cost sets the rationality ceilings and it is what the
    rationalization wrapper falls back to.
    """
    chain = after
    for agent in agents:
        start = max(agent.release, chain)
        chain = start + shortest_dist(graph, agent.start, agent.goal)
        yield agent, start, chain


def rationality_bounds(inst: OnlineInstance, k: int) -> tuple[int, int]:
    """Per-release-time flowtime and makespan ceilings a sensible algorithm
    never exceeds (routing everyone one at a time already meets them).

    For the k-th release group over revealed agents 1..m_k, both come from
    the cost of ``sequential_chain`` over those agents: flow bound = m_k times
    the sum of their shortest distances, make bound = the chain's last
    arrival, i.e. the makespan sequential routing itself produces.
    """
    groups = partition_by_release(inst)
    if not (1 <= k <= len(groups)):
        raise ValueError(f"group index {k} out of range 1..{len(groups)}")
    m_k = groups[k - 1].agent_ids[-1]  # revealed agents are exactly ids 1..m_k
    dist_sum = make_bound = 0
    for _, start, arrival in sequential_chain(inst.graph, inst.agents[:m_k]):
        dist_sum += arrival - start
        make_bound = arrival
    return m_k * dist_sum, make_bound


def is_rational_at(plan: Plan, inst: OnlineInstance, k: int) -> bool:
    """Does the plan for all agents revealed by group k meet both bounds?"""
    groups = partition_by_release(inst)
    revealed = range(1, groups[k - 1].agent_ids[-1] + 1)
    metrics = evaluate(plan, revealed, inst)
    flow_bound, make_bound = rationality_bounds(inst, k)
    return metrics.flowtime <= flow_bound and metrics.makespan <= make_bound


@dataclass(frozen=True)
class RatioReport:
    """Empirical cost ratio of an online run against an optimal-cost baseline."""

    algorithm_cost: int
    optimal_cost: int
    ratio: object  # Fraction, or math.inf when optimal_cost == 0 < algorithm_cost
    additive_gap: int

    @staticmethod
    def of(algorithm_cost: int, optimal_cost: int) -> "RatioReport":
        if optimal_cost > 0:
            ratio = Fraction(algorithm_cost, optimal_cost)
        elif algorithm_cost > 0:
            ratio = math.inf
        else:
            ratio = Fraction(1)
        return RatioReport(algorithm_cost, optimal_cost, ratio, algorithm_cost - optimal_cost)


# ---------------------------------------------------------------------------
# scenario and plan text formats


def load_scenario(text: str, *, grid: GridMap | None = None, graph: Graph | None = None,
                  source: str = "<scen>") -> list[Agent]:
    """Parse agents from scenario text.

    Grid flavor lines are ``id release start_row start_col goal_row goal_col``
    (needs ``grid``); general-graph lines are ``id release start goal``
    (needs ``graph``). ``#`` starts a comment.
    """
    agents = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 6:
            if grid is None:
                raise ParseError("grid scenario line but no grid map given", source, lineno)
            aid, rel, sr, sc, gr, gc = (_parse_int(p, source, lineno) for p in parts)
            try:
                start = grid.vertex_of(sr, sc)
                goal = grid.vertex_of(gr, gc)
            except Exception as exc:
                raise ParseError(str(exc), source, lineno) from None
        elif len(parts) == 4:
            if graph is None:
                raise ParseError("graph scenario line but no graph given", source, lineno)
            aid, rel, start, goal = (_parse_int(p, source, lineno) for p in parts)
            if not (0 <= start < graph.vertex_count and 0 <= goal < graph.vertex_count):
                raise ParseError("vertex out of range", source, lineno)
        else:
            raise ParseError("expected 4 or 6 whitespace-separated fields", source, lineno)
        if aid != len(agents) + 1:
            raise ParseError(f"agent ids must be 1..m in order, got {aid}", source, lineno)
        if agents and rel < agents[-1].release:
            raise ParseError("release times must be non-decreasing", source, lineno)
        try:
            agents.append(Agent(aid, start, goal, rel))
        except ValueError as exc:
            raise ParseError(str(exc), source, lineno) from None
    return agents


def dump_scenario(agents, grid: GridMap | None = None) -> str:
    lines = []
    for a in agents:
        if grid is not None:
            sr, sc = grid.cell_of(a.start)
            gr, gc = grid.cell_of(a.goal)
            lines.append(f"{a.id} {a.release} {sr} {sc} {gr} {gc}")
        else:
            lines.append(f"{a.id} {a.release} {a.start} {a.goal}")
    return "\n".join(lines) + "\n"


def plan_to_csv(plan: Plan, inst: OnlineInstance) -> str:
    """CSV export: agent,start_time,arrival_time,service_time,path."""
    rows = ["agent,start_time,arrival_time,service_time,path"]
    for i in sorted(plan):
        path = plan[i]
        service = path.arrival_time - inst.agent(i).release
        rows.append(
            f"{i},{path.start_time},{path.arrival_time},{service},"
            + ";".join(str(v) for v in path.vertices)
        )
    return "\n".join(rows) + "\n"
