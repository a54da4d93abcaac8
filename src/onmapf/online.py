"""Release-time execution loop, controllability modes, and rationalization.

An online run consumes reveal events from a :class:`RevealSource` (a fixed
instance or an adaptive adversary), plans at each release time under the
policy's controllability mode, and records a committed-plan snapshot after
every event. Commitment semantics:

* ``new-single``: each newly revealed agent is planned alone, in id order,
  against all previously committed paths as dynamic obstacles; never replans.
* ``new``: the whole release group is planned jointly against the committed
  paths as dynamic obstacles; never replans.
* ``all``: every revealed agent's future is replanned jointly. Executed
  prefixes are frozen: an agent in the graph is pinned to its current
  position, an agent that already arrived keeps its path, and any agent still
  off the graph (including one whose committed start lies in the future) may
  be rescheduled freely from the current time on.

The two non-rerouting modes share one commit loop and differ only in where
the candidates come from: the custom hook, one joint plan of the group
(``new``), the group's sequential chain after the committed makespan
(``sequence``), or per agent a single-agent plan against everything committed
so far (``new-single``). The loop goes over the group in id order; for each
agent it takes the candidate, rationalizes it, commits it and extends the
committed makespan. Rationalization is the paper's one rule, to replace a
violating computation by sequential routing: in ``new-single`` mode each
candidate is capped by the chain after the committed makespan, and in ``new``
mode a path the reservation table does not admit (or a busted ceiling) makes
``run`` replace the whole group by that chain.

A custom hook sees a :class:`CustomContext` of the event: the committed
makespan and the ceilings among other things, all numbers ``run`` already
holds, so building the context copies no plan.

``run`` owns one reservation table (a :class:`DynamicObstacleSet`) for the
whole run. Each committed path is added to it once, in id order, and the
single-agent planner, the ``new``-mode joint planner and the per-agent
rationalization cap all read it. It is rebuilt from the committed plan only
after a rationalization fallback, which replaces committed paths rather than
adding them. In the non-rerouting modes it holds, after every event, exactly
the reservations of the committed plan, never those of a rejected candidate.
In ``all`` mode nothing reads it (the replan pins the agents in the graph to
their current vertices), so an ``all``-mode replan leaves it as it is.

Every collision decision inside the loop reads that table
(:meth:`DynamicObstacleSet.admits`). The final report,
``core.detect_conflicts``, builds its own table of the committed plan and
reads its pairs from it, so it checks the plan without trusting the loop's
table. Every one-at-a-time route (the ``sequence`` planner and the
rationalization fallbacks) comes from ``core.sequential_chain``.

``run`` also keeps running totals instead of re-evaluating the revealed
agents at every event. The sequential chain's last arrival and distance sum
are extended by the new group, which gives exactly
``core.rationality_bounds``, since the chain is a left fold in id order. The
committed flowtime and makespan are extended by the group's paths (by the
chain's paths after a fallback) and recomputed only after an ``all``-mode
replan. Outside the planners, an event therefore costs O(size of the new
group); the snapshot's plan copy (``observe`` is handed the same one), a
fallback and an ``all``-mode replan are the exceptions.

The trace's plan and metrics are the last snapshot's: ``run`` returns its
committed plan as it stands and re-evaluates nothing. Each agent's vertices
are checked when it is revealed, and on purpose once more after the last
event, when ``run`` builds the final ``OnlineInstance``: that costs O(m) per
run, and skipping it would need a second constructor path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import core
from .core import (
    Agent,
    DynamicObstacleSet,
    Metrics,
    OnlineInstance,
    Path,
    Plan,
    build_obstacles,
    partition_by_release,
    sequential_chain,
)
from .errors import ProtocolViolation
from .search import (
    NODE_BUDGET,
    JointTask,
    joint_plan,
    offline_optimal,
    plan_min_arrival,
)
from .world import Graph, shortest_path_lex

MODES = ("new-single", "new", "all")
OBJECTIVES = ("flowtime", "makespan")


@dataclass(frozen=True)
class OnlinePolicy:
    """What to plan for at each release time and how well.

    ``planner`` is one of ``sequence`` (chain agents one after another),
    ``opt-rational`` (optimal cost for the controllable set, needs
    ``objective``), or ``custom`` (arbitrary hook producing the new group's
    paths). ``rationalized`` adds the fallback that keeps every snapshot
    within the per-release-time flowtime/makespan ceilings.
    """

    mode: str
    planner: str
    objective: str | None = None
    custom: object = None
    rationalized: bool = False
    label: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.planner == "sequence":
            if self.mode != "new-single":
                raise ValueError("the sequence planner plans one agent at a time")
        elif self.planner == "opt-rational":
            if self.objective not in OBJECTIVES:
                raise ValueError("opt-rational needs objective flowtime or makespan")
        elif self.planner == "custom":
            if not callable(self.custom):
                raise ValueError("custom policy needs a callable hook")
            if self.mode == "all":
                raise ValueError("custom hooks plan newly revealed agents only")
        else:
            raise ValueError(f"unknown planner {self.planner!r}")

    @property
    def name(self) -> str:
        if self.label:
            base = self.label
        elif self.planner == "sequence":
            base = "sequence"
        else:
            base = f"{self.planner}({self.mode}:{self.objective})"
        return base + ("+rationalized" if self.rationalized else "")


def sequence_policy() -> OnlinePolicy:
    return OnlinePolicy(mode="new-single", planner="sequence")


def opt_rational(mode: str, objective: str) -> OnlinePolicy:
    return OnlinePolicy(mode=mode, planner="opt-rational", objective=objective)


def custom_policy(hook, mode: str = "new", label: str = "custom") -> OnlinePolicy:
    return OnlinePolicy(mode=mode, planner="custom", custom=hook, label=label)


def rationalize_wrap(policy: OnlinePolicy) -> OnlinePolicy:
    """Same policy, but guaranteed to satisfy the rationality bounds at every
    release time: any violating computation is replaced by sequential routing
    of the new group after the previously committed makespan."""
    return replace(policy, rationalized=True)


def replay_policy(plan: Plan, label: str = "replay-optimal") -> OnlinePolicy:
    """Irrational-but-good: replays a precomputed plan (typically the
    full-knowledge optimum) one agent at a time as the agents are revealed.
    No online algorithm could produce it without clairvoyance."""

    def hook(ctx: "CustomContext") -> Plan:
        return {agent.id: plan[agent.id] for agent in ctx.new_agents}

    return custom_policy(hook, mode="new-single", label=label)


@dataclass(frozen=True)
class CustomContext:
    """What a custom planning hook gets to look at: the release time, the
    new group in id order, the latest committed arrival before the event
    (0 at the first) and the event's ``(flow_bound, make_bound)`` ceilings."""

    graph: Graph
    time: int
    new_agents: tuple[Agent, ...]
    makespan: int
    bounds: tuple[int, int]


class RevealSource:
    """Sequential source of release events.

    ``next_event`` yields ``(release_time, agents)`` or None when exhausted;
    after planning, the loop reports the committed plan via ``observe`` so
    adaptive sources can choose future reveals. That plan is the event's
    ``Snapshot.plan`` itself, so ``observe`` must not modify it.
    """

    def graph(self) -> Graph:
        raise NotImplementedError

    def next_event(self):
        raise NotImplementedError

    def observe(self, time: int, plan: Plan) -> None:  # noqa: ARG002 - default sink
        return None


class InstanceSource(RevealSource):
    """Replays a fixed instance's release groups."""

    def __init__(self, instance: OnlineInstance):
        self.instance = instance
        self._groups = partition_by_release(instance)
        self._next = 0

    def graph(self) -> Graph:
        return self.instance.graph

    def next_event(self):
        if self._next >= len(self._groups):
            return None
        group = self._groups[self._next]
        self._next += 1
        return group.time, [self.instance.agent(i) for i in group.agent_ids]


@dataclass
class Snapshot:
    """Committed plan right after one release event, with its metrics over the
    revealed agents and the event's ``(flow_bound, make_bound)`` ceilings."""

    k: int
    time: int
    plan: Plan
    metrics: Metrics
    bounds: tuple[int, int]
    fallback: bool

    @property
    def flow_ok(self) -> bool:
        return self.metrics.flowtime <= self.bounds[0]

    @property
    def make_ok(self) -> bool:
        return self.metrics.makespan <= self.bounds[1]


@dataclass
class SimulationTrace:
    policy: OnlinePolicy
    instance: OnlineInstance
    snapshots: list[Snapshot] = field(default_factory=list)
    plan: Plan = field(default_factory=dict)
    metrics: Metrics | None = None
    conflicts: list = field(default_factory=list)


def run(source: RevealSource, policy: OnlinePolicy,
        node_budget: int = NODE_BUDGET) -> SimulationTrace:
    """Drive the policy over all reveal events and return the full trace."""
    graph = source.graph()
    committed: Plan = {}
    obstacles = DynamicObstacleSet()
    revealed: list[Agent] = []
    trace_snapshots: list[Snapshot] = []
    may_fall_back = policy.rationalized and policy.mode != "new-single"
    # Running totals over the revealed agents (see the module docstring).
    chain = dist_sum = flowtime = makespan = 0
    last_time = -1

    while True:
        event = source.next_event()
        if event is None:
            break
        time_k, new_agents = event
        if time_k <= last_time:
            raise ProtocolViolation("release events must have increasing times")
        last_time = time_k
        new_agents = sorted(new_agents, key=lambda a: a.id)
        for agent in new_agents:
            if agent.id != len(revealed) + 1:
                raise ProtocolViolation(f"expected agent {len(revealed) + 1}, got {agent.id}")
            if agent.release != time_k:
                raise ProtocolViolation("revealed agent's release differs from event time")
            revealed.append(agent)
        for agent in new_agents:
            core.validate_agent(agent, graph)
        for _, start, arrival in sequential_chain(graph, new_agents, chain):
            dist_sum += arrival - start
            chain = arrival
        bounds = (len(revealed) * dist_sum, chain)
        prev_flowtime, prev_makespan = flowtime, makespan

        clashed = _plan_event(committed, obstacles, graph, revealed, new_agents, time_k, policy,
                              node_budget, prev_makespan, bounds)

        if policy.mode == "all":
            flowtime, makespan = _costs(committed, revealed)
        else:
            flowtime, makespan = _costs(committed, new_agents, prev_flowtime, prev_makespan)
        fallback = may_fall_back and (clashed or flowtime > bounds[0] or makespan > bounds[1])
        if fallback:
            # Replace the group by the sequential chain after every committed
            # arrival, which meets both ceilings and cannot collide. The plan
            # before the event is the previous snapshot's.
            committed.clear()
            committed.update(trace_snapshots[-1].plan if trace_snapshots else {})
            for agent, start, _ in sequential_chain(graph, new_agents, prev_makespan):
                committed[agent.id] = _chain_path(graph, agent, start)
            flowtime, makespan = _costs(committed, new_agents, prev_flowtime, prev_makespan)
            obstacles = build_obstacles(committed)
        metrics = Metrics(flowtime, makespan, flowtime - dist_sum)
        trace_snapshots.append(Snapshot(len(trace_snapshots) + 1, time_k, dict(committed), metrics,
                                        bounds, fallback))
        source.observe(time_k, trace_snapshots[-1].plan)

    if not trace_snapshots:
        raise ValueError("the source revealed no agents")
    instance = OnlineInstance(graph, tuple(revealed))
    conflicts = core.detect_conflicts(committed)
    return SimulationTrace(policy, instance, trace_snapshots, committed,
                           trace_snapshots[-1].metrics, conflicts)


# ---------------------------------------------------------------------------
# per-event planning


def _costs(plan, agents, flowtime=0, makespan=0):
    """Flowtime and makespan of the agents' paths in ``plan``, added to the
    given totals."""
    for agent in agents:
        path = plan[agent.id]
        flowtime += path.arrival_time - agent.release
        makespan = max(makespan, path.arrival_time)
    return flowtime, makespan


def _chain_path(graph, agent, start):
    """The path ``sequential_chain`` routes an agent on from ``start``."""
    return Path(start, shortest_path_lex(graph, agent.start, agent.goal))


def _plan_event(committed, obstacles, graph, revealed, new_agents, time_k, policy, node_budget,
                makespan, bounds):
    """Commit the new group's paths (see the module docstring); True if a
    rationalized ``new``-mode group has a path the reservation table does not
    admit. ``makespan`` is the latest committed arrival before the event."""
    if policy.mode == "all":
        _replan_all(committed, graph, revealed, new_agents, time_k, policy, node_budget)
        return False
    produced = None
    if policy.planner == "custom":
        produced = policy.custom(CustomContext(graph, time_k, tuple(new_agents), makespan, bounds))
        if set(produced) != {a.id for a in new_agents}:
            raise ValueError("custom hook must return exactly the new agents' paths")
    elif policy.mode == "new":
        produced = offline_optimal(graph, new_agents, frozen=obstacles, objective=policy.objective,
                                   node_budget=node_budget, fixed_makespan=makespan)
    elif policy.planner == "sequence":
        produced = {agent.id: _chain_path(graph, agent, start)
                    for agent, start, _ in sequential_chain(graph, new_agents, makespan)}
    capped = policy.rationalized and policy.mode == "new-single"
    clashed = False
    for agent in new_agents:
        if capped:
            # The sequential chain after every committed arrival.
            _, start, arrival = next(sequential_chain(graph, (agent,), makespan))
        if produced is None:
            path = plan_min_arrival(graph, agent, obstacles, node_budget)
        else:
            path = produced[agent.id]
            if policy.planner == "custom":
                core.validate_path(path, agent, graph)
        if capped:
            # Per agent: no later than the chain, and fitting the commitments.
            if path.arrival_time > arrival or not obstacles.admits(path):
                path = _chain_path(graph, agent, start)
        elif policy.rationalized:
            # The committed plan before the event is conflict-free (every
            # earlier event passed this check or fell back to the chain), so
            # checking each path as it joins the table finds every conflict.
            clashed = clashed or not obstacles.admits(path)
        committed[agent.id] = path
        obstacles.add_path(agent.id, path)
        makespan = max(makespan, path.arrival_time)
    return clashed


def _replan_all(committed, graph, revealed, new_agents, time_k, policy, node_budget):
    """Replan every revealed agent's future from time_k on."""
    tasks = []
    prefixes = {}
    fixed_makespan = 0
    # The new group holds the highest ids, so the tasks are in id order, the
    # order joint_plan takes them in.
    for agent in revealed[:len(revealed) - len(new_agents)]:
        aid = agent.id
        path = committed[aid]
        if path.arrival_time <= time_k:
            fixed_makespan = max(fixed_makespan, path.arrival_time)
        elif path.start_time <= time_k:
            tasks.append(JointTask(aid, agent.goal, agent.release, current=path.position(time_k)))
            prefixes[aid] = path
        else:
            tasks.append(JointTask(aid, agent.goal, agent.release, entry=agent.start))
    for agent in new_agents:
        tasks.append(JointTask(agent.id, agent.goal, agent.release, entry=agent.start))
    sub = joint_plan(graph, tasks, policy.objective, start_time=time_k, node_budget=node_budget,
                     fixed_makespan=fixed_makespan)
    for aid, suffix in sub.items():
        old = prefixes.get(aid)
        if old is None:
            committed[aid] = suffix
        else:
            keep = old.vertices[: time_k - old.start_time]
            committed[aid] = Path(old.start_time, keep + suffix.vertices)
