"""Instance generators: the line family, the adaptive 2x2 adversary, the
SAT reduction gadgets, and seeded random instances.

The reduction maps a restricted SAT instance (every variable in exactly three
clauses, both polarities present, clauses of at most three literals) to an
instance whose optimal makespan is 3 exactly when the formula is satisfiable
and 4 otherwise. Every agent's shortest distance is 3 by construction, which
is audited at build time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Agent, OnlineInstance, Plan, plan_costs
from .errors import (
    EmptyWorld,
    MalformedSat,
    NotMakespanThree,
    OddM,
    ParseError,
    ProtocolViolation,
)
from .online import RevealSource
from .world import Graph, build_graph, build_grid, shortest_dist


# ---------------------------------------------------------------------------
# line family


def gen_line(m: int) -> OnlineInstance:
    """The 1 x (m+1) strip with m head-on agents released one per step.

    Odd-indexed agents run left to right, even-indexed ones right to left;
    agent i is released at time i-1. Forces any non-rerouting planner into
    fully sequential behavior.
    """
    if m < 2 or m % 2 != 0:
        raise OddM(f"line family needs an even m >= 2, got {m}")
    graph = build_grid(1, m + 1)
    agents = []
    for i in range(1, m + 1):
        if i % 2 == 1:
            agents.append(Agent(i, 0, m, i - 1))
        else:
            agents.append(Agent(i, m, 0, i - 1))
    return OnlineInstance(graph, tuple(agents))


@dataclass(frozen=True)
class LineCosts:
    rational_flow: int
    rational_make: int
    opt_flow: int
    opt_make: int


def line_closed_forms(m: int) -> LineCosts:
    """Exact costs on the line family: what every non-rerouting rational
    planner is forced into, and the full-knowledge optimum."""
    if m < 2 or m % 2 != 0:
        raise OddM(f"line family needs an even m >= 2, got {m}")
    return LineCosts(
        rational_flow=(m**3 + m) // 2,
        rational_make=m * m,
        opt_flow=(15 * m * m - 10 * m) // 8,  # 20k(3k - 1) for m = 2k: 8 divides it
        opt_make=(7 * m - 6) // 2,
    )


# ---------------------------------------------------------------------------
# adaptive 2x2 adversary

V1, V2, V3, V4 = 0, 1, 2, 3  # row-major ids on the open 2x2 grid


class TwoByTwoAdversary(RevealSource):
    """Reveals a second agent as a function of the first agent's commitment.

    Agent 1 (v1 -> v4, release 0) has two shortest paths. Whichever middle
    vertex its committed plan occupies at time 1 becomes agent 2's start
    (goal v1, release 1), so agent 2 always appears right in front of it. If
    the committed plan occupies neither middle vertex at time 1 (possible only
    for senseless plans), the v2 branch is used; that default is an extension
    beyond the forced cases, chosen for determinism.
    """

    def __init__(self):
        self._graph = build_grid(2, 2)
        self._stage = "reveal-first"
        self._second: Agent | None = None

    def graph(self) -> Graph:
        return self._graph

    def next_event(self):
        if self._stage == "reveal-first":
            self._stage = "await-first"
            return 0, [Agent(1, V1, V4, 0)]
        if self._stage == "reveal-second":
            self._stage = "await-second"
            return 1, [self._second]
        if self._stage == "done":
            return None
        raise ProtocolViolation(f"next_event called in stage {self._stage}")

    def observe(self, time: int, plan: Plan) -> None:
        if self._stage == "await-first":
            path = plan.get(1)
            if path is None:
                raise ProtocolViolation("no committed plan for agent 1")
            start = V3 if path.position(1) == V3 else V2
            self._second = Agent(2, start, V1, 1)
            self._stage = "reveal-second"
        elif self._stage == "await-second":
            self._stage = "done"


def gen_2x2_adversary() -> TwoByTwoAdversary:
    return TwoByTwoAdversary()


# ---------------------------------------------------------------------------
# SAT reduction


@dataclass(frozen=True)
class SatInstance:
    """A <=3,=3 SAT formula: literals are signed 1-based variable indices."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variable_count < 1:
            raise MalformedSat(f"variable count must be at least 1, got {self.variable_count}")
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        occurrences = {}  # only the variables that occur, not one per declared variable
        for idx, clause in enumerate(self.clauses, start=1):
            if not 1 <= len(clause) <= 3:
                raise MalformedSat(f"clause {idx} must have 1..3 literals")
            seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > self.variable_count:
                    raise MalformedSat(f"clause {idx}: literal {lit} out of range")
                if var in seen:
                    raise MalformedSat(f"clause {idx}: variable {var} appears twice")
                seen.add(var)
                occurrences.setdefault(var, [0, 0])[0 if lit > 0 else 1] += 1
        # The first variable that does not occur is at most one past the
        # number that do, so the scan stops there and still meets the first
        # bad variable.
        for var in range(1, min(self.variable_count, len(occurrences) + 1) + 1):
            pos, neg = occurrences.get(var, (0, 0))
            if pos + neg != 3:
                raise MalformedSat(f"variable {var} occurs {pos + neg} times, needs exactly 3")
            if pos == 0 or neg == 0:
                raise MalformedSat(f"variable {var} must occur in both polarities")


def parse_dimacs(text: str, source: str = "<cnf>") -> SatInstance:
    """DIMACS CNF: one ``p cnf N M`` header, clauses as 0-terminated literal runs."""
    n = m = None
    literals: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError("second 'p cnf' header", source, lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("expected 'p cnf N M' header", source, lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("header counts must be integers", source, lineno) from None
            continue
        if n is None:
            raise ParseError("clause line before 'p cnf' header", source, lineno)
        for token in line.split():
            try:
                literals.append(int(token))
            except ValueError:
                raise ParseError(f"expected an integer literal, got {token!r}", source, lineno) from None
    if n is None:
        raise ParseError("missing 'p cnf' header", source, 1)
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if current:
                clauses.append(tuple(current))
                current = []
        else:
            current.append(lit)
    if current:
        raise ParseError("last clause not terminated by 0", source, len(text.splitlines()))
    if len(clauses) != m:
        raise ParseError(f"header promises {m} clauses, found {len(clauses)}", source, 1)
    return SatInstance(n, tuple(clauses))


def dump_dimacs(sat: SatInstance) -> str:
    lines = [f"p cnf {sat.variable_count} {len(sat.clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in sat.clauses]
    return "\n".join(lines) + "\n"


@dataclass
class ReductionOutput:
    """The reduced instance plus everything needed to interpret its plans."""

    instance: OnlineInstance
    vertex_labels: dict[int, str]
    agent_labels: dict[int, str]
    shared_paths: dict[int, tuple[int, ...]]  # literal agent id -> shared route
    private_paths: dict[int, tuple[int, ...]]  # literal agent id -> private route
    clause_paths: dict[int, tuple[tuple[int, ...], ...]]  # clause agent id -> routes
    sat: SatInstance


def reduce_sat(sat: SatInstance) -> ReductionOutput:
    """Build the makespan-3-iff-satisfiable instance for a <=3,=3 formula.

    Per variable, two literal agents each choose between a shared route
    (through the variable's junction vertex, meaning True for that literal)
    and a private route. Per clause, one agent's candidate routes each cross
    the private route of one literal in the clause, so the clause agent fits
    into a makespan-3 plan exactly when some literal of the clause went
    shared. Edges are exactly the steps of these routes and nothing else.
    The input formula's variable/clause incidence must be connected, since
    instances live on connected graphs.
    """
    labels: list[str] = []

    def vertex(label: str) -> int:
        labels.append(label)
        return len(labels) - 1

    polarity = {True: "T", False: "F"}
    shared: dict[int, tuple[int, ...]] = {}
    private: dict[int, tuple[int, ...]] = {}
    agents: list[Agent] = []
    agent_labels: dict[int, str] = {}
    # Variable gadgets: one junction vertex, two four-vertex routes per literal.
    w_vertex: dict[tuple[int, bool], int] = {}
    x_vertex: dict[tuple[int, bool], int] = {}
    for i in range(1, sat.variable_count + 1):
        junction = vertex(f"v_{i}")
        for positive in (True, False):
            tag = polarity[positive]
            s = vertex(f"s_{i}{tag}")
            u = vertex(f"u_{i}{tag}")
            w = vertex(f"w_{i}{tag}")
            x = vertex(f"x_{i}{tag}")
            t = vertex(f"t_{i}{tag}")
            w_vertex[(i, positive)] = w
            x_vertex[(i, positive)] = x
            agent_id = len(agents) + 1
            agents.append(Agent(agent_id, s, t, 0))
            agent_labels[agent_id] = f"a_{i}{tag}"
            shared[agent_id] = (s, u, junction, t)
            private[agent_id] = (s, w, x, t)

    # Clause gadgets: route through w on a literal's first clause, through x
    # (via a fresh detour vertex) on its second.
    seen_occurrences: dict[tuple[int, bool], int] = {}
    clause_paths: dict[int, tuple[tuple[int, ...], ...]] = {}
    for j, clause in enumerate(sat.clauses, start=1):
        c = vertex(f"c_{j}")
        d = vertex(f"d_{j}")
        b = None
        alpha = None
        routes = []
        for lit in clause:
            key = (abs(lit), lit > 0)
            count = seen_occurrences.get(key, 0)
            seen_occurrences[key] = count + 1
            if count == 0:
                if b is None:
                    b = vertex(f"b_{j}")
                routes.append((c, w_vertex[key], b, d))
            else:  # the second: each variable occurs 3 times, in both polarities
                if alpha is None:
                    alpha = vertex(f"alpha_{j}")
                routes.append((c, alpha, x_vertex[key], d))
        agent_id = len(agents) + 1
        agents.append(Agent(agent_id, c, d, 0))
        agent_labels[agent_id] = f"clause_{j}"
        clause_paths[agent_id] = tuple(routes)

    edges = set()
    for route in list(shared.values()) + list(private.values()):
        edges.update(zip(route, route[1:]))
    for routes in clause_paths.values():
        for route in routes:
            edges.update(zip(route, route[1:]))
    graph = build_graph(len(labels), sorted(edges))
    instance = OnlineInstance(graph, tuple(agents))

    for agent in agents:
        if shortest_dist(graph, agent.start, agent.goal) != 3:
            raise RuntimeError(
                f"distance audit failed for agent {agent.id}: gadget construction is broken"
            )
    return ReductionOutput(
        instance=instance,
        vertex_labels=dict(enumerate(labels)),
        agent_labels=agent_labels,
        shared_paths=shared,
        private_paths=private,
        clause_paths=clause_paths,
        sat=sat,
    )


def decode_assignment(out: ReductionOutput, plan: Plan) -> dict[int, bool]:
    """Read a satisfying assignment off a makespan-3 plan: a literal is True
    exactly when its agent used the shared route; two private routes default
    the variable to True."""
    _, makespan = plan_costs(plan, out.instance.agents)
    if makespan != 3:
        raise NotMakespanThree(f"plan has makespan {makespan}, need exactly 3")

    assignment: dict[int, bool] = {}
    agent_id = 1
    for i in range(1, out.sat.variable_count + 1):
        routes = {}
        for positive in (True, False):
            path = plan[agent_id]
            if tuple(path.vertices) == out.shared_paths[agent_id]:
                routes[positive] = "shared"
            elif tuple(path.vertices) == out.private_paths[agent_id]:
                routes[positive] = "private"
            else:
                raise ValueError(f"agent {agent_id} is not on a canonical route")
            agent_id += 1
        if routes[True] == "shared" and routes[False] == "shared":
            raise ValueError(f"variable {i}: both literal agents on shared routes")
        if routes[True] == "shared":
            assignment[i] = True
        elif routes[False] == "shared":
            assignment[i] = False
        else:
            assignment[i] = True  # free variable; pick True for determinism
    return assignment


# ---------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class RandomSpec:
    height: int
    width: int
    density: float = 0.1
    agents: int = 4
    max_release: int = 0
    seed: int = 0


def gen_random(spec: RandomSpec) -> OnlineInstance:
    """Seeded random grid instance; raises if the sampled blocked cells
    disconnect (or exhaust) the free space."""
    rng = random.Random(spec.seed)
    blocked = {
        (r, c)
        for r in range(spec.height)
        for c in range(spec.width)
        if rng.random() < spec.density
    }
    graph = build_grid(spec.height, spec.width, blocked)
    if graph.vertex_count < 2:
        raise EmptyWorld("sampled world has no room for start/goal pairs")
    releases = sorted(rng.randint(0, spec.max_release) for _ in range(spec.agents))
    agents = []
    for i in range(spec.agents):
        start = rng.randrange(graph.vertex_count)
        goal = rng.randrange(graph.vertex_count)
        while goal == start:
            goal = rng.randrange(graph.vertex_count)
        agents.append(Agent(i + 1, start, goal, releases[i]))
    return OnlineInstance(graph, tuple(agents))
