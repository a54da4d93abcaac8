"""One exact A* for every plan: the joint planner, and one agent as a special case.

``joint_plan`` (and ``offline_optimal`` on top of it) runs one A* pass with
operator decomposition over joint configurations for either objective: within
one time step the agents are advanced one at a time, which keeps the branching
factor per node at the single-agent level. Agents not yet in the graph wait
off it and may delay their entry arbitrarily long. ``plan_min_arrival`` is
that search over a single agent against a reservation table, the space-time
A* of cooperative pathfinding.

The search starts from one root, the configuration at the start time t0:
agents already in the graph at their current vertex, every other agent off
it. An agent released by t0 whose entry vertex is free at t0 chooses in an
entry layer before the first time step: in id order, each such agent takes
one operator-decomposition step, entering at t0 or keeping waiting, the same
two options any pending agent has in a later layer. So k such agents cost
states reached in cost order, not 2^k roots built before the first pop.

A state keeps only what cannot be derived: its two cost bounds, its depth,
its history, its configuration and its pending swap moves. The time and the
agent to move follow from the depth, and one option generator and one child
rule serve the entry layer and every later layer alike.

Many searches never touch the heap. No child's cost bounds fall below its
parent's, and every state on the heap follows the one being expanded, so the
smallest child that keeps its parent's bounds is the next pop. Each search
first descends from the root along these children alone, building no
sibling and closing no state, as Partial Expansion A* builds only the
children whose f equals their parent's. A search that pops every state from
the heap pops this chain first, so a descent that reaches the goal returns
its plan after its pops. At a state with no such child the search restarts
from the root in full, where a child that keeps its parent's bounds is
still expanded at once and only its siblings are pushed. Either way the
states popped, and their order, are those of a search that pops every state
from the heap.

The search is exact and fully deterministic. It breaks ties by the secondary
objective (makespan under flowtime and vice versa), then toward the deeper
state (more turns taken, so across a plateau of equal cost it runs
depth-first to a goal), then by the lexicographically smallest configuration
history. The history is one integer, a digit per token the search chose,
whose numeric order among histories of one depth is that lexicographic
order, so a push appends a digit rather than copying the history.
Heuristics are exact graph distances wherever the search reads them (a
goal's map grows where a read misses, see ``joint_plan``), and a state is
closed only on a key that fixes the cost of every completion, so reported
optima are exact, not approximate.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .core import Agent, DynamicObstacleSet, Path, Plan
from .core import build_obstacles  # noqa: F401 - benchmark/tracer.py patches it here
from .errors import BudgetExhausted
from .world import Graph

PENDING = -1  # joint-state token: revealed (or not) but not yet in the graph
DONE = -2  # joint-state token: arrived and removed
# Default cap on pops per search call, heap or not. It bounds pops, not
# memory, and it is the only bound on the CLI's oracle: once a search's
# descent breaks, every open state is kept (a search whose descent reaches
# the goal keeps none), at 2.6-6.4 KB per pop on 32x32 grids, and the line
# m = 8 optimum exhausts it at 1.58 GB peak RSS (README, `--node-budget`).
NODE_BUDGET = 10_000_000


def plan_min_arrival(
    graph: Graph,
    agent: Agent,
    obstacles: DynamicObstacleSet | None = None,
    node_budget: int = NODE_BUDGET,
) -> Path:
    """Earliest-arrival path for one agent against a set of moving obstacles.

    The joint search over this one agent: it may stay off the graph as long
    as it likes before entering at its start vertex, so a plan always exists
    (worst case it enters after all reservations have expired and walks a
    shortest path).
    """
    return offline_optimal(graph, [agent], frozen=obstacles, node_budget=node_budget)[agent.id]


class JointTask(NamedTuple):
    """One agent's view inside a joint search.

    Either ``entry`` is set (the agent still has to appear at that vertex, no
    earlier than ``release``) or ``current`` is set (the agent sits at that
    vertex when the plan starts and only its future is open; it is released by
    the search's ``start_time``, so it accrues a step in every layer).
    """

    agent_id: int
    goal: int
    release: int
    entry: int | None = None
    current: int | None = None


def offline_optimal(
    graph: Graph,
    agents,
    frozen: DynamicObstacleSet | None = None,
    objective: str = "flowtime",
    node_budget: int = NODE_BUDGET,
    *,
    fixed_makespan: int = 0,
) -> Plan:
    """Exact minimum-cost joint plan for a set of not-yet-started agents.

    Every agent may start at any time at or after its release; the plan also
    avoids all ``frozen`` reservations and starts at the earliest release.
    ``fixed_makespan`` folds the arrival times of agents outside the search
    into the makespan objective (used when previously planned agents count
    toward the measured cost). Intended for small agent sets; exponential in
    the number of agents.

    A conflict-free plan always exists: wait until every reservation has
    expired, then ``sequential_chain``.
    """
    agents = sorted(agents, key=lambda a: a.id)
    if not agents:
        return {}
    tasks = [JointTask(a.id, a.goal, a.release, entry=a.start) for a in agents]
    return joint_plan(graph, tasks, objective, frozen=frozen, node_budget=node_budget,
                      start_time=min(a.release for a in agents), fixed_makespan=fixed_makespan)


def joint_plan(
    graph: Graph,
    tasks: list[JointTask],
    objective: str,
    *,
    frozen: DynamicObstacleSet | None = None,
    start_time: int,
    node_budget: int = NODE_BUDGET,
    fixed_makespan: int = 0,
) -> Plan:
    """Exact joint plan over explicit tasks; see ``offline_optimal``.

    ``tasks`` come in agent-id order, the order in which each layer moves the
    agents (``offline_optimal`` sorts its agents once). Returns one path per
    task; paths of tasks given by ``current`` start at
    ``start_time`` at that vertex (callers splice their executed prefixes back
    on).

    The caller guarantees that a conflict-free plan exists, as it does for
    ``offline_optimal`` and for an ``all``-mode replan (the committed futures
    with the new group chained after them are one). Otherwise an agent off
    the graph may wait forever and only the node budget ends the search; the
    heap empties only when every state is a dead end.

    One A* pass per objective over heap entries (f1, f2, -depth, history,
    configuration, swaps). (f1, f2) is (flowtime, makespan) under flowtime,
    (makespan, flowtime) under makespan. Depth counts the turns taken: each
    layer, from t0 - 1 on, gives the agents a turn each in id order (the
    entry layer passes over those that do not choose, see below), so
    divmod(depth, n) is (t - (t0 - 1), j), j the agent to move. Swaps are
    this layer's moves into vertices that agents still to move hold (a move
    u->v forbids v->u to the agent at v), filtered when a state is pushed.

    On a plateau of equal cost the deeper state pops first. The history is
    an integer in base |V| + 2 with one digit, token + 2, per token the
    search chose (DONE 0, PENDING 1, vertex v v + 2). The t0 tokens of the
    agents that do not choose in the entry layer are the root's in every
    state and stay out, so histories of one depth have equal length and
    their numeric order is the lexicographic order of the token sequences.
    A state is closed on a key that fixes the cost of every completion, so
    the first path to reach it dominates later ones and the first plan
    popped is the minimum of that order. The key is the depth, the
    configuration and the swaps, plus, under makespan, the makespan lower
    bound (realized arrivals and arrival floors): paths that agree on it get
    the same makespan in every completion, so less flowtime, then the
    smaller history, wins. Paths that share a key share their depth, so the
    depth term changes only which of the equal-cost plans is popped first,
    never its cost.

    The flowtime lower bound is the steps accrued so far plus, per agent,
    rho, the fewest steps it still accrues. Agent j's move takes its old rho
    out, adds the step it accrues in this layer (if released) and puts the
    rho of its new token in.

    The search descends before it expands, and its pops stay those of a
    pure heap search. This rests on one invariant: no child's (f1, f2)
    falls below its parent's. Rho is consistent (one step lowers an agent's
    rho by at most the step it accrues), and a child's makespan bound is
    max(its arrival floor, the parent's bound). Every heap entry follows the
    state just popped, so an entry with that state's (f1, f2) is no deeper
    than it, while every child is deeper. Hence the child with the parent's
    (f1, f2) and, among those, the smallest token (the smallest history, as
    the children differ in that token alone) precedes the whole heap: it is
    the next pop. The first such option is the one. A released agent's wait,
    on the graph or off it, adds a flowtime step, so for an agent in the
    graph only a step to a neighbor one closer to the goal keeps the bounds
    (the goal itself from a vertex next to it), and neighbors come in id
    order. A read miss never does: an unlabeled neighbor is farther from the
    goal than the agent's own vertex, which is labeled.

    From the root the search follows these children alone: it builds no
    other child, pushes nothing and closes nothing. A pure heap search pops
    the same states first, in the same order, and finds none of them closed
    when it pops it, since each is deeper than the last and the depth is
    part of every closed key. So a descent that reaches the goal returns
    that search's plan after its pops, and a budget ends both at the same
    pop. At the first state without such a child the search restarts from
    the root, with its pop count back at 0, and searches in full: it expands
    the chain again, now pushing the siblings and closing the states, and
    still takes a child that keeps its parent's bounds as the next pop
    without the heap, pushing only its siblings. Without such a child the
    next pop comes from the heap, and an empty heap ends the search.

    Every distance the search reads is exact. Agent j's map is labeled only
    as far as the search has read it (see ``world``): the root reads j's
    start, and an expansion reads j's vertex, labeled when j reached it, and
    its neighbors. A neighbor other than the goal that reads 0 is unlabeled,
    so the map is first grown until it labels that neighbor.

    The entry layer at t0 - 1 moves only the choosers, the agents that may
    still enter at t0; no cost accrues in it, and until a chooser has chosen
    its bounds are those of entering, the cheaper choice. A chooser is
    released by t0, no frozen walk holds its entry at t0, and no agent after
    it does (current agents are excluded, later choosers are still pending),
    so its options are those of a pending agent in any layer: keep waiting,
    or enter unless an agent before it holds the entry. Its child appends
    its token like any other, and goes to the next chooser's turn, or to the
    layer at t0 after the last one.
    """
    if objective not in ("flowtime", "makespan"):
        raise ValueError(f"unknown objective {objective!r}")
    if not tasks:
        return {}
    if frozen is None:
        frozen = DynamicObstacleSet()
    t0 = start_time
    n = len(tasks)
    flow_primary = objective == "flowtime"
    vertex_res = frozen.vertex_reservations
    # The one root is the configuration at t0: agents already in the graph
    # sit at their current vertex, every other agent is PENDING. Each agent
    # adds its rho to the flowtime bound and its earliest possible arrival to
    # the makespan bound. A pending agent released by t0 whose entry no
    # frozen walk and no current agent holds at t0 still chooses, in the
    # entry layer, to enter at t0 or to keep waiting; until then it counts as
    # entering, the cheaper choice. Every other agent has one choice.
    currents = {task.current for task in tasks}
    dist_maps, releases, entries = [], [], []
    root = []
    choosers = []  # agents that choose in the entry layer, in id order
    flow, make_lb = 0, fixed_makespan
    for idx, (_, goal, release, s, current) in enumerate(tasks):
        dist = graph.dist_from(goal, reach=current if s is None else s)
        dist_maps.append(dist)
        releases.append(release)
        entries.append(s)
        if s is None:
            d = dist[current]
            token, rho, floor = current, d, t0 + d
        else:
            d = dist[s]
            token, rho, floor = PENDING, d, max(release, t0) + d
            if release <= t0:
                if s in currents or (s, t0) in vertex_res:
                    rho, floor = 1 + d, t0 + 1 + d  # waits, and is counted, until t0 + 1
                else:
                    choosers.append(idx)
        root.append(token)
        flow += rho
        if floor > make_lb:
            make_lb = floor
    # The chooser after each chooser (after -1: the first; after the last: n).
    next_chooser = dict(zip([-1] + choosers, choosers + [n]))

    base = graph.vertex_count + 2  # histories: one digit, token + 2, per chosen token

    # Entries that share a depth differ in history, so (f1, f2, -depth,
    # history) orders all totally. The root has chosen nothing: history 0.
    f1, f2 = (flow, make_lb) if flow_primary else (make_lb, flow)
    root_state = state = (f1, f2, -next_chooser[-1], 0, tuple(root), ())

    # All-mode replans and offline solves pass empty tables: each probe
    # below tests the table before building its key.
    edge_res = frozen.edge_reservations
    adjacency = graph.adjacency
    heappush, heappop = heapq.heappush, heapq.heappop
    finished = (DONE,) * n
    heap = []
    closed = set()
    pops = 0
    descending = True  # following the chain of bound-keeping children from the root
    while state is not None or heap:
        if state is None:  # no child is next: the heap holds the next pop
            state = heappop(heap)
        f1, f2, neg_depth, hist, pos, swaps = state
        pops += 1
        if pops > node_budget:
            raise BudgetExhausted(f"joint search exceeded {node_budget} pops")
        depth = -neg_depth
        if pos == finished:
            return _reconstruct(hist, depth, base, tasks, t0, root, choosers)
        if not descending:  # the chain grows deeper: none of its states was closed before
            size = len(closed)
            closed.add((depth, pos, swaps) if flow_primary else (depth, pos, swaps, f1))
            if len(closed) == size:  # closed before
                state = None
                continue
        flow, make_lb = (f1, f2) if flow_primary else (f2, f1)
        t, j = divmod(depth, n)
        t += t0 - 1
        nt = t + 1
        token = pos[j]
        before, after = pos[:j], pos[j + 1:]  # tokens are negative, never a vertex
        dist = dist_maps[j]

        # ``rest``: the flowtime bound less agent j's rho, plus its accrual in
        # this layer. Off the graph, a released agent's accrual of 1 cancels
        # the wait of 1 in its rho. Each option carries rho(new token, nt, j)
        # and the arrival floor (nt on arrival) it puts into the makespan bound.
        options = []  # (new token, move edge or None, rho, arrival floor)
        if token == DONE:
            rest = flow
            options.append((DONE, None, 0, make_lb))
        elif token == PENDING:
            s = entries[j]
            d = dist[s]  # labeled: a read miss labels a larger ball afresh
            rest = flow - d
            if releases[j] <= nt:
                if not descending:  # a released agent's wait adds a flowtime step
                    options.append((PENDING, None, 1 + d, nt + 1 + d))
                if s not in before and not (vertex_res and (s, nt) in vertex_res):
                    options.append((s, None, d, nt + d))
            else:
                options.append((PENDING, None, d, releases[j] + d))
        else:
            v = token
            dv = dist[v]
            rest = flow + 1 - dv  # an agent in the graph is released
            if not descending and v not in before and not (vertex_res and (v, nt) in vertex_res):
                options.append((v, None, dv, nt + dv))
            goal = tasks[j].goal
            for u in adjacency[v]:
                if descending and (u != goal if dv == 1 else dist[u] != dv - 1):
                    continue  # only a step one closer to the goal keeps the bounds
                if edge_res and (u, v, t) in edge_res or swaps and (u, v) in swaps:
                    continue
                if u == goal:
                    options.append((DONE, (v, u), 0, nt))
                elif u not in before and not (vertex_res and (u, nt) in vertex_res):
                    d = dist[u]
                    if not d:  # a read miss: u is not labeled yet
                        dist = dist_maps[j] = graph.dist_from(goal, reach=u)
                        d = dist[u]
                    options.append((u, (v, u), d, nt + d))
                    if descending:
                        break  # a second step one closer would keep the same bounds

        # The first child with this state's bounds, the smallest, is the
        # next pop (see the docstring); the others are pushed. A descent
        # has at most one option and pushes nothing: if that option does not
        # keep the bounds, the chain breaks. A child whose token does not
        # change shares this state's configuration tuple. In the entry layer
        # (t < t0, j a chooser) the child goes to the next chooser's turn.
        deeper = neg_depth - 1 if t >= t0 else -next_chooser[j]
        shifted = hist * base + 2  # the child's history less its token
        kept = tuple(mv for mv in swaps if mv[1] in after) if swaps else ()
        config = None
        state = None
        for new_token, edge, rho_new, floor in options:
            flow2 = rest + rho_new
            m2 = floor if floor > make_lb else make_lb
            nf1, nf2 = (flow2, m2) if flow_primary else (m2, flow2)
            if new_token == token:
                new_pos = pos
            else:
                if config is None:
                    config = list(pos)
                config[j] = new_token
                new_pos = tuple(config)
            moves = kept + (edge,) if edge and edge[1] in after else kept
            child = (nf1, nf2, deeper, shifted + new_token, new_pos, moves)
            if flow2 == flow and m2 == make_lb and state is None:
                state = child
            elif not descending:
                heappush(heap, child)
        if descending and state is None:  # the chain breaks: search in full from the root
            descending = False
            state, pops = root_state, 0

    raise BudgetExhausted("joint search found no conflict-free plan")


def _reconstruct(hist, depth, base, tasks, t0, root, choosers) -> Plan:
    """Turn the integer history back into one Path per task.

    ``hist`` holds one digit in ``base``, token + 2, per token the search
    chose: each chooser's token at t0, then one per (layer, agent) in agent
    order from the layer at t0 on; trailing tokens of the final partial layer
    are all DONE and may be missing. Every other agent's token at t0 is its
    ``root`` token.
    """
    n = len(tasks)
    digits = []
    for _ in range(depth - n + len(choosers)):
        hist, digit = divmod(hist, base)
        digits.append(digit - 2)
    digits.reverse()
    row = list(root)  # the configuration at t0
    for idx, token in zip(choosers, digits):
        row[idx] = token
    tokens = tuple(row + digits[len(choosers):])
    plan: Plan = {}
    for idx, task in enumerate(tasks):
        column = tokens[idx::n]
        entry_at = column.count(PENDING)  # off-graph tokens all precede the entry
        vertices = column[entry_at:column.index(DONE)] + (task.goal,)
        plan[task.agent_id] = Path(t0 + entry_at, vertices)
    return plan
