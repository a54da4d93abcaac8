"""Reference computations that share no code with the program.

* ``joint_optimum``: brute-force layered dynamic programme over full joint
  moves (no operator decomposition) for tiny instances.
* ``earliest_arrival``: time-expanded reachability of one agent against
  fixed reservations.
* ``brute_force_sat`` and ``random_formula``: exhaustive satisfiability and a
  seeded generator of <=3,=3 formulas.

Semantics follow the package's documented rules: an agent occupies its vertex
from its start time up to, but not including, its arrival time; it may wait
off the graph before entering at its start; two agents may not occupy one
vertex at the same time, nor traverse one edge in opposite directions in the
same step (final moves included).
"""

from __future__ import annotations

import itertools

PENDING = -1
DONE = -2


def joint_optimum(adjacency, agents, objective: str) -> int:
    """Optimal flowtime or makespan of a joint plan.

    ``agents`` is a list of (start, goal, release). Planning starts at the
    earliest release, as ``offline_optimal`` does. Exponential in the number
    of agents: meant for at most 6 vertices and 3 agents.
    """
    t0 = min(release for _, _, release in agents)
    layer = {}
    for tokens in itertools.product(
        *[(PENDING, start) if release <= t0 else (PENDING,) for start, _, release in agents]
    ):
        if _distinct(tokens):
            layer[tokens] = 0
    t = t0
    best = None
    while True:
        live = []
        for tokens, cost in layer.items():
            if all(tok == DONE for tok in tokens):
                if objective == "makespan":
                    return t
                best = cost if best is None else min(best, cost)
            else:
                live.append(cost)
        # Costs never decrease along a plan, and once every agent is released
        # each live state gains at least one per step, so this ends.
        if best is not None and (not live or min(live) >= best):
            return best
        following = {}
        for tokens, cost in layer.items():
            if all(tok == DONE for tok in tokens):
                continue
            accrued = cost + sum(
                1 for tok, (_, _, release) in zip(tokens, agents) if tok != DONE and release <= t
            )
            choices = [_moves(tok, agent, t, adjacency) for tok, agent in zip(tokens, agents)]
            for combo in itertools.product(*choices):
                nxt = tuple(tok for tok, _ in combo)
                if not _distinct(nxt):
                    continue
                edges = {edge for _, edge in combo if edge is not None}
                if any((v, u) in edges for u, v in edges):
                    continue
                if following.get(nxt, accrued + 1) > accrued:
                    following[nxt] = accrued
        layer = following
        t += 1


def _distinct(tokens) -> bool:
    placed = [tok for tok in tokens if tok >= 0]
    return len(placed) == len(set(placed))


def _moves(token, agent, t, adjacency):
    start, goal, release = agent
    if token == DONE:
        return [(DONE, None)]
    if token == PENDING:
        return [(PENDING, None), (start, None)] if release <= t + 1 else [(PENDING, None)]
    return [(token, None)] + [(DONE if u == goal else u, (token, u)) for u in adjacency[token]]


def earliest_arrival(adjacency, start, goal, release, occupied, moving) -> int | None:
    """Earliest arrival time of one agent against fixed reservations.

    ``occupied`` holds (vertex, time) pairs taken by other agents and
    ``moving`` holds their (from, to, departure) moves. Returns None only if
    the goal is unreachable, which a connected graph rules out.
    """
    horizon = max([release] + [t for _, t in occupied] + [t for _, _, t in moving])
    horizon += len(adjacency) + 1
    frontier = {start} if (start, release) not in occupied else set()
    t = release
    while t <= horizon:
        for v in frontier:
            if any(u == goal and (u, v, t) not in moving for u in adjacency[v]):
                return t + 1
        nt = t + 1
        following = {start} if (start, nt) not in occupied else set()
        for v in frontier:
            if (v, nt) not in occupied:
                following.add(v)
            for u in adjacency[v]:
                if u != goal and (u, nt) not in occupied and (u, v, t) not in moving:
                    following.add(u)
        frontier = following
        t = nt
    return None


def formula_holds(clauses, assignment) -> bool:
    return all(any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses)


def brute_force_sat(variable_count: int, clauses) -> dict[int, bool] | None:
    """A satisfying assignment found by trying all of them, or None."""
    for bits in itertools.product((False, True), repeat=variable_count):
        assignment = {i + 1: bit for i, bit in enumerate(bits)}
        if formula_holds(clauses, assignment):
            return assignment
    return None


def random_formula(rng, clause_sizes) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A <=3,=3 formula with the given clause sizes (summing to 3n).

    Every variable occurs exactly three times in both polarities, no clause
    repeats a variable, and the variable/clause incidence is connected, which
    the reduction needs for a connected graph.
    """
    n = sum(clause_sizes) // 3
    while True:
        literals = []
        for var in range(1, n + 1):
            positive = rng.choice((1, 2))
            literals += [var] * positive + [-var] * (3 - positive)
        rng.shuffle(literals)
        clauses, k = [], 0
        for size in clause_sizes:
            clauses.append(tuple(literals[k:k + size]))
            k += size
        if any(len({abs(lit) for lit in clause}) != len(clause) for clause in clauses):
            continue
        root = list(range(n + 1))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for clause in clauses:
            for lit in clause[1:]:
                root[find(abs(lit))] = find(abs(clause[0]))
        if len({find(v) for v in range(1, n + 1)}) == 1:
            return n, tuple(clauses)
