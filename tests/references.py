"""Independent references the test modules share: a seeded graph generator,
brute-force oracles that do not use the planners they check, and a
deliberately irrational online policy."""

import itertools

from onmapf import Path, custom_policy, sequential_chain
from onmapf.world import build_graph, shortest_path_lex


def random_connected_graph(rng, n):
    edges = [(rng.randrange(i), i) for i in range(1, n)]  # random spanning tree
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return build_graph(n, edges)


def reservations(paths):
    """The cells ``(v, t)`` the timed paths occupy (arrivals do not) and
    their moves ``(u, v, t)``, read from each path's vertex list."""
    occupied, moving = set(), set()
    for path in paths.values():
        vertices, start_time = path.vertices, path.start_time
        for j in range(len(vertices) - 1):
            occupied.add((vertices[j], start_time + j))
            if vertices[j] != vertices[j + 1]:
                moving.add((vertices[j], vertices[j + 1], start_time + j))
    return occupied, moving


def reservation_horizon(paths):
    """One past the last occupied step: the latest arrival of a path that
    occupies anything, or 0 when nothing is occupied."""
    return 1 + max((t for _, t in reservations(paths)[0]), default=-1)


def min_arrival_oracle(graph, agent, paths, earliest, horizon):
    """Layered reachability against the timed ``paths`` (agent id -> Path):
    the set of legal states per time step."""
    occupied, moving = reservations(paths)
    goal = agent.goal
    reachable = set()
    if (agent.start, earliest) not in occupied:
        reachable.add(agent.start)
    for t in range(earliest, horizon + 1):
        arrivals = {
            u
            for v in reachable
            for u in graph.adjacency[v]
            if u == goal and (u, v, t) not in moving
        }
        if arrivals:
            return t + 1
        nxt = set()
        if (agent.start, t + 1) not in occupied:
            nxt.add(agent.start)  # fresh entry
        for v in reachable:
            if (v, t + 1) not in occupied:
                nxt.add(v)
            for u in graph.adjacency[v]:
                if u != goal and (u, t + 1) not in occupied and (u, v, t) not in moving:
                    nxt.add(u)
        reachable = nxt
    return None


def brute_force_assignment(sat):
    """Independent satisfiability oracle over all truth assignments."""
    for bits in itertools.product([False, True], repeat=sat.variable_count):
        assignment = {i + 1: b for i, b in enumerate(bits)}
        if satisfies(sat, assignment):
            return assignment
    return None


def satisfies(sat, assignment):
    """Does the truth assignment (variable -> bool) satisfy every clause?"""
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in sat.clauses
    )


def wasteful_policy():
    """Deliberately irrational: routes each group sequentially but pads the
    first agent with one more wait than the flowtime ceiling allows, so the
    unwrapped policy violates the bounds at every release time."""

    def hook(ctx):
        slack = ctx.bounds[0] + 1
        after = max(ctx.time, ctx.makespan)
        # The chain runs slack steps late; the first agent waits them out at its start.
        paths = {}
        for agent, start, _ in sequential_chain(ctx.graph, ctx.new_agents, after + slack):
            vertices = shortest_path_lex(ctx.graph, agent.start, agent.goal)
            if not paths:
                start, vertices = start - slack, (agent.start,) * slack + vertices
            paths[agent.id] = Path(start, vertices)
        return paths

    return custom_policy(hook, mode="new", label="wasteful")
