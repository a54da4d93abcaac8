"""Independent references the test modules share: a seeded graph generator
and brute-force oracles that do not use the planners they check."""

import itertools

from onmapf import satisfies
from onmapf.world import build_graph


def random_connected_graph(rng, n):
    edges = [(rng.randrange(i), i) for i in range(1, n)]  # random spanning tree
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return build_graph(n, edges)


def reservation_horizon(obs):
    """One past the last reserved step: the latest arrival of a path that
    reserves anything, or 0 when nothing is reserved."""
    return 1 + max((t for _, t in obs.vertex_reservations), default=-1)


def min_arrival_oracle(graph, agent, obs, earliest, horizon):
    """Layered reachability: the set of legal states per time step."""
    goal = agent.goal
    reachable = set()
    if obs.vertex_free(agent.start, earliest):
        reachable.add(agent.start)
    for t in range(earliest, horizon + 1):
        arrivals = {
            u
            for v in reachable
            for u in graph.adjacency[v]
            if u == goal and obs.swap_free(v, u, t)
        }
        if arrivals:
            return t + 1
        nxt = set()
        if obs.vertex_free(agent.start, t + 1):
            nxt.add(agent.start)  # fresh entry
        for v in reachable:
            if obs.vertex_free(v, t + 1):
                nxt.add(v)
            for u in graph.adjacency[v]:
                if u != goal and obs.vertex_free(u, t + 1) and obs.swap_free(v, u, t):
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
