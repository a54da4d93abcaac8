import random

import pytest

from onmapf import (
    Agent,
    BudgetExhausted,
    DynamicObstacleSet,
    OnlineInstance,
    Path,
    SearchLimits,
    build_grid,
    build_obstacles,
    detect_conflicts,
    evaluate,
    gen_line,
    offline_optimal,
    plan_min_arrival,
    validate_path,
)
from onmapf.world import build_graph


def test_build_obstacles_empty_plan():
    obs = build_obstacles({})
    assert len(obs) == 0 and obs.horizon == 0


def test_build_obstacles_counts_for_straight_path():
    d = 4
    path = Path(0, tuple(range(d + 1)))  # d moves, no waits
    obs = build_obstacles({1: path})
    assert len(obs.vertex_reservations) == d  # times 0..d-1
    assert len(obs.edge_reservations) == d  # includes the final move
    assert obs.horizon == d


def test_build_obstacles_line_after_first_agent():
    m = 4
    inst = gen_line(m)
    path = plan_min_arrival(inst.graph, inst.agent(1))
    obs = build_obstacles({1: path})
    for j in range(m):
        assert obs.vertex_reservations[(j, j)] == 1
    assert (m, m) not in obs.vertex_reservations  # arrival vertex unreserved


def test_min_arrival_without_obstacles():
    inst = gen_line(4)
    path = plan_min_arrival(inst.graph, inst.agent(1), earliest_start=3)
    assert path.start_time == 3
    assert path.arrival_time == 3 + 4
    assert path.wait_count() == 0


def test_min_arrival_2x2_second_agent_starts_at_two():
    g = build_grid(2, 2)
    first = Path(0, (0, 1, 3))  # v1 -> v2 -> v4
    obs = build_obstacles({1: first})
    second = Agent(2, 1, 0, 1)
    path = plan_min_arrival(g, second, obs)
    assert path.start_time == 2
    assert path.arrival_time == 3


def test_min_arrival_line_second_agent_starts_at_m():
    for m in (2, 4, 6):
        inst = gen_line(m)
        first = plan_min_arrival(inst.graph, inst.agent(1))
        obs = build_obstacles({1: first})
        path = plan_min_arrival(inst.graph, inst.agent(2), obs)
        assert path.start_time == m
        assert path.arrival_time == 2 * m
        assert path.wait_count() == 0


def random_connected_graph(rng, n):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return build_graph(n, edges)


def random_walk_paths(rng, graph, walkers, horizon):
    """Random timed walks standing in for committed agents."""
    paths = {}
    for wid in range(walkers):
        start = rng.randrange(horizon)
        verts = [rng.randrange(graph.vertex_count)]
        for _ in range(rng.randrange(1, horizon)):
            verts.append(rng.choice([verts[-1]] + list(graph.adjacency[verts[-1]])))
        paths[1000 + wid] = Path(start, tuple(verts))
    return paths


def random_obstacles(rng, graph, walkers, horizon):
    obs = DynamicObstacleSet()
    for wid, path in random_walk_paths(rng, graph, walkers, horizon).items():
        obs.add_path(wid, path)
    return obs


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


def test_min_arrival_matches_enumeration_oracle():
    rng = random.Random(42)
    checked = 0
    while checked < 40:
        g = random_connected_graph(rng, rng.randint(2, 8))
        s = rng.randrange(g.vertex_count)
        t = rng.randrange(g.vertex_count)
        if s == t:
            continue
        agent = Agent(1, s, t, rng.randrange(3))
        obs = random_obstacles(rng, g, rng.randrange(3), rng.randint(4, 12))
        path = plan_min_arrival(g, agent, obs)
        horizon = obs.horizon + g.vertex_count + agent.release + 1
        assert path.arrival_time == min_arrival_oracle(g, agent, obs, agent.release, horizon)
        checked += 1


def test_min_arrival_never_conflicts_with_obstacles():
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 8))
        s, t = rng.sample(range(g.vertex_count), 2)
        agent = Agent(7, s, t, 0)
        walkers = random_walk_paths(rng, g, 2, 8)
        obs = DynamicObstacleSet()
        for wid, walk in walkers.items():
            obs.add_path(wid, walk)
        path = plan_min_arrival(g, agent, obs)
        union = dict(walkers)
        union[agent.id] = path
        clashes = detect_conflicts(union)
        assert not any(agent.id in c.agents for c in clashes)


def test_min_arrival_completeness_under_heavy_reservations():
    rng = random.Random(9)
    g = build_grid(2, 3)
    for trial in range(10):
        obs = random_obstacles(rng, g, 6, 15)
        agent = Agent(1, 0, g.vertex_count - 1, 0)
        path = plan_min_arrival(g, agent, obs)  # default horizon always admits one
        assert path.vertices[0] == agent.start and path.vertices[-1] == agent.goal


def test_min_arrival_budget_error():
    inst = gen_line(4)
    with pytest.raises(BudgetExhausted):
        plan_min_arrival(inst.graph, inst.agent(1), limits=SearchLimits(node_budget=1))


def test_offline_single_agent_matches_min_arrival():
    inst = gen_line(4)
    single = plan_min_arrival(inst.graph, inst.agent(1))
    plan = offline_optimal(inst.graph, [inst.agent(1)], objective="flowtime")
    assert plan[1].arrival_time == single.arrival_time
    assert plan[1].vertices == single.vertices


def test_offline_2x2_full_knowledge():
    g = build_grid(2, 2)
    inst = OnlineInstance(g, (Agent(1, 0, 3, 0), Agent(2, 1, 0, 1)))
    for objective in ("flowtime", "makespan"):
        plan = offline_optimal(g, inst.agents, objective=objective)
        metrics = evaluate(plan, [1, 2], inst)
        assert (metrics.flowtime, metrics.makespan, metrics.latency) == (3, 2, 0)
        assert detect_conflicts(plan, inst) == []


def test_offline_line_m2_closed_forms():
    inst = gen_line(2)
    flow = evaluate(offline_optimal(inst.graph, inst.agents, objective="flowtime"),
                    [1, 2], inst)
    make = evaluate(offline_optimal(inst.graph, inst.agents, objective="makespan"),
                    [1, 2], inst)
    assert flow.flowtime == 5
    assert make.makespan == 4


def test_offline_no_worse_than_sequential_routing():
    rng = random.Random(21)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(3, 7))
        agents = []
        for i in range(1, 4):
            s, t = rng.sample(range(g.vertex_count), 2)
            agents.append(Agent(i, s, t, rng.randrange(3)))
        agents.sort(key=lambda a: a.release)
        agents = [Agent(i + 1, a.start, a.goal, a.release) for i, a in enumerate(agents)]
        inst = OnlineInstance(g, tuple(agents))
        plan = offline_optimal(g, agents, objective="flowtime")
        assert detect_conflicts(plan, inst) == []
        # sequential routing is one feasible plan, so it upper-bounds the optimum
        chain = 0
        seq_flow = 0
        for a in agents:
            start = max(a.release, chain)
            chain = start + inst.dist(a.id)
            seq_flow += chain - a.release
        assert evaluate(plan, [a.id for a in agents], inst).flowtime <= seq_flow


def test_offline_invariant_under_agent_input_order():
    g = build_grid(2, 3)
    agents = (Agent(1, 0, 5, 0), Agent(2, 5, 0, 0), Agent(3, 2, 3, 1))
    forward = offline_optimal(g, agents, objective="flowtime")
    backward = offline_optimal(g, tuple(reversed(agents)), objective="flowtime")
    assert forward == backward


def test_offline_respects_frozen_reservations():
    inst = gen_line(2)
    first = plan_min_arrival(inst.graph, inst.agent(1))
    frozen = build_obstacles({1: first})
    plan = offline_optimal(inst.graph, [inst.agent(2)], frozen=frozen,
                           objective="flowtime", start_time=1)
    merged = {1: first, 2: plan[2]}
    assert detect_conflicts(merged, inst) == []
    assert plan[2].arrival_time == 4  # forced behind the head-on agent


def _witness_metrics(inst, witness):
    """Metrics of a witness plan, after checking it is valid and conflict-free."""
    for agent in inst.agents:
        validate_path(witness[agent.id], agent, inst.graph)
    assert detect_conflicts(witness, inst) == []
    return evaluate(witness, [a.id for a in inst.agents], inst)


# The joint search closes operator-decomposition states on (t, j, pos), which
# ignores the moves already made in the current layer; two states with one key
# can then have different futures, and the search may drop the optimal one.
@pytest.mark.xfail(strict=True, reason="closed-set key (t, j, pos) ignores layer moves")
def test_offline_optimal_two_agents_on_open_2x2():
    g = build_grid(2, 2)
    inst = OnlineInstance(g, (Agent(1, 2, 1, 0), Agent(2, 1, 0, 1)))
    witness = {1: Path(0, (2, 3, 1)), 2: Path(1, (1, 0))}
    metrics = _witness_metrics(inst, witness)
    assert (metrics.flowtime, metrics.makespan) == (3, 2)
    flow = evaluate(offline_optimal(g, inst.agents, objective="flowtime"), [1, 2], inst)
    make = evaluate(offline_optimal(g, inst.agents, objective="makespan"), [1, 2], inst)
    assert (flow.flowtime, make.makespan) == (3, 2)  # the search returns (4, 3)


@pytest.mark.xfail(strict=True, reason="closed-set key (t, j, pos) ignores layer moves")
def test_offline_optimal_three_agents_flowtime():
    g = build_graph(4, [(0, 1), (0, 3), (1, 2), (1, 3)])
    inst = OnlineInstance(g, (Agent(1, 0, 2, 0), Agent(2, 3, 2, 2), Agent(3, 2, 3, 2)))
    witness = {1: Path(0, (0, 1, 2)), 2: Path(2, (3, 0, 1, 2)), 3: Path(2, (2, 1, 3))}
    assert _witness_metrics(inst, witness).flowtime == 7
    plan = offline_optimal(g, inst.agents, objective="flowtime")
    assert evaluate(plan, [1, 2, 3], inst).flowtime == 7  # the search returns 8
