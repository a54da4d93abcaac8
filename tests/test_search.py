import itertools
import random

import pytest

from onmapf import (
    Agent,
    BudgetExhausted,
    DynamicObstacleSet,
    InstanceSource,
    JointTask,
    OnlineInstance,
    Path,
    RandomSpec,
    SatInstance,
    build_grid,
    build_obstacles,
    detect_conflicts,
    evaluate,
    gen_line,
    gen_random,
    joint_plan,
    offline_optimal,
    opt_rational,
    plan_min_arrival,
    reduce_sat,
    run,
    sequence_policy,
    validate_path,
)
from onmapf import online, search
from onmapf.online import MODES
from onmapf.world import build_graph, shortest_path_lex

from references import min_arrival_oracle, random_connected_graph, reservation_horizon


def test_build_obstacles_empty_plan():
    obs = build_obstacles({})
    assert obs.vertex_reservations == {} and obs.edge_reservations == {}


def test_build_obstacles_counts_for_straight_path():
    d = 4
    path = Path(0, tuple(range(d + 1)))  # d moves, no waits
    obs = build_obstacles({1: path})
    assert len(obs.vertex_reservations) == d  # times 0..d-1
    assert len(obs.edge_reservations) == d  # includes the final move


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
    first = inst.agent(1)
    path = plan_min_arrival(inst.graph, Agent(first.id, first.start, first.goal, 3))
    assert path.start_time == 3
    assert path.arrival_time == 3 + 4
    assert all(u != v for u, v in zip(path.vertices, path.vertices[1:]))  # no waits


def test_min_arrival_2x2_second_agent_starts_at_two():
    g = build_grid(2, 2)
    first = Path(0, (0, 1, 3))  # v1 -> v2 -> v4
    obs = build_obstacles({1: first})
    second = Agent(2, 1, 0, 1)
    path = plan_min_arrival(g, second, obs)
    assert path.start_time == 2
    assert path.arrival_time == 3


def test_min_arrival_enters_early_and_waits_on_the_graph_among_equal_arrivals():
    # The walker holds vertex 2 at t=1 and then moves to 1, so the agent
    # cannot pass before t=2. Waiting off the graph until t=2, a detour via 0
    # and entering at t=0 to wait at vertex 1 all arrive at 4; the joint
    # order (the deeper state first on a cost plateau) picks the early entry.
    g = build_grid(1, 4)
    obs = build_obstacles({2: Path(1, (2, 1))})
    path = plan_min_arrival(g, Agent(1, 1, 3, 0), obs)
    assert path == Path(0, (1, 1, 1, 2, 3))


def test_min_arrival_line_second_agent_arrives_at_2m():
    # Agent 2 cannot pass agent 1, so it arrives at 2m; among the
    # equal-arrival paths the joint order enters early, then waits or steps
    # back on the graph.
    expected = {
        2: Path(1, (2, 2, 1, 0)),
        4: Path(1, (4, 3, 4, 4, 3, 2, 1, 0)),
        6: Path(1, (6, 5, 4, 5, 6, 6, 5, 4, 3, 2, 1, 0)),
    }
    for m, literal in expected.items():
        inst = gen_line(m)
        first = plan_min_arrival(inst.graph, inst.agent(1))
        obs = build_obstacles({1: first})
        path = plan_min_arrival(inst.graph, inst.agent(2), obs)
        assert path.arrival_time == 2 * m
        assert path == literal


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
        obs = random_walk_paths(rng, g, rng.randrange(3), rng.randint(4, 12))
        path = plan_min_arrival(g, agent, build_obstacles(obs))
        horizon = reservation_horizon(obs) + g.vertex_count + agent.release + 1
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
        path = plan_min_arrival(g, agent, obs)  # a plan always exists
        assert path.vertices[0] == agent.start and path.vertices[-1] == agent.goal


def test_min_arrival_budget_error():
    inst = gen_line(4)
    with pytest.raises(BudgetExhausted):
        plan_min_arrival(inst.graph, inst.agent(1), node_budget=1)


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
        assert detect_conflicts(plan) == []


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
        assert detect_conflicts(plan) == []
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
    plan = offline_optimal(inst.graph, [inst.agent(2)], frozen=frozen, objective="flowtime")
    merged = {1: first, 2: plan[2]}
    assert detect_conflicts(merged) == []
    assert plan[2].arrival_time == 4  # forced behind the head-on agent


def _witness_metrics(inst, witness):
    """Metrics of a witness plan, after checking it is valid and conflict-free."""
    for agent in inst.agents:
        validate_path(witness[agent.id], agent, inst.graph)
    assert detect_conflicts(witness) == []
    return evaluate(witness, [a.id for a in inst.agents], inst)


# Two joint states with one (t, j, pos) can differ in the moves already made
# in the current layer, and so in their futures: a closed key without those
# moves loses the optimum on both instances below.
def test_offline_optimal_two_agents_on_open_2x2():
    g = build_grid(2, 2)
    inst = OnlineInstance(g, (Agent(1, 2, 1, 0), Agent(2, 1, 0, 1)))
    witness = {1: Path(0, (2, 3, 1)), 2: Path(1, (1, 0))}
    metrics = _witness_metrics(inst, witness)
    assert (metrics.flowtime, metrics.makespan) == (3, 2)
    flow = evaluate(offline_optimal(g, inst.agents, objective="flowtime"), [1, 2], inst)
    make = evaluate(offline_optimal(g, inst.agents, objective="makespan"), [1, 2], inst)
    assert (flow.flowtime, make.makespan) == (3, 2)  # (4, 3) with the short key


def test_offline_optimal_three_agents_flowtime():
    g = build_graph(4, [(0, 1), (0, 3), (1, 2), (1, 3)])
    inst = OnlineInstance(g, (Agent(1, 0, 2, 0), Agent(2, 3, 2, 2), Agent(3, 2, 3, 2)))
    witness = {1: Path(0, (0, 1, 2)), 2: Path(2, (3, 0, 1, 2)), 3: Path(2, (2, 1, 3))}
    assert _witness_metrics(inst, witness).flowtime == 7
    plan = offline_optimal(g, inst.agents, objective="flowtime")
    assert evaluate(plan, [1, 2, 3], inst).flowtime == 7  # 8 with the short key


# ---------------------------------------------------------------------------
# brute-force joint reference: full joint moves, no operator decomposition


def _reference_moves(token, task, t, adjacency, vertex_res, edge_res):
    """(next token, move or None) for one agent stepping from t to t + 1."""
    if token == "done":
        return [("done", None)]
    if token == "off":
        options = [("off", None)]
        if task.release <= t + 1 and (task.entry, t + 1) not in vertex_res:
            options.append((task.entry, None))
        return options
    options = [(token, None)] if (token, t + 1) not in vertex_res else []
    for u in adjacency[token]:
        if (u, token, t) in edge_res:  # a reserved move u->token swaps with ours
            continue
        if u == task.goal:
            options.append(("done", (token, u)))
        elif (u, t + 1) not in vertex_res:
            options.append((u, (token, u)))
    return options


def joint_reference(adjacency, tasks, t0, vertex_res, edge_res, fixed_makespan):
    """Exact optima by a layered search over joint configurations in time.

    ``tasks`` are ``JointTask``s; reservations are plain (v, t) and (u, v, t)
    sets. Returns
    (least flowtime, least makespan, least flowtime among makespan-optimal
    plans), or None when no plan exists (say, two agents that must swap on
    one edge).
    """
    roots = []
    for task in tasks:
        if task.current is not None:
            roots.append([task.current])
        elif task.release <= t0 and (task.entry, t0) not in vertex_res:
            roots.append(["off", task.entry])
        else:
            roots.append(["off"])
    layer = {}
    for tokens in itertools.product(*roots):
        placed = [tok for tok in tokens if isinstance(tok, int)]
        if len(placed) == len(set(placed)):
            layer[tokens] = 0
    finished = {}  # time the last agent arrived -> least flowtime
    t = t0
    while layer:
        live = min(layer.values())
        first = min(finished, default=None)
        if first is not None and t >= max(fixed_makespan, first) and live >= min(finished.values()):
            break
        if first is None and t > t0 + 30:
            return None  # the agents can only wait: no plan on graphs this small
        assert t < t0 + 60, "reference did not terminate"
        following = {}
        for tokens, cost in layer.items():
            cost += sum(1 for tok, task in zip(tokens, tasks)
                        if tok != "done" and task.release <= t)
            choices = [_reference_moves(tok, task, t, adjacency, vertex_res, edge_res)
                       for tok, task in zip(tokens, tasks)]
            for combo in itertools.product(*choices):
                nxt = tuple(tok for tok, _ in combo)
                placed = [tok for tok in nxt if isinstance(tok, int)]
                moves = {mv for _, mv in combo if mv is not None}
                if len(placed) != len(set(placed)) or any((v, u) in moves for u, v in moves):
                    continue
                if all(tok == "done" for tok in nxt):
                    finished[t + 1] = min(finished.get(t + 1, cost), cost)
                elif following.get(nxt, cost + 1) > cost:
                    following[nxt] = cost
        layer = following
        t += 1
    if not finished:
        return None
    best_make = max(fixed_makespan, min(finished))
    return (min(finished.values()), best_make,
            min(cost for end, cost in finished.items() if end <= best_make))


def _random_joint_case(rng):
    """A small graph, frozen walks and 1-3 tasks, some already in the graph.
    An agent may start on its own goal; it then has to leave and come back."""
    g = random_connected_graph(rng, rng.randint(3, 6))
    n = g.vertex_count
    t0 = rng.randint(0, 2)
    walks = random_walk_paths(rng, g, rng.randrange(3), 6) if rng.random() < 0.6 else {}
    vertex_res = {(v, p.start_time + i)
                  for p in walks.values() for i, v in enumerate(p.vertices[:-1])}
    edge_res = {(u, v, p.start_time + i) for p in walks.values()
                for i, (u, v) in enumerate(zip(p.vertices, p.vertices[1:])) if u != v}
    tasks = []
    used = set()
    for aid in range(1, rng.randint(1, 3) + 1):
        goal = rng.randrange(n)
        if rng.random() < 0.4:
            free = [v for v in range(n) if v not in used and (v, t0) not in vertex_res]
            if not free:
                continue
            current = rng.choice(free)
            used.add(current)
            tasks.append(JointTask(aid, goal, rng.randint(0, t0), current=current))
        else:
            tasks.append(JointTask(aid, goal, rng.randint(0, 3), entry=rng.randrange(n)))
    return g, t0, walks, vertex_res, edge_res, tasks


def _plan_problems(adjacency, plan, tasks, t0, vertex_res, edge_res):
    """Shape, reservation and mutual collision problems of a joint plan."""
    problems = []
    occupied = {}
    moves = {}
    for task in tasks:
        path = plan[task.agent_id]
        verts = path.vertices
        if task.current is not None:
            if (path.start_time, verts[0]) != (t0, task.current):
                problems.append("start")
        elif verts[0] != task.entry or path.start_time < max(t0, task.release):
            problems.append("entry")
        # the one move into the goal is the last step (an agent that starts on
        # its goal may wait there before it leaves)
        into_goal = [i for i in range(len(verts) - 1) if verts[i] != verts[i + 1] == task.goal]
        if into_goal != [len(verts) - 2]:
            problems.append("goal")
        for i in range(len(verts) - 1):
            t = path.start_time + i
            u, v = verts[i], verts[i + 1]
            if u != v and v not in adjacency[u]:
                problems.append("jump")
            if (u, t) in vertex_res or (v, u, t) in edge_res:
                problems.append("reservation")
            if occupied.setdefault((u, t), task.agent_id) != task.agent_id:
                problems.append("vertex clash")
            if u != v:
                moves[(u, v, t)] = task.agent_id
    problems += ["swap" for u, v, t in moves if (v, u, t) in moves]
    return problems


def test_joint_plan_matches_brute_force_reference():
    rng = random.Random(2024)
    checked = {"flowtime": 0, "makespan": 0}
    with_current = with_frozen = entry_choices = entry_held = 0
    while sum(checked.values()) < 300:
        g, t0, walks, vertex_res, edge_res, tasks = _random_joint_case(rng)
        if not tasks:
            continue
        fixed_makespan = rng.choice([0, 0, t0 + rng.randint(1, 6)])
        reference = joint_reference(g.adjacency, tasks, t0, vertex_res, edge_res, fixed_makespan)
        if reference is None:
            continue
        best_flow, best_make, flow_at_best_make = reference
        objective = rng.choice(["flowtime", "makespan"])
        rng.randrange(3)  # an unused draw that keeps the seeded stream of cases fixed
        frozen = DynamicObstacleSet()
        for wid, walk in walks.items():
            frozen.add_path(wid, walk)
        plan = joint_plan(g, tasks, objective, frozen=frozen, start_time=t0,
                          fixed_makespan=fixed_makespan)
        assert sorted(plan) == [task.agent_id for task in tasks]
        assert _plan_problems(g.adjacency, plan, tasks, t0, vertex_res, edge_res) == []
        flowtime = sum(plan[task.agent_id].arrival_time - max(task.release, t0) for task in tasks)
        makespan = max([fixed_makespan] + [path.arrival_time for path in plan.values()])
        if objective == "flowtime":
            assert flowtime == best_flow
        else:
            assert (makespan, flowtime) == (best_make, flow_at_best_make)
        checked[objective] += 1
        with_current += any(task.current is not None for task in tasks)
        with_frozen += bool(walks)
        # The entry layer: cases with two or more agents that may enter at t0,
        # and cases where a current task or a frozen walk holds such an entry.
        may_enter = [task for task in tasks if task.entry is not None and task.release <= t0]
        held = {task.current for task in tasks} | {v for v, t in vertex_res if t == t0}
        entry_choices += len(may_enter) >= 2
        entry_held += any(task.entry in held for task in may_enter)
    assert min(checked.values()) > 100 and with_current > 50 and with_frozen > 50
    assert entry_choices > 30 and entry_held > 20


def test_entry_layer_lets_the_lower_id_enter_first_on_a_shared_start():
    # Both agents may enter at t0 = 0 on vertex 0, but only one at a time.
    # Either order costs the same; in the entry layer agent 1 chooses first
    # and entering is its cheaper choice, so agent 1 enters at 0 and agent 2
    # follows one step later under both objectives.
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    tasks = [JointTask(1, 2, 0, entry=0), JointTask(2, 3, 0, entry=0)]
    assert joint_reference(g.adjacency, tasks, 0, set(), set(), 0) == (5, 3, 5)
    for objective in ("flowtime", "makespan"):
        plan = joint_plan(g, tasks, objective, start_time=0)
        assert plan == {1: Path(0, (0, 1, 2)), 2: Path(1, (0, 1, 3))}
        assert _plan_problems(g.adjacency, plan, tasks, 0, set(), set()) == []
        assert (plan[1].arrival_time + plan[2].arrival_time, plan[2].arrival_time) == (5, 3)


def test_makespan_key_holds_the_makespan_bound():
    # Agent 3 sits on its goal, so its arrival floor is below its arrival,
    # and agent 1 arriving in the same layer raises the makespan bound of a
    # state without changing (t, j, pos). A closed key without that bound
    # keeps the first path to reach such a state and returns flowtime 9.
    g = build_graph(6, [(0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4)])
    tasks = [JointTask(1, 3, 1, entry=0), JointTask(2, 2, 4, entry=2),
             JointTask(3, 0, 0, current=0)]
    assert joint_reference(g.adjacency, tasks, 0, set(), set(), 0) == (8, 6, 8)
    plan = joint_plan(g, tasks, "makespan", start_time=0)
    assert _plan_problems(g.adjacency, plan, tasks, 0, set(), set()) == []
    assert max(path.arrival_time for path in plan.values()) == 6
    assert sum(plan[task.agent_id].arrival_time - task.release for task in tasks) == 8


def test_makespan_objective_counts_fixed_arrivals():
    # Agent 2 can leave at once and arrive at 3, holding agent 1 back to 6
    # (flowtime 7, makespan 6), or wait so that both arrive at 5 (flowtime 8,
    # makespan 5). An agent outside the search that arrives at 6 makes both
    # plans makespan-optimal, and then the smaller flowtime wins.
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    tasks = [JointTask(1, 4, 2, entry=0), JointTask(2, 0, 0, entry=4)]
    for fixed_makespan, (makespan, flowtime) in ((0, (5, 8)), (6, (6, 7))):
        reference = joint_reference(g.adjacency, tasks, 0, set(), set(), fixed_makespan)
        assert reference == (7, makespan, flowtime)
        plan = joint_plan(g, tasks, "makespan", start_time=0, fixed_makespan=fixed_makespan)
        assert _plan_problems(g.adjacency, plan, tasks, 0, set(), set()) == []
        assert max(fixed_makespan, plan[1].arrival_time, plan[2].arrival_time) == makespan
        assert plan[1].arrival_time - 2 + plan[2].arrival_time == flowtime


@pytest.mark.parametrize("objective", ["flowtime", "makespan"])
def test_joint_plan_raises_when_every_state_is_a_dead_end(objective):
    # The agent sits on 0 and must reach 1, but the frozen walk holds 0 at
    # t = 1 and moves 1 -> 0 at t = 0: the agent can neither wait nor move,
    # so the heap empties, the one way the search ends without a plan and
    # within its budget.
    g = build_graph(2, [(0, 1)])
    frozen = build_obstacles({2: Path(0, (1, 0, 0))})
    with pytest.raises(BudgetExhausted, match="joint search found no conflict-free plan"):
        joint_plan(g, [JointTask(1, 1, 0, current=0)], objective, frozen=frozen, start_time=0)


@pytest.mark.parametrize("objective, budget", [("flowtime", 5_148), ("makespan", 19_629)])
def test_all_mode_pop_budget_boundary(objective, budget):
    # The budget counts every pop, from the heap or a direct child, so these
    # boundaries pin the joint search's pop count: a faster expansion loop
    # must not move them.
    policy = opt_rational("all", objective)
    run(InstanceSource(gen_line(6)), policy, node_budget=budget)
    with pytest.raises(BudgetExhausted, match=f"exceeded {budget - 1} pops"):
        run(InstanceSource(gen_line(6)), policy, node_budget=budget - 1)


def _entry_layer_instance(name):
    if name == "n3-unsat":
        # The unsatisfiable 3-variable gadget: its 12 agents, all released at
        # 0 on distinct entries, are all choosers.
        sat = SatInstance(3, ((1, 2), (-1, -2), (1, 3), (2,), (-3,), (-3,)))
        inst = reduce_sat(sat).instance
        return inst.graph, inst.agents, None
    # On the 1 x 5 line agents 1 and 4 choose; the frozen walk holds agent
    # 2's entry at t0, and agent 3 is released later, so the entry layer
    # skips both.
    agents = [Agent(1, 0, 4, 0), Agent(2, 4, 0, 0), Agent(3, 2, 0, 1), Agent(4, 1, 3, 0)]
    return build_grid(1, 5), agents, build_obstacles({9: Path(0, (4, 3))})


@pytest.mark.parametrize("name, objective, budget", [
    ("n3-unsat", "flowtime", 689), ("n3-unsat", "makespan", 689),
    ("held-entry", "flowtime", 411), ("held-entry", "makespan", 1_549),
])
def test_entry_layer_pop_budget_boundary(name, objective, budget):
    # Offline solves whose first pops are entry-layer choices: these
    # boundaries pin the pop count outside all mode.
    graph, agents, frozen = _entry_layer_instance(name)
    offline_optimal(graph, agents, frozen, objective, node_budget=budget)
    with pytest.raises(BudgetExhausted, match=f"exceeded {budget - 1} pops"):
        offline_optimal(graph, agents, frozen, objective, node_budget=budget - 1)


@pytest.mark.parametrize("name, mode, objective, budget", [
    ("line-8", "new-single", "flowtime", 480), ("line-8", "new-single", "makespan", 480),
    ("line-8", "new", "flowtime", 480), ("line-8", "new", "makespan", 480),
    ("grid-8x8", "new", "flowtime", 150), ("grid-8x8", "new", "makespan", 2_212),
])
def test_reservation_path_pop_budget_boundary(name, mode, objective, budget):
    # Searches against the committed paths' reservation table: on the line
    # each new agent plans against all earlier ones, and on the grid groups
    # of 3 plan against committed paths. The budget caps each call, so the
    # boundary pins the run's deepest search.
    if name == "line-8":
        instance = gen_line(8)
    else:
        instance = gen_random(RandomSpec(8, 8, 0.1, 12, 4, 3))
    policy = opt_rational(mode, objective)
    run(InstanceSource(instance), policy, node_budget=budget)
    with pytest.raises(BudgetExhausted, match=f"exceeded {budget - 1} pops"):
        run(InstanceSource(instance), policy, node_budget=budget - 1)


def _cold_warm_spec(name, mode):
    if name == "grid-8x8":  # the instance of the reservation-path boundaries
        return RandomSpec(8, 8, 0.1, 12, 4, 3)
    # One seeded 32x32 grid: the seed fixes the blocked cells, drawn before
    # the agents. 20 agents are crowded enough that searches detour past the
    # radius their first requests label; all mode plans 8 of them jointly.
    return RandomSpec(32, 32, 0.1, 8 if mode == "all" else 20, 8, 19)


@pytest.mark.parametrize("name", ["grid-8x8", "grid-32x32"])
@pytest.mark.parametrize("policy", [sequence_policy()] + [
    opt_rational(mode, objective) for mode in MODES for objective in ("flowtime", "makespan")
], ids=lambda policy: policy.name)
def test_cold_and_warm_maps_plan_alike(name, policy):
    # Distance maps grown only as far as each search reads them (a fresh
    # graph) and maps computed in full beforehand give byte-identical plans
    # and the same pop boundary: every distance the planners read is exact.
    spec = _cold_warm_spec(name, policy.mode)
    warm = gen_random(spec)
    for v in range(warm.graph.vertex_count):
        warm.graph.dist_from(v)

    def solve(instance, budget):
        return repr(run(InstanceSource(instance), policy, node_budget=budget).snapshots)

    if policy.planner == "sequence":  # no search, so no pop boundary
        assert solve(gen_random(spec), 1) == solve(warm, 1)
        return
    boundary = _pop_count(lambda budget: solve(warm, budget))
    cold = gen_random(spec)
    assert solve(cold, boundary) == solve(warm, boundary)
    with pytest.raises(BudgetExhausted, match=f"exceeded {boundary - 1} pops"):
        solve(gen_random(spec), boundary - 1)
    if name == "grid-32x32":  # the spec chosen to leave maps partial
        # a complete map reads 0 only at its source
        cache = cold.graph._dist_cache
        assert not all(cache[a.goal].count(0) == 1 for a in cold.agents)


def _pop_count(solve):
    """The fewest pops ``solve(node_budget)`` completes in, by bisection."""
    low, high = 1, 1
    while True:
        try:
            solve(high)
            break
        except BudgetExhausted:
            low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        try:
            solve(mid)
            high = mid
        except BudgetExhausted:
            low = mid + 1
    return low


@pytest.mark.parametrize("seed", [0, 2, 9])
@pytest.mark.parametrize("objective", ["flowtime", "makespan"])
def test_empty_and_unreached_tables_search_alike(seed, objective):
    # No frozen table, an empty one, and one whose only walk lies far past
    # any time these searches reach all admit every move the search tries:
    # the plans and the pop boundaries agree.
    inst = gen_random(RandomSpec(5, 5, 0.15, 4, 3, seed))
    g, agents = inst.graph, inst.agents
    goal = agents[0].goal
    unreached = build_obstacles({99: Path(1_000, (goal, g.adjacency[goal][0]))})
    assert unreached.vertex_reservations and unreached.edge_reservations
    plan = offline_optimal(g, agents, None, objective)
    pops = _pop_count(lambda budget: offline_optimal(g, agents, None, objective, budget))
    for frozen in (DynamicObstacleSet(), unreached):
        assert offline_optimal(g, agents, frozen, objective, node_budget=pops) == plan
        with pytest.raises(BudgetExhausted, match=f"exceeded {pops - 1} pops"):
            offline_optimal(g, agents, frozen, objective, node_budget=pops - 1)


def test_all_mode_makespan_plan_on_line_m4():
    # The committed plan pins the joint search's tie-break among optima.
    trace = run(InstanceSource(gen_line(4)), opt_rational("all", "makespan"))
    assert trace.plan == {
        1: Path(0, (0, 1, 2, 3, 4)),
        2: Path(1, (4, 3, 4, 4, 4, 4, 3, 2, 1, 0)),
        3: Path(2, (0, 1, 2, 3, 4)),
        4: Path(7, (4, 3, 2, 1, 0)),
    }


@pytest.mark.parametrize("objective", ["flowtime", "makespan"])
def test_all_mode_plans_on_line_m6(objective):
    # The deepest tier-1 search: among its equal-cost optima the history
    # order picks this one under both objectives.
    trace = run(InstanceSource(gen_line(6)), opt_rational("all", objective))
    assert trace.plan == {
        1: Path(0, (0, 1, 2, 3, 4, 5, 6)),
        2: Path(1, (6, 5, 4, 5, 6, 6, 6, 6, 6, 6, 5, 4, 3, 2, 1, 0)),
        3: Path(2, (0, 1, 2, 3, 4, 5, 6)),
        4: Path(11, (6, 5, 4, 3, 2, 1, 0)),
        5: Path(4, (0, 1, 2, 3, 4, 5, 6)),
        6: Path(12, (6, 5, 4, 3, 2, 1, 0)),
    }


def _joint_calls(monkeypatch, instance, policy):
    """Every ``joint_plan`` call of a run: its arguments, with the frozen
    table copied at call time (the run extends it after the call)."""
    calls = []
    real = search.joint_plan

    def capture(graph, tasks, objective, *, frozen=None, **kwargs):
        copy = None
        if frozen is not None:
            copy = DynamicObstacleSet()
            copy.vertex_reservations = dict(frozen.vertex_reservations)
            copy.edge_reservations = dict(frozen.edge_reservations)
            copy.shared = dict(frozen.shared)
        calls.append((graph, list(tasks), objective, copy, kwargs))
        return real(graph, tasks, objective, frozen=frozen, **kwargs)

    monkeypatch.setattr(search, "joint_plan", capture)
    monkeypatch.setattr(online, "joint_plan", capture)
    run(InstanceSource(instance), policy)
    monkeypatch.undo()
    return calls


def _call_pops(calls):
    """The pop count of each captured call, by bisection on its budget."""
    def count(graph, tasks, objective, frozen, kwargs):
        return _pop_count(lambda budget: search.joint_plan(
            graph, tasks, objective, frozen=frozen, **{**kwargs, "node_budget": budget}))
    return [count(*call) for call in calls]


GRID_8X8 = RandomSpec(8, 8, 0.1, 12, 4, 3)  # the reservation-path boundaries' grid


@pytest.mark.parametrize("spec, mode, objective, pops", [
    (GRID_8X8, "new-single", "flowtime", [6, 8, 4, 3, 11, 7, 6, 9, 5, 5, 11, 7]),
    (GRID_8X8, "new-single", "makespan", [6, 8, 4, 3, 11, 7, 6, 9, 5, 5, 11, 7]),
    (GRID_8X8, "new", "flowtime", [51, 7, 24, 150]),
    (GRID_8X8, "new", "makespan", [51, 7, 24, 2_212]),
    (RandomSpec(32, 32, 0.1, 20, 8, 19), "new-single", "flowtime", [
        21, 17, 8, 33, 7, 20, 48, 27, 25, 13, 40, 32, 56, 37, 28, 25, 14, 20, 33, 26,
    ]),
])
def test_per_call_pop_budget_boundary(monkeypatch, spec, mode, objective, pops):
    # The run-level boundaries pin only a run's deepest search; these pin
    # the pop count of every joint search of the run, in call order.
    calls = _joint_calls(monkeypatch, gen_random(spec), opt_rational(mode, objective))
    assert _call_pops(calls) == pops


def test_min_arrival_on_an_empty_table_walks_the_lex_shortest_path():
    # Nothing blocks the descent: every agent enters at its release and
    # walks the smallest-id shortest path, each step one closer to its goal.
    inst = gen_random(RandomSpec(32, 32, 0.1, 20, 8, 19))
    for agent in inst.agents:
        path = plan_min_arrival(inst.graph, agent)
        assert path == Path(agent.release, shortest_path_lex(inst.graph, agent.start, agent.goal))


def test_min_arrival_pop_budget_boundary_when_the_descent_breaks():
    # On the 2 x 5 grid the agent's lex path runs along the top row, but the
    # frozen walk holds vertex 2 at t = 2, when the agent would step onto it
    # from 1, whose only neighbor nearer the goal is 2. The descent breaks
    # there and the search restarts from the root in full; the arrival is
    # the oracle's, and the pop boundary is pinned.
    g = build_grid(2, 5)
    agent = Agent(1, 0, 4, 0)
    walks = {9: Path(1, (7, 2, 7))}
    frozen = build_obstacles(walks)
    assert shortest_path_lex(g, 0, 4) == (0, 1, 2, 3, 4)
    path = plan_min_arrival(g, agent, frozen)
    horizon = reservation_horizon(walks) + g.vertex_count + 1
    assert path.arrival_time == min_arrival_oracle(g, agent, walks, 0, horizon)
    assert _pop_count(lambda budget: plan_min_arrival(g, agent, frozen, budget)) == 7
