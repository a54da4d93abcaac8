import random
import tracemalloc

import pytest

from onmapf import (
    Agent,
    DynamicObstacleSet,
    InstanceSource,
    OnlineInstance,
    Path,
    RatioReport,
    UnplannedAgent,
    build_grid,
    build_obstacles,
    detect_conflicts,
    evaluate,
    gen_line,
    gen_random,
    is_rational_at,
    opt_rational,
    partition_by_release,
    rationality_bounds,
    run,
    sequence_policy,
    validate_path,
)
from onmapf.adversary import RandomSpec
from onmapf.core import Conflict, dump_scenario, load_scenario, plan_to_csv
from onmapf.core import plan_costs
from onmapf.errors import ParseError
from onmapf.world import GridMap


def line_instance(m):
    return gen_line(m)


@pytest.mark.parametrize("build, message", [
    (lambda: Agent(1, 2, 2, 0), "agent 1: goal must differ from start"),
    (lambda: Agent(1, 0, 2, -1), "agent 1: release time must be non-negative"),
    (lambda: OnlineInstance(build_grid(1, 3), (Agent(2, 0, 2, 0),)),
     "agent ids must be 1..m in order, got 2 at slot 1"),
    (lambda: OnlineInstance(build_grid(1, 3), (Agent(1, 0, 2, 1), Agent(2, 2, 0, 0))),
     "agents must be sorted by non-decreasing release time"),
    (lambda: Path(0, ()), "a path needs at least one vertex"),
    (lambda: evaluate({}, [], line_instance(2)), "cannot evaluate an empty agent set"),
    (lambda: rationality_bounds(line_instance(4), 0), "group index 0 out of range 1..4"),
    (lambda: rationality_bounds(line_instance(4), 5), "group index 5 out of range 1..4"),
])
def test_model_refuses_bad_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("path, message", [
    (Path(1, (1, 2)), "path must begin at its start vertex"),
    (Path(1, (0, 1)), "path must end at its goal vertex"),
    (Path(0, (0, 1, 2)), "path starts before its release time"),
    (Path(1, (0, 2)), "step 0->2 is not an edge"),
])
def test_invalid_paths_are_refused(path, message):
    with pytest.raises(ValueError, match=f"^agent 1: {message}$"):
        validate_path(path, Agent(1, 0, 2, 1), build_grid(1, 3))


def test_partition_line_is_singletons():
    groups = partition_by_release(line_instance(4))
    assert [g.time for g in groups] == [0, 1, 2, 3]
    assert [g.agent_ids for g in groups] == [(1,), (2,), (3,), (4,)]


def test_partition_single_group_and_mixed():
    g = build_grid(1, 3)
    inst = OnlineInstance(g, (Agent(1, 0, 2, 0), Agent(2, 2, 0, 0), Agent(3, 0, 1, 0)))
    assert [grp.agent_ids for grp in partition_by_release(inst)] == [(1, 2, 3)]
    inst = OnlineInstance(g, (Agent(1, 0, 2, 0), Agent(2, 2, 0, 0), Agent(3, 0, 1, 2)))
    groups = partition_by_release(inst)
    assert [(grp.time, len(grp.agent_ids)) for grp in groups] == [(0, 2), (2, 1)]


def test_swap_is_an_edge_conflict():
    plan = {1: Path(0, (0, 1)), 2: Path(0, (1, 0))}
    conflicts = detect_conflicts(plan)
    assert len(conflicts) == 1
    assert conflicts[0].kind == "edge"
    assert conflicts[0].agents == (1, 2)
    assert conflicts[0].time == 0


def test_final_move_swap_still_flagged():
    # both moves are arrivals; passing through each other is never legal
    plan = {1: Path(0, (0, 1)), 2: Path(0, (1, 0))}
    assert detect_conflicts(plan)[0].kind == "edge"


def test_entering_goal_at_arrival_time_is_fine():
    # agent 1 arrives at vertex 2 at t=2; agent 2 occupies vertex 2 from t=2
    plan = {1: Path(0, (0, 1, 2)), 2: Path(2, (2, 1))}
    assert detect_conflicts(plan) == []


def test_sitting_on_anothers_goal_at_arrival_is_fine():
    # agent 2 waits on vertex 2 while agent 1 arrives there at t=2
    plan = {1: Path(0, (0, 1, 2)), 2: Path(1, (2, 2, 3))}
    g = build_grid(1, 4)
    inst = OnlineInstance(g, (Agent(1, 0, 2, 0), Agent(2, 2, 3, 1)))
    for agent in inst.agents:
        validate_path(plan[agent.id], agent, g)
    assert detect_conflicts(plan) == []


def test_path_through_its_goal_is_invalid():
    # The agent is removed on reaching vertex 1 at t = 1; its path may not
    # go on to 2 and come back.
    g = build_grid(1, 3)
    agent = Agent(1, 0, 1, 0)
    validate_path(Path(0, (0, 1)), agent, g)
    with pytest.raises(ValueError, match="^agent 1: path reaches its goal before its last vertex$"):
        validate_path(Path(0, (0, 1, 2, 1)), agent, g)


def test_vertex_conflict_detected():
    plan = {1: Path(0, (0, 1, 2)), 2: Path(0, (2, 1, 0))}
    kinds = {c.kind for c in detect_conflicts(plan)}
    assert "vertex" in kinds  # both occupy vertex 1 at t=1


def test_arrival_into_occupied_vertex_is_fine():
    # agent 1 loiters on vertex 0 while agent 2 arrives there at t=2; the
    # arriving agent is removed on arrival and the sitter is merely occupying
    plan = {1: Path(0, (0, 0, 0, 1, 2)), 2: Path(0, (2, 1, 0))}
    assert detect_conflicts(plan) == []


def test_simultaneous_arrivals_at_shared_goal_are_fine():
    plan = {1: Path(0, (0, 1)), 2: Path(0, (2, 1))}
    assert detect_conflicts(plan) == []


def test_sequence_output_is_conflict_free_on_random_instances():
    for seed in range(12):
        inst = _random_ok(seed)
        trace = run(InstanceSource(inst), sequence_policy())
        assert trace.conflicts == []


def _random_ok(seed):
    from onmapf.errors import DisconnectedWorld, EmptyWorld

    while True:
        try:
            return gen_random(RandomSpec(5, 5, 0.15, 4, 5, seed))
        except (DisconnectedWorld, EmptyWorld):
            seed += 1000


def test_detect_conflicts_symmetric_under_relabeling():
    rng = random.Random(11)
    for _ in range(10):
        inst = _random_ok(rng.randrange(500))
        trace = run(InstanceSource(inst), sequence_policy())
        plan = trace.plan
        relabeled = {100 - k: p for k, p in plan.items()}
        a = [(c.kind, c.time) for c in detect_conflicts(plan)]
        b = [(c.kind, c.time) for c in detect_conflicts(relabeled)]
        assert a == b == []


def _pairwise_conflicts(plan):
    """Reference detector: compare every pair of paths step by step, reading
    their vertex tuples directly."""
    ids = sorted(plan)
    conflicts = []
    for a_pos, i in enumerate(ids):
        pi = plan[i]
        for j in ids[a_pos + 1:]:
            pj = plan[j]
            # Both agents occupy a vertex at t and are at their next one at
            # t + 1; an arrival vertex is never occupied.
            for t in range(max(pi.start_time, pj.start_time),
                           min(pi.arrival_time, pj.arrival_time)):
                ui, vi = pi.vertices[t - pi.start_time:t - pi.start_time + 2]
                uj, vj = pj.vertices[t - pj.start_time:t - pj.start_time + 2]
                if ui == uj:
                    conflicts.append(Conflict("vertex", (i, j), t, ui))
                if ui != vi and (ui, vi) == (vj, uj):
                    conflicts.append(Conflict("edge", (i, j), t, (ui, vi)))
    conflicts.sort(key=lambda c: (c.time, c.agents, c.kind, str(c.location)))
    return conflicts


def test_detect_conflicts_matches_pairwise_reference():
    # three agents in one cell: every pair conflicts there
    crowd = {1: Path(0, (0, 1, 2)), 2: Path(0, (2, 1, 0)), 3: Path(1, (1, 5))}
    assert [c.agents for c in detect_conflicts(crowd) if c.time == 1] == [(1, 2), (1, 3), (2, 3)]
    # two agents making the same move, a third swapping with both
    same_move = {1: Path(0, (1, 2)), 2: Path(0, (1, 2)), 3: Path(0, (2, 1))}
    assert [(c.kind, c.agents) for c in detect_conflicts(same_move)] == [
        ("vertex", (1, 2)), ("edge", (1, 3)), ("edge", (2, 3)),
    ]
    for plan in (crowd, same_move):
        assert detect_conflicts(plan) == _pairwise_conflicts(plan)
    rng = random.Random(7)
    g = build_grid(3, 3)
    seen_kinds = set()
    for _ in range(400):
        plan = {}
        for aid in rng.sample(range(1, 20), rng.randint(2, 7)):
            v = rng.randrange(g.vertex_count)
            vertices = [v]
            for _ in range(rng.randint(1, 6)):
                v = rng.choice(g.adjacency[v] + (v,))
                vertices.append(v)
            plan[aid] = Path(rng.randint(0, 3), tuple(vertices))
        found = detect_conflicts(plan)
        assert found == _pairwise_conflicts(plan)
        seen_kinds.update(c.kind for c in found)
        # the reservation table of the others admits a path iff it is in no conflict
        for aid, path in plan.items():
            others = build_obstacles({j: p for j, p in plan.items() if j != aid})
            assert others.admits(path) == all(aid not in c.agents for c in found)
    assert seen_kinds == {"vertex", "edge"}


def test_shared_reservations_keep_every_owner_in_add_order():
    table = DynamicObstacleSet()
    table.add_path(3, Path(0, (0, 1)))
    table.add_path(1, Path(0, (0, 1)))
    table.add_path(2, Path(0, (0, 0, 1)))
    assert table.vertex_reservations == {(0, 0): 3, (0, 1): 2}
    assert table.edge_reservations == {(0, 1, 0): 3, (0, 1, 1): 2}
    # three owners of one cell, two of one move; keys held once are not listed
    assert table.shared == {(0, 0): [3, 1, 2], (0, 1, 0): [3, 1]}


def test_reservation_table_size_of_a_200_agent_grid_plan():
    # The committed plan of a seeded 200-agent new-single run on a 32x32
    # grid: one owner id per reserved cell and move, and no owner lists.
    inst = gen_random(RandomSpec(32, 32, 0.1, 200, 400, 1))
    plan = run(InstanceSource(inst), opt_rational("new-single", "flowtime")).plan
    tracemalloc.start()
    try:
        table = build_obstacles(plan)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table.vertex_reservations) + len(table.edge_reservations) > 8_000
    assert held < 900_000
    assert table.shared == {}


def test_evaluate_line_sequence_values():
    inst = line_instance(4)
    # sequential routing: starts 0, 4, 8, 12; arrivals 4, 8, 12, 16
    plan = {
        1: Path(0, (0, 1, 2, 3, 4)),
        2: Path(4, (4, 3, 2, 1, 0)),
        3: Path(8, (0, 1, 2, 3, 4)),
        4: Path(12, (4, 3, 2, 1, 0)),
    }
    metrics = evaluate(plan, [1, 2, 3, 4], inst)
    assert (metrics.flowtime, metrics.makespan, metrics.latency) == (34, 16, 18)


def test_evaluate_single_agent_and_missing():
    g = build_grid(1, 3)
    inst = OnlineInstance(g, (Agent(1, 0, 2, 3),))
    metrics = evaluate({1: Path(3, (0, 1, 2))}, [1], inst)
    assert metrics.flowtime == inst.dist(1) == 2
    assert metrics.latency == 0
    with pytest.raises(UnplannedAgent):
        evaluate({}, [1], inst)


def test_plan_costs_adds_the_agents_paths_to_the_given_totals():
    inst = line_instance(4)
    plan = {1: Path(0, (0, 1, 2, 3, 4)), 2: Path(4, (4, 3, 2, 1, 0)),
            3: Path(8, (0, 1, 2, 3, 4)), 4: Path(12, (4, 3, 2, 1, 0))}
    assert plan_costs(plan, inst.agents[:2]) == (4 + 7, 8)
    assert plan_costs(plan, inst.agents[2:], 11, 8) == (34, 16)
    assert plan_costs(plan, (), 5, 9) == (5, 9)
    with pytest.raises(UnplannedAgent, match="^agent 3 has no path$"):
        plan_costs({1: plan[1]}, inst.agents[2:])


def test_evaluate_reports_an_out_of_range_id_before_a_missing_path():
    inst = line_instance(4)
    with pytest.raises(UnplannedAgent, match="^agent 2 has no path$"):
        evaluate({1: Path(0, (0, 1, 2, 3, 4))}, [1, 2], inst)
    with pytest.raises(ValueError, match="^agent id 5 out of range 1..4$"):
        evaluate({}, [1, 5], inst)


def test_agent_ids_outside_1_to_m_are_refused():
    inst = line_instance(4)
    for bad in (0, -1, 5):
        with pytest.raises(ValueError, match=f"^agent id {bad} out of range 1..4$"):
            inst.agent(bad)
    assert inst.agent(1).id == 1 and inst.agent(4).id == 4


def test_evaluate_rejects_agent_id_0():
    inst = line_instance(4)
    with pytest.raises(ValueError, match="agent id 0 out of range"):
        evaluate({0: Path(0, (0, 1, 2, 3, 4))}, [0], inst)


def test_evaluate_2x2_rational_outcome():
    g = build_grid(2, 2)
    inst = OnlineInstance(g, (Agent(1, 0, 3, 0), Agent(2, 1, 0, 1)))
    plan = {1: Path(0, (0, 1, 3)), 2: Path(2, (1, 0))}
    metrics = evaluate(plan, [1, 2], inst)
    assert (metrics.flowtime, metrics.makespan, metrics.latency) == (4, 3, 1)


def test_latency_identity_on_random_plans():
    for seed in range(8):
        inst = _random_ok(seed)
        trace = run(InstanceSource(inst), sequence_policy())
        dist_sum = sum(inst.dist(i) for i in range(1, inst.m + 1))
        assert trace.metrics.latency == trace.metrics.flowtime - dist_sum


def _brute_make_bound(inst, m_k):
    """Independent oracle: a sequential chain's makespan has the closed form
    max over n of (release_n + sum of distances of agents n..m_k)."""
    return max(
        inst.agent(n).release + sum(inst.dist(i) for i in range(n, m_k + 1))
        for n in range(1, m_k + 1)
    )


def test_rationality_bounds_line_m4():
    inst = line_instance(4)
    flow_bound, make_bound = rationality_bounds(inst, 4)
    assert flow_bound == 4 * 16 == 64
    assert make_bound == 16
    assert _brute_make_bound(inst, 4) == 16


def test_rationality_bounds_single_agent():
    g = build_grid(1, 4)
    inst = OnlineInstance(g, (Agent(1, 0, 3, 5),))
    assert rationality_bounds(inst, 1) == (3, 8)


def test_rationality_bounds_late_release_moves_anchor():
    g = build_grid(1, 4)
    inst = OnlineInstance(g, (Agent(1, 0, 3, 0), Agent(2, 3, 0, 9)))
    # r_2 = 9 > r_1 + dist_1 = 3, so the anchor is agent 2
    assert rationality_bounds(inst, 2) == (2 * 6, 9 + 3)
    assert _brute_make_bound(inst, 2) == 12


def test_make_bound_covers_sequential_routing_with_staggered_releases():
    # several releases outrun the chain; the bound must still cover the
    # one-at-a-time routing it is defined against
    g = build_grid(1, 4)
    inst = OnlineInstance(
        g,
        (Agent(1, 0, 1, 0), Agent(2, 3, 0, 3), Agent(3, 0, 3, 5), Agent(4, 3, 0, 5)),
    )
    _, make_bound = rationality_bounds(inst, len(partition_by_release(inst)))
    assert make_bound == _brute_make_bound(inst, 4) == 12
    trace = run(InstanceSource(inst), sequence_policy())
    assert trace.metrics.makespan <= make_bound
    assert all(s.flow_ok and s.make_ok for s in trace.snapshots)


def test_bounds_nondecreasing_in_k():
    for seed in range(10):
        inst = _random_ok(seed)
        groups = partition_by_release(inst)
        bounds = [rationality_bounds(inst, k) for k in range(1, len(groups) + 1)]
        assert [b[0] for b in bounds] == sorted(b[0] for b in bounds)
        assert [b[1] for b in bounds] == sorted(b[1] for b in bounds)
        for group, (flow_bound, make_bound) in zip(groups, bounds):
            m_k = group.agent_ids[-1]
            assert make_bound == _brute_make_bound(inst, m_k)
            assert flow_bound == m_k * sum(inst.dist(i) for i in range(1, m_k + 1))


def test_is_rational_at_flags_detours():
    inst = line_instance(2)
    good = {1: Path(0, (0, 1, 2))}
    assert is_rational_at(good, inst, 1)
    waits = 1 * 2 + 1  # one beyond the k=1 flowtime ceiling
    bad = {1: Path(0, (0,) * waits + (0, 1, 2))}
    assert not is_rational_at(bad, inst, 1)


def test_ratio_report_forms():
    r = RatioReport.of(34, 25)
    assert float(r.ratio) == 1.36 and r.additive_gap == 9
    r = RatioReport.of(1, 0)
    assert r.ratio == float("inf") and r.additive_gap == 1
    r = RatioReport.of(0, 0)
    assert float(r.ratio) == 1.0


def test_scenario_roundtrip_grid_and_graph():
    grid = GridMap(2, 3, frozenset({(1, 2)}))
    g = grid.to_graph()
    agents = [Agent(1, grid.vertex_of(0, 0), grid.vertex_of(1, 1), 0),
              Agent(2, grid.vertex_of(0, 2), grid.vertex_of(0, 0), 2)]
    text = dump_scenario(agents, grid)
    assert load_scenario(text, grid=grid) == agents
    text = dump_scenario(agents)
    assert load_scenario(text, graph=g) == agents


def test_scenario_parse_errors():
    grid = GridMap(2, 2, frozenset())
    with pytest.raises(ParseError):
        load_scenario("1 0 0 0 9 9", grid=grid)  # cell out of range
    with pytest.raises(ParseError):
        load_scenario("2 0 0 0 1 1", grid=grid)  # ids must start at 1
    with pytest.raises(ParseError):
        load_scenario("1 5 0 0 1 1\n2 3 1 1 0 0", grid=grid)  # releases decrease
    assert load_scenario("# comment\n\n1 0 0 0 1 1", grid=grid)[0].id == 1
    graph = grid.to_graph()
    for text, kwargs, message in (
        ("1 0 0 0 1 1", {}, "<scen>:1: grid scenario line but no grid map given"),
        ("1 0 0 3", {"grid": grid}, "<scen>:1: graph scenario line but no graph given"),
        ("1 0 0 4", {"graph": graph}, "<scen>:1: vertex out of range"),
        ("1 0 0 1 1", {"grid": grid}, "<scen>:1: expected 4 or 6 whitespace-separated fields"),
        ("# c\n1 0 1 1 1 1", {"grid": grid}, "<scen>:2: agent 1: goal must differ from start"),
    ):
        with pytest.raises(ParseError) as excinfo:
            load_scenario(text, **kwargs)
        assert str(excinfo.value) == message


def test_plan_csv_golden():
    inst = line_instance(2)
    plan = {1: Path(0, (0, 1, 2)), 2: Path(2, (2, 1, 0))}
    assert plan_to_csv(plan, inst) == (
        "agent,start_time,arrival_time,service_time,path\n"
        "1,0,2,2,0;1;2\n"
        "2,2,4,3,2;1;0\n"
    )
