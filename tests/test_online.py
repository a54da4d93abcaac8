import itertools

import pytest

from onmapf import (
    Agent,
    InstanceSource,
    OnlineInstance,
    Path,
    ProtocolViolation,
    build_grid,
    build_obstacles,
    RevealSource,
    custom_policy,
    detect_conflicts,
    evaluate,
    gen_2x2_adversary,
    gen_line,
    gen_random,
    is_rational_at,
    offline_optimal,
    opt_rational,
    partition_by_release,
    plan_min_arrival,
    rationality_bounds,
    rationalize_wrap,
    run,
    sequence_policy,
    sequential_chain,
    shortest_path_lex,
)
from onmapf.adversary import RandomSpec, line_closed_forms
from onmapf.errors import DisconnectedWorld, EmptyWorld
from onmapf import online
from onmapf.online import replay_policy

from references import wasteful_policy

ALL_OPT_RATIONAL = [
    opt_rational(mode, objective)
    for mode in ("new-single", "new", "all")
    for objective in ("flowtime", "makespan")
]


def random_instance(seed, agents=4, size=5, max_release=5, density=0.15):
    while True:
        try:
            return gen_random(RandomSpec(size, size, density, agents, max_release, seed))
        except (DisconnectedWorld, EmptyWorld):
            seed += 1000


def test_sequence_start_rule():
    g = build_grid(1, 4)
    a = Agent(3, 0, 3, 7)
    assert list(sequential_chain(g, [a], 5)) == [(a, 7, 10)]  # released after predecessor
    assert list(sequential_chain(g, [a], 9)) == [(a, 9, 12)]  # predecessor still busy
    b = Agent(4, 3, 0, 7)
    assert [s for _, s, _ in sequential_chain(g, [a, b], 9)] == [9, 12]  # b waits for a


def test_sequence_line_m2():
    inst = gen_line(2)
    trace = run(InstanceSource(inst), sequence_policy())
    assert trace.plan[2].start_time == 2
    assert trace.plan[2].arrival_time == 4
    assert trace.metrics.flowtime == 5


def test_sequence_collision_free_and_rational_on_random():
    for seed in range(10):
        inst = random_instance(seed)
        trace = run(InstanceSource(inst), sequence_policy())
        assert trace.conflicts == []
        assert all(s.flow_ok and s.make_ok for s in trace.snapshots)
        for i, agent in enumerate(inst.agents):
            prev = trace.plan[i].arrival_time if i else 0
            assert trace.plan[agent.id].start_time == max(agent.release, prev)


def test_opt_rational_line_exact_for_non_rerouting_modes():
    for m in (2, 4):
        forms = line_closed_forms(m)
        inst = gen_line(m)
        for mode in ("new-single", "new"):
            for objective in ("flowtime", "makespan"):
                trace = run(InstanceSource(inst), opt_rational(mode, objective))
                assert trace.metrics.flowtime == forms.rational_flow
                assert trace.metrics.makespan == forms.rational_make
                assert trace.conflicts == []


def test_opt_rational_all_mode_line_reaches_the_offline_optimum():
    # Rerouting ends at the closed-form optimum under either objective; the
    # choice among equal-cost plans at each release must never move a cost.
    for m in (2, 4, 6):
        forms = line_closed_forms(m)
        inst = gen_line(m)
        for objective in ("flowtime", "makespan"):
            trace = run(InstanceSource(inst), opt_rational("all", objective))
            assert (trace.metrics.flowtime, trace.metrics.makespan) == (forms.opt_flow, forms.opt_make)
            assert trace.conflicts == []


def test_new_single_plans_against_all_lower_id_paths():
    for seed in (2, 5):
        inst = random_instance(seed, agents=8, size=6)
        trace = run(InstanceSource(inst), opt_rational("new-single", "flowtime"))
        for agent in inst.agents:
            lower = {aid: trace.plan[aid] for aid in range(1, agent.id)}
            expected = plan_min_arrival(inst.graph, agent, build_obstacles(lower))
            assert trace.plan[agent.id] == expected


def test_rationalized_cap_checks_replacements_not_candidates():
    g = build_grid(1, 3)
    inst = OnlineInstance(g, (Agent(1, 0, 1, 0), Agent(2, 1, 0, 0), Agent(3, 1, 2, 1)))
    candidates = {1: Path(0, (0, 1)), 2: Path(0, (1, 0)), 3: Path(1, (1, 2))}
    replacement_2 = Path(1, (1, 0))  # sequential route after agent 1 arrives
    # agent 2's candidate swaps with agent 1; agent 3's candidate clashes only
    # with agent 2's replacement (both on vertex 1 at t=1)
    assert detect_conflicts({1: candidates[1], 2: candidates[2]})
    assert not detect_conflicts({1: candidates[1], 3: candidates[3]})
    assert not detect_conflicts({2: candidates[2], 3: candidates[3]})
    assert detect_conflicts({2: replacement_2, 3: candidates[3]})

    def hook(ctx):
        return {agent.id: candidates[agent.id] for agent in ctx.new_agents}

    policy = rationalize_wrap(custom_policy(hook, mode="new-single", label="clashing"))
    trace = run(InstanceSource(inst), policy)
    assert trace.plan == {1: candidates[1], 2: replacement_2, 3: Path(2, (1, 2))}
    assert trace.conflicts == []
    # a candidate arriving exactly with the chain is kept, wait and all
    late = rationalize_wrap(custom_policy(
        lambda ctx: {a.id: Path(a.release, (a.start,) + shortest_path_lex(ctx.graph, a.start, a.goal))
                     for a in ctx.new_agents}, mode="new-single"))
    trace = run(InstanceSource(gen_line(2)), late)
    assert trace.plan == {1: Path(0, (0, 1, 2)), 2: Path(1, (2, 2, 1, 0))}


def test_plan_all_beats_plan_new_on_line():
    inst = gen_line(4)
    flow_all = run(InstanceSource(inst), opt_rational("all", "flowtime")).metrics.flowtime
    flow_new = run(InstanceSource(inst), opt_rational("new", "flowtime")).metrics.flowtime
    flow_seq = run(InstanceSource(inst), sequence_policy()).metrics.flowtime
    assert flow_all <= flow_new <= flow_seq
    assert flow_all == line_closed_forms(4).opt_flow  # rerouting recovers the optimum here


def test_all_mode_never_rebuilds_the_reservation_table(monkeypatch):
    # Nothing reads the loop's table in all mode, so a replan leaves it as
    # it is; the final conflict report builds its own through core.
    built = []
    monkeypatch.setattr(online, "build_obstacles", lambda plan: built.append(plan))
    for objective in ("flowtime", "makespan"):
        trace = run(InstanceSource(gen_line(4)), opt_rational("all", objective))
        assert trace.conflicts == []
    assert built == []


def test_plan_all_against_2x2_adversary():
    for objective in ("flowtime", "makespan"):
        adversary = gen_2x2_adversary()
        trace = run(adversary, opt_rational("all", objective))
        assert trace.metrics.flowtime == 4
        assert trace.metrics.makespan == 3
        assert trace.metrics.latency == 1
        assert trace.conflicts == []


def test_commitment_invariant_for_non_rerouting_modes():
    for seed in range(6):
        inst = random_instance(seed, agents=5)
        for policy in (sequence_policy(), opt_rational("new-single", "flowtime"),
                       opt_rational("new", "makespan")):
            trace = run(InstanceSource(inst), policy)
            for snap in trace.snapshots:
                for aid, path in snap.plan.items():
                    assert trace.plan[aid] == path  # committed once, never changed


def test_prefix_invariant_for_plan_all():
    for seed, objective in itertools.product(range(6), ("flowtime", "makespan")):
        inst = random_instance(seed, agents=5, max_release=8)
        trace = run(InstanceSource(inst), opt_rational("all", objective))
        snaps = trace.snapshots
        for earlier, later in zip(snaps, snaps[1:]):
            cut = later.time
            for aid, path in earlier.plan.items():
                newer = later.plan[aid]
                for t in range(path.start_time, min(cut, path.arrival_time) + 1):
                    assert path.position(t) == newer.position(t)
                if path.start_time > cut:  # not yet started: fully replannable
                    continue
                assert newer.start_time == path.start_time


def test_opt_rational_is_rational_without_wrapper():
    for seed in range(6):
        inst = random_instance(seed, agents=5, max_release=6)
        for policy in ALL_OPT_RATIONAL:
            trace = run(InstanceSource(inst), policy)
            assert all(s.flow_ok and s.make_ok for s in trace.snapshots), (seed, policy.name)
            for k in range(1, len(trace.snapshots) + 1):
                assert is_rational_at(trace.snapshots[k - 1].plan, trace.instance, k)


def test_wrapping_sequence_changes_nothing():
    for inst in [gen_line(2), gen_line(4)] + [random_instance(seed, agents=6) for seed in range(6)]:
        plain = run(InstanceSource(inst), sequence_policy())
        wrapped = run(InstanceSource(inst), rationalize_wrap(sequence_policy()))
        assert plain.plan == wrapped.plan
        assert [s.plan for s in wrapped.snapshots] == [s.plan for s in plain.snapshots]
        assert not any(s.fallback for s in wrapped.snapshots)


def test_wasteful_fails_unwrapped_and_passes_wrapped():
    for seed in (0, 3, 11):
        inst = random_instance(seed)
        raw = run(InstanceSource(inst), wasteful_policy())
        assert any(not (s.flow_ok and s.make_ok) for s in raw.snapshots)
        assert raw.conflicts == []
        wrapped = run(InstanceSource(inst), rationalize_wrap(wasteful_policy()))
        assert all(s.flow_ok and s.make_ok for s in wrapped.snapshots)
        assert any(s.fallback for s in wrapped.snapshots)
        assert wrapped.conflicts == []


def test_rationalized_new_hook_clash_falls_back_to_chain():
    # Each agent walks a shortest path from its release: both snapshots meet
    # the cost ceilings, but agents 1 and 2 swap along edge 1-2 at t=1.
    inst = gen_line(2)

    def clash(ctx):
        return {a.id: Path(a.release, shortest_path_lex(ctx.graph, a.start, a.goal))
                for a in ctx.new_agents}

    raw = run(InstanceSource(inst), custom_policy(clash, mode="new"))
    assert all(s.flow_ok and s.make_ok for s in raw.snapshots)
    assert [(c.kind, c.agents, c.time) for c in raw.conflicts] == [("edge", (1, 2), 1)]
    wrapped = run(InstanceSource(inst), rationalize_wrap(custom_policy(clash, mode="new")))
    assert [s.fallback for s in wrapped.snapshots] == [False, True]
    assert wrapped.plan[2] == Path(2, (2, 1, 0))
    assert wrapped.conflicts == []
    # within one group: the second agent meets the first at vertex 1
    pair = OnlineInstance(build_grid(1, 3), (Agent(1, 0, 2, 0), Agent(2, 2, 0, 0)))
    raw = run(InstanceSource(pair), custom_policy(clash, mode="new"))
    assert [(c.kind, c.agents, c.time) for c in raw.conflicts] == [("vertex", (1, 2), 1)]
    wrapped = run(InstanceSource(pair), rationalize_wrap(custom_policy(clash, mode="new")))
    assert wrapped.snapshots[0].fallback
    assert wrapped.plan == {1: Path(0, (0, 1, 2)), 2: Path(2, (2, 1, 0))}


def test_wrapping_opt_rational_never_triggers_fallback():
    # Nor does it change a plan: neither the per-agent cap nor the new-mode
    # clash check rejects an opt-rational candidate.
    for inst in [gen_line(2), gen_line(4)] + [random_instance(seed, agents=4) for seed in range(5)]:
        for policy in ALL_OPT_RATIONAL:
            plain = run(InstanceSource(inst), policy)
            trace = run(InstanceSource(inst), rationalize_wrap(policy))
            assert not any(s.fallback for s in trace.snapshots)
            assert [s.plan for s in trace.snapshots] == [s.plan for s in plain.snapshots]
            assert trace.conflicts == []


def test_replay_of_optimum_is_irrational_but_better():
    inst = gen_line(4)
    forms = line_closed_forms(4)
    optimal = offline_optimal(inst.graph, inst.agents, objective="flowtime")
    trace = run(InstanceSource(inst), replay_policy(optimal))
    assert trace.metrics.flowtime == forms.opt_flow < forms.rational_flow
    assert trace.metrics.makespan == forms.opt_make < forms.rational_make
    assert any(not (s.flow_ok and s.make_ok) for s in trace.snapshots)
    assert trace.conflicts == []
    wrapped = run(InstanceSource(inst), rationalize_wrap(replay_policy(optimal)))
    assert all(s.flow_ok and s.make_ok for s in wrapped.snapshots)
    assert wrapped.conflicts == []


def within_global_bounds(trace, inst):
    """Final-solution bounds implied by rationality: flowtime at most m times
    the summed distances, makespan at most the sequential chain's."""
    flow_bound, make_bound = rationality_bounds(inst, len(partition_by_release(inst)))
    return trace.metrics.flowtime <= flow_bound, trace.metrics.makespan <= make_bound


def test_check_global_bounds():
    inst = gen_line(4)
    trace = run(InstanceSource(inst), sequence_policy())
    assert within_global_bounds(trace, inst) == (True, True)
    assert trace.metrics.flowtime == 34 <= 64
    for seed in range(5):
        rnd = random_instance(seed)
        t = run(InstanceSource(rnd), rationalize_wrap(wasteful_policy()))
        assert within_global_bounds(t, rnd) == (True, True)


def test_custom_hook_validation():
    inst = gen_line(2)

    def bad_hook(ctx):
        return {}  # misses the new agent

    with pytest.raises(ValueError):
        run(InstanceSource(inst), custom_policy(bad_hook))

    def wrong_endpoint(ctx):
        return {a.id: Path(a.release, (a.start, a.start + 1)) for a in ctx.new_agents}

    with pytest.raises(ValueError):
        run(InstanceSource(inst), custom_policy(wrong_endpoint))


def test_custom_hook_passing_its_goal_is_refused():
    # Arriving at 1, the agent is gone: a path that goes on to 2 and back
    # would be committed with flowtime 3 and no conflict.
    inst = OnlineInstance(build_grid(1, 3), (Agent(1, 0, 1, 0),))

    def through_goal(ctx):
        return {1: Path(0, (0, 1, 2, 1))}

    with pytest.raises(ValueError, match="reaches its goal before its last vertex"):
        run(InstanceSource(inst), custom_policy(through_goal))


def test_policy_validation():
    with pytest.raises(ValueError):
        opt_rational("everything", "flowtime")
    with pytest.raises(ValueError):
        opt_rational("new", "latency")
    with pytest.raises(ValueError):
        custom_policy(lambda ctx: {}, mode="all")
    for kwargs, message in (
        ({"mode": "new", "planner": "sequence"}, "the sequence planner plans one agent at a time"),
        ({"mode": "new", "planner": "custom", "custom": "hook"},
         "custom policy needs a callable hook"),
        ({"mode": "new", "planner": "greedy"}, "unknown planner 'greedy'"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            online.OnlinePolicy(**kwargs)


def shortest_from_release(ctx):
    """Custom hook: every new agent walks a shortest path from its release,
    whatever the committed paths do."""
    return {a.id: Path(a.release, shortest_path_lex(ctx.graph, a.start, a.goal))
            for a in ctx.new_agents}


def test_snapshots_match_evaluate_and_rationality_bounds():
    # run keeps running totals; every snapshot must still equal the
    # from-scratch metrics and ceilings over the revealed agents.
    instances = [gen_line(2), gen_line(4)] + [random_instance(seed, agents=5) for seed in range(4)]
    fallbacks = 0
    for inst in instances:
        optimum = offline_optimal(inst.graph, inst.agents, objective="flowtime")
        policies = [sequence_policy(), *ALL_OPT_RATIONAL, wasteful_policy(),
                    custom_policy(shortest_from_release, mode="new", label="clash"),
                    replay_policy(optimum)]
        groups = partition_by_release(inst)
        for policy in policies + [rationalize_wrap(p) for p in policies]:
            trace = run(InstanceSource(inst), policy)
            assert len(trace.snapshots) == len(groups)
            for snap, group in zip(trace.snapshots, groups):
                revealed = range(1, group.agent_ids[-1] + 1)
                assert snap.metrics == evaluate(snap.plan, revealed, inst), policy.name
                assert snap.bounds == rationality_bounds(inst, snap.k), policy.name
                fallbacks += snap.fallback
            assert trace.metrics == trace.snapshots[-1].metrics
            assert trace.plan == trace.snapshots[-1].plan
    assert fallbacks > 0  # the fallback's totals are covered too


class ScriptedSource(RevealSource):
    def __init__(self, graph, events):
        self._graph = graph
        self._events = list(events)
        self.observed = []

    def graph(self):
        return self._graph

    def next_event(self):
        return self._events.pop(0) if self._events else None

    def observe(self, time, plan):
        self.observed.append(time)


class RecordingSource(InstanceSource):
    def __init__(self, instance):
        super().__init__(instance)
        self.observed = []

    def observe(self, time, plan):
        self.observed.append((plan, dict(plan)))


def test_observe_is_handed_each_snapshot_plan():
    # One plan copy per event: observe gets the snapshot's own plan, holding
    # what the snapshot holds, after a rationalization fallback too.
    fallbacks = 0
    for inst in [gen_line(4)] + [random_instance(seed) for seed in (0, 3, 11)]:
        for policy in (sequence_policy(), opt_rational("new", "flowtime"), wasteful_policy(),
                       rationalize_wrap(wasteful_policy())):
            source = RecordingSource(inst)
            trace = run(source, policy)
            assert [copy for _, copy in source.observed] == [s.plan for s in trace.snapshots]
            assert all(seen is s.plan for (seen, _), s in zip(source.observed, trace.snapshots))
            fallbacks += sum(s.fallback for s in trace.snapshots)
    assert fallbacks > 0


def test_out_of_range_reveal_raises_at_its_event_before_planning():
    g = build_grid(1, 3)
    for bad, message in ((Agent(2, 3, 0, 1), "agent 2: start vertex out of range"),
                         (Agent(2, 0, 5, 1), "agent 2: goal vertex out of range")):
        hook_calls = []

        def hook(ctx):
            hook_calls.append(ctx.time)
            return shortest_from_release(ctx)

        policies = [sequence_policy(), *ALL_OPT_RATIONAL,
                    custom_policy(hook, mode="new"), custom_policy(hook, mode="new-single")]
        for policy in policies + [rationalize_wrap(p) for p in policies]:
            source = ScriptedSource(g, [(0, [Agent(1, 0, 2, 0)]), (1, [bad])])
            with pytest.raises(ValueError, match=message):
                run(source, policy)
            assert source.observed == [0], policy.name
        assert hook_calls == [0] * 4  # four hook policies, none reached the bad event


@pytest.mark.parametrize("events, message", [
    ([(1, [Agent(1, 0, 2, 1)]), (1, [Agent(2, 2, 0, 1)])],
     "release events must have increasing times"),
    ([(0, [Agent(1, 0, 2, 0)]), (1, [Agent(3, 2, 0, 1)])], "expected agent 2, got 3"),
    ([(0, [Agent(1, 0, 2, 0), Agent(1, 2, 0, 0)])], "expected agent 2, got 1"),
    ([(0, [Agent(1, 0, 2, 0)]), (2, [Agent(2, 2, 0, 1)])],
     "revealed agent's release differs from event time"),
])
def test_source_breaking_the_reveal_protocol_is_refused(events, message):
    # Checked when the event is handed out: the events before it are planned
    # and observed, the bad one is not.
    source = ScriptedSource(build_grid(1, 3), events)
    with pytest.raises(ProtocolViolation, match=f"^{message}$"):
        run(source, sequence_policy())
    assert source.observed == [t for t, _ in events[:-1]]


def test_source_that_reveals_no_agents_is_refused():
    spent = gen_2x2_adversary()
    run(spent, sequence_policy())
    for source in (ScriptedSource(build_grid(1, 3), []), spent):
        with pytest.raises(ValueError, match="^the source revealed no agents$"):
            run(source, sequence_policy())


def test_hook_context_holds_committed_makespan_and_event_bounds():
    # The context is built from run's running totals; it must equal what the
    # snapshots report: the latest arrival committed before the event and the
    # event's ceilings.
    instances = [gen_line(4)] + [random_instance(seed, agents=6) for seed in range(4)]
    for inst, mode, inner in itertools.product(
            instances, ("new", "new-single"), (shortest_from_release, wasteful_policy().custom)):
        seen = []

        def hook(ctx):
            seen.append((ctx.time, ctx.makespan, ctx.bounds))
            return inner(ctx)

        for policy in (custom_policy(hook, mode=mode), rationalize_wrap(custom_policy(hook, mode=mode))):
            seen.clear()
            trace = run(InstanceSource(inst), policy)
            previous = [{}] + [snap.plan for snap in trace.snapshots[:-1]]
            assert seen == [
                (snap.time, max((p.arrival_time for p in plan.values()), default=0), snap.bounds)
                for snap, plan in zip(trace.snapshots, previous)
            ], (policy.name, mode)
