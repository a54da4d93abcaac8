"""End-to-end acceptance suite.

Each test covers one numbered criterion, checks exact values (integer
equality, exact fractions) and prints one PASS/FAIL line; run with ``-s`` to
see the lines as they happen. The random-instance criteria share one
session-scoped batch of 200 seeded instances.
"""

import random
import time
from fractions import Fraction

import pytest

from onmapf import (
    Agent,
    InstanceSource,
    RatioReport,
    SatInstance,
    build_obstacles,
    decode_assignment,
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
    reduce_sat,
    run,
    sequence_policy,
)
from onmapf.adversary import RandomSpec
from onmapf.errors import DisconnectedWorld, EmptyWorld
from onmapf.core import Path

from references import (
    brute_force_assignment,
    min_arrival_oracle,
    random_connected_graph,
    reservation_horizon,
    satisfies,
    wasteful_policy,
)

OPT_RATIONAL_POLICIES = [
    opt_rational(mode, objective)
    for mode in ("new-single", "new", "all")
    for objective in ("flowtime", "makespan")
]
WRAPPED_POLICIES = [
    rationalize_wrap(p)
    for p in OPT_RATIONAL_POLICIES + [sequence_policy(), wasteful_policy()]
]


def _verdict(number, description, ok):
    print(f"[acceptance] criterion {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------------------
# criterion 1: line-family exactness for every non-rerouting policy


def test_criterion_1_line_family_exactness():
    started = time.time()
    failures = []
    policies = [sequence_policy()] + [
        opt_rational(mode, objective)
        for mode in ("new-single", "new")
        for objective in ("flowtime", "makespan")
    ]
    for m in (2, 4, 6, 8):
        expect_flow = (m**3 + m) // 2
        expect_make = m * m
        inst = gen_line(m)
        for policy in policies:
            trace = run(InstanceSource(inst), policy)
            if (trace.metrics.flowtime, trace.metrics.makespan) != (expect_flow, expect_make):
                failures.append((m, policy.name, trace.metrics))
            if trace.conflicts:
                failures.append((m, policy.name, "conflicts"))
    elapsed = time.time() - started
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _verdict(1, f"line family exact costs, {elapsed:.2f}s", not failures)


# ---------------------------------------------------------------------------
# criterion 2: line-family offline optimum


def test_criterion_2_line_family_optimum():
    failures = []
    for m, expect_flow, expect_make in ((2, 5, 4), (4, 25, 11)):
        inst = gen_line(m)
        flow_plan = offline_optimal(inst.graph, inst.agents, objective="flowtime")
        make_plan = offline_optimal(inst.graph, inst.agents, objective="makespan")
        agents = range(1, m + 1)
        if evaluate(flow_plan, agents, inst).flowtime != expect_flow:
            failures.append((m, "flowtime", evaluate(flow_plan, agents, inst)))
        if evaluate(make_plan, agents, inst).makespan != expect_make:
            failures.append((m, "makespan", evaluate(make_plan, agents, inst)))
        for plan in (flow_plan, make_plan):
            if detect_conflicts(plan):
                failures.append((m, "conflicts"))
    _verdict(2, "offline optimum matches closed forms at m=2 and m=4", not failures)


# ---------------------------------------------------------------------------
# criterion 3: the 2x2 adversary forces 4/3, 3/2 and an infinite latency ratio


def test_criterion_3_plan_all_constants():
    failures = []
    rational_policies = (
        [sequence_policy()] + OPT_RATIONAL_POLICIES + [rationalize_wrap(p) for p in OPT_RATIONAL_POLICIES]
    )
    oracle_metrics = None
    for policy in rational_policies:
        adversary = gen_2x2_adversary()
        trace = run(adversary, policy)
        m = trace.metrics
        if (m.flowtime, m.makespan, m.latency) != (4, 3, 1):
            failures.append((policy.name, m))
        if trace.conflicts:
            failures.append((policy.name, "conflicts"))
        inst = trace.instance
        for objective in ("flowtime", "makespan"):
            plan = offline_optimal(inst.graph, inst.agents, objective=objective)
            om = evaluate(plan, [1, 2], inst)
            if (om.flowtime, om.makespan, om.latency) != (3, 2, 0):
                failures.append((policy.name, objective, om))
            oracle_metrics = om
    ratios = (
        RatioReport.of(4, oracle_metrics.flowtime),
        RatioReport.of(3, oracle_metrics.makespan),
        RatioReport.of(1, oracle_metrics.latency),
    )
    if ratios[0].ratio != Fraction(4, 3) or ratios[1].ratio != Fraction(3, 2):
        failures.append(("ratios", ratios))
    if ratios[2].ratio != float("inf") or ratios[2].additive_gap != 1:
        failures.append(("latency ratio", ratios[2]))
    _verdict(3, "2x2 adversary yields 4/3, 3/2, infinite latency", not failures)


# ---------------------------------------------------------------------------
# criterion 4: reduction iff over hand-built formulas


SAT_CASES = [
    ("n1-unsat-a", SatInstance(1, ((1,), (1,), (-1,)))),
    ("n1-unsat-b", SatInstance(1, ((1,), (-1,), (-1,)))),
    ("n2-sat-a", SatInstance(2, ((1, 2), (-1, 2), (1, -2)))),
    ("n2-sat-b", SatInstance(2, ((1, 2), (-1, -2), (1, -2)))),
    ("n2-unsat", SatInstance(2, ((1, 2), (-1, -2), (1,), (2,)))),
    ("n3-sat", SatInstance(3, ((1, 2, 3), (-1, 2), (1, -2, 3), (-3,)))),
    ("n3-unsat", SatInstance(3, ((1, 2), (-1, -2), (1, 3), (2,), (-3,), (-3,)))),
]


def test_criterion_4_reduction_iff():
    failures = []
    for name, sat in SAT_CASES:
        truth = brute_force_assignment(sat)
        out = reduce_sat(sat)
        inst = out.instance
        if any(inst.dist(i) != 3 for i in range(1, inst.m + 1)):
            failures.append((name, "distance audit"))
        plan = offline_optimal(inst.graph, inst.agents, objective="makespan")
        makespan = evaluate(plan, range(1, inst.m + 1), inst).makespan
        expected = 3 if truth is not None else 4
        if makespan != expected:
            failures.append((name, "makespan", makespan, expected))
        if detect_conflicts(plan):
            failures.append((name, "conflicts"))
        if makespan == 3:
            decoded = decode_assignment(out, plan)
            if not satisfies(sat, decoded):
                failures.append((name, "decode", decoded))
    _verdict(4, f"makespan 3 iff satisfiable over {len(SAT_CASES)} formulas", not failures)


# ---------------------------------------------------------------------------
# shared 200-instance batch for criteria 5-7

SUITE_SHAPES = [
    # (height, width, density, agents, max_release), all within 8x8/10/10
    (5, 5, 0.08, 3, 6),
    (6, 6, 0.08, 4, 6),
    (6, 6, 0.10, 5, 8),
    (7, 7, 0.10, 6, 8),
    (8, 8, 0.10, 8, 10),
    (8, 8, 0.05, 10, 10),
]


def _make_suite(count=200):
    instances = []
    seed = 0
    while len(instances) < count:
        h, w, d, a, r = SUITE_SHAPES[len(instances) % len(SUITE_SHAPES)]
        try:
            instances.append(gen_random(RandomSpec(h, w, d, a, r, seed)))
        except (DisconnectedWorld, EmptyWorld):
            pass
        seed += 1
    return instances


@pytest.fixture(scope="session")
def random_suite_results():
    """Every policy run on every instance once; criteria 5-7 read this."""
    instances = _make_suite()
    policies = OPT_RATIONAL_POLICIES + WRAPPED_POLICIES + [sequence_policy(), wasteful_policy()]
    results = {}
    for policy in policies:
        rows = []
        for inst in instances:
            trace = run(InstanceSource(inst), policy)
            rational_per_step = [
                is_rational_at(snap.plan, trace.instance, snap.k) for snap in trace.snapshots
            ]
            groups = partition_by_release(inst)
            flow_bound, make_bound = rationality_bounds(inst, len(groups))
            rows.append(
                {
                    "m": inst.m,
                    "rational": rational_per_step,
                    "conflicts": len(trace.conflicts),
                    "assigned": set(trace.plan) == set(range(1, inst.m + 1)),
                    "arrivals_ok": all(
                        isinstance(p.arrival_time, int) and p.arrival_time >= p.start_time
                        for p in trace.plan.values()
                    ),
                    "flow_ok": trace.metrics.flowtime <= flow_bound,
                    "make_ok": trace.metrics.makespan <= make_bound,
                }
            )
        results[policy.name] = rows
    return instances, results


def test_criterion_5_rationality_invariant(random_suite_results):
    instances, results = random_suite_results
    failures = []
    guaranteed = [p.name for p in OPT_RATIONAL_POLICIES + WRAPPED_POLICIES]
    for name in guaranteed:
        for idx, row in enumerate(results[name]):
            if not all(row["rational"]):
                failures.append((name, idx))
    wasteful_rows = results[wasteful_policy().name]
    if not all(any(not ok for ok in row["rational"]) for row in wasteful_rows):
        failures.append(("wasteful policy unexpectedly rational somewhere",))
    wrapped_name = rationalize_wrap(wasteful_policy()).name
    if not all(all(row["rational"]) for row in results[wrapped_name]):
        failures.append(("wrapped wasteful policy not rational everywhere",))
    _verdict(
        5,
        f"rationality holds at every release time over {len(instances)} instances",
        not failures,
    )


def test_criterion_6_global_bounds(random_suite_results):
    instances, results = random_suite_results
    failures = []
    rational_names = [p.name for p in OPT_RATIONAL_POLICIES + WRAPPED_POLICIES] + [
        sequence_policy().name
    ]
    for name in rational_names:
        for idx, row in enumerate(results[name]):
            if not (row["flow_ok"] and row["make_ok"]):
                failures.append((name, idx))
    _verdict(6, "final costs within the global flowtime/makespan bounds", not failures)


def test_criterion_7_feasibility_and_safety(random_suite_results):
    instances, results = random_suite_results
    failures = []
    for name, rows in results.items():
        for idx, row in enumerate(rows):
            if row["conflicts"] or not row["assigned"] or not row["arrivals_ok"]:
                failures.append((name, idx))
    # the deterministic families double-checked end to end
    for m in (2, 4, 6, 8):
        inst = gen_line(m)
        for policy in [sequence_policy()] + OPT_RATIONAL_POLICIES:
            trace = run(InstanceSource(inst), policy)
            if trace.conflicts or set(trace.plan) != set(range(1, m + 1)):
                failures.append(("line", m, policy.name))
    for policy in [sequence_policy()] + OPT_RATIONAL_POLICIES:
        trace = run(gen_2x2_adversary(), policy)
        if trace.conflicts or set(trace.plan) != {1, 2}:
            failures.append(("2x2", policy.name))
    _verdict(7, "all emitted plans collision-free and complete", not failures)


# ---------------------------------------------------------------------------
# criterion 8: single-agent search optimality against exhaustive enumeration


def _random_walks(rng, graph, walkers, span):
    walks = {}
    for wid in range(walkers):
        vertices = [rng.randrange(graph.vertex_count)]
        for _ in range(rng.randrange(1, span)):
            vertices.append(rng.choice([vertices[-1]] + list(graph.adjacency[vertices[-1]])))
        walks[1000 + wid] = Path(rng.randrange(span), tuple(vertices))
    return walks


def test_criterion_8_search_optimality_oracle():
    rng = random.Random(2024)
    failures = []
    checked = 0
    while checked < 50:
        graph = random_connected_graph(rng, rng.randint(2, 8))
        start, goal = rng.randrange(graph.vertex_count), rng.randrange(graph.vertex_count)
        if start == goal:
            continue
        agent = Agent(1, start, goal, rng.randrange(3))
        obstacles = _random_walks(rng, graph, rng.randrange(4), rng.randint(4, 14))
        horizon = reservation_horizon(obstacles)
        if horizon > 20:
            continue
        path = plan_min_arrival(graph, agent, build_obstacles(obstacles))
        expected = min_arrival_oracle(graph, agent, obstacles, agent.release,
                                      horizon + graph.vertex_count + agent.release + 1)
        if path.arrival_time != expected:
            failures.append((checked, path.arrival_time, expected))
        checked += 1
    _verdict(8, "min-arrival search matches exhaustive enumeration on 50 queries", not failures)
