import itertools
import tracemalloc

import pytest

from onmapf import (
    MalformedSat,
    NotMakespanThree,
    OddM,
    OnlineInstance,
    ParseError,
    Path,
    ProtocolViolation,
    SatInstance,
    decode_assignment,
    detect_conflicts,
    evaluate,
    gen_2x2_adversary,
    gen_line,
    gen_random,
    line_closed_forms,
    offline_optimal,
    parse_dimacs,
    reduce_sat,
)
from onmapf.adversary import RandomSpec, dump_dimacs
from onmapf.errors import DisconnectedWorld, EmptyWorld

from references import brute_force_assignment, satisfies


# ---------------------------------------------------------------------------
# line family


def test_gen_line_m2_and_m4():
    inst = gen_line(2)
    assert [(a.start, a.goal, a.release) for a in inst.agents] == [(0, 2, 0), (2, 0, 1)]
    inst = gen_line(4)
    assert [a.release for a in inst.agents] == [0, 1, 2, 3]
    assert [(a.start, a.goal) for a in inst.agents] == [(0, 4), (4, 0), (0, 4), (4, 0)]


def test_gen_line_rejects_odd_or_tiny():
    with pytest.raises(OddM):
        gen_line(3)
    with pytest.raises(OddM):
        gen_line(0)


def test_line_distances_sum_to_m_squared():
    for m in (2, 4, 6, 8):
        inst = gen_line(m)
        dists = [inst.dist(i) for i in range(1, m + 1)]
        assert all(d == m for d in dists)
        assert sum(dists) == m * m


def test_line_closed_forms_values():
    import dataclasses

    assert dataclasses.astuple(line_closed_forms(2)) == (5, 4, 5, 4)
    assert dataclasses.astuple(line_closed_forms(4)) == (34, 16, 25, 11)
    assert dataclasses.astuple(line_closed_forms(6)) == (111, 36, 60, 18)


# ---------------------------------------------------------------------------
# 2x2 adversary


def test_adversary_branches_on_committed_middle_vertex():
    for middle, expected_start in ((1, 1), (2, 2)):
        adv = gen_2x2_adversary()
        t, agents = adv.next_event()
        assert (t, agents[0].start, agents[0].goal) == (0, 0, 3)
        adv.observe(0, {1: Path(0, (0, middle, 3))})
        t, agents = adv.next_event()
        assert t == 1
        assert agents[0].start == expected_start
        assert agents[0].goal == 0


def test_adversary_default_branch_for_senseless_commitments():
    adv = gen_2x2_adversary()
    adv.next_event()
    adv.observe(0, {1: Path(0, (0, 0, 1, 3))})  # waits at v1 through time 1
    _, agents = adv.next_event()
    assert agents[0].start == 1  # documented default: the v2 branch


def test_adversary_protocol_violation():
    adv = gen_2x2_adversary()
    adv.next_event()
    with pytest.raises(ProtocolViolation):
        adv.next_event()  # must observe the commitment first
    with pytest.raises(ProtocolViolation):
        adv.observe(0, {})  # no plan for agent 1


def test_adversary_determinism():
    outcomes = []
    for _ in range(2):
        adv = gen_2x2_adversary()
        adv.next_event()
        adv.observe(0, {1: Path(0, (0, 2, 3))})
        outcomes.append(adv.next_event())
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# SAT model and reduction

SAT_N2 = SatInstance(2, ((1, 2), (-1, 2), (1, -2)))


def test_sat_instance_validation():
    with pytest.raises(MalformedSat):
        SatInstance(1, ((1,), (1,), (1,)))  # never complemented
    with pytest.raises(MalformedSat):
        SatInstance(1, ((1,), (-1,)))  # only two occurrences
    with pytest.raises(MalformedSat):
        SatInstance(2, ((1, 2, 1), (-1,), (-2,), (2, -1)))  # duplicate in clause
    with pytest.raises(MalformedSat):
        SatInstance(1, ((1, 1, 1, 1),))  # oversized clause
    with pytest.raises(MalformedSat):
        SatInstance(1, ((1,), (1,), (-2,)))  # literal out of range
    for count in (0, -3, -5):
        with pytest.raises(MalformedSat, match="variable count must be at least 1"):
            SatInstance(count, ())


def test_sat_header_count_allocates_nothing_per_declared_variable():
    # A million declared variables, one or three literals: the check counts
    # only the variables that occur and still names the first bad one.
    tracemalloc.start()
    try:
        for text, message in (("p cnf 1000000 1\n1 0\n", "variable 1 occurs 1 times"),
                              ("p cnf 1000000 3\n1 0\n1 0\n-1 0\n", "variable 2 occurs 0 times")):
            with pytest.raises(MalformedSat, match=f"^{message}, needs exactly 3$"):
                parse_dimacs(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_parse_dimacs_roundtrip_and_errors():
    text = "c comment\np cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n"
    assert parse_dimacs(text) == SAT_N2
    assert parse_dimacs(dump_dimacs(SAT_N2)) == SAT_N2
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0")  # clause before header
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 3\n1 2 0\n-1 2 0")  # clause count mismatch
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 2")  # unterminated clause


@pytest.mark.parametrize("text, message", [
    ("p cnf 2\n1 2 0\n", "<cnf>:1: expected 'p cnf N M' header"),
    ("c comment\np sat 2 1\n1 2 0\n", "<cnf>:2: expected 'p cnf N M' header"),
    ("p cnf two 1\n1 2 0\n", "<cnf>:1: header counts must be integers"),
    ("p cnf 2 1\n1 x 0\n", "<cnf>:2: expected an integer literal, got 'x'"),
    ("c only a comment\n\n", "<cnf>:1: missing 'p cnf' header"),
    ("", "<cnf>:1: missing 'p cnf' header"),
])
def test_parse_dimacs_header_and_literal_errors(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_dimacs(text)
    assert str(excinfo.value) == message


def test_reduction_structure_for_two_variables():
    out = reduce_sat(SAT_N2)
    inst = out.instance
    n, m = 2, 3
    assert inst.m == 2 * n + m
    assert all(a.release == 0 for a in inst.agents)
    assert all(inst.dist(i) == 3 for i in range(1, inst.m + 1))
    # linear size: gadgets contribute a bounded number of vertices each
    assert inst.graph.vertex_count <= 11 * n + 4 * m
    labels = set(out.vertex_labels.values())
    assert {"v_1", "v_2", "s_1T", "t_2F", "c_1", "d_3"} <= labels
    assert out.agent_labels[1] == "a_1T"
    assert out.agent_labels[2 * n + 1] == "clause_1"
    # independent connectivity check from vertex 0
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for u in inst.graph.adjacency[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    assert len(seen) == inst.graph.vertex_count


def test_reduction_canonical_routes_have_length_three():
    out = reduce_sat(SAT_N2)
    for routes in ([*out.shared_paths.values()], [*out.private_paths.values()]):
        assert all(len(r) == 4 for r in routes)
    for routes in out.clause_paths.values():
        assert 1 <= len(routes) <= 3
        assert all(len(r) == 4 for r in routes)


def test_reduction_unsat_instance_needs_makespan_four():
    sat = SatInstance(1, ((1,), (1,), (-1,)))
    assert brute_force_assignment(sat) is None
    out = reduce_sat(sat)
    plan = offline_optimal(out.instance.graph, out.instance.agents, objective="makespan")
    metrics = evaluate(plan, range(1, out.instance.m + 1), out.instance)
    assert metrics.makespan == 4
    assert detect_conflicts(plan) == []
    with pytest.raises(NotMakespanThree):
        decode_assignment(out, plan)


def test_reduction_sat_instance_solves_in_three_and_decodes():
    assignment = brute_force_assignment(SAT_N2)
    assert assignment is not None
    out = reduce_sat(SAT_N2)
    plan = offline_optimal(out.instance.graph, out.instance.agents, objective="makespan")
    metrics = evaluate(plan, range(1, out.instance.m + 1), out.instance)
    assert metrics.makespan == 3
    assert metrics.flowtime == 3 * out.instance.m  # every agent takes 3 steps
    decoded = decode_assignment(out, plan)
    assert satisfies(SAT_N2, decoded)


def test_decode_reads_shared_routes():
    out = reduce_sat(SAT_N2)
    # hand-build a makespan-3 plan: X1 shared-true, X2 shared-true,
    # clause agents on routes crossing the private sides of true literals
    plan = {}
    plan[1] = Path(0, out.shared_paths[1])  # a_1T
    plan[2] = Path(0, out.private_paths[2])  # a_1F
    plan[3] = Path(0, out.shared_paths[3])  # a_2T
    plan[4] = Path(0, out.private_paths[4])  # a_2F
    # clause 1 = (x1 or x2): route over w_1T; clause 2 = (-x1 or x2): x2's
    # route; clause 3 = (x1 or -x2): x1's second-occurrence route
    plan[5] = Path(0, out.clause_paths[5][0])
    plan[6] = Path(0, out.clause_paths[6][1])
    plan[7] = Path(0, out.clause_paths[7][0])
    assert detect_conflicts(plan) == []
    decoded = decode_assignment(out, plan)
    assert decoded == {1: True, 2: True}
    assert satisfies(SAT_N2, decoded)


def test_decode_sets_a_variable_with_two_private_routes_true():
    # x1 true and x2 false satisfy every clause, so both of x3's literal
    # agents may take their private routes; the decoded x3 is then True.
    sat = SatInstance(3, ((-3, -2, -1), (1, 2, 3), (1, 2, 3)))
    out = reduce_sat(sat)
    routes = ["shared", "private", "private", "shared", "private", "private"]
    plan = {aid: Path(0, (out.shared_paths if kind == "shared" else out.private_paths)[aid])
            for aid, kind in enumerate(routes, start=1)}
    for aid, choice in zip((7, 8, 9), (1, 0, 0)):
        plan[aid] = Path(0, out.clause_paths[aid][choice])
    assert detect_conflicts(plan) == []
    assert evaluate(plan, range(1, out.instance.m + 1), out.instance).makespan == 3
    decoded = decode_assignment(out, plan)
    assert decoded == {1: True, 2: False, 3: True}
    assert satisfies(sat, decoded)


def test_at_most_one_shared_route_per_variable():
    out = reduce_sat(SAT_N2)
    both_shared = {
        1: Path(0, out.shared_paths[1]),
        2: Path(0, out.shared_paths[2]),
    }
    conflicts = detect_conflicts(both_shared)
    assert any(c.kind == "vertex" for c in conflicts)  # they meet at the junction


def _formula_classes(n):
    """Every <=3,=3 formula over exactly ``n`` variables, one per class under
    renaming and polarity flips, as sorted tuples of sorted clauses.

    A flip makes every variable occur twice positively and once negatively,
    so only renamings remain. Clauses are drawn as a multiset, in the order
    of ``candidates``, so each formula is built once."""
    candidates = [
        tuple(sorted(v * s for v, s in zip(vs, signs)))
        for size in (1, 2, 3)
        for vs in itertools.combinations(range(1, n + 1), size)
        for signs in itertools.product((1, -1), repeat=size)
    ]
    formulas = []

    def extend(start, left, clauses):
        if not any(left.values()):
            formulas.append(clauses)
            return
        for i in range(start, len(candidates)):
            clause = candidates[i]
            if all(left[lit] for lit in clause):
                for lit in clause:
                    left[lit] -= 1
                extend(i, left, clauses + [clause])
                for lit in clause:
                    left[lit] += 1

    extend(0, {lit: 2 if lit > 0 else 1 for v in range(1, n + 1) for lit in (v, -v)}, [])

    def renamed(clauses, names):
        rename = {v: w for v, w in enumerate(names, start=1)}
        return tuple(sorted(tuple(sorted(rename[lit] if lit > 0 else -rename[-lit] for lit in c))
                            for c in clauses))

    permutations = list(itertools.permutations(range(1, n + 1)))
    return sorted({min(renamed(clauses, names) for names in permutations)
                   for clauses in formulas})


def _connected(n, clauses):
    """Whether the variable-clause incidence graph is connected."""
    reached = {1}
    for _ in range(n):
        reached |= {abs(lit) for c in clauses if any(abs(x) in reached for x in c) for lit in c}
    return len(reached) == n


def test_reduction_iff_on_every_small_formula_class():
    # Every connected <=3,=3 formula with at most 3 variables, up to renaming
    # and polarity flips: optimal makespan 3 iff satisfiable.
    counts = {}
    for n in (1, 2, 3):
        classes = _formula_classes(n)
        connected = [c for c in classes if _connected(n, c)]
        counts[n] = len(classes), len(connected)
        for clauses in connected:
            sat = SatInstance(n, clauses)
            out = reduce_sat(sat)
            inst = out.instance
            plan = offline_optimal(inst.graph, inst.agents, objective="makespan")
            assert detect_conflicts(plan) == [], clauses
            makespan = evaluate(plan, range(1, inst.m + 1), inst).makespan
            assert (makespan == 3) == (brute_force_assignment(sat) is not None), clauses
            if makespan == 3:
                assert satisfies(sat, decode_assignment(out, plan)), clauses
    assert counts == {1: (1, 1), 2: (10, 9), 3: (108, 98)}


# ---------------------------------------------------------------------------
# random instances


def test_gen_random_is_deterministic():
    spec = RandomSpec(6, 6, 0.1, 5, 4, seed=13)
    assert gen_random(spec) == gen_random(spec)


def test_gen_random_density_zero_has_no_blocks():
    inst = gen_random(RandomSpec(4, 4, 0.0, 3, 2, seed=1))
    assert inst.graph.vertex_count == 16


def test_gen_random_validity():
    inst = gen_random(RandomSpec(8, 8, 0.1, 20, 6, seed=2))
    assert inst.m == 20
    releases = [a.release for a in inst.agents]
    assert releases == sorted(releases)
    assert all(0 <= r <= 6 for r in releases)
    assert all(a.start != a.goal for a in inst.agents)
    OnlineInstance(inst.graph, inst.agents)  # re-runs all invariant checks


def test_gen_random_raises_on_bad_worlds():
    with pytest.raises(EmptyWorld):
        gen_random(RandomSpec(3, 3, 1.0, 2, 0, seed=0))
    hit = False
    for seed in range(300):
        try:
            gen_random(RandomSpec(4, 4, 0.45, 2, 0, seed=seed))
        except DisconnectedWorld:
            hit = True
            break
        except EmptyWorld:
            continue
    assert hit
