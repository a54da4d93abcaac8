"""The three workloads. Each ``*_pass`` function makes its inputs from the
seed alone, calls the program, and checks every output with ``checker`` and
``oracle``, never with the program's own checks. Every pass of one run
therefore makes the same program calls in the same order.

Timing covers program calls only: ``Pass.setup`` times input generation,
writing and parsing; ``Pass.case`` times one program call (a CLI verb, an
``onmapf.run`` or an ``offline_optimal``). Checks run outside both.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time
import traceback
from pathlib import Path

import onmapf as om
from onmapf import bench as cli
from onmapf.errors import DisconnectedWorld, EmptyWorld

import checker
import oracle
from checker import World


class Pass:
    """What one pass over a workload measured and found."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.setup_s = 0.0
        self.case_s: list[tuple[str, float]] = []
        self.events_ms: list[float] = []
        self.attempted = 0
        self.failed: list[str] = []
        self.unexpected: list[str] = []
        self.notes: list[str] = []

    @contextlib.contextmanager
    def setup(self):
        start = time.perf_counter()
        yield
        self.setup_s += time.perf_counter() - start

    @contextlib.contextmanager
    def case(self, name: str, event: bool = True):
        """Time one program call; ``event`` adds it to the latency sample."""
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        self.case_s.append((name, seconds))
        if event:
            self.events_ms.append(seconds * 1e3)

    def op(self, name: str, body, known_fault: bool = False) -> None:
        """Run one operation: ``body`` calls the program and returns the
        problems its checks found. A failure is expected only for an
        operation marked ``known_fault``; any other one makes the run
        incorrect."""
        self.attempted += 1
        try:
            problems = body()
        except Exception as exc:  # the pass must go on and report it
            problems = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc()
        if problems:
            self.failed.append(name)
            if not known_fault:
                self.unexpected.append(f"{name}: {'; '.join(problems[:3])}")

    def wall_s(self) -> float:
        return sum(seconds for _, seconds in self.case_s)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in this process, output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def write_instance(directory: Path, name: str, instance) -> tuple[Path, Path]:
    """Write an instance in the general-graph formats; returns both paths."""
    graph_path = directory / f"{name}.graph"
    scen_path = directory / f"{name}.scen"
    graph_path.write_text(om.world.dump_graph(instance.graph))
    scen_path.write_text(om.core.dump_scenario(instance.agents))
    return graph_path, scen_path


def parse_instance(graph_path: Path, scen_path: Path):
    """Parse an instance with the program's readers: a fresh graph, so its
    distance cache starts empty as in a new process."""
    graph = om.world.load_graph(graph_path.read_text(), str(graph_path))
    agents = om.core.load_scenario(scen_path.read_text(), graph=graph, source=str(scen_path))
    return om.OnlineInstance(graph, tuple(agents))


def read_world(graph_path: Path, scen_path: Path) -> World:
    """The checker's own reading of the same files."""
    return World(checker.read_graph(graph_path), checker.read_scenario(scen_path))


def plan_tuples(plan) -> dict:
    return {aid: (path.start_time, tuple(path.vertices)) for aid, path in plan.items()}


def exit_problems(code: int, output: str) -> list[str]:
    return [f"exit code {code}: {output.strip()[-200:]}"] if code else []


# ---------------------------------------------------------------------------
# line-replan: the paper's line family and 2x2 adversary through the CLI

MODES = ("new-single", "new", "all")
OBJECTIVES = ("flowtime", "makespan")
LINE_M = (2, 4, 6, 8)
ALL_MODE_M = (2, 4, 6)  # m = 8 in mode all takes over a minute per pass
SWEEP_POLICIES = ("sequence",) + tuple(
    f"opt-rational:{mode}:{objective}" for mode in MODES for objective in OBJECTIVES
)
RATIO_POLICIES = tuple(
    ["--policy", "sequence", "--objective", objective] for objective in OBJECTIVES
) + tuple(
    ["--policy", "opt-rational", "--mode", mode, "--objective", objective] + wrap
    for wrap in ([], ["--rationalize"])
    for mode in MODES
    for objective in OBJECTIVES
)
# The open 2x2 grid, row-major: 0 1 / 2 3.
SQUARE = ((1, 2), (0, 3), (0, 3), (1, 2))


def line_forms(m: int) -> tuple[int, int, int, int]:
    """(rational flowtime, rational makespan, optimal flowtime, optimal makespan)."""
    return (m**3 + m) // 2, m * m, (15 * m * m - 10 * m) // 8, (7 * m - 6) // 2


def line_replan_pass(seed: int, workdir: Path) -> Pass:
    p = Pass(workdir)
    with p.setup():
        lines = {}
        for m in LINE_M:
            paths = write_instance(workdir, f"line-{m}", om.gen_line(m))
            lines[m] = parse_instance(*paths)
    for m, inst in lines.items():
        p.op(f"line m={m} generator", lambda m=m, inst=inst: _line_shape_problems(m, inst))

    calls = [("sweep", policy) for policy in SWEEP_POLICIES]
    calls += [("ratio", tuple(tail)) for tail in RATIO_POLICIES]
    random.Random(f"line-replan/{seed}").shuffle(calls)
    for number, (verb, what) in enumerate(calls):
        if verb == "sweep":
            out = workdir / f"sweep-{number}"
            p.op(f"sweep {what}", lambda what=what, out=out: _sweep(p, what, out))
        else:
            p.op(f"ratio 2x2 {' '.join(what)}", lambda what=what: _ratio_2x2(p, what))
    return p


def _line_shape_problems(m, inst) -> list[str]:
    expected = [(0, m, i - 1) if i % 2 else (m, 0, i - 1) for i in range(1, m + 1)]
    got = [(a.start, a.goal, a.release) for a in inst.agents]
    path = [(v + 1,) if v == 0 else (v - 1,) if v == m else (v - 1, v + 1) for v in range(m + 1)]
    if got != expected or [tuple(a) for a in inst.graph.adjacency] != path:
        return [f"gen_line({m}) is not the line family"]
    return []


def _sweep(p: Pass, descriptor: str, out: Path) -> list[str]:
    ms = ALL_MODE_M if ":all:" in descriptor else LINE_M
    argv = ["sweep", "--family", "line", "--m-list", ",".join(map(str, ms)),
            "--policies", descriptor, "--out", str(out)]
    with p.case(f"sweep {descriptor}"):
        code, output = run_cli(argv)
    if code:
        return exit_problems(code, output)
    parts = descriptor.split(":")
    name = "sequence" if len(parts) == 1 else f"opt-rational({parts[1]}:{parts[2]})"
    header, rows = checker.read_csv(out / "sweep.csv")
    if header != ["m", "policy", "flowtime", "makespan", "ratio_flow", "ratio_make"]:
        return [f"sweep.csv header {header}"]
    if [int(row[0]) for row in rows] != list(ms):
        return [f"sweep.csv rows for m = {[row[0] for row in rows]}"]
    problems = []
    for m_text, policy, flow_text, make_text, ratio_flow, ratio_make in rows:
        m, flow, make = int(m_text), int(flow_text), int(make_text)
        rational_flow, rational_make, opt_flow, opt_make = line_forms(m)
        if policy != name:
            problems.append(f"m={m}: policy column {policy!r}, expected {name!r}")
        if len(parts) > 1 and parts[1] == "all":
            if not (opt_flow <= flow <= rational_flow and opt_make <= make <= rational_make):
                problems.append(f"m={m}: all-mode costs {flow}/{make} outside "
                                f"[{opt_flow}, {rational_flow}] / [{opt_make}, {rational_make}]")
        elif (flow, make) != (rational_flow, rational_make):
            problems.append(f"m={m}: costs {flow}/{make}, expected {rational_flow}/{rational_make}")
        ratios = (checker.ratio_text(flow, opt_flow), checker.ratio_text(make, opt_make))
        if (ratio_flow, ratio_make) != ratios:
            problems.append(f"m={m}: ratios {ratio_flow}/{ratio_make} do not match the costs")
    return problems


RUN_LINE = re.compile(
    r"policy (?P<name>.+): flowtime (?P<flow>\d+), makespan (?P<make>\d+), latency (?P<latency>\d+); "
    r"conflicts (?P<conflicts>\d+); rational at every step: (?P<rational>yes|NO)"
)
RATIO_LINE = re.compile(
    r"(?P<objective>\w+) ratio: (?P<alg>\d+)/(?P<opt>\d+) = (?P<ratio>\S+) \(additive gap (?P<gap>-?\d+)\)"
)


def _ratio_2x2(p: Pass, tail: tuple[str, ...]) -> list[str]:
    """One ``ratio`` call on the adaptive 2x2 adversary, checked from its
    printed report, and the same policy run through ``onmapf.run`` so that
    its plan can be rechecked. The call writes no files: writing its three
    reports took a quarter of its 3 ms, and that part drifted by a factor of
    two from run to run."""
    with p.case(f"ratio 2x2 {' '.join(tail)}"):
        code, output = run_cli(["ratio", "--family", "2x2-adversary", *tail])
    if code:
        return exit_problems(code, output)
    objective = tail[tail.index("--objective") + 1]
    policy = (om.sequence_policy() if "sequence" in tail
              else om.opt_rational(tail[tail.index("--mode") + 1], objective))
    if "--rationalize" in tail:
        policy = om.rationalize_wrap(policy)
    with p.case(f"run 2x2 {policy.name}"):
        trace = om.run(om.gen_2x2_adversary(), policy)
    plan = plan_tuples(trace.plan)
    # The adversary puts agent 2 on the middle vertex agent 1 holds at time 1.
    start_time, vertices = plan[1]
    at_one = vertices[1 - start_time] if start_time <= 1 < start_time + len(vertices) else None
    agents = [(0, 3, 0), (2 if at_one == 2 else 1, 0, 1)]
    world = World(SQUARE, agents)
    problems = checker.plan_problems(world, plan) or _snapshot_problems(world, trace, policy)
    if problems:
        return problems
    costs = checker.costs(world, plan)
    if costs != (4, 3, 1):
        problems.append(f"costs {costs}, expected (4, 3, 1)")
    optimum = {goal: oracle.joint_optimum(SQUARE, agents, goal) for goal in OBJECTIVES}
    opt_latency = optimum["flowtime"] - sum(world.dist(aid) for aid in world.agents)
    if (optimum["flowtime"], optimum["makespan"], opt_latency) != (3, 2, 0):
        problems.append(f"oracle optimum {optimum}, expected (3, 2, 0)")
    run_line, ratio_line = RUN_LINE.search(output), RATIO_LINE.search(output)
    if run_line is None or ratio_line is None:
        return problems + [f"unreadable report: {output.strip()[:200]}"]
    printed = tuple(int(run_line[key]) for key in ("flow", "make", "latency"))
    if (run_line["name"], printed, run_line["conflicts"], run_line["rational"]) != (
        policy.name, costs, "0", "yes"
    ):
        problems.append(f"printed run {run_line.group(0)!r}")
    alg = costs[OBJECTIVES.index(objective)]
    opt = optimum[objective]
    expected = (objective, str(alg), str(opt), checker.ratio_text(alg, opt), str(alg - opt))
    if tuple(ratio_line[key] for key in ("objective", "alg", "opt", "ratio", "gap")) != expected:
        problems.append(f"printed ratio {ratio_line.group(0)!r}, expected {expected}")
    return problems


# ---------------------------------------------------------------------------
# grid-stream: many agents revealed over time on seeded 32x32 grids

GRID_SIDE = 32
GRID_DENSITY = 0.1
GRID_AGENTS = (50, 100, 200)
RELEASE_SPAN = 2  # releases drawn from 0 .. 2 x agents
REACHABILITY_SAMPLE = 10  # new-single agents rechecked per instance


def grid_policies():
    return (
        om.sequence_policy(),
        om.opt_rational("new-single", "flowtime"),
        om.rationalize_wrap(om.opt_rational("new-single", "flowtime")),
        om.opt_rational("new", "flowtime"),
    )


class TimedReplay(om.RevealSource):
    """Replays an instance's release groups and times each release event
    from the moment ``next_event`` hands it out until ``observe``."""

    def __init__(self, instance):
        self.instance = instance
        self.groups = {}
        for agent in instance.agents:
            self.groups.setdefault(agent.release, []).append(agent)
        self.order = sorted(self.groups)
        self.latencies_ms: list[float] = []
        self._next = 0
        self._handed_out = None

    def graph(self):
        return self.instance.graph

    def next_event(self):
        if self._next == len(self.order):
            return None
        time_k = self.order[self._next]
        self._next += 1
        self._handed_out = time.perf_counter()
        return time_k, list(self.groups[time_k])

    def observe(self, time_k, plan):
        self.latencies_ms.append((time.perf_counter() - self._handed_out) * 1e3)


def grid_stream_pass(seed: int, workdir: Path) -> Pass:
    p = Pass(workdir)
    rng = random.Random(f"grid-stream/{seed}")
    policies = grid_policies()
    with p.setup():
        files, validated = {}, {}
        for n in GRID_AGENTS:
            while True:
                spec = om.RandomSpec(GRID_SIDE, GRID_SIDE, GRID_DENSITY, n, RELEASE_SPAN * n,
                                     rng.randrange(2**31))
                try:
                    generated = om.gen_random(spec)
                    break
                except DisconnectedWorld:
                    continue
            files[n] = write_instance(workdir, f"grid-{n}", generated)
            validated[n] = run_cli(["validate", "--graph", str(files[n][0]), "--scen", str(files[n][1])])
        # one fresh parse per run, so that no run inherits another's caches
        parsed = {(n, k): parse_instance(*files[n]) for n in GRID_AGENTS for k in range(len(policies))}
    for n in GRID_AGENTS:
        p.op(f"validate grid n={n}", lambda n=n: exit_problems(*validated[n]))
        world = read_world(*files[n])
        sample = rng.sample(range(1, n + 1), REACHABILITY_SAMPLE)
        for k, policy in enumerate(policies):
            p.op(f"{policy.name} n={n}",
                 lambda k=k, policy=policy, n=n: _grid_run(p, parsed[(n, k)], policy, world, sample))
    return p


def _snapshot_problems(world: World, trace, policy) -> list[str]:
    """Each release event's snapshot against the independently computed
    bounds; every policy run here is rational, so the bounds must hold."""
    bounds = checker.release_bounds(world)
    if len(trace.snapshots) != len(bounds):
        return [f"{len(trace.snapshots)} snapshots for {len(bounds)} release events"]
    problems = []
    for snap, (time_k, revealed, flow_bound, make_bound) in zip(trace.snapshots, bounds):
        flow, make, _ = checker.costs(world, plan_tuples(snap.plan), range(1, revealed + 1))
        if snap.time != time_k or len(snap.plan) != revealed:
            problems.append(f"snapshot {snap.k}: time {snap.time} with {len(snap.plan)} agents")
        elif (snap.flow_ok, snap.make_ok) != (flow <= flow_bound, make <= make_bound):
            problems.append(f"snapshot {snap.k}: bound flags disagree with costs {flow}/{make}")
        elif not (snap.flow_ok and snap.make_ok):
            problems.append(f"snapshot {snap.k}: rational policy over its bounds")
        if snap.fallback and not policy.rationalized:
            problems.append(f"snapshot {snap.k}: fallback without rationalization")
    return problems


def _grid_run(p: Pass, inst, policy, world: World, sample) -> list[str]:
    source = TimedReplay(inst)
    with p.case(f"{policy.name} m={inst.m}", event=False):
        trace = om.run(source, policy)
    p.events_ms.extend(source.latencies_ms)
    plan = plan_tuples(trace.plan)
    problems = checker.plan_problems(world, plan)
    if problems:
        return problems
    recomputed = checker.costs(world, plan)
    stated = (trace.metrics.flowtime, trace.metrics.makespan, trace.metrics.latency)
    if stated != recomputed:
        problems.append(f"metrics {stated}, recomputed {recomputed}")
    if trace.conflicts:
        problems.append(f"the program reports {len(trace.conflicts)} conflicts in a valid plan")
    problems += _snapshot_problems(world, trace, policy)
    if policy.planner == "sequence":
        chain = 0
        for aid in sorted(plan):
            start_time, vertices = plan[aid]
            chain = max(chain, world.agents[aid][2]) + world.dist(aid)
            if (start_time + len(vertices) - 1, len(vertices) - 1) != (chain, world.dist(aid)):
                problems.append(f"agent {aid}: not the sequential chain")
                break
    elif policy.mode == "new-single" and not policy.rationalized:
        for aid in sample:
            start, goal, release = world.agents[aid]
            occupied, moving = checker.reservations({i: plan[i] for i in range(1, aid)})
            earliest = oracle.earliest_arrival(world.adjacency, start, goal, release, occupied, moving)
            start_time, vertices = plan[aid]
            if start_time + len(vertices) - 1 != earliest:
                problems.append(f"agent {aid}: arrives {start_time + len(vertices) - 1}, "
                                f"earliest possible {earliest}")
    return problems


# ---------------------------------------------------------------------------
# offline-sat: the SAT reduction and tiny joint searches

HAND_FORMULAS = (
    ("n1-unsat-a", 1, ((1,), (1,), (-1,))),
    ("n1-unsat-b", 1, ((1,), (-1,), (-1,))),
    ("n2-sat-a", 2, ((1, 2), (-1, 2), (1, -2))),
    ("n2-sat-b", 2, ((1, 2), (-1, -2), (1, -2))),
    ("n2-unsat", 2, ((1, 2), (-1, -2), (1,), (2,))),
    ("n3-sat", 3, ((1, 2, 3), (-1, 2), (1, -2, 3), (-3,))),
    ("n3-unsat", 3, ((1, 2), (-1, -2), (1, 3), (2,), (-3,), (-3,))),
)
# Random formulas stay at 2 variables (8 agents): 3-variable ones cost
# 0.03 s to 0.3 s each, so a few of them would make the pass time depend on
# the seed; the hand-built formulas carry the 10- and 12-agent gadgets.
RANDOM_CLAUSE_SIZES = (2, 2, 1, 1)
RANDOM_PER_VERDICT = 3  # satisfiable and unsatisfiable formulas per pass
# Seeded tiny instances (2 or 3 agents, at most 6 vertices) may not beat the
# brute-force optimum. A cost above it is printed as a note, not counted as a
# failure: the fault below hits about one seeded solve in a hundred, and a
# failure count that depends on the seed would not compare between runs.
TINY_SHAPES = ((2, 2), (2, 3), (3, 2), (1, 4), (1, 5), (1, 6))
TINY_COUNT = 24
TINY_MAX_RELEASE = 2
# Flowtime optimum 7, which offline_optimal misses (it returns 8) because its
# closed-set key leaves out the moves already made in the current layer. It
# fails on every run, so it is the one operation counted as failed.
COUNTEREXAMPLE = (4, ((0, 1), (0, 3), (1, 2), (1, 3)), ((0, 2, 0), (3, 2, 2), (2, 3, 2)))


def offline_sat_pass(seed: int, workdir: Path) -> Pass:
    p = Pass(workdir)
    rng = random.Random(f"offline-sat/{seed}")
    formulas = list(HAND_FORMULAS)
    wanted = {True: RANDOM_PER_VERDICT, False: RANDOM_PER_VERDICT}
    while any(wanted.values()):
        n, clauses = oracle.random_formula(rng, RANDOM_CLAUSE_SIZES)
        verdict = oracle.brute_force_sat(n, clauses) is not None
        if wanted[verdict]:
            wanted[verdict] -= 1
            formulas.append((f"random-{len(formulas)}-{'sat' if verdict else 'unsat'}", n, clauses))

    with p.setup():
        gadgets = []
        for name, n, clauses in formulas:
            cnf = workdir / f"{name}.cnf"
            cnf.write_text(om.adversary.dump_dimacs(om.SatInstance(n, clauses)))
            reduction = om.reduce_sat(om.parse_dimacs(cnf.read_text(), str(cnf)))
            gadgets.append((name, n, clauses, reduction, write_instance(workdir, name, reduction.instance)))
        tiny = []
        while len(tiny) < TINY_COUNT:
            height, width = TINY_SHAPES[len(tiny) % len(TINY_SHAPES)]
            spec = om.RandomSpec(height, width, 0.15, 2 + len(tiny) % 2, TINY_MAX_RELEASE,
                                 rng.randrange(2**31))
            try:
                # one copy per objective, so that each solve starts from a fresh graph
                instances = [om.gen_random(spec) for _ in OBJECTIVES]
            except (DisconnectedWorld, EmptyWorld):
                continue
            tiny.append((f"tiny-{len(tiny)}", instances))
        vertices, edges, agents = COUNTEREXAMPLE
        counter = [
            om.OnlineInstance(om.world.build_graph(vertices, edges),
                              tuple(om.Agent(i, s, g, r) for i, (s, g, r) in enumerate(agents, 1)))
            for _ in OBJECTIVES
        ]

    for name, n, clauses, reduction, files in gadgets:
        p.op(f"sat {name}", lambda args=(name, n, clauses, reduction, files): _sat_solve(p, *args))
    above = []
    for name, instances in tiny:
        world = _world_of(instances[0])
        for objective, inst in zip(OBJECTIVES, instances):
            p.op(f"{name} {objective}",
                 lambda o=objective, i=inst, w=world, nm=name: _tiny_solve(p, nm, i, w, o, above))
    world = _world_of(counter[0])
    for objective, inst in zip(OBJECTIVES, counter):
        p.op(f"counterexample {objective}",
             lambda o=objective, i=inst: _tiny_solve(p, "counterexample", i, world, o, None),
             known_fault=objective == "flowtime")
    if above:
        p.notes.append(f"{len(above)} of {2 * TINY_COUNT} seeded tiny solves above the "
                       f"brute-force optimum: {', '.join(above)}")
    return p


def _sat_solve(p: Pass, name, n, clauses, reduction, files) -> list[str]:
    out = p.workdir / f"solve-{name}"
    argv = ["solve", "--graph", str(files[0]), "--scen", str(files[1]), "--policy", "opt-rational",
            "--mode", "new", "--objective", "makespan", "--out", str(out)]
    with p.case(f"solve {name}"):
        code, output = run_cli(argv)
    if code:
        return exit_problems(code, output)
    world = read_world(*files)
    problems = [f"agent {aid}: distance {world.dist(aid)}, not 3"
                for aid in world.agents if world.dist(aid) != 3]
    problems += checker.run_report_problems(world, out)
    if problems:
        return problems
    plan, _ = checker.read_plan_csv(out / "plan.csv")
    makespan = checker.costs(world, plan)[1]
    satisfiable = oracle.brute_force_sat(n, clauses) is not None
    if makespan != (3 if satisfiable else 4):
        return [f"makespan {makespan} for a {'satisfiable' if satisfiable else 'unsatisfiable'} formula"]
    if makespan == 3:
        paths = {aid: om.Path(start_time, vertices) for aid, (start_time, vertices) in plan.items()}
        with p.case(f"decode {name}", event=False):
            assignment = om.decode_assignment(reduction, paths)
        if not oracle.formula_holds(clauses, assignment):
            return [f"decoded assignment {assignment} does not satisfy the formula"]
    return []


def _world_of(inst) -> World:
    return World(inst.graph.adjacency, [(a.start, a.goal, a.release) for a in inst.agents])


def _tiny_solve(p: Pass, name, inst, world: World, objective: str, above) -> list[str]:
    """``above`` collects seeded instances whose cost exceeds the optimum;
    None demands the optimum exactly."""
    with p.case(f"offline_optimal {name} {objective}"):
        plan = om.offline_optimal(inst.graph, inst.agents, objective=objective)
    plan = plan_tuples(plan)
    problems = checker.plan_problems(world, plan)
    if problems:
        return problems
    cost = checker.costs(world, plan)[OBJECTIVES.index(objective)]
    optimum = oracle.joint_optimum(world.adjacency, [world.agents[i] for i in sorted(world.agents)],
                                   objective)
    if cost < optimum:
        return [f"{objective} {cost} below the brute-force optimum {optimum}"]
    if cost > optimum:
        if above is None:
            return [f"{objective} {cost}, brute-force optimum {optimum}"]
        above.append(f"{name} {objective} {cost}>{optimum}")
    return []


WORKLOADS = {
    "line-replan": line_replan_pass,
    "grid-stream": grid_stream_pass,
    "offline-sat": offline_sat_pass,
}
