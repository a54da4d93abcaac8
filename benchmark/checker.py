"""Independent checks of the program's outputs.

Nothing here calls into the program: plans are rechecked from their vertex
sequences with this module's own collision rules, distances come from this
module's own breadth-first search, and report files are read back from disk
with this module's own parsers. An agent is a tuple (start, goal, release)
and a plan maps agent id (1..m) to (start_time, vertices).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from pathlib import Path


def bfs(adjacency, source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


class World:
    """An instance as the checker sees it, with memoised distances."""

    def __init__(self, adjacency, agents):
        self.adjacency = [tuple(a) for a in adjacency]
        self.agents = {i: tuple(a) for i, a in enumerate(agents, start=1)}
        self._dist = {}

    def dist(self, agent_id: int) -> int:
        start, goal, _ = self.agents[agent_id]
        if goal not in self._dist:
            self._dist[goal] = bfs(self.adjacency, goal)
        return self._dist[goal][start]


def reservations(plan) -> tuple[set, set]:
    """Occupied (vertex, time) pairs and (from, to, departure) moves."""
    occupied, moving = set(), set()
    for start_time, vertices in plan.values():
        for j in range(len(vertices) - 1):
            occupied.add((vertices[j], start_time + j))
            if vertices[j] != vertices[j + 1]:
                moving.add((vertices[j], vertices[j + 1], start_time + j))
    return occupied, moving


def plan_problems(world: World, plan) -> list[str]:
    """Everything wrong with a plan for all of the world's agents."""
    ids = sorted(world.agents)
    problems = []
    if set(plan) != set(ids):
        return [f"plan covers agents {sorted(plan)}, expected {ids}"]
    occupied, moving = {}, {}
    for aid in ids:
        start, goal, release = world.agents[aid]
        start_time, vertices = plan[aid]
        if vertices[0] != start or vertices[-1] != goal:
            problems.append(f"agent {aid}: runs {vertices[0]}->{vertices[-1]}, not {start}->{goal}")
        if start_time < release:
            problems.append(f"agent {aid}: starts at {start_time} before its release {release}")
        if goal in vertices[:-1]:
            problems.append(f"agent {aid}: passes its goal before arriving")
        for j in range(len(vertices) - 1):
            u, v, t = vertices[j], vertices[j + 1], start_time + j
            if u != v and v not in world.adjacency[u]:
                problems.append(f"agent {aid}: step {u}->{v} is not an edge")
            other = occupied.setdefault((u, t), aid)
            if other != aid:
                problems.append(f"vertex collision of {other} and {aid} at {u}, t={t}")
            if u != v:
                other = moving.get((v, u, t))
                if other is not None:
                    problems.append(f"swap collision of {other} and {aid} on {u}-{v}, t={t}")
                moving[(u, v, t)] = aid
    return problems


def costs(world: World, plan, agent_ids=None) -> tuple[int, int, int]:
    """(flowtime, makespan, latency) of the plan over the given agents."""
    ids = sorted(world.agents) if agent_ids is None else agent_ids
    flow = make = dist_sum = 0
    for aid in ids:
        start_time, vertices = plan[aid]
        arrival = start_time + len(vertices) - 1
        flow += arrival - world.agents[aid][2]
        make = max(make, arrival)
        dist_sum += world.dist(aid)
    return flow, make, flow - dist_sum


def release_bounds(world: World) -> list[tuple[int, int, int, int]]:
    """Per release event: (time, revealed count, flowtime bound, makespan bound).

    The bounds are the costs of routing the revealed agents one at a time:
    the flowtime bound is m_k times their summed distances, and the makespan
    bound is where that sequential chain ends.
    """
    events = []
    chain = dist_sum = 0
    for aid in sorted(world.agents):
        release = world.agents[aid][2]
        d = world.dist(aid)
        chain = max(chain, release) + d
        dist_sum += d
        if events and events[-1][0] == release:
            events.pop()
        events.append((release, aid, aid * dist_sum, chain))
    return events


def ratio_text(alg: int, opt: int) -> str:
    """A ratio against a positive optimum as the reports spell it: the exact
    fraction shown as a float."""
    return repr(float(Fraction(alg, opt)))


# ---------------------------------------------------------------------------
# files


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_plan_csv(path: Path):
    header, rows = read_csv(path)
    if header != ["agent", "start_time", "arrival_time", "service_time", "path"]:
        raise ValueError(f"{path.name}: unexpected header {header}")
    plan, stated = {}, {}
    for agent, start_time, arrival, service, vertices in rows:
        plan[int(agent)] = (int(start_time), tuple(int(v) for v in vertices.split(";")))
        stated[int(agent)] = (int(arrival), int(service))
    return plan, stated


def read_graph(path: Path) -> list[list[int]]:
    lines = path.read_text().splitlines()
    head = lines[0].split()
    if head[0] != "vertices":
        raise ValueError(f"{path.name}: no 'vertices' header")
    adjacency = [[] for _ in range(int(head[1]))]
    for line in lines[1:]:
        if line.strip():
            u, v = (int(x) for x in line.split())
            adjacency[u].append(v)
            adjacency[v].append(u)
    return adjacency


def read_scenario(path: Path) -> list[tuple[int, int, int]]:
    """General-graph scenario lines ``id release start goal``."""
    agents = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            aid, release, start, goal = (int(x) for x in line.split())
            if aid != len(agents) + 1:
                raise ValueError(f"{path.name}: agent {aid} out of order")
            agents.append((start, goal, release))
    return agents


def run_report_problems(world: World, directory: Path) -> list[str]:
    """Recheck the plan.csv, report.csv and steps.csv of one ``solve`` run
    of a rational policy that never replans: committed paths do not change,
    so every step's costs must equal the final plan's costs over the agents
    revealed by then."""
    plan, stated = read_plan_csv(directory / "plan.csv")
    problems = plan_problems(world, plan)
    if problems:
        return problems
    for aid, (arrival, service) in stated.items():
        start_time, vertices = plan[aid]
        if arrival != start_time + len(vertices) - 1 or service != arrival - world.agents[aid][2]:
            problems.append(f"plan.csv: agent {aid} states arrival/service {arrival}/{service}")
    flow, make, latency = costs(world, plan)
    header, rows = read_csv(directory / "report.csv")
    report = dict(zip(header, rows[0]))
    got = (int(report["flowtime"]), int(report["makespan"]), int(report["latency"]))
    if got != (flow, make, latency):
        problems.append(f"report.csv: costs {got}, recomputed {(flow, make, latency)}")
    if report["conflicts"] != "0":
        problems.append(f"report.csv: {report['conflicts']} conflicts")
    header, rows = read_csv(directory / "steps.csv")
    bounds = release_bounds(world)
    if len(rows) != len(bounds):
        return problems + [f"steps.csv: {len(rows)} rows for {len(bounds)} release events"]
    all_ok = True
    for k, (row, (time, revealed, flow_bound, make_bound)) in enumerate(zip(rows, bounds), start=1):
        step = dict(zip(header, (int(x) for x in row)))
        if (step["k"], step["time"], step["flow_bound"], step["make_bound"]) != (
            k, time, flow_bound, make_bound
        ):
            problems.append(f"steps.csv row {k}: {row}, expected bounds {flow_bound}/{make_bound}")
        if (step["flowtime"], step["makespan"]) != costs(world, plan, range(1, revealed + 1))[:2]:
            problems.append(f"steps.csv row {k}: costs differ from the committed paths")
        if step["flow_ok"] != (step["flowtime"] <= flow_bound) or step["make_ok"] != (
            step["makespan"] <= make_bound
        ):
            problems.append(f"steps.csv row {k}: flags disagree with its costs")
        all_ok &= step["flow_ok"] == 1 and step["make_ok"] == 1
    last = dict(zip(header, (int(x) for x in rows[-1])))
    if (last["flowtime"], last["makespan"]) != (flow, make):
        problems.append("steps.csv: last row differs from the final plan")
    if int(report["rational_all_steps"]) != all_ok:
        problems.append("report.csv: rational_all_steps disagrees with steps.csv")
    if not all_ok:
        problems.append("a rational policy broke a release-time bound")
    return problems
