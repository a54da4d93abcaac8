"""Benchmark CLI: run policies on instances or adversaries, compute metrics
and empirical cost ratios, and emit machine-readable CSV reports.

Verbs: ``solve``, ``ratio``, ``sweep``, ``reduce-sat``, ``validate``.
Exit codes: 0 on success, 1 on a validation failure (conflicts, bound or
budget violations, disconnected worlds), 2 on parse or configuration errors.
All outputs are CSV with fixed column orders (see README) and are byte-stable
for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path as FilePath

from . import adversary, core, online, world
from .core import OnlineInstance, RatioReport
from .errors import (
    BudgetExhausted,
    DisconnectedWorld,
    EmptyWorld,
    InvalidEdge,
    MalformedSat,
    OddM,
    ParseError,
)
from .search import NODE_BUDGET, offline_optimal

REPORT_COLUMNS = (
    "policy,mode,objective,agents,flowtime,makespan,latency,conflicts,"
    "rational_all_steps,fallback_steps,alg_cost,opt_cost,ratio,additive_gap"
)
STEP_COLUMNS = "k,time,flowtime,makespan,flow_bound,make_bound,flow_ok,make_ok,fallback"
SWEEP_COLUMNS = "m,policy,flowtime,makespan,ratio_flow,ratio_make"


class ValidationFailure(Exception):
    """Input parsed fine but the result or file violates an invariant."""


class ConfigError(Exception):
    """Inconsistent or unsupported flag combination."""


def _ratio_str(value) -> str:
    if value == math.inf:
        return "inf"
    return repr(float(value))


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(str(x) for x in row) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# sources and policies from flags


def _source_kind(args: argparse.Namespace) -> str:
    """The input kind: "files" or the ``--family`` name."""
    if args.family:
        if args.map or args.graph or args.scen:
            raise ConfigError("give either --family or input files, not both")
        return args.family
    if args.map or args.graph:
        return "files"
    raise ConfigError("no input: use --family or --map/--graph with --scen")


def _load_graph(args: argparse.Namespace):
    """The ``--map`` (preferred) or ``--graph`` world, with the keyword that
    scenario parsing needs for it; returns (path, graph, scenario kwargs)."""
    if args.map:
        grid = world.load_map(_read(args.map), args.map)
        return args.map, grid.to_graph(), {"grid": grid}
    graph = world.load_graph(_read(args.graph), args.graph)
    return args.graph, graph, {"graph": graph}


def _build_source(args: argparse.Namespace):
    """Returns (RevealSource, fixed OnlineInstance or None)."""
    kind = _source_kind(args)
    if kind == "2x2-adversary":
        return adversary.gen_2x2_adversary(), None
    if kind == "files":
        _, graph, scen_kw = _load_graph(args)
        if not args.scen:
            raise ConfigError("file source needs --scen")
        agents = core.load_scenario(_read(args.scen), source=args.scen, **scen_kw)
        if not agents:
            raise ConfigError(f"{args.scen}: scenario has no agents")
        inst = OnlineInstance(graph, tuple(agents))
    elif kind == "line":
        if args.m is None:
            raise ConfigError("--family line needs --m")
        inst = adversary.gen_line(args.m)
    else:
        if args.m is None or args.m < 1:
            raise ConfigError("--family grid-random needs --m >= 1 (agent count)")
        spec = adversary.RandomSpec(
            height=8, width=8, density=0.1, agents=args.m, max_release=10, seed=args.seed
        )
        inst = adversary.gen_random(spec)
    return online.InstanceSource(inst), inst


def _planning_objective(objective: str) -> str:
    # A plan is latency-optimal iff it is flowtime-optimal.
    return "flowtime" if objective == "latency" else objective


def _oracle(args: argparse.Namespace, inst: OnlineInstance):
    """The full-knowledge optimal plan of a fixed instance, bounded by
    ``--node-budget``."""
    return offline_optimal(
        inst.graph, inst.agents, objective=_planning_objective(args.objective),
        node_budget=args.node_budget,
    )


def _build_policy(args: argparse.Namespace, optimum):
    """The policy the flags name; ``custom-irrational`` replays ``optimum``."""
    if args.policy == "sequence":
        policy = online.sequence_policy()
    elif args.policy == "opt-rational":
        policy = online.opt_rational(args.mode, _planning_objective(args.objective))
    else:  # custom-irrational
        policy = online.replay_policy(optimum)
    if args.rationalize:
        policy = online.rationalize_wrap(policy)
    return policy


# ---------------------------------------------------------------------------
# verbs


def _ratio(args: argparse.Namespace, trace: online.SimulationTrace, optimum) -> RatioReport:
    """The run's cost against the optimum: closed forms on the line, else
    ``optimum`` (solved here if None)."""
    inst = trace.instance
    if args.family == "line":
        opt = adversary.line_closed_forms(args.m)
        opt_flow, opt_make = opt.opt_flow, opt.opt_make
    else:
        if optimum is None:
            optimum = _oracle(args, inst)
        opt = core.evaluate(optimum, range(1, inst.m + 1), inst)
        opt_flow, opt_make = opt.flowtime, opt.makespan
    if args.objective == "flowtime":
        return RatioReport.of(trace.metrics.flowtime, opt_flow)
    if args.objective == "makespan":
        return RatioReport.of(trace.metrics.makespan, opt_make)
    # latency is flowtime less the agents' shortest distances, which both plans share
    dist_sum = trace.metrics.flowtime - trace.metrics.latency
    return RatioReport.of(trace.metrics.latency, opt_flow - dist_sum)


def cmd_run(args: argparse.Namespace, with_ratio: bool) -> None:
    """``solve``, or with the optimum's cost ratio, ``ratio``."""
    source, fixed_instance = _build_source(args)
    optimum = None
    if args.policy == "custom-irrational":
        if fixed_instance is None:
            raise ConfigError("custom-irrational replays a fixed instance's optimum; "
                              "not available against an adaptive adversary")
        optimum = _oracle(args, fixed_instance)
    policy = _build_policy(args, optimum)
    trace = online.run(source, policy, args.node_budget)
    r = _ratio(args, trace, optimum) if with_ratio else None
    m = trace.metrics
    rational = all(snap.flow_ok and snap.make_ok for snap in trace.snapshots)
    print(
        f"policy {policy.name}: flowtime {m.flowtime}, makespan {m.makespan}, "
        f"latency {m.latency}; conflicts {len(trace.conflicts)}; "
        f"rational at every step: {'yes' if rational else 'NO'}"
    )
    if r is not None:
        print(
            f"{args.objective} ratio: {r.algorithm_cost}/{r.optimal_cost} = "
            f"{_ratio_str(r.ratio)} (additive gap {r.additive_gap})"
        )
    if args.out:
        ratio_cells = ("",) * 4
        if r is not None:
            ratio_cells = (r.algorithm_cost, r.optimal_cost, _ratio_str(r.ratio), r.additive_gap)
        report = (
            policy.name, policy.mode, args.objective, trace.instance.m,
            m.flowtime, m.makespan, m.latency, len(trace.conflicts), int(rational),
            sum(snap.fallback for snap in trace.snapshots), *ratio_cells,
        )
        steps = (
            (snap.k, snap.time, snap.metrics.flowtime, snap.metrics.makespan, *snap.bounds,
             int(snap.flow_ok), int(snap.make_ok), int(snap.fallback))
            for snap in trace.snapshots
        )
        _write_files(args.out, {
            "plan.csv": core.plan_to_csv(trace.plan, trace.instance),
            "report.csv": _csv(REPORT_COLUMNS, [report]),
            "steps.csv": _csv(STEP_COLUMNS, steps),
        })
    if trace.conflicts:
        raise ValidationFailure(f"plan has {len(trace.conflicts)} conflicts")


def _parse_policy_descriptor(text: str):
    """sweep policy syntax: ``sequence`` or ``opt-rational:MODE:OBJECTIVE``."""
    parts = text.split(":")
    if parts[0] == "sequence" and len(parts) == 1:
        return online.sequence_policy()
    if parts[0] == "opt-rational" and len(parts) == 3:
        return online.opt_rational(parts[1], _planning_objective(parts[2]))
    raise ConfigError(f"bad policy descriptor {text!r}")


def cmd_sweep(args: argparse.Namespace) -> None:
    m_list = []
    forms = {}  # computing each m's closed forms checks it before anything runs
    for tok in filter(None, args.m_list.split(",")):
        try:
            m = int(tok)
        except ValueError:
            raise ConfigError(f"bad --m-list entry {tok!r}") from None
        m_list.append(m)
        forms[m] = adversary.line_closed_forms(m)
    policies = [_parse_policy_descriptor(tok) for tok in args.policies.split(",") if tok]
    if not m_list:
        raise ConfigError("--m-list names no m")
    rows = []
    monotone_ok = True
    for policy in policies:
        ratios = {}  # m -> (flowtime ratio, makespan ratio)
        for m in m_list:
            trace = online.run(online.InstanceSource(adversary.gen_line(m)), policy,
                               args.node_budget)
            if trace.conflicts:
                raise ValidationFailure(f"conflicts on line m={m} under {policy.name}")
            flow_ratio = RatioReport.of(trace.metrics.flowtime, forms[m].opt_flow).ratio
            make_ratio = RatioReport.of(trace.metrics.makespan, forms[m].opt_make).ratio
            rows.append((m, policy.name, trace.metrics.flowtime, trace.metrics.makespan,
                         _ratio_str(flow_ratio), _ratio_str(make_ratio)))
            ratios[m] = flow_ratio, make_ratio
        if policy.mode in ("new-single", "new"):
            # Rows keep the --m-list order; the check reads the distinct
            # m >= 4 in increasing order.
            rising = [ratios[m] for m in sorted(ratios) if m >= 4]
            monotone_ok &= all(a[0] < b[0] and a[1] < b[1] for a, b in zip(rising, rising[1:]))
    table = _csv(SWEEP_COLUMNS, rows)
    if args.out:
        _write_files(args.out, {"sweep.csv": table})
    else:
        sys.stdout.write(table)
    if policies:
        print(f"monotone-ratio-check: {'ok' if monotone_ok else 'FAILED'}")
    if not monotone_ok:
        raise ValidationFailure("ratios are not strictly increasing for m >= 4")


def cmd_reduce(cnf_path: str, out_dir: str) -> None:
    sat = adversary.parse_dimacs(_read(cnf_path), cnf_path)
    out = adversary.reduce_sat(sat)
    inst = out.instance
    audit = all(inst.dist(i) == 3 for i in range(1, inst.m + 1))
    print(f"vertices {inst.graph.vertex_count}")
    print(f"edges {inst.graph.edge_count()}")
    print(f"agents {inst.m}")
    print(f"distance-3-audit: {'ok' if audit else 'FAILED'}")
    _write_files(out_dir, {
        "graph.txt": world.dump_graph(inst.graph),
        "agents.scen": core.dump_scenario(inst.agents),
        "labels.txt": "".join(f"{v} {out.vertex_labels[v]}\n" for v in sorted(out.vertex_labels)),
    })
    if not audit:
        raise ValidationFailure("distance audit failed")


def cmd_validate(args: argparse.Namespace) -> None:
    if not (args.map or args.graph):
        raise ConfigError("validate needs --map or --graph")
    path, graph, scen_kw = _load_graph(args)
    print(f"{path}: ok ({graph.vertex_count} vertices, {graph.edge_count()} edges)")
    if args.scen:
        agents = core.load_scenario(_read(args.scen), source=args.scen, **scen_kw)
        OnlineInstance(graph, tuple(agents))
        print(f"{args.scen}: ok ({len(agents)} agents)")


# ---------------------------------------------------------------------------
# file plumbing


def _write_files(out_dir: str, files: dict[str, str]) -> None:
    directory = FilePath(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)
    print(f"wrote {', '.join(files)} to {directory}")


def _read(path: str) -> str:
    try:
        return FilePath(path).read_text()
    except OSError as exc:
        raise ParseError(str(exc), path) from None


# ---------------------------------------------------------------------------
# argument parsing


def _add_files(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--map")
    parser.add_argument("--graph")
    parser.add_argument("--scen")


def _add_run(parser: argparse.ArgumentParser) -> None:
    _add_files(parser)
    parser.add_argument("--family", choices=["line", "grid-random", "2x2-adversary"])
    parser.add_argument("--m", type=int)
    parser.add_argument(
        "--policy", default="sequence", choices=["sequence", "opt-rational", "custom-irrational"]
    )
    parser.add_argument("--mode", default="new-single", choices=list(online.MODES))
    parser.add_argument(
        "--objective", default="flowtime", choices=["flowtime", "makespan", "latency"]
    )
    parser.add_argument("--rationalize", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--node-budget", type=int, default=NODE_BUDGET)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``onmapf`` parser, built on first use and shared by every ``main``
    call in the process: parsing never changes it, and each call gets a
    fresh namespace."""
    # No abbreviations: each verb's flag set is exact, so a flag a verb does
    # not take is rejected rather than read as a prefix of another one.
    parser = argparse.ArgumentParser(
        prog="onmapf", description="Online MAPF benchmark harness", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(verb_parser=p)
        return p

    _add_run(verb("solve", "run one policy on one instance source"))
    _add_run(verb("ratio", "run a policy and compare against the optimum"))

    p = verb("sweep", "cost table over the line family")
    p.add_argument("--family", choices=["line"], default="line")
    p.add_argument("--out")
    p.add_argument("--node-budget", type=int, default=NODE_BUDGET)
    p.add_argument("--m-list", default="2,4,6")
    p.add_argument("--policies", default="sequence")

    p = verb("reduce-sat", "build the hardness gadget instance from a CNF")
    p.add_argument("--cnf", required=True)
    p.add_argument("--out", required=True)

    _add_files(verb("validate", "parse and invariant-check input files"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # argparse hands a verb's unknown flags back to the top-level parser.
        # That parser takes no flag of its own, so whatever precedes the verb
        # is left over and reported there; the rest gets the verb's usage.
        argv = sys.argv[1:] if argv is None else argv
        before = argv[:argv.index(args.verb)]
        if before:
            parser.error(f"unrecognized arguments: {' '.join(before)}")
        args.verb_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if args.verb in ("solve", "ratio", "sweep") and args.node_budget < 1:
            raise ConfigError(f"--node-budget must be a positive pop count, got {args.node_budget}")
        if args.verb in ("solve", "ratio"):
            cmd_run(args, with_ratio=args.verb == "ratio")
        elif args.verb == "sweep":
            cmd_sweep(args)
        elif args.verb == "reduce-sat":
            cmd_reduce(args.cnf, args.out)
        else:
            cmd_validate(args)
    except (ParseError, MalformedSat, OddM, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationFailure, DisconnectedWorld, EmptyWorld, InvalidEdge, BudgetExhausted) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
