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
import math
import sys
from dataclasses import dataclass
from pathlib import Path as FilePath

from . import adversary, core, online, world
from .core import Metrics, OnlineInstance, RatioReport
from .errors import (
    BudgetExhausted,
    DisconnectedWorld,
    EmptyWorld,
    InvalidEdge,
    MalformedSat,
    NonIntegerResult,
    OddM,
    ParseError,
)
from .search import SearchLimits, offline_optimal

ORACLE_MAX_AGENTS = 4
ORACLE_MAX_VERTICES = 25

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


@dataclass
class ExperimentConfig:
    source_kind: str  # "files" | "line" | "grid-random" | "2x2-adversary"
    map_path: str | None = None
    graph_path: str | None = None
    scen_path: str | None = None
    m: int | None = None
    policy: str = "sequence"
    mode: str = "new-single"
    objective: str = "flowtime"
    rationalize: bool = False
    seed: int = 0
    out: str | None = None
    node_budget: int = 10_000_000
    force: bool = False

    @property
    def limits(self) -> SearchLimits:
        return SearchLimits(node_budget=self.node_budget)


@dataclass
class Report:
    policy_name: str
    mode: str
    objective: str
    metrics: Metrics
    conflicts: int
    steps: list[tuple]  # rows matching STEP_COLUMNS
    ratio: RatioReport | None = None

    def rational_all_steps(self) -> bool:
        return all(row[6] and row[7] for row in self.steps)

    def fallback_steps(self) -> int:
        return sum(1 for row in self.steps if row[8])


def _ratio_str(value) -> str:
    if value == math.inf:
        return "inf"
    return repr(float(value))


def _report_csv(report: Report, agents: int) -> str:
    r = report.ratio
    row = [
        report.policy_name,
        report.mode,
        report.objective,
        agents,
        report.metrics.flowtime,
        report.metrics.makespan,
        report.metrics.latency,
        report.conflicts,
        int(report.rational_all_steps()),
        report.fallback_steps(),
        r.algorithm_cost if r else "",
        r.optimal_cost if r else "",
        _ratio_str(r.ratio) if r else "",
        r.additive_gap if r else "",
    ]
    return REPORT_COLUMNS + "\n" + ",".join(str(x) for x in row) + "\n"


def _steps_csv(report: Report) -> str:
    lines = [STEP_COLUMNS]
    for row in report.steps:
        lines.append(",".join(str(int(x) if isinstance(x, bool) else x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sources and policies from flags


def _build_source(cfg: ExperimentConfig):
    """Returns (RevealSource, fixed OnlineInstance or None)."""
    if cfg.source_kind == "files":
        agents_kw = {}
        if cfg.map_path:
            grid = world.load_map(_read(cfg.map_path), cfg.map_path)
            graph = grid.to_graph()
            agents_kw["grid"] = grid
        elif cfg.graph_path:
            graph = world.load_graph(_read(cfg.graph_path), cfg.graph_path)
            agents_kw["graph"] = graph
        else:
            raise ConfigError("file source needs --map or --graph")
        if not cfg.scen_path:
            raise ConfigError("file source needs --scen")
        agents = core.load_scenario(_read(cfg.scen_path), source=cfg.scen_path, **agents_kw)
        if not agents:
            raise ConfigError(f"{cfg.scen_path}: scenario has no agents")
        inst = OnlineInstance(graph, tuple(agents))
        return online.InstanceSource(inst), inst
    if cfg.source_kind == "line":
        if cfg.m is None:
            raise ConfigError("--family line needs --m")
        inst = adversary.gen_line(cfg.m)
        return online.InstanceSource(inst), inst
    if cfg.source_kind == "grid-random":
        if cfg.m is None:
            raise ConfigError("--family grid-random needs --m (agent count)")
        spec = adversary.RandomSpec(
            height=8, width=8, density=0.1, agents=cfg.m, max_release=10, seed=cfg.seed
        )
        inst = adversary.gen_random(spec)
        return online.InstanceSource(inst), inst
    if cfg.source_kind == "2x2-adversary":
        return adversary.gen_2x2_adversary(), None
    raise ConfigError(f"unknown source {cfg.source_kind!r}")


def _planning_objective(objective: str) -> str:
    # A plan is latency-optimal iff it is flowtime-optimal.
    return "flowtime" if objective == "latency" else objective


def _build_policy(cfg: ExperimentConfig, fixed_instance: OnlineInstance | None):
    if cfg.policy == "sequence":
        policy = online.sequence_policy()
    elif cfg.policy == "opt-rational":
        policy = online.opt_rational(cfg.mode, _planning_objective(cfg.objective))
    elif cfg.policy == "custom-irrational":
        if fixed_instance is None:
            raise ConfigError("custom-irrational replays a fixed instance's optimum; "
                              "not available against an adaptive adversary")
        _oracle_guard(fixed_instance, cfg.force)
        opt = offline_optimal(
            fixed_instance.graph,
            fixed_instance.agents,
            objective=_planning_objective(cfg.objective),
            limits=cfg.limits,
        )
        policy = online.replay_policy(opt)
    else:
        raise ConfigError(f"unknown policy {cfg.policy!r}")
    if cfg.rationalize:
        policy = online.rationalize_wrap(policy)
    return policy


def _oracle_guard(inst: OnlineInstance, force: bool) -> None:
    if force:
        return
    if inst.m > ORACLE_MAX_AGENTS or inst.graph.vertex_count > ORACLE_MAX_VERTICES:
        raise ConfigError(
            f"joint oracle refused: {inst.m} agents on {inst.graph.vertex_count} vertices "
            f"exceeds {ORACLE_MAX_AGENTS} agents / {ORACLE_MAX_VERTICES} vertices (use --force)"
        )


# ---------------------------------------------------------------------------
# verbs


def _run_policy(cfg: ExperimentConfig):
    source, fixed_instance = _build_source(cfg)
    policy = _build_policy(cfg, fixed_instance)
    trace = online.run(source, policy, cfg.limits)
    steps = [
        (snap.k, snap.time, snap.metrics.flowtime, snap.metrics.makespan, *snap.bounds,
         snap.flow_ok, snap.make_ok, snap.fallback)
        for snap in trace.snapshots
    ]
    report = Report(
        policy_name=policy.name,
        mode=policy.mode,
        objective=cfg.objective,
        metrics=trace.metrics,
        conflicts=len(trace.conflicts),
        steps=steps,
    )
    return trace, report


def cmd_solve(cfg: ExperimentConfig) -> Report:
    trace, report = _run_policy(cfg)
    _emit_run(cfg, trace, report)
    if report.conflicts:
        raise ValidationFailure(f"plan has {report.conflicts} conflicts")
    return report


def cmd_ratio(cfg: ExperimentConfig) -> Report:
    trace, report = _run_policy(cfg)
    inst = trace.instance
    dist_sum = sum(inst.dist(i) for i in range(1, inst.m + 1))

    if cfg.source_kind == "line":
        forms = adversary.line_closed_forms(cfg.m)
        opt_flow, opt_make = forms.opt_flow, forms.opt_make
    else:
        _oracle_guard(inst, cfg.force)
        opt_plan = offline_optimal(
            inst.graph, inst.agents, objective=_planning_objective(cfg.objective),
            limits=cfg.limits,
        )
        opt_metrics = core.evaluate(opt_plan, range(1, inst.m + 1), inst)
        opt_flow, opt_make = opt_metrics.flowtime, opt_metrics.makespan

    if cfg.objective == "flowtime":
        alg, opt = trace.metrics.flowtime, opt_flow
    elif cfg.objective == "makespan":
        alg, opt = trace.metrics.makespan, opt_make
    else:
        alg, opt = trace.metrics.latency, opt_flow - dist_sum
    report.ratio = RatioReport.of(alg, opt)
    _emit_run(cfg, trace, report)
    if report.conflicts:
        raise ValidationFailure(f"plan has {report.conflicts} conflicts")
    return report


def _parse_policy_descriptor(text: str):
    """sweep policy syntax: ``sequence`` or ``opt-rational:MODE:OBJECTIVE``."""
    parts = text.split(":")
    if parts[0] == "sequence" and len(parts) == 1:
        return online.sequence_policy()
    if parts[0] == "opt-rational" and len(parts) == 3:
        return online.opt_rational(parts[1], _planning_objective(parts[2]))
    raise ConfigError(f"bad policy descriptor {text!r}")


def cmd_sweep(cfg: ExperimentConfig, m_list: list[int], policy_descriptors: list[str]) -> str:
    rows = [SWEEP_COLUMNS]
    monotone_ok = True
    for descriptor in policy_descriptors:
        prev_flow_ratio = None
        prev_make_ratio = None
        for m in m_list:
            policy = _parse_policy_descriptor(descriptor)
            inst = adversary.gen_line(m)
            trace = online.run(online.InstanceSource(inst), policy, cfg.limits)
            if trace.conflicts:
                raise ValidationFailure(f"conflicts on line m={m} under {policy.name}")
            forms = adversary.line_closed_forms(m)
            flow_ratio = RatioReport.of(trace.metrics.flowtime, forms.opt_flow).ratio
            make_ratio = RatioReport.of(trace.metrics.makespan, forms.opt_make).ratio
            rows.append(
                f"{m},{policy.name},{trace.metrics.flowtime},{trace.metrics.makespan},"
                f"{_ratio_str(flow_ratio)},{_ratio_str(make_ratio)}"
            )
            if policy.mode in ("new-single", "new") and m >= 4:
                if prev_flow_ratio is not None and m > 4:
                    monotone_ok &= flow_ratio > prev_flow_ratio and make_ratio > prev_make_ratio
                prev_flow_ratio, prev_make_ratio = flow_ratio, make_ratio
    table = "\n".join(rows) + "\n"
    _write_or_print(cfg, "sweep.csv", table)
    if policy_descriptors:
        print(f"monotone-ratio-check: {'ok' if monotone_ok else 'FAILED'}")
    if not monotone_ok:
        raise ValidationFailure("ratios are not strictly increasing for m >= 4")
    return table


def cmd_reduce(cnf_path: str, out_dir: str) -> adversary.ReductionOutput:
    sat = adversary.parse_dimacs(_read(cnf_path), cnf_path)
    out = adversary.reduce_sat(sat)
    inst = out.instance
    directory = FilePath(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "graph.txt").write_text(world.dump_graph(inst.graph))
    (directory / "agents.scen").write_text(core.dump_scenario(inst.agents))
    labels = "".join(f"{v} {out.vertex_labels[v]}\n" for v in sorted(out.vertex_labels))
    (directory / "labels.txt").write_text(labels)
    audit = all(inst.dist(i) == 3 for i in range(1, inst.m + 1))
    print(f"vertices {inst.graph.vertex_count}")
    print(f"edges {inst.graph.edge_count()}")
    print(f"agents {inst.m}")
    print(f"distance-3-audit: {'ok' if audit else 'FAILED'}")
    print(f"wrote graph.txt, agents.scen, labels.txt to {directory}")
    if not audit:
        raise ValidationFailure("distance audit failed")
    return out


def cmd_validate(cfg: ExperimentConfig) -> None:
    if cfg.map_path:
        grid = world.load_map(_read(cfg.map_path), cfg.map_path)
        graph = grid.to_graph()
        print(f"{cfg.map_path}: ok ({graph.vertex_count} vertices, {graph.edge_count()} edges)")
        scen_kw = {"grid": grid}
    elif cfg.graph_path:
        graph = world.load_graph(_read(cfg.graph_path), cfg.graph_path)
        print(f"{cfg.graph_path}: ok ({graph.vertex_count} vertices, {graph.edge_count()} edges)")
        scen_kw = {"graph": graph}
    else:
        raise ConfigError("validate needs --map or --graph")
    if cfg.scen_path:
        agents = core.load_scenario(_read(cfg.scen_path), source=cfg.scen_path, **scen_kw)
        OnlineInstance(graph, tuple(agents))
        print(f"{cfg.scen_path}: ok ({len(agents)} agents)")


# ---------------------------------------------------------------------------
# output plumbing


def _emit_run(cfg: ExperimentConfig, trace, report: Report) -> None:
    m = report.metrics
    print(
        f"policy {report.policy_name}: flowtime {m.flowtime}, makespan {m.makespan}, "
        f"latency {m.latency}; conflicts {report.conflicts}; "
        f"rational at every step: {'yes' if report.rational_all_steps() else 'NO'}"
    )
    if report.ratio is not None:
        r = report.ratio
        print(
            f"{cfg.objective} ratio: {r.algorithm_cost}/{r.optimal_cost} = "
            f"{_ratio_str(r.ratio)} (additive gap {r.additive_gap})"
        )
    if cfg.out:
        directory = FilePath(cfg.out)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "plan.csv").write_text(core.plan_to_csv(trace.plan, trace.instance))
        (directory / "report.csv").write_text(_report_csv(report, trace.instance.m))
        (directory / "steps.csv").write_text(_steps_csv(report))
        print(f"wrote plan.csv, report.csv, steps.csv to {directory}")


def _write_or_print(cfg: ExperimentConfig, name: str, content: str) -> None:
    if cfg.out:
        directory = FilePath(cfg.out)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(content)
        print(f"wrote {name} to {directory}")
    else:
        sys.stdout.write(content)


def _read(path: str) -> str:
    try:
        return FilePath(path).read_text()
    except OSError as exc:
        raise ParseError(str(exc), path) from None


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, with_policy: bool = True) -> None:
    parser.add_argument("--map")
    parser.add_argument("--graph")
    parser.add_argument("--scen")
    parser.add_argument("--family", choices=["line", "grid-random", "2x2-adversary"])
    parser.add_argument("--m", type=int)
    if with_policy:
        parser.add_argument(
            "--policy", default="sequence",
            choices=["sequence", "opt-rational", "custom-irrational"],
        )
        parser.add_argument("--mode", default="new-single", choices=list(online.MODES))
        parser.add_argument(
            "--objective", default="flowtime", choices=["flowtime", "makespan", "latency"]
        )
        parser.add_argument("--rationalize", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--node-budget", type=int, default=10_000_000)
    parser.add_argument("--force", action="store_true")


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    if args.family:
        if args.map or args.graph or args.scen:
            raise ConfigError("give either --family or input files, not both")
        kind = args.family
    elif args.map or args.graph:
        kind = "files"
    else:
        raise ConfigError("no input: use --family or --map/--graph with --scen")
    return ExperimentConfig(
        source_kind=kind,
        map_path=args.map,
        graph_path=args.graph,
        scen_path=args.scen,
        m=args.m,
        policy=getattr(args, "policy", "sequence"),
        mode=getattr(args, "mode", "new-single"),
        objective=getattr(args, "objective", "flowtime"),
        rationalize=getattr(args, "rationalize", False),
        seed=args.seed,
        out=args.out,
        node_budget=args.node_budget,
        force=args.force,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onmapf", description="Online MAPF benchmark harness"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="run one policy on one instance source")
    _add_common(p)

    p = sub.add_parser("ratio", help="run a policy and compare against the optimum")
    _add_common(p)

    p = sub.add_parser("sweep", help="cost table over the line family")
    _add_common(p, with_policy=False)
    p.add_argument("--m-list", default="2,4,6")
    p.add_argument("--policies", default="sequence")

    p = sub.add_parser("reduce-sat", help="build the hardness gadget instance from a CNF")
    p.add_argument("--cnf", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="parse and invariant-check input files")
    _add_common(p, with_policy=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "solve":
            cmd_solve(_config_from(args))
        elif args.verb == "ratio":
            cmd_ratio(_config_from(args))
        elif args.verb == "sweep":
            if not (args.family or args.map or args.graph):
                args.family = "line"
            cfg = _config_from(args)
            if cfg.source_kind != "line":
                raise ConfigError("sweep supports --family line")
            m_list = [int(tok) for tok in args.m_list.split(",") if tok]
            descriptors = [tok for tok in args.policies.split(",") if tok]
            cmd_sweep(cfg, m_list, descriptors)
        elif args.verb == "reduce-sat":
            cmd_reduce(args.cnf, args.out)
        elif args.verb == "validate":
            cmd_validate(_config_from(args))
    except (ParseError, MalformedSat, OddM, NonIntegerResult, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationFailure, DisconnectedWorld, EmptyWorld, InvalidEdge, BudgetExhausted) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
