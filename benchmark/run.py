"""onmapf benchmark: three closed-loop workloads in one process.

    python3 benchmark/run.py --workload {line-replan,grid-stream,offline-sat,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. A run repeats whole passes of its workload for up to ``--seconds``
(always at least one); every pass makes the same program calls on inputs drawn from the
seed, and checks every output independently. With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics, including the tracing overhead, and
writes the spans under ``benchmark/out/``. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("largest_case_s", "s"),
    ("peak_rss_mb", "MB"),
    ("event_p50_ms", "ms"),
    ("event_p90_ms", "ms"),
)
# (metric, span name, what to read)
PER_LAYER = (
    ("world.dist_from.calls", "world.dist_from", "calls"),
    ("world.dist_from.misses", "world.dist_from.misses", "count"),
    ("world.dist_from_s", "world.dist_from", "total"),
    ("core.detect_conflicts_s", "core.detect_conflicts", "total"),
    ("core.detect_conflicts.calls", "core.detect_conflicts", "calls"),
    ("core.evaluate_s", "core.evaluate", "total"),
    ("core.evaluate.calls", "core.evaluate", "calls"),
    ("core.rationality_bounds_s", "core.rationality_bounds", "total"),
    ("core.rationality_bounds.calls", "core.rationality_bounds", "calls"),
    ("core.is_rational_at_s", "core.is_rational_at", "total"),
    ("core.is_rational_at.calls", "core.is_rational_at", "calls"),
    ("search.plan_min_arrival_s", "search.plan_min_arrival", "total"),
    ("search.plan_min_arrival.calls", "search.plan_min_arrival", "calls"),
    ("search.build_obstacles_s", "search.build_obstacles", "total"),
    ("search.build_obstacles.calls", "search.build_obstacles", "calls"),
    ("search.add_path.calls", "search.add_path", "calls"),
    ("search.joint_plan_s", "search.joint_plan", "total"),
    ("search.joint_plan.calls", "search.joint_plan", "calls"),
    ("search.offline_optimal_s", "search.offline_optimal", "total"),
    ("online.run_s", "online.run", "total"),
    ("online.run.self_s", "online.run", "self"),
    ("online.events", "online.events", "count"),
    ("online.fallbacks", "online.fallbacks", "count"),
    ("adversary.gen_s", "adversary.gen", "total"),
    ("adversary.reduce_sat_s", "adversary.reduce_sat", "total"),
    ("bench.main_s", "bench.main", "total"),
    ("bench.main.self_s", "bench.main", "self"),
)


def load_program():
    """Import the package from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "onmapf" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import onmapf

    if Path(onmapf.__file__).resolve().parent != (src / "onmapf").resolve():
        return None
    return onmapf


def measure(pass_fn, seed: int, seconds: float, tracer, workdir: Path):
    """Repeat whole passes, alternating untraced and traced ones when there
    is a tracer, while another round still fits in ``seconds``."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    index = 0
    while True:
        started = time.perf_counter()
        for tracing in (False, True) if tracer else (False,):
            directory = workdir / f"{index}{'-traced' if tracing else ''}"
            directory.mkdir(parents=True)
            if tracing:
                tracer.install()
            try:
                (traced if tracing else plain).append(pass_fn(seed, directory))
            finally:
                if tracing:
                    tracer.uninstall()
            shutil.rmtree(directory)
        index += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return plain, traced


def end_to_end(passes) -> dict:
    events = [ms for p in passes for ms in p.events_ms]
    values = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "wall_s": statistics.median(p.wall_s() for p in passes),
        "largest_case_s": statistics.median(max(s for _, s in p.case_s) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "event_p50_ms": statistics.median(events),
        "event_p90_ms": statistics.quantiles(events, n=10)[-1],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, plain, traced) -> dict:
    runs = len(traced)
    read = {"calls": tracer.calls, "total": tracer.total, "self": tracer.self_time,
            "count": tracer.counts}
    metrics = {}
    for metric, key, kind in PER_LAYER:
        value = read[kind][key] / runs
        metrics[metric] = {"value": value, "unit": "s" if kind in ("total", "self") else "count"}
    overhead = statistics.median(p.wall_s() for p in traced) / statistics.median(
        p.wall_s() for p in plain
    )
    metrics["trace.overhead_pct"] = {"value": 100 * (overhead - 1), "unit": "%"}
    return metrics


def run_workload(name: str, pass_fn, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced = measure(pass_fn, seed, seconds, tracer, workdir)
    passes = plain + traced
    if trace:
        metrics = per_layer(tracer, plain, traced)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(spans)
        print(f"{name}: {len(tracer.span_start)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(plain)
    unexpected = [problem for p in passes for problem in p.unexpected]
    failed = sorted({op for p in passes for op in p.failed})
    print(f"{name}: {len(plain)} passes{f' + {len(traced)} traced' if trace else ''}, seed {seed}")
    walls = sorted(p.wall_s() for p in plain)
    slowest = max((case for p in plain for case in p.case_s), key=lambda case: case[1])
    print(f"  pass wall min {walls[0]:.4f} s, median {statistics.median(walls):.4f} s, "
          f"max {walls[-1]:.4f} s; slowest case {slowest[1]:.4f} s: {slowest[0]}")
    for metric, entry in metrics.items():
        print(f"  {metric:32s} {entry['value']:14.6f} {entry['unit']}")
    print(f"  attempted {sum(p.attempted for p in passes)}, failed {sum(len(p.failed) for p in passes)}"
          + (f" ({', '.join(failed)})" if failed else ""))
    for note in sorted({note for p in passes for note in p.notes}):
        print(f"  note: {note}")
    for problem in unexpected[:20]:
        print(f"  UNEXPECTED: {problem}")
    return {
        "correct": not unexpected,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failed) for p in passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["line-replan", "grid-stream", "offline-sat", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if load_program() is None:
        print(f"benchmark: no onmapf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(names) == 1:
        result = results[names[0]]
    else:
        for name, result in results.items():
            print(f"{name}: {json.dumps(result)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items() for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
