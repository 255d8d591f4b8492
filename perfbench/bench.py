"""One benchmark run: set-up, warm-up, timed repetitions, checks, result.

Imported by ``run.py`` once the program's ``src`` is on the path.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from mixroute.env import make_policy_pair

import checks
import layers
import workloads
from timing import Stages
from tracing import Tracer, traced_pair

MIN_REPS = 3


def process_age(fallback_start: float) -> float:
    """Seconds since this process started, from the kernel's start time;
    falls back to the time since ``fallback_start`` (a perf_counter value)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    return age if 0.0 <= age < 3600.0 else time.perf_counter() - fallback_start


def timed_reps(workload, pair, seconds: float, done: list, tracer=None, tpair=None):
    """Repeat until ``seconds`` have passed (at least MIN_REPS times).

    With a tracer, untraced and traced repetitions alternate. Returns the
    ``Stages`` of the untraced and of the traced repetitions; ``done``
    collects every finished repetition.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_REPS or time.perf_counter() < deadline:
        use_trace = tracer is not None and i % 2 == 1
        stages = Stages(tracer if use_trace else None, reference=True)
        out = workload.rep(i, tpair if use_trace else pair, stages)
        stages.finish()
        (traced if use_trace else plain).append(stages)
        done.append(stages)
        workload.record(i, out)
        i += 1
    return plain, traced


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(args, root: Path, started: float) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    metrics: dict = {}
    done: list = []
    try:
        if args.trace:
            measure_layers(args, workload, workdir, metrics, done)
        else:
            measure(args, workload, workdir, started, metrics, done)
        correct = True
    except checks.CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(done) * workload.ops_per_rep,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def measure(args, workload, workdir: Path, started: float, metrics: dict, done: list) -> None:
    """The end-to-end metrics, from an untraced run."""
    pair = make_policy_pair(workloads.WORLD)
    workload.setup(pair, workdir, args.seed)
    warmup = Stages()
    workload.record(-1, workload.rep(-1, pair, warmup))
    done.append(warmup)
    metrics["setup_s"] = metric(process_age(started), "s")
    plain, _ = timed_reps(workload, pair, args.seconds, done)
    metrics["rep_over_ref"] = metric(statistics.median(s.normalised for s in plain), "ratio")

    ghc, high_calls, _ = workloads.quality_of(workload.quality_router(), pair, traced=False)
    metrics["router_ghc"] = metric(ghc, "GHC")
    metrics["router_high_calls_per_episode"] = metric(high_calls, "calls/episode")
    workload.check(pair)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics["peak_rss_mb"] = metric(usage.ru_maxrss / 1024.0, "MB")


def measure_layers(args, workload, workdir: Path, metrics: dict, done: list) -> None:
    """The per-layer metrics, from a traced run."""
    pair = make_policy_pair(workloads.WORLD)
    workload.setup(pair, workdir, args.seed)
    tracer = Tracer()
    tpair = traced_pair(pair, tracer)
    warmup = Stages(tracer)
    out = workload.rep(-1, tpair, warmup)
    done.append(warmup)
    workload.record(-1, out)
    counts = dict(tracer.counts)
    counts["router_decisions"] = (counts.get("router_decisions", 0)
                                  + workload.router_decisions(out))
    for name in ("policy_calls.low", "policy_calls.high", "router_decisions", "decision_steps"):
        metrics[f"count.{name}"] = metric(counts.get(name, 0), "count")

    mark = len(tracer.spans)
    plain, traced = timed_reps(workload, pair, args.seconds, done, tracer, tpair)
    overhead = (statistics.median(s.normalised for s in traced)
                / statistics.median(s.normalised for s in plain) - 1.0)
    metrics["trace.overhead_pct"] = metric(100.0 * overhead, "%")
    metrics["wall.rep_s"] = metric(statistics.median(s.wall_s for s in plain), "s")
    metrics["wall.reference_ms"] = metric(
        1e3 * statistics.median(r for s in plain for r in s.refs), "ms")
    self_times = tracer.self_times(since=mark)
    stage_self = sum(v for k, v in self_times.items() if not k.startswith("policy."))
    metrics["span.stage.self_s"] = metric(stage_self / len(traced), "s")
    for which in ("low", "high"):
        metrics[f"span.policy.{which}_s"] = metric(
            self_times.get(f"policy.{which}", 0.0) / len(traced), "s")

    _, _, (recall, precision, poisoned) = workloads.quality_of(
        workload.quality_router(), pair, traced=True)
    metrics["router.high_recall_critical"] = metric(recall, "ratio")
    metrics["router.high_precision_critical"] = metric(precision, "ratio")
    metrics["router.poisoned_episodes"] = metric(poisoned, "count")
    workload.check(pair)

    pipeline_config = workloads.write_pipeline_config(
        workdir / "layers-pipeline.yaml", workdir / "layers-pipeline-out",
        workloads.Pipeline.WARMUP_EVAL_START)
    for name, (value, unit) in layers.measure(
            pair, workdir / "layers", pipeline_config, workdir / "layers-pipeline-out").items():
        metrics[name] = metric(value, unit)
    tracer.write(workdir.parent / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
