#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chat-small --seed 1 --seconds 20 --trace 0

``--trace 0`` times a fixed number of ops (``--seconds`` times the
workload's fixed nominal rate, never a measured duration) against a
fresh deployment and prints the end-to-end metrics. ``--trace 1`` runs
the same workload with the layer entry points wrapped in spans and
prints the per-layer metrics instead, next to an untraced run at the
same settings. The last line of standard output is the JSON result.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

from workloads import FULL, WORKLOADS

# Set-up samples per run; setup_s is their median.
REQUEST_SETUPS = 7
ENGINE_SETUPS = 7
# Traced runs time fewer ops than timed runs (twice: untraced and traced).
TRACE_SHARE = 0.25
# Sum of an op's span self times vs. its measured wall: allowed error.
# Self times split each root span exactly, so this checks the span
# bookkeeping and the cost of entering and leaving a span, not coverage.
SELF_TIME_TOLERANCE = 0.02
# Coverage: the share of the traced ops' wall time that no layer wrapper
# covers (the self time of the benchmark's own root span) may be at most
# this. It fails when an op's time goes to code the wrappers miss.
BENCH_SELF_MAX = 0.05
# The host's speed drifts by up to 1.6x over seconds to minutes (on a
# 2-vCPU VM, chat-small's op p50 ranged 6.4-9.9 ms across ten consecutive
# runs, and replay-iot's 2.4-4.0 s). So a fixed reference kernel that
# calls no program code is timed between the ops, and times are reported
# at the kernel's nominal speed: each op's time x nominal / median of the
# kernel timings taken near that op (the workload's reference_span), and
# the set-up times x nominal / median of the set-up phase's timings. A
# request-path op runs entirely in this one Python thread, and a
# pure-Python loop tracks it. Engine ops run mostly in numpy over arrays
# of millions of elements, which the loop does not track (dividing by it
# raised fleet-month's spread), and a numpy kernel over a 1M-element
# array does.
REFERENCE_PER_SETUP = 5  # request path: kernel timings before each set-up


def python_reference_seconds() -> float:
    """One timing of a fixed pure-Python loop."""
    started = time.perf_counter()
    x, table = 0, {}
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFFFFFF
        table[i & 255] = x
    return time.perf_counter() - started


def numpy_reference_seconds() -> float:
    """One timing of a fixed numpy kernel: generate, bin, count, scan, sort."""
    import numpy as np

    started = time.perf_counter()
    values = np.random.default_rng(0).random(1_000_000)
    bins = np.searchsorted(np.linspace(0.0, 1.0, 1000), values)
    np.bincount(bins, minlength=1001)
    np.cumsum(values)
    np.argsort(values[:200_000])
    return time.perf_counter() - started


# Workload kind -> (reference kernel, its nominal seconds).
REFERENCES = {
    "request": (python_reference_seconds, 0.0004),
    "engine": (numpy_reference_seconds, 0.1),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path, and insist on it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from this checkout")


def host_context() -> dict:
    """bench_env() plus the git revision, when the checkout is a git tree."""
    from repro.analysis.bench import bench_env

    env = dict(bench_env())
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        env["git_revision"] = revision.stdout.strip() if revision.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        env["git_revision"] = None
    return env


def peak_own_rss_kb() -> int:
    """Peak RSS of this process since it started or since the last reset."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reset_own_peak_rss() -> None:
    """Restart this process's peak RSS from its current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_child_rss_kb() -> int:
    """Peak RSS of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def local_scales(reference, ops, span: int, nominal: float) -> Dict[int, float]:
    """Each op's nominal over measured reference time near it.

    ``reference`` holds (i, seconds) for a kernel timing taken before op
    ``i`` (``i`` = the op count for those taken after the last op). Op
    ``i`` uses the timings taken before ops ``i - span`` to
    ``i + span + 1``, so the window reaches past op ``i`` on both sides.
    """
    by_op: Dict[int, List[float]] = {}
    for i, seconds in reference:
        by_op.setdefault(i, []).append(seconds)
    return {i: nominal / statistics.median(
                [s for j in range(i - span, i + span + 2) for s in by_op.get(j, ())])
            for i in ops}


def run_ops(workload, state, n_ops: int, recorder=None, before_op=None, **op_args):
    """Run ``n_ops`` checked ops, calling ``before_op(i)`` before op ``i``.

    Returns each completed op's seconds, the failures, each op's wall measured
    around its root span (when ``recorder`` traces), and the last result.
    """
    seconds, failures, walls, result = {}, [], {}, None
    for i in range(n_ops):
        if before_op is not None:
            before_op(i)
        try:
            if recorder is None:
                result, elapsed = workload.op(state, i, **op_args)
            else:
                started = time.perf_counter()
                with recorder.root(i):
                    result, elapsed = workload.op(state, i, **op_args)
                walls[i] = time.perf_counter() - started
        except Exception as exc:  # a failed op is counted, the run goes on
            failures.append(f"op {i} raised {type(exc).__name__}: {exc}")
            continue
        seconds[i] = elapsed
        error = workload.check(state, i, result)
        if error:
            failures.append(error)
    return seconds, failures, walls, result


def setup_sample_main(name: str, seed: int) -> None:
    """One engine set-up in this fresh process: import plus warm-up run."""
    import importlib

    workload = WORKLOADS[name](seed, FULL, CACHE)
    started = time.perf_counter()
    import_program()
    for module in workload.setup_modules:
        importlib.import_module(module)
    imported = time.perf_counter() - started
    workload.make_warmup_inputs()
    started = time.perf_counter()
    workload.setup()
    warmed = time.perf_counter() - started
    print(json.dumps({"setup_s": imported + warmed}))


def engine_setup_sample(name: str, seed: int) -> float:
    """One engine set-up, timed in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-sample",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(workload, seconds: float) -> dict:
    n_ops = workload.op_count(seconds)
    workload.make_inputs(n_ops)
    setup_samples = []
    setup_reference = []
    reference = []  # (op index it came before, seconds)
    own_kb, child_kb = [], []
    reference_seconds, nominal = REFERENCES[workload.kind]

    def take_reference(i):
        if workload.kind == "engine":
            # The numpy kernel's arrays would count in the peak RSS, so
            # the peak is read before it and restarted after it.
            own_kb.append(peak_own_rss_kb())
        reference.extend((i, reference_seconds()) for _ in range(workload.reference_count))
        if workload.kind == "engine":
            reset_own_peak_rss()

    if workload.kind == "request":
        for _ in range(REQUEST_SETUPS):
            setup_reference.extend(reference_seconds() for _ in range(REFERENCE_PER_SETUP))
            started = time.perf_counter()
            state = workload.setup()
            setup_samples.append(time.perf_counter() - started)

        def before_op(i):
            if i % workload.reference_every == 0:
                take_reference(i)
    else:
        state = workload.setup()
        # The engine set-ups run between the ops, spread evenly from
        # after op 0 to before the last op, so host drift during a run
        # reaches set-up and ops alike.
        due = [1 + k * (n_ops - 2) // (ENGINE_SETUPS - 1) for k in range(ENGINE_SETUPS)]

        def before_op(i):
            take_reference(i)
            if i in due and not child_kb:
                # Every op does the same work, so the pool children of
                # the ops so far give the peak; the set-up processes
                # waited for from here on would count in it.
                child_kb.append(peak_child_rss_kb())
            for _ in range(due.count(i)):
                setup_samples.append(engine_setup_sample(workload.name, workload.seed))
    gc.collect()
    op_seconds, failures, _, _ = run_ops(workload, state, n_ops, before_op=before_op)
    take_reference(n_ops)
    # Peak RSS of this process plus pool size x a pool child's: an upper
    # bound, since pages a forked worker shares are counted in both.
    own = max(own_kb + [peak_own_rss_kb()])
    child = (child_kb[0] if child_kb else peak_child_rss_kb()) if workload.workers else 0
    peak = (own + workload.workers * child) / 1024.0
    errors, checked = workload.finish(state)

    done = len(op_seconds)
    print(f"ops: {done} completed of {n_ops}; setup samples "
          + ", ".join(f"{s:.4f}" for s in setup_samples) + " s as measured")
    if workload.kind == "engine":
        # The set-ups ran between the ops, under the ops' reference timings.
        setup_reference = [s for _, s in reference]
    setup_scale = nominal / statistics.median(setup_reference)
    scales = local_scales(reference, op_seconds, workload.reference_span, nominal)
    scaled = [op_seconds[i] * scales[i] for i in op_seconds]
    print(f"host speed: reference kernel nominal {nominal * 1000.0:.4f} ms; set-up times "
          f"x {setup_scale:.4f}; op times x {statistics.median(scales.values() or [1.0]):.4f} "
          f"(median of per-op factors from the timings within {workload.reference_span} ops)")
    if done:
        p50 = statistics.median(op_seconds.values()) * 1000.0
        print(f"op_ms p50 {p50:.3f} ms as measured, over {done} ops")
        if done >= 100:
            p90 = statistics.quantiles(op_seconds.values(), n=10)[-1]
            beyond = sum(1 for s in op_seconds.values() if s > p90)
            print(f"op_ms p90 {p90 * 1000.0:.3f} ms as measured ({beyond} ops beyond it)")
        if workload.kind == "engine":
            events = checked["events"]
            print(f"events_per_s {events * 1000.0 / p50:.1f} 1/s as measured "
                  f"({events} simulated events per op)")
    print(f"fail_frac {len(failures) / n_ops:.4f} ({len(failures)} of {n_ops})")
    for message in failures[:10] + errors:
        print(f"check failed: {message}")
    print("checked: " + json.dumps(checked, sort_keys=True))

    if not done:
        fail("every op failed")
    metrics = {
        "setup_s": (statistics.median(setup_samples) * setup_scale, "s"),
        "ops_per_s": (done / sum(scaled), "1/s"),
        "op_ms_p50": (statistics.median(scaled) * 1000.0, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return {
        "correct": not failures and not errors,
        "attempted": n_ops,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_run(workload, seconds: float) -> dict:
    import layers
    from spans import Instrumentation, SpanRecorder, validate

    recorder = SpanRecorder()
    extra = {"sim.shard.latency_samples": 0.0, "sim.shard.pool_util": 0.0,
             "cloud.s3.objects_at_end": 0.0, "resilience.retries_per_op": 0.0}
    if workload.kind == "request":
        n_ops = max(workload.min_ops, round(workload.op_count(seconds) * TRACE_SHARE))
        workload.make_inputs(n_ops)
        state = workload.setup()
        gc.collect()
        untraced, failures, _, _ = run_ops(workload, state, n_ops)
        instrumentation = Instrumentation(recorder)
        layers.install(instrumentation)
        try:
            with recorder.root("setup", "bench:setup"):
                state = workload.setup()
            recorder.counts.clear()
            retries_before = sum(c.tracker.retries for c in state["clients"])
            gc.collect()
            traced, traced_failures, walls, _ = run_ops(workload, state, n_ops, recorder)
        finally:
            instrumentation.restore()
        failures += traced_failures
        extra["resilience.retries_per_op"] = (
            sum(c.tracker.retries for c in state["clients"]) - retries_before) / n_ops
        extra["cloud.s3.objects_at_end"] = float(sum(
            sum(1 for _ in state["provider"].s3.raw_scan(bucket))
            for bucket in state["app"].bucket_names))
        attempted = 2 * n_ops
    else:
        # Engines are traced at 1 worker, in-process, so every span is seen.
        n_ops = 1
        workload.make_inputs(n_ops)
        state = workload.setup()
        gc.collect()
        untraced, failures, _, _ = run_ops(workload, state, n_ops, workers=1)
        instrumentation = Instrumentation(recorder)
        layers.install(instrumentation)
        try:
            gc.collect()
            traced, traced_failures, walls, _ = run_ops(
                workload, state, n_ops, recorder, workers=1)
        finally:
            instrumentation.restore()
        # One op at the timed runs' pool size: its digest must equal the
        # 1-worker one (checked against op 0), and its perf gives pool use.
        _, pooled_failures, _, result = run_ops(workload, state, n_ops)
        failures += traced_failures + pooled_failures
        extra["sim.shard.latency_samples"] = float(len(result.latency))
        perf = getattr(result, "perf", None)
        if perf is not None:
            extra["sim.shard.pool_util"] = perf.get("shard_seconds") / (
                workload.workers * perf.phase_seconds("simulate"))
        attempted = 3 * n_ops

    errors, checked = workload.finish(state)
    tree_errors = validate(recorder.spans)
    errors += tree_errors
    traced_s, untraced_s = sum(traced.values()), sum(untraced.values())
    overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    extra["tracing.overhead_share"] = overhead
    worst = layers.self_time_check(recorder, walls)
    if worst > SELF_TIME_TOLERANCE:
        errors.append(f"span self times miss an op's wall by {worst:.2%} "
                      f"(tolerance {SELF_TIME_TOLERANCE:.0%})")
    metrics = layers.per_layer_metrics(recorder, list(walls), extra)
    wall_ms = sum(walls.values()) * 1000.0
    uncovered = metrics["bench.self_ms_per_op"] * len(walls) / wall_ms if wall_ms else 1.0
    if uncovered > BENCH_SELF_MAX:
        errors.append(f"layer wrappers miss {uncovered:.2%} of the traced ops' wall "
                      f"(at most {BENCH_SELF_MAX:.0%} may be left to the benchmark)")

    print(f"traced: {len(traced)} ops in {traced_s:.4f} s; untraced at the same settings: "
          f"{len(untraced)} ops in {untraced_s:.4f} s; tracing overhead {overhead:+.2%}")
    print(f"spans: {len(recorder.spans)}; tree errors: {len(tree_errors)}; "
          f"worst |sum(self) - op wall| / op wall = {worst:.5%} "
          f"(tolerance {SELF_TIME_TOLERANCE:.0%}); not covered by a layer: "
          f"{uncovered:.3%} of the ops' wall (at most {BENCH_SELF_MAX:.0%})")
    for message in failures[:10] + errors[:10]:
        print(f"check failed: {message}")
    print("checked: " + json.dumps(checked, sort_keys=True))
    return {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.setup_sample:
        setup_sample_main(args.workload, args.seed)
        return
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_program()
    print("host: " + json.dumps(host_context(), sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed, FULL, CACHE)
    if args.trace:
        result = traced_run(workload, args.seconds)
    else:
        result = timed_run(workload, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
