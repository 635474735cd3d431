#!/usr/bin/env python3
"""Benchmark of the haartorus certifier, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload hvs-lemma --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each operation starts when the previous
one returns. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
workload's fixed `trace_ops` operations untraced and then traced and prints the
per-layer metrics.
The last line of standard output is one JSON object; a fuller result file,
with provenance (and spans for a traced run), goes to `.bench_results/`.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy loads, at no more than nproc.
BLAS_THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import MEASURED, WARMUP, WORKLOADS, Context  # noqa: E402

# Latency is CPU time: this process's, all its threads', and its child
# processes'. The program is single-threaded and BLAS runs one thread, so on an
# idle machine this equals wall time; on a shared 2-core virtual machine the
# host took wall time away unpredictably (an operation of 1.6-1.8 s CPU read
# 1.7-3.3 s wall) while the CPU time stayed put. Summed over threads, CPU time
# cannot show a gain from running work in parallel, so every run records its
# peak OS thread count and the wall latencies as well.
CLOCK = tracing.cpu_time
SETUP_REPS = 3
# The warm-up takes the same inputs in every run, so setup_s times the same
# work whatever the seed; the measured operations draw from another stream.
WARMUP_SEED = 0
TAIL_BEYOND = 10
# A wall-time safety cap, as a multiple of --seconds. dyadic-files spends about
# as long writing inputs and checking outputs as in its operations; a cap of 2
# ended every one of its runs and tied its operation count to the host's speed.
WALL_CAP = 3.0
QUEUEING_NOTE = "none: one single-threaded client with no queues, so no operation waits"
SPEC = ROOT / "BENCHMARK.json"


def metric_units(kind):
    """Unit of every metric of one kind ("end_to_end" or "per_layer"), from BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def os_threads():
    """Threads of this process as the OS counts them, BLAS threads included."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return threading.active_count()


def import_package():
    """Import haartorus from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "haartorus" or m.startswith("haartorus.")]:
        del sys.modules[name]
    package = importlib.import_module("haartorus")
    for layer in tracing.LAYERS:
        importlib.import_module(f"haartorus.{layer}")
    return package


def setup(workload, work_dir):
    """Import, load golden c0, make the warm-up inputs and run one warm-up operation."""
    start = CLOCK()
    package = import_package()
    ctx = Context(package, package.serialize.load_golden_c0(ROOT / "golden"), work_dir)
    inp = workload.inputs(WARMUP_SEED, WARMUP, 0)
    workload.prepare(ctx, inp)
    out, error = attempt(workload, ctx, inp)
    elapsed = CLOCK() - start
    return ctx, elapsed, gate(workload, ctx, inp, out, error)


def attempt(workload, ctx, inp):
    """Run one operation; a raised exception makes it a failed one, never a retried one."""
    try:
        return workload.run(ctx, inp), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def gate(workload, ctx, inp, out, error):
    """Failure reason of one operation, or None when its result passes the checks."""
    if error:
        return error
    try:
        return workload.check(ctx, inp, out)
    except Exception as exc:
        return f"gate raised {type(exc).__name__}: {exc}"


def run_ops(ctx, workload, seed, seconds=None, count=None, tracer=None):
    """Closed loop over operations 0, 1, ...

    Returns CPU latencies, wall latencies, failures and the peak OS thread
    count seen after an operation.

    Without `count` the loop stops at the first cycle boundary after `seconds`
    of operation CPU time, so runs of one workload have nearly the same
    operation count. WALL_CAP * `seconds` of wall time, input generation and
    gates included, stops it earlier when the host is slow. Input generation
    and the gate run between operations, outside the timed region and outside
    any span.
    """
    latencies, walls, failures = [], [], []
    threads = os_threads()
    index = 0
    busy = 0.0
    loop_start = time.perf_counter()

    def more():
        if count is not None:
            return index < count
        if index % workload.cycle:
            return True
        in_time = busy < seconds and time.perf_counter() - loop_start < WALL_CAP * seconds
        return index == 0 or in_time

    while more():
        inp = workload.inputs(seed, MEASURED, index)
        workload.prepare(ctx, inp)
        if tracer is not None:
            tracer.op_id = index
            tracer.recording = True
        start_wall, start = time.perf_counter(), CLOCK()
        out, error = attempt(workload, ctx, inp)
        latencies.append(CLOCK() - start)
        busy += latencies[-1]
        walls.append(time.perf_counter() - start_wall)
        threads = max(threads, os_threads())
        if tracer is not None:
            tracer.recording = False
        reason = gate(workload, ctx, inp, out, error)
        if reason:
            failures.append({"op": index, "reason": reason})
        index += 1
    return latencies, walls, failures, threads


def tail(latencies):
    """Highest-percentile latency with TAIL_BEYOND samples above it, never below the median.

    Returns (latency, percentile, samples above it). A run of fewer than
    2 * TAIL_BEYOND operations reports the median with its smaller count.
    """
    xs = sorted(latencies)
    n = len(xs)
    i = max(n - 1 - TAIL_BEYOND, math.ceil(n / 2) - 1)
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "haartorus").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload, args, package):
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "haartorus": package.__version__,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "parameters": workload.params,
        "cycle": workload.cycle,
        "trace_ops": workload.trace_ops,
        "load_model": "closed loop, 1 client, 1 process",
    }


def measure_end_to_end(workload, args, work_dir):
    setups = []
    setup_failures = []
    for _ in range(SETUP_REPS):
        ctx, elapsed, reason = setup(workload, work_dir)
        setups.append(elapsed)
        if reason:
            setup_failures.append({"op": "warm-up", "reason": reason})
    latencies, walls, failures, threads = run_ops(ctx, workload, args.seed, seconds=args.seconds)
    n = len(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        # 1 / mean CPU latency: operations per second of operation CPU time
        "ops_per_s": n / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ok_frac": (n - len(failures)) / n,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "failed_frac": len(failures) / n,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "samples": n,
        "setup_reps_s": setups,
        "latencies_s": latencies,
        "wall_latencies_s": walls,
        "max_threads": threads,
        "queueing": QUEUEING_NOTE,
    }
    return ctx, metrics, details, failures + setup_failures, n


def measure_per_layer(workload, args, work_dir):
    """Run the workload's fixed `trace_ops` operations untraced, then the same ones traced.

    The per-layer totals cover a fixed amount of work whatever the speed of the
    program; the untraced pass is only the baseline of trace.overhead_frac.
    """
    ctx, _elapsed, reason = setup(workload, work_dir)
    count = workload.trace_ops
    plain, plain_walls, failures, threads = run_ops(ctx, workload, args.seed, count=count)
    tracer = tracing.Tracer()
    tracer.install(ctx.package)
    try:
        traced, traced_walls, traced_failures, traced_threads = run_ops(
            ctx, workload, args.seed, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    failures = failures + [dict(f, traced=True) for f in traced_failures]
    if reason:
        failures.append({"op": "warm-up", "reason": reason})
    details = {
        "untraced_s": sum(plain),
        "traced_s": sum(traced),
        "untraced_wall_s": sum(plain_walls),
        "traced_wall_s": sum(traced_walls),
        "wall_overhead_frac": sum(traced_walls) / sum(plain_walls) - 1.0,
        "samples": count,
        "max_threads": max(threads, traced_threads),
        "queueing": QUEUEING_NOTE,
        "span_fields": ["name", "layer", "start", "end", "parent", "op", "work", "ok"],
        "spans": tracer.spans,
    }
    return ctx, metrics, details, failures, 2 * count


def print_table(workload, args, result, details, failures):
    length = f"{workload.trace_ops} operations, traced" if args.trace else \
        f"{args.seconds:g} s of operation CPU time, untraced"
    print(f"{workload.name}  seed {args.seed}  {length}  "
          f"closed loop, 1 client  ({details['samples']} operations)")
    for name, metric in result["metrics"].items():
        print(f"  {name:26s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'failed_frac':26s} {details['failed_frac']:14.6g} fraction")
        print(f"  op_tail_s is p{details['tail_percentile']:.0f} of {details['samples']} "
              f"operations, {details['tail_beyond']} beyond it")
    print(f"  queueing: {details['queueing']}")
    if details["max_threads"] > 1:
        print(f"  WARNING: {details['max_threads']} OS threads ran; CPU-time latencies add "
              f"them up, so judge this run on the wall latencies in the result file")
    print(f"  failed {result['failed']} of {result['attempted']} attempted")
    for f in failures:
        print(f"  FAILED op {f['op']}: {f['reason']}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description="haartorus certifier benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "haartorus" / "__init__.py").is_file() or \
            not (ROOT / "golden" / "c0.json").is_file():
        print(f"error: no haartorus sources (src/haartorus, golden/c0.json) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        ctx, metrics, details, failures, attempted = measure(workload, args, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if metrics.keys() != units.keys():
        print(f"error: metrics {sorted(metrics.keys() ^ units.keys())} are measured or "
              f"declared in {SPEC.name}, not both", file=sys.stderr)
        return 3
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": sum(1 for f in failures if f["op"] != "warm-up"),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, provenance=provenance(workload, args, ctx.package),
                  failures=failures, details=details)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    print_table(workload, args, result, details, failures)
    print(f"  result file: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
