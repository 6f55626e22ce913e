"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload attack-mc --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones,
measured with tracing off; with --trace 1 a separate run of a fixed number
of passes prints the per-layer metrics. The line before it, starting with
"raw ", holds the same figures before scaling to reference speed.
"""
from __future__ import annotations

import os

# One BLAS thread: the variables must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedClock
from tracing import COUNT_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 3
TRACE_PASSES = 2


def import_program():
    """Import opqkd afresh from ./src, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "opqkd" or m.startswith("opqkd.")]:
        del sys.modules[name]
    import opqkd
    import opqkd.cli  # noqa: F401

    if Path(opqkd.__file__).resolve().parent != SRC / "opqkd":
        raise SystemExit(f"bench: imported opqkd from {opqkd.__file__}, not from {SRC}")
    return opqkd


def set_up(workload, seed: int, scratch: Path) -> None:
    """Everything a workload needs before its first pass, from a cold import
    of the package (numpy is already loaded by then)."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    workload.setup(import_program(), seed, str(scratch))


def timed_pass(clock: SpeedClock, workload, index: int, problems: list):
    """One pass. Each operation is timed alone and checked after its interval
    ends; the pass time is the sum of the operations' times. Returns the
    number of failed operations and the pass time at reference speed and
    raw."""
    scaled = raw = 0.0

    def timed(fn, *args):
        nonlocal scaled, raw
        result, op_scaled, op_raw = clock.measure(lambda: fn(*args))
        scaled += op_scaled
        raw += op_raw
        return result

    result = workload.run_pass(index, timed)
    problems += result.problems
    return result.failed, scaled, raw


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(workload, seed: int, seconds: float, scratch: Path, problems: list):
    clock = SpeedClock()
    clock.start_timer()
    try:
        setups = [clock.measure(lambda: set_up(workload, seed, scratch))[1:]
                  for _ in range(SETUP_REPEATS)]
        passes, failed = [], 0
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            pass_failed, scaled, raw = timed_pass(clock, workload, len(passes), problems)
            failed += pass_failed
            passes.append((scaled, raw))
    finally:
        clock.stop_timer()
    rss = peak_rss_mb()
    pass_scaled = statistics.median(p[0] for p in passes)
    pass_raw = statistics.median(p[1] for p in passes)
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "work_per_s": (workload.work_per_pass / pass_scaled, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = {
        "setup_s": statistics.median(s[1] for s in setups),
        "work_per_s": workload.work_per_pass / pass_raw,
        "peak_rss_mb": rss,
        "passes": len(passes),
        "slices": len(clock.samples),
    }
    return len(passes), failed, metrics, raw


def traced_run(workload, seed: int, scratch: Path, problems: list):
    """Set-up and a fixed number of passes under the tracer, then the same
    number of passes with the wrappers removed to price the tracing."""
    clock = SpeedClock()
    prog = import_program()
    tracer = Tracer()
    tracer.install()
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    passes = TRACE_PASSES
    traced, plain, counts, failed = [], [], [], 0

    clock.start_timer()
    try:
        clock.measure(lambda: workload.setup(prog, seed, str(scratch)))
        for index in range(passes):
            tracer.counts.update(dict.fromkeys(tracer.counts, 0))
            pass_failed, scaled, _ = timed_pass(clock, workload, index, problems)
            failed += pass_failed
            traced.append(scaled)
            counts.append(dict(tracer.counts))
        tracer.uninstall()
        for index in range(passes):
            pass_failed, scaled, _ = timed_pass(clock, workload, index, problems)
            failed += pass_failed
            plain.append(scaled)
    finally:
        clock.stop_timer()
    if any(c != counts[0] for c in counts):
        problems.append(f"per-pass counts differ between passes: {counts}")

    factor = clock.speed_factor()
    metrics = {}
    for name, total in tracer.self_times(clock.samples).items():
        value = None if name in tracer.absent else total * factor / passes
        metrics[name] = (value, "s")
    for name in COUNT_METRICS:
        metrics[name] = (None if name in tracer.absent else counts[0][name], "count")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"spans-{workload.name}-{seed}.npz"))
    if tracer.absent:
        print(f"bench: absent from this program: {sorted(tracer.absent)}", file=sys.stderr)
    raw = {"speed_factor": factor, "traced_passes": passes}
    return 2 * passes, failed, metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opqkd" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'opqkd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    scratch = OUT / f"scratch-{os.getpid()}"
    problems: list[str] = []
    try:
        if args.trace:
            passes, failed, metrics, raw = traced_run(workload, args.seed, scratch, problems)
        else:
            passes, failed, metrics, raw = untraced_run(
                workload, args.seed, args.seconds, scratch, problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print("raw " + json.dumps(raw))
    print(json.dumps({
        "correct": not problems,
        "attempted": passes * workload.ops_per_pass,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
