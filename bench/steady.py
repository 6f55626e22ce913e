"""Steadiness check: two sets of runs of every workload on this checkout.

    python3 bench/steady.py

Run from the repository root. Each set makes RUNS runs of every workload,
workloads taking turns, and every run gets its own seed. For every workload
and end-to-end metric it prints each set's median and quartiles, at
reference speed and raw. Then it makes two traced runs of every workload
with the same seed. It exits 1 when a spread (interquartile range over
median) exceeds the metric's bound, when the second set's median is worse
than the first's by more than the bound, when the two sets' shares of
failed operations differ, when the two traced runs of a workload give
different counts, or when a run fails or reports incorrect output. All
runs are saved under .bench_out/.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300
RUNS = 10
TRACE_SEED = 1


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed, "error": f"no result in {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "error": proc.stderr[-2000:]}
    raw = next((json.loads(line[4:]) for line in lines if line.startswith("raw ")), {})
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]), "raw": raw}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of `first` by which `second` is worse (negative when better)."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {0: [], 1: [], "traced": []}
    for half in (0, 1):
        for i in range(RUNS):
            for workload in workloads:
                seed = 1 + half * RUNS + i
                record = run_once(spec, workload, seed)
                runs[half].append(record)
                status = "error" if "error" in record else record["result"]["correct"]
                print(f"set {half + 1} run {i + 1} {workload} seed {seed}: correct={status}",
                      file=sys.stderr)
    for workload in workloads:
        for _ in range(2):
            runs["traced"].append(run_once(spec, workload, TRACE_SEED, trace=1))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    saved = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    saved.write_text(json.dumps(runs, indent=1))

    failures = []
    for group, records in runs.items():
        for record in records:
            if "error" in record or not record["result"]["correct"]:
                failures.append(f"{group} {record['workload']} seed {record['seed']}: "
                                f"{record.get('error', 'incorrect output')}")
    if failures:
        print("\n".join(failures))
        return 1

    print(f"{'workload':<12} {'metric':<12} set {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'raw q1':>12} {'raw median':>12} {'raw q3':>12}")
    for workload in workloads:
        mine = {h: [r for r in runs[h] if r["workload"] == workload] for h in (0, 1)}
        shares = {h: Fraction(sum(r["result"]["failed"] for r in mine[h]),
                              sum(r["result"]["attempted"] for r in mine[h])) for h in (0, 1)}
        if shares[0] != shares[1]:
            failures.append(f"{workload}: failed share {shares[0]} then {shares[1]}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for h in (0, 1):
                values = [r["result"]["metrics"][name]["value"] for r in mine[h]]
                raw = [r["raw"][name] for r in mine[h]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                rq1, rmed, rq3 = statistics.quantiles(raw, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                print(f"{workload:<12} {name:<12} {h + 1:>3} {q1:12.5g} {med:12.5g} {q3:12.5g} "
                      f"{spread:7.3f} {rq1:12.5g} {rmed:12.5g} {rq3:12.5g}")
                if spread > bound:
                    failures.append(f"{workload} {name} set {h + 1}: spread {spread:.3f} > {bound}")
            drift = worse_by(medians[0], medians[1], metric["better"])
            if drift > bound:
                failures.append(f"{workload} {name}: second median worse by {drift:.3f} > {bound}")
        first, second = ({name: m["value"] for name, m in r["result"]["metrics"].items()
                          if m["unit"] == "count"}
                         for r in runs["traced"] if r["workload"] == workload)
        print(f"{workload:<12} traced counts, seed {TRACE_SEED}: {first}")
        if first != second:
            failures.append(f"{workload}: traced counts {first} then {second}")
    print(f"runs saved to {saved.relative_to(ROOT)}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
