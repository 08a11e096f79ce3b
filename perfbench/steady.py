#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and compare spreads to bounds.

Run from the repository root:

    python3 perfbench/steady.py --workload resnet18_b1 --runs 5
    python3 perfbench/steady.py --workload all --runs 10

Run i uses seed i (1, 2, ...) and BENCHMARK.json's run_seconds. For every
end-to-end metric the report prints the median, the first and third
quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median and
the metric's bound from BENCHMARK.json. A spread above a third of its bound
is marked `wide`, above the bound `NOISY`. The command fails when any run
fails, reports correct=false, or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed):
    start = time.monotonic()
    res = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                          "--seed", str(seed), "--trace", "0"],
                         capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-2000:])
        return None, None, wall
    lines = res.stdout.strip().splitlines()
    meta = json.loads(lines[-2][len("meta "):])
    return meta, json.loads(lines[-1]), wall


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        metas = []
        for seed in range(1, args.runs + 1):
            meta, result, wall = run_once(workload, seed)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED run")
                ok = False
                continue
            metas.append(meta)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, failed "
                  f"{result['failed']}/{result['attempted']}", flush=True)
        if len(metas) < 2:
            continue
        print(f"\n{workload}: {len(metas)} runs, isa {metas[0]['isa']}, "
              f"pool {metas[0]['pool_threads']}, nproc {metas[0]['nproc']}, "
              f"{metas[0]['cpu_model']}")
        print(f"  {'metric':16s} {'unit':5s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            status = "ok"
            if spread > m["bound"] / 3:
                status = "wide"
            if spread > m["bound"]:
                status = "NOISY"
                ok = False
            print(f"  {m['name']:16s} {m['unit']:5s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {m['bound']:6.3f} {status}",
                  flush=True)
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
