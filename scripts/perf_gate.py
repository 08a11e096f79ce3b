#!/usr/bin/env python3
"""CI perf gate on the served network: ratios from traced perfbench runs.

Reads the stdout of several `perfbench run --workload resnet18_b1
--trace 1` runs, one file per run (the last line is the result JSON, the
line before it `meta {...}`), and exits 1 unless

  1. every run is `correct` with `failed` 0, and
  2. the median over the runs of each whole-network ratio below clears
     its bound.

Only ratios are gated: absolute times swing 2-3x between hosts and runs,
while a sparse path that loses its N:M cut, a conv that stops
splitting over threads, or an MVQI open that starts decoding moves a
ratio by far more than that noise.

    perfbench prepare --workload resnet18_b1 --seed 1 --dir D
    perfbench run --workload resnet18_b1 --seed 1 --dir D \\
        --seconds 3 --trace 1 > run1.txt          # three times
    python3 scripts/perf_gate.py [--json out.json] run1.txt run2.txt ...

`--json PATH` appends one JSON line per reading (median, per-run values,
bound). `--selftest` checks the gate against canned result lines (ctest
`perf_gate_selftest`).
"""

from __future__ import annotations

import json
import statistics
import sys

WORKLOAD = "resnet18_b1"

# The bounds come from 20 consecutive local runs of the CI step (3 traced
# runs each, 4-vCPU KVM Xeon, avx2, gcc 12 Release; BENCH_pr24.json).
# Each floor sits at no more than half the lowest gated reading (the
# median of a step's 3 runs), each ceiling at no less than twice the
# highest.

# Fraction of the N/M ideal each conv class reaches: dense conv time over
# sparse conv time, divided by M/N (perfbench/README.md). Gated readings
# per class: stem 0.33-0.49, stage1 0.41-0.61, stage2 0.39-0.57, stage3
# 0.43-0.57, stage4 0.57-0.67, down 0.29-0.36 (single runs 0.27-0.72).
# Each class has its own floor because they sit at different levels: one
# floor under the lowest class would miss a kernel doing 4x its work,
# which read 0.15-0.20 in every class (the conv's input build and
# scatter do not grow with it).
NM_IDEAL_FRAC_FLOORS = {"stem": 0.16, "stage1": 0.20, "stage2": 0.19,
                        "stage3": 0.21, "stage4": 0.28, "down": 0.14}

# Batch-1 forward at one thread over the same forward at every pool
# thread. Gated readings 2.28-3.40 at 4 threads (single runs 2.05-3.61);
# a conv that runs as one task reads about 1. Gated only from
# SPEEDUP_MIN_THREADS pool threads, where the floor has room below it.
SPEEDUP_B1_FLOOR = 1.1
SPEEDUP_MIN_THREADS = 4

# (io.open_ms + io.operands_ms) / io.first_forward_ms: an MVQI open maps
# and validates in O(bytes), far less than one forward. Gated readings
# 0.145-0.209 (single runs 0.11-0.22); an open that decodes or repacks
# costs more than a forward.
OPEN_OVER_FORWARD_CEILING = 1.0


def parse_run(text: str, name: str) -> tuple[dict, dict]:
    """(meta, result) from one run's stdout; ValueError if malformed."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[-2].startswith("meta "):
        raise ValueError(f"{name}: want a 'meta {{...}}' line and then "
                         "the result line at the end of the output")
    meta = json.loads(lines[-2][len("meta "):])
    result = json.loads(lines[-1])
    if meta.get("workload") != WORKLOAD or meta.get("trace") != 1:
        raise ValueError(f"{name}: not a traced {WORKLOAD} run "
                         f"(workload {meta.get('workload')!r}, trace "
                         f"{meta.get('trace')!r})")
    return meta, result


def metric(result: dict, key: str, name: str) -> float:
    try:
        return float(result["metrics"][key]["value"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{name}: result has no metric {key}") from None


def readings(result: dict, name: str) -> dict[str, float]:
    """Every gated reading of one run, by name."""
    out = {f"nn.{c}.nm_ideal_frac":
           metric(result, f"nn.{c}.nm_ideal_frac", name)
           for c in NM_IDEAL_FRAC_FLOORS}
    out["parallel.speedup_b1"] = metric(result, "parallel.speedup_b1", name)
    forward = metric(result, "io.first_forward_ms", name)
    out["io.open_over_first_forward"] = (
        (metric(result, "io.open_ms", name)
         + metric(result, "io.operands_ms", name)) / forward
        if forward > 0 else float("inf"))
    return out


def bounds(threads: int) -> dict[str, tuple[str, float]]:
    """reading -> ('floor' | 'ceiling', bound) at this pool size."""
    out = {f"nn.{c}.nm_ideal_frac": ("floor", floor)
           for c, floor in NM_IDEAL_FRAC_FLOORS.items()}
    if threads >= SPEEDUP_MIN_THREADS:
        out["parallel.speedup_b1"] = ("floor", SPEEDUP_B1_FLOOR)
    out["io.open_over_first_forward"] = ("ceiling",
                                         OPEN_OVER_FORWARD_CEILING)
    return out


def gate(runs: list[tuple[str, str]], log=print) -> tuple[bool, list[dict]]:
    """Check (name, stdout) runs; returns (passed, one record per
    reading). Malformed input fails the gate."""
    if not runs:
        log("perf_gate: no runs given")
        return False, []
    ok = True
    per_run = []
    threads = []
    try:
        for name, text in runs:
            meta, result = parse_run(text, name)
            if result.get("correct") is not True or result.get("failed") != 0:
                log(f"FAIL {name}: correct={result.get('correct')} "
                    f"failed={result.get('failed')} (want true and 0)")
                ok = False
            per_run.append(readings(result, name))
            threads.append(int(meta.get("pool_threads", 0)))
    except ValueError as e:
        log(f"FAIL {e}")
        return False, []

    pool = min(threads)
    limits = bounds(pool)
    records = []
    log(f"{'reading':32} {'median':>8}  {'bound':>13}  runs")
    for key in per_run[0]:
        values = [r[key] for r in per_run]
        med = statistics.median(values)
        shown = " ".join(f"{v:.3f}" for v in values)
        if key not in limits:
            log(f"{key:32} {med:8.3f}  {'(not gated)':>13}  {shown}  "
                f"note: {pool} pool threads, gated from "
                f"{SPEEDUP_MIN_THREADS}")
            records.append({"metric": key, "value": med, "runs": values})
            continue
        kind, bound = limits[key]
        passed = med >= bound if kind == "floor" else med <= bound
        ok = ok and passed
        sign = ">=" if kind == "floor" else "<="
        log(f"{key:32} {med:8.3f}  {sign} {bound:<10.3f}  {shown}  "
            f"{'ok' if passed else 'FAIL'}")
        records.append({"metric": key, "value": med, "runs": values,
                        kind: bound})
    log(f"perf_gate: {'pass' if ok else 'FAIL'} over {len(runs)} run(s)")
    return ok, records


# ------------------------------------------------------------- selftest

def canned_run(correct=True, failed=0, threads=4, **override) -> str:
    """One run's stdout with passing readings; `override` maps a metric
    name (dots as '__') to a value."""
    values = {f"nn.{c}.nm_ideal_frac": 0.4 for c in NM_IDEAL_FRAC_FLOORS}
    values.update({"parallel.speedup_b1": 2.8, "io.open_ms": 0.1,
                   "io.operands_ms": 3.0, "io.first_forward_ms": 18.0})
    for k, v in override.items():
        values[k.replace("__", ".")] = v
    meta = {"workload": WORKLOAD, "trace": 1, "pool_threads": threads}
    result = {"correct": correct, "attempted": 216, "failed": failed,
              "metrics": {k: {"value": v, "unit": ""}
                          for k, v in values.items() if v is not None}}
    return (f"info: a log line\nmeta {json.dumps(meta)}\n"
            f"{json.dumps(result)}\n")


def selftest() -> int:
    good = canned_run()
    cases = [("passing runs", [good] * 3, True)]
    # One failing case per bound: the median (2 of 3 runs) is below it.
    for c, floor in NM_IDEAL_FRAC_FLOORS.items():
        low = canned_run(**{f"nn__{c}__nm_ideal_frac": floor * 0.9})
        cases.append((f"{c} nm_ideal_frac under its floor",
                      [low, low, good], False))
    slow = canned_run(parallel__speedup_b1=SPEEDUP_B1_FLOOR * 0.9)
    cases += [
        ("speedup_b1 under its floor", [slow, slow, good], False),
        ("speedup_b1 not gated under 4 threads",
         [canned_run(threads=2, parallel__speedup_b1=1.0)] * 3, True),
        ("open over first forward above its ceiling",
         [canned_run(io__operands_ms=20.0)] * 2 + [good], False),
        ("one incorrect run", [good, canned_run(correct=False), good],
         False),
        ("one run with failed requests", [good, canned_run(failed=1), good],
         False),
        ("a run without a gated metric",
         [good, canned_run(nn__down__nm_ideal_frac=None), good], False),
        ("a truncated run", [good, "meta {}\n", good], False),
        ("an untraced run", [good, good.replace('"trace": 1', '"trace": 0'),
                             good], False),
        ("no runs", [], False),
    ]
    failures = []
    for what, texts, want in cases:
        log: list[str] = []
        got, _ = gate([(f"run{i}", t) for i, t in enumerate(texts)],
                      log=log.append)
        if got != want:
            failures.append(f"{what}: gate {'passed' if got else 'failed'}"
                            f", want {'pass' if want else 'fail'}\n  "
                            + "\n  ".join(log))
        else:
            print(f"ok: {what} -> {'pass' if got else 'fail'}")
    if failures:
        print("\n".join(failures))
        print(f"\nselftest: {len(failures)} failure(s)")
        return 1
    print(f"selftest: all {len(cases)} cases as expected")
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return selftest()
    json_path = None
    if args[:1] == ["--json"]:
        if len(args) < 2:
            print("perf_gate: --json needs a path", file=sys.stderr)
            return 2
        json_path, args = args[1], args[2:]
    if not args or any(a.startswith("--") for a in args):
        print("usage: perf_gate.py [--json PATH] RUN_OUTPUT... | "
              "--selftest", file=sys.stderr)
        return 2
    runs = []
    for path in args:
        with open(path, encoding="utf-8") as f:
            runs.append((path, f.read()))
    ok, records = gate(runs)
    if json_path:
        with open(json_path, "a", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps({"bench": f"perf_gate_{WORKLOAD}", **r})
                        + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
