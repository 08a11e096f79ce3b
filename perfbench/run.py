#!/usr/bin/env python3
"""Whole-network serving benchmark: build, run one workload, print the result.

Run from the repository root:

    python3 perfbench/run.py --workload resnet18_b1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call builds the library (through the repository's own CMake
file) and the benchmark into .bench_build/. Each run is two processes:
`perfbench prepare` synthesizes the model, writes its artifact and the dense
oracle's outputs; `perfbench run` measures, timing each set-up in a fresh
`perfbench setup` child of its own. The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}. The line
before it, starting with `meta `, records the run's ISA, pool size, nproc,
CPU model, commit, seed and workload parameters.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_build"
BUILD = WORK / "cmake"
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def run_bounded(cmd, timeout, **kwargs):
    """subprocess.run in its own session; on timeout the whole process
    group (a build's compilers included) is killed and reaped."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build():
    env = dict(os.environ, TMPDIR=str(WORK / "tmp"))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
              "perfbench", "perfbench_selftest"]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        res = run_bounded(cmd, max(1, deadline - time.monotonic()),
                          stdout=sys.stderr, stderr=sys.stderr, env=env)
        if res.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")


def source_identity():
    """The git commit when there is one, and a digest of the sources."""
    commit = None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    start = time.monotonic()
    binary = BUILD / "perfbench"
    work = WORK / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(work)]

    def remaining():
        return max(1.0, RUN_BUDGET_S - (time.monotonic() - start))

    res = run_bounded([str(binary), "prepare"] + common, remaining(),
                      stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise SystemExit("prepare failed")
    res = run_bounded([str(binary), "run"] + common +
                      ["--seconds", str(args.seconds),
                       "--trace", str(args.trace)], remaining(),
                      stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    for path in work.glob("model.*"):
        path.unlink()
    for name in ("dense.bin", "refs.bin"):
        (work / name).unlink(missing_ok=True)
    if res.returncode != 0:
        raise SystemExit(f"run failed with exit code {res.returncode}")

    lines = res.stdout.strip().splitlines()
    meta_lines = [ln for ln in lines if ln.startswith("meta ")]
    if not lines or not meta_lines:
        raise SystemExit("run printed no result")
    result = json.loads(lines[-1])
    meta = json.loads(meta_lines[-1][len("meta "):])

    declared = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, or units differ")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"malformed result keys {sorted(result)}")

    meta["commit"], meta["src_digest"] = source_identity()
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's logic")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    try:
        build()
        if args.selftest:
            scratch = WORK / "work"
            scratch.mkdir(parents=True, exist_ok=True)
            sys.exit(run_bounded([str(BUILD / "perfbench_selftest"),
                                  str(scratch)], 600).returncode)
        run_workload(args)
    except subprocess.TimeoutExpired as e:
        raise SystemExit(f"timed out: {e.cmd}")
    except (OSError, ValueError, KeyError) as e:
        raise SystemExit(f"perfbench: {e}")


if __name__ == "__main__":
    main()
