#!/usr/bin/env python3
"""Builds the SCAP benchmark and runs its workloads, each in its own process.

    python3 perfbench/run.py                                  # all four workloads
    python3 perfbench/run.py --trace 1                        # all four, traced
    python3 perfbench/run.py --workload signoff --seed 3 --seconds 10 --trace 0

A single-workload run passes the workload's output through unchanged; its
last line is the result JSON (see perfbench/README.md) and its exit code
is non-zero when the correctness gate fails. Without --workload every
workload runs in turn and a table of every metric, with its unit, follows.

Program threads are pinned to the CPUs this process may use: SCAP_THREADS
is set to that count (the serve workload also opens that many client
connections). Run from the repository root; the build goes to
$CARGO_TARGET_DIR, or perfbench/target when it is unset.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["atpg_staged", "atpg_hybrid", "signoff", "serve_mixed"]
# The Turbo-Eagle preset's generator seed, also the default run seed.
DEFAULT_SEED = 8300062
# A workload process that outlives this is killed and counts as failed.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; exits non-zero if that fails."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        result = subprocess.run(cmd, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"cannot run cargo: {e}")
    if result.returncode != 0:
        sys.exit(result.returncode)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "scap-perfbench")


def run_seconds():
    """The run length BENCHMARK.json declares: the default of --seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(binary, workload, args, env):
    """Runs one workload process; returns (stdout, exit code)."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.design_seed is not None:
        cmd += ["--design-seed", str(args.design_seed)]
    try:
        result = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        print(f"{workload}: killed after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return out, 1
    return result.stdout, result.returncode


def result_of(stdout):
    """The result JSON on the last line, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="run seed: the request mix, the hybrid fill and the serve designs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--design-seed", type=int, default=None,
                        help="ATPG and sign-off design (default 8300062; holdout 1)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()

    binary = build()
    threads = cpu_count()
    env = dict(os.environ, SCAP_THREADS=str(threads))
    print(f"SCAP_THREADS={threads}", file=sys.stderr)

    if args.workload != "all":
        stdout, code = run_workload(binary, args.workload, args, env)
        sys.stdout.write(stdout)
        sys.exit(code)

    rows, failed = [], []
    for workload in WORKLOADS:
        stdout, code = run_workload(binary, workload, args, env)
        lines = stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = result_of(stdout)
        if code != 0 or result is None or not result.get("correct"):
            failed.append(workload)
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "failed/attempted", f"{result['failed']}/{result['attempted']}", ""))
    print()
    print(f"{'workload':<12} {'metric':<30} {'value':>18}  unit")
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<12} {name:<30} {shown:>18}  {unit}")
    if failed:
        print(f"correctness gate FAILED on: {', '.join(failed)}")
        sys.exit(1)
    print("correctness gate passed on every workload")


if __name__ == "__main__":
    main()
