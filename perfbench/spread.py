#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs workloads over several seeds
through the declared command and reports, per end-to-end metric, the
median and the spread (distance between the first and third quartile, as
a share of the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 --sets 2
    python3 perfbench/spread.py --seeds 10 --save first.json
    python3 perfbench/spread.py --seeds 10 --compare first.json
    python3 perfbench/spread.py --workloads signoff --seeds 5

--sets 2 runs two sets of seeds (1..N and N+1..2N), alternating between
them run by run so both see the same host conditions, and checks the
second set's medians against the first's. --save writes every set's raw
values; --compare checks the medians against the last set of such a
file. A median worse than its reference by more than the bound fails.
Exit code 1 when a run fails its gate or a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed, seconds):
    """One run of the declared command; the metric values, or None."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = result.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else None
    if result.returncode != 0 or line is None or not line["correct"]:
        print(f"{workload} seed {seed}: FAILED (exit {result.returncode})", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in line["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def report(raw, metrics, reference, label):
    """Prints one set's table; returns False when a check fails."""
    ok = True
    print(f"{label}")
    print(f"{'workload':<12} {'metric':<16} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for workload, by_metric in raw.items():
        for name, values in by_metric.items():
            if len(values) < 2:
                continue
            s, median = spread(values)
            bound = metrics[name]["bound"]
            verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            ok &= s <= bound
            if reference and name in reference.get(workload, {}):
                _, before = spread(reference[workload][name])
                worse = (median - before) / before if metrics[name]["better"] == "lower" \
                    else (before - median) / before
                verdict += f"; vs reference {worse:+.3f}"
                if worse > bound:
                    verdict += " WORSE"
                    ok = False
            print(f"{workload:<12} {name:<16} {median:>14.6g} {s:>8.4f} {bound:>6}  {verdict}")
    return ok


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--save", help="write the raw values here")
    parser.add_argument("--compare", help="a file --save wrote earlier")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [{} for _ in range(args.sets)]
    ok = True
    for workload in args.workloads.split(","):
        for raw in sets:
            raw[workload] = {}
        for i in range(args.seeds):
            for k, raw in enumerate(sets):
                seed = args.first_seed + k * args.seeds + i
                values = run(bench, workload, seed, args.seconds)
                if values is None:
                    ok = False
                    continue
                for name, v in values.items():
                    raw[workload].setdefault(name, []).append(v)
    reference = None
    if args.compare:
        with open(args.compare) as f:
            reference = json.load(f)[-1]
    for k, raw in enumerate(sets):
        first = args.first_seed + k * args.seeds
        label = f"set {k + 1}: seeds {first}..{first + args.seeds - 1}, {args.seconds} s runs"
        ok &= report(raw, metrics, sets[0] if k else reference, label)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(sets, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
