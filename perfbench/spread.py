#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload fleet_query --seeds 1 2 3 4 5 \
        [--save runs.jsonl]
    python3 perfbench/spread.py --compare before.jsonl after.jsonl

Run it from the repository root. A run is steady when every spread,
(q3 - q1) / median over the seeds, is below a third of the metric's
bound. `--compare` reads two saved sets and flags every metric whose
second median is worse than the first by more than its bound. Sets
recorded on different core counts are never compared.

Quartiles use Python's statistics.quantiles(values, n=4), the method
the acceptance check uses; statistics within a run live in src/stats.rs.
"""

import argparse
import json
import statistics
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return {"record": record, "result": result}


def one_core_count(runs):
    cores = {r["record"]["cores"] for r in runs}
    if len(cores) != 1:
        sys.exit(f"runs span core counts {sorted(cores)}; refusing to pool them")
    return cores.pop()


def medians(runs):
    by_metric = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
    return by_metric


def report(runs):
    cores = one_core_count(runs)
    print(f"{len(runs)} runs on {cores} cores")
    steady = True
    for name, values in medians(runs).items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = BOUNDS.get(name, {}).get("bound")
        ok = bound is None or spread < bound / 3
        steady &= ok
        print(f"  {name:<16} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread:.4f} bound {bound} {'ok' if ok else 'WIDE'}")
    return steady


def compare(before, after):
    if one_core_count(before) != one_core_count(after):
        sys.exit("the two sets were recorded on different core counts")
    a, b = medians(before), medians(after)
    worse = False
    for name, spec in BOUNDS.items():
        m0, m1 = statistics.median(a[name]), statistics.median(b[name])
        change = (m1 - m0) / m0
        regress = change > spec["bound"] if spec["better"] == "lower" else -change > spec["bound"]
        worse |= regress
        print(f"  {name:<16} {m0:<14.6g} -> {m1:<14.6g} {change:+.4f} "
              f"bound {spec['bound']} {'WORSE' if regress else 'ok'}")
    return not worse


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        ok = compare(load(args.compare[0]), load(args.compare[1]))
    else:
        if not args.workload or not args.seeds or len(args.seeds) < 2:
            ap.error("--workload and at least two --seeds are required")
        runs = []
        for seed in args.seeds:
            runs.append(run_once(args.workload, seed, args.seconds, 0))
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps(runs[-1]) + "\n")
        ok = report(runs)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
