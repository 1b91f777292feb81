"""Steadiness check: two interleaved sets of runs per workload.

    python3 perfbench/steadiness.py --runs 5 [--workload hot-gateway] [--seconds S]

For each workload, runs ``perfbench/run.py`` ``2 x runs`` times, set A
and set B alternating, with seeds 1, 2, 3, ... (set A odd, set B even).
For every end-to-end metric it prints each set's median and quartiles,
the spread (interquartile range over median) of each set and of all
runs, and whether the sets agree: each spread and the distance between
the medians within the metric's bound from BENCHMARK.json, ``setup_s``
included.  The failed share of operations must be identical in both
sets.  Exits 1 when any metric disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold-solve", "hot-gateway", "fleet-shard")


def run(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    agree = True
    for workload in args.workload or WORKLOADS:
        sets = {"A": [], "B": []}
        seed = 1
        for _ in range(args.runs):
            for name in sets:
                line = run(workload, seed, seconds)
                sets[name].append(line)
                print(f"# {workload} set {name} seed {seed}: "
                      + json.dumps({k: round(v["value"], 4) for k, v in line["metrics"].items()}),
                      flush=True)
                seed += 1
        shares = {
            name: sum(r["failed"] for r in lines) / sum(r["attempted"] for r in lines)
            for name, lines in sets.items()
        }
        if shares["A"] != shares["B"]:
            agree = False
        print(f"{workload}: failed share A {shares['A']:.6f} B {shares['B']:.6f}"
              f"  correct {all(r['correct'] for lines in sets.values() for r in lines)}")
        print(f"  {'metric':<16} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
              f" {'spreadA':>8} {'spreadB':>8} {'spread':>8} {'shift':>8} {'bound':>6}  ok")
        for metric, bound in bounds.items():
            per_set = {
                name: summary([r["metrics"][metric]["value"] for r in lines])
                for name, lines in sets.items()
            }
            pooled = summary(
                [r["metrics"][metric]["value"] for lines in sets.values() for r in lines]
            )
            shift = abs(per_set["B"]["median"] - per_set["A"]["median"]) / per_set["A"]["median"]
            ok = max(per_set["A"]["spread"], per_set["B"]["spread"]) <= bound and shift <= bound
            agree = agree and ok
            cells = [
                f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]" for s in per_set.values()
            ]
            print(f"  {metric:<16} {cells[0]:>32} {cells[1]:>32}"
                  f" {per_set['A']['spread']:8.4f} {per_set['B']['spread']:8.4f}"
                  f" {pooled['spread']:8.4f} {shift:8.4f} {bound:6.2f}  {'yes' if ok else 'NO'}",
                  flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
