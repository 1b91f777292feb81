"""Benchmark entry point.

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 30 --trace 0

runs one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
The line before it holds the details: operations by phase, failure
reasons, request count and every set-up time.  ``--seconds`` defaults
to ``run_seconds`` of ``BENCHMARK.json``.

    python3 perfbench/run.py --smoke      # every workload, briefly, every check on
    python3 perfbench/run.py --pin-hash   # hash of the pinned generator sample

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold-solve", "hot-gateway", "fleet-shard")
#: workloads that run in this process, pinned to one CPU
IN_PROCESS = ("cold-solve", "fleet-shard")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _metric_specs() -> dict:
    spec = _spec()
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (result line, details)."""
    from perfbench import workloads

    out_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    run = workloads.Run(workload, seed, seconds, trace, out_dir, smoke=smoke)
    run.execute()
    specs = _metric_specs()
    if trace:
        values = {name: run.layers.get(name, 0.0) for name in specs["per_layer"]}
        units = specs["per_layer"]
    else:
        values = run.end_to_end()
        units = specs["end_to_end"]
    totals = run.ledger.totals()
    line = {
        "correct": run.ledger.wrong == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    details = {
        "workload": workload,
        "seed": seed,
        "phases": run.ledger.by_phase(),
        "failures": dict(run.ledger.reasons),
        "requests": len(run.meter.latencies),
        "setups_s": run.meter.setups,
        "tail_percentile": workloads.TAIL_PERCENTILE[workload],
    }
    if trace:
        details["median_block_rps"] = {
            phase: statistics.median(rps) for phase, rps in run.meter.block_rps.items()
        }
    return line, details


def smoke() -> int:
    """Every workload, briefly, traced and untraced, every check on."""
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            line, details = run_once(workload, seed=1, seconds=1.0, trace=trace, smoke=True)
            print(json.dumps({"smoke": details, "result": line}, sort_keys=True), flush=True)
            failures += line["failed"] + (0 if line["correct"] else 1)
    print("smoke: ok" if failures == 0 else f"smoke: {failures} failure(s)")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="query-optimization service benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin-hash", action="store_true")
    args = parser.parse_args(argv)

    # a terminated run still stops the server it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not _program_present():
        print(f"error: no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if args.workload in IN_PROCESS and not args.smoke:
        # The client thread hands each request to the service's worker
        # thread, and the fleet anneals its shards on threads of its own;
        # on two CPUs each hand-off can wake an idle CPU, whose delay
        # follows the load of the whole host.  Pinned before NumPy loads,
        # so its BLAS starts one thread, not one per CPU spinning on one.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import inputs

    if args.pin_hash:
        print(inputs.pin_hash())
        return 0
    inputs.check_pin()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    seconds = _spec()["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")
    line, details = run_once(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
