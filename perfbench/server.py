"""The hot-gateway server: ``python -m repro serve``'s stack, pre-warmed.

Builds the process-pool scheduler (2 workers) and runs the HTTP gateway
in the foreground until SIGTERM, like ``python -m repro serve --backend
process --workers 2``.  The difference is the warm-up: every worker
serves the whole hot-gateway problem pool before the gateway opens, so
every worker's compile and result caches hold every problem.

With ``--trace-dir`` the tracing wrappers are installed before the pool
forks; the server and each worker write their spans there on exit.

Prints ``serving on http://HOST:PORT ...`` once ready.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import inputs, tracing  # noqa: E402
from perfbench.workloads import HOT_WORKERS, hot_pool, request_for  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    from repro.server import ServiceConfig, make_scheduler, run_gateway

    tracer = None
    if args.trace_dir is not None:
        tracer = tracing.Tracer(args.trace_dir)
        tracing.install(tracer)
    pool = hot_pool(inputs.Factory())
    warmup = [request_for(item, f"warm-{index}") for index, item in enumerate(pool)]
    scheduler = make_scheduler(
        "process", config=ServiceConfig(), workers=HOT_WORKERS, warmup=warmup
    )
    # workers record their warm-up too; spans that start before this
    # instant (one monotonic clock for every process) are set-up work
    ready_at = time.perf_counter()
    if tracer is not None:
        tracer.reset()
    run_gateway(scheduler, port=0, default_deadline_ms=inputs.DEADLINE_MS)
    if tracer is not None:
        tracer.write(ready_at=ready_at)
    return 0


if __name__ == "__main__":
    sys.exit(main())
