"""The three workloads: cold solve, hot gateway and fleet shards.

Each workload sets the serving stack up several times (``setup_s`` is
the median), then runs whole blocks of requests from one client until
the measured time reaches ``--seconds`` and the run holds enough
requests for its tail percentile.  Inputs for a block are made before
it and its answers are checked after it, outside the timed region.

In a traced run blocks alternate between untraced and traced ones
(:mod:`perfbench.tracing` installed for the block only; ``hot-gateway``
alternates between an untraced and a traced server), so neighbouring
blocks share the host's speed.  The per-layer metrics come from the
traced blocks and the tracing overhead is the throughput lost between
the median untraced and the median traced block.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench import inputs, tracing
from perfbench.checks import Checker, Ledger

#: tail percentile reported as ``latency_tail_ms``; a run serves at
#: least ``10 / (1 - p)`` requests so ten samples lie beyond it
TAIL_PERCENTILE = {"cold-solve": 90.0, "hot-gateway": 90.0, "fleet-shard": 90.0}
#: set-ups per run (the median is reported): the serving stack's own,
#: then spare ones built and dropped between blocks; an in-process
#: set-up takes 4-60 ms, a server start ~3.5 s
SETUPS = {"cold-solve": 45, "hot-gateway": 5, "fleet-shard": 45}
#: requests per timed block; a cold-solve block is one period of the
#: input stream, so every block serves the same mix of problem sizes
BLOCK = {"cold-solve": inputs.PERIOD, "hot-gateway": 80, "fleet-shard": 1}
#: hot-gateway: pool workers, pool size and the pool's fixed seed
HOT_WORKERS = 2
HOT_POOL = 96
HOT_POOL_SEED = 0
#: fleet stage: two Chimera devices; one restart of at most three
#: rounds keeps a request near 0.2 s (the registry defaults take ~7 s,
#: too long for a run to hold the 100 requests its p90 needs)
FLEET_OPTIONS = {
    "restarts": 1, "max_rounds": 3, "stall_rounds": 1, "sub_reads": 2, "num_sweeps": 64,
}
#: instances re-solved on a 1-device fleet per run, outside the timing
FLEET_EQUIVALENCE = 2
#: requests re-served on a fresh service per cold-solve run
COLD_REPLAYS = 6
#: problems a run keeps after serving them, for the checks above
KEPT = max(FLEET_EQUIVALENCE, COLD_REPLAYS)
#: a run stops adding blocks after this much wall time
WALL_LIMIT_S = 140.0

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def min_requests(workload: str) -> int:
    return math.ceil(10.0 / (1.0 - TAIL_PERCENTILE[workload] / 100.0))


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set of one process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids(pid: int) -> List[int]:
    pids: List[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
            pids.extend(int(token) for token in handle.read().split())
    return pids


def pin(pids: Sequence[int], cpus) -> None:
    """Set the CPUs of every thread of the processes ``pids``."""
    for pid in pids:
        for task in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(task), cpus)


def hot_pool(factory: inputs.Factory) -> List[inputs.Item]:
    """The hot-gateway problem pool: the same for every run.

    Plan quality differs a lot between problems (a few join orders cost
    several times their optimum), so a pool drawn per seed let the seed
    move ``plan_cost_ratio`` over 1.015-1.131; the run's seed drives the
    Zipf draws over this pool instead.
    """
    return inputs.DistinctStream(factory, HOT_POOL_SEED, "hot").take(HOT_POOL)


def fleet_policy(size: int):
    from repro.service import StageSpec

    options = dict(FLEET_OPTIONS, fleet_size=size)
    return (StageSpec("fleet", tuple(sorted(options.items())), 1.0),)


def request_for(item: inputs.Item, request_id: str):
    from repro.service import OptimizationRequest

    return OptimizationRequest(
        request_id=request_id,
        kind=item.kind,
        problem=item.problem,
        deadline_ms=inputs.DEADLINE_MS,
        seed=inputs.REQUEST_SEED,
    )


class Meter:
    """Wall-clock timings of set-ups and request blocks."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.latencies: List[float] = []
        self.busy = 0.0
        #: phase -> throughput of each of its blocks
        self.block_rps: Dict[str, List[float]] = defaultdict(list)

    def setup(self, build: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        value = build()
        self.setups.append(time.perf_counter() - start)
        return value

    def block(self, run: Callable[[], Tuple[float, List[float]]], phase: str) -> None:
        """Time one block: ``run`` returns (wall seconds, latencies)."""
        wall, latencies = run()
        self.busy += wall
        self.latencies.extend(latencies)
        self.block_rps[phase].append(len(latencies) / wall)

    def figures(self, workload: str) -> Dict[str, float]:
        return {
            "throughput_rps": len(self.latencies) / self.busy,
            "latency_p50_ms": statistics.median(self.latencies) * 1000.0,
            "latency_tail_ms": percentile(self.latencies, TAIL_PERCENTILE[workload]) * 1000.0,
        }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, smoke: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        # smoke runs set up once and need no minimum request count
        self.setup_count = 1 if smoke else SETUPS[workload]
        self.min_requests = 1 if smoke else min_requests(workload)
        self.ledger = Ledger()
        self.checker = Checker(self.ledger)
        self.meter = Meter()
        self.factory = inputs.Factory()
        self.started = time.perf_counter()
        self.peak_rss_mb = float("nan")
        self.layers: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def enough(self) -> bool:
        if time.perf_counter() - self.started > WALL_LIMIT_S:
            return True
        return (
            self.meter.busy >= self.seconds
            and len(self.meter.latencies) >= self.min_requests
            # a traced run ends with at least one traced block
            and (not self.trace or "traced" in self.meter.block_rps)
        )

    def execute(self) -> None:
        {
            "cold-solve": self._cold,
            "hot-gateway": self._hot,
            "fleet-shard": self._fleet,
        }[self.workload]()
        if self.trace:
            rps = {phase: statistics.median(v) for phase, v in self.meter.block_rps.items()}
            self.layers["tracing.overhead_pct"] = 100.0 * (1.0 - rps["traced"] / rps["measure"])

    def spare_setup(self, build_and_drop: Callable[[], None], finish: bool = False) -> None:
        """Time a spare set-up when the measured time reaches its turn
        (with ``finish``, every set-up still missing).

        The machine's speed drifts over seconds, so the set-ups are
        spread evenly over the measured time instead of all running at
        its start.  Traced runs time no set-ups.
        """
        if self.trace:
            return
        spacing = self.seconds / self.setup_count
        while len(self.meter.setups) < self.setup_count and (
            finish or self.meter.busy >= len(self.meter.setups) * spacing
        ):
            build_and_drop()

    def phase(self, block_index: int) -> str:
        """``traced`` for every other block of a traced run."""
        return "traced" if self.trace and block_index % 2 == 1 else "measure"

    # -- in-process workloads -------------------------------------------
    def _in_process(self, items: Iterator[inputs.Item], config
                    ) -> Tuple[Any, Dict[str, int], List[inputs.Item], Optional[tracing.Tracer]]:
        """Set up, then serve blocks; returns (scheduler, requests served
        by phase, the first problems served, tracer)."""
        from repro.server import make_scheduler

        def build():
            return make_scheduler("thread", config=config, workers=1)

        def spare() -> None:
            self.meter.setup(build).shutdown()

        scheduler = self.meter.setup(build)
        tracer = tracing.Tracer(self.out_dir) if self.trace else None
        served: Dict[str, int] = defaultdict(int)
        # later problems are dropped so the process's peak RSS does not
        # grow with the run's request count
        kept: List[inputs.Item] = []
        size = BLOCK[self.workload]
        blocks = 0
        while not self.enough():
            self.spare_setup(spare)
            phase = self.phase(blocks)
            blocks += 1
            block = [next(items) for _ in range(size)]
            expected = [self.factory.expect(item) for item in block]
            requests = [
                request_for(item, f"{phase}-{served[phase] + i}")
                for i, item in enumerate(block)
            ]
            results: List[Any] = []

            def run_block() -> Tuple[float, List[float]]:
                latencies = []
                start = time.perf_counter()
                for request in requests:
                    t0 = time.perf_counter()
                    try:
                        results.append(scheduler.submit(request).result())
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        results.append(exc)
                    latencies.append(time.perf_counter() - t0)
                return time.perf_counter() - start, latencies

            uninstall = tracing.install(tracer) if phase == "traced" else None
            try:
                self.meter.block(run_block, phase)
            finally:
                if uninstall is not None:
                    uninstall()
            for exp, result in zip(expected, results):
                if isinstance(result, Exception):
                    self.checker.fail(phase, f"{type(result).__name__}: {result}")
                else:
                    self.checker.check(phase, exp, result)
            served[phase] += len(block)
            kept.extend(block[: KEPT - len(kept)])
        self.spare_setup(spare, finish=True)
        if not self.trace:
            self.peak_rss_mb = vm_hwm_mb()
        return scheduler, served, kept, tracer

    def _cache_layers(self, stats: Dict[str, Any], requests: int) -> None:
        cache = stats["cache"]
        self.layers["cache.result_hits"] = cache["results"]["hits"] / requests
        self.layers["cache.result_misses"] = cache["results"]["misses"] / requests
        self.layers["cache.compile_hits"] = cache["compiled"]["hits"] / requests
        self.layers["cache.compile_misses"] = cache["compiled"]["misses"] / requests
        self.layers["scheduler.coalesce_hits"] = (
            stats["scheduler"]["coalesce"]["hits"] / requests
        )

    def _finish_in_process(self, scheduler, served: Dict[str, int], tracer) -> None:
        stats = scheduler.stats()
        scheduler.shutdown()
        if tracer is None:
            return
        tracer.write()
        dump = {"spans": tracer.spans, "counters": dict(tracer.counters)}
        errors = tracing.nesting_errors(tracer.spans)
        if errors:
            raise RuntimeError(f"traced spans do not nest: {errors[:3]}")
        self.layers.update(tracing.layer_metrics([dump], served["traced"]))
        # the service's counters cover the untraced blocks too
        self._cache_layers(stats, sum(served.values()))

    def _cold(self) -> None:
        from repro.server import ServiceConfig, make_scheduler

        config = ServiceConfig(seed=inputs.REQUEST_SEED)
        stream = inputs.DistinctStream(self.factory, self.seed, "cold")
        scheduler, served, kept, tracer = self._in_process(stream, config)
        self._finish_in_process(scheduler, served, tracer)
        if self.trace:
            return
        # equal content must give identical plans on a fresh service
        replay = make_scheduler("thread", config=config, workers=1)
        try:
            for index, item in enumerate(kept[:COLD_REPLAYS]):
                result = replay.submit(request_for(item, f"replay-{index}")).result()
                self.checker.check("replay", self.factory.expect(item), result, count_ratio=False)
        finally:
            replay.shutdown()

    def _fleet(self) -> None:
        from repro.server import ServiceConfig
        from repro.service import make_adapter, run_chain

        config = ServiceConfig(policy=fleet_policy(2), seed=inputs.REQUEST_SEED)
        items = inputs.fleet_items(self.factory, self.seed)
        scheduler, served, kept, tracer = self._in_process(items, config)
        self._finish_in_process(scheduler, served, tracer)
        if self.trace:
            return
        # fleet ≡ single: the service derives its solve seed from the
        # policy, which names the fleet size, so both sizes run the
        # chain directly with one seed and must agree exactly
        equivalence = Checker(self.ledger)
        for index, item in enumerate(kept[:FLEET_EQUIVALENCE]):
            adapter = make_adapter(item.kind, item.problem)
            expected = self.factory.expect(item)
            for size in (2, 1):
                outcome = run_chain(
                    adapter, fleet_policy(size), deadline_s=inputs.DEADLINE_MS / 1000.0,
                    seed=inputs.derive(self.seed, "fleet-equivalence", index),
                )
                answer = {
                    "status": "ok", "deadline_exceeded": outcome.deadline_exceeded,
                    "valid": outcome.valid, "plan": outcome.plan, "cost": outcome.cost,
                }
                equivalence.check(f"fleet-{size}-device", expected, answer, count_ratio=False)

    # -- hot gateway ------------------------------------------------------
    def _hot(self) -> None:
        pool = hot_pool(self.factory)
        expected = [self.factory.expect(item) for item in pool]
        bodies = [_http_body(item) for item in pool]
        draws = inputs.ZipfDraws(self.seed, len(pool))
        trace_dir = os.path.join(self.out_dir, f"hot-{os.getpid()}")
        servers: Dict[str, Server] = {}
        clients: Dict[str, HttpClient] = {}
        every_cpu = os.sched_getaffinity(0)
        one_cpu = {max(every_cpu)}
        round_trips: Dict[str, float] = {}
        served: Dict[str, int] = defaultdict(int)

        def spare() -> None:
            # a spare server runs its set-up while the measured one idles
            self.meter.setup(Server).stop()

        try:
            if self.trace:
                # traced blocks go to a server of their own, started with
                # the tracing wrappers installed before its pool forks
                servers["measure"] = Server()
                servers["traced"] = Server(trace_dir)
            else:
                servers["measure"] = self.meter.setup(Server)
            for phase, server in servers.items():
                clients[phase] = HttpClient(server.port)
                # set up on every CPU, serve on one: the closed loop has
                # one request in flight, and hops between processes on
                # one CPU need no cross-CPU wake-up, whose delay follows
                # the load of the whole host
                pin(server.pids(), one_cpu)
            blocks = 0
            while not self.enough():
                self.spare_setup(spare)
                phase = self.phase(blocks)
                blocks += 1
                first = served[phase]
                ranks = draws.take(BLOCK[self.workload])
                jobs = [(f"{phase}-{first + i}", rank) for i, rank in enumerate(ranks)]
                outcomes: List[tuple] = []

                def run_block(client: HttpClient = clients[phase]) -> Tuple[float, List[float]]:
                    start = time.perf_counter()
                    outcomes[:] = client.run([(rid, *bodies[rank]) for rid, rank in jobs])
                    wall = time.perf_counter() - start
                    return wall, [o[3] for o in outcomes]

                os.sched_setaffinity(0, one_cpu)
                try:
                    self.meter.block(run_block, phase)
                finally:
                    # spare servers started from this thread set up on every CPU
                    os.sched_setaffinity(0, every_cpu)
                for (rid, rank), (_rid, status, data, seconds_taken) in zip(jobs, outcomes):
                    if phase == "traced":
                        round_trips[rid] = seconds_taken
                    if status != 200:
                        self.checker.fail(phase, f"HTTP {status}: {data[:200]!r}")
                    else:
                        self.checker.check(phase, expected[rank], json.loads(data))
                served[phase] += BLOCK[self.workload]
            self.spare_setup(spare, finish=True)
            if self.trace:
                stats = clients["traced"].stats()
            else:
                self.peak_rss_mb = sum(vm_hwm_mb(p) for p in servers["measure"].pids())
        finally:
            for client in clients.values():
                client.close()
            for server in servers.values():
                server.stop()
        if self.trace:
            self._hot_layers(trace_dir, stats, round_trips, served["traced"])

    def _hot_layers(self, trace_dir: str, stats: Dict[str, Any],
                    round_trips: Dict[str, float], served: int) -> None:
        paths = [os.path.join(trace_dir, name) for name in sorted(os.listdir(trace_dir))]
        dumps = tracing.load_span_files(paths)
        if len(dumps) != 1 + HOT_WORKERS:
            raise RuntimeError(f"expected span dumps of {1 + HOT_WORKERS} processes, got {len(dumps)}")
        ready_at = max(dump.get("ready_at", float("-inf")) for dump in dumps)
        for dump in dumps:  # drop the workers' warm-up
            dump["spans"] = [span for span in dump["spans"] if span[2] >= ready_at]
        for dump in dumps:
            errors = tracing.nesting_errors([tuple(span) for span in dump["spans"]])
            if errors:
                raise RuntimeError(f"traced spans do not nest: {errors[:3]}")
        self.layers.update(tracing.layer_metrics(dumps, served))
        self._cache_layers(stats, served)
        scheduler = tracing.scheduler_latency_ms(dumps)
        waits, overheads = [], []
        for rid, seconds_taken in round_trips.items():
            if rid in scheduler:
                latency, service = scheduler[rid]
                waits.append(latency - service)
                overheads.append(seconds_taken * 1000.0 - latency)
        self.layers["pool.wait_ms"] = statistics.fmean(waits) if waits else 0.0
        self.layers["gateway.overhead_ms"] = statistics.fmean(overheads) if overheads else 0.0
        self.layers["gateway.requests"] = float(len(round_trips))

    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        figures = self.meter.figures(self.workload)
        figures["setup_s"] = statistics.median(self.meter.setups)
        figures["plan_cost_ratio"] = self.checker.plan_cost_ratio()
        figures["peak_rss_mb"] = self.peak_rss_mb
        return figures


def _http_body(item: inputs.Item) -> Tuple[str, bytes]:
    """(path, JSON body without its request id) for one pool item."""
    from repro.service.request import problem_to_dict

    fields: Dict[str, Any] = {"deadline_ms": inputs.DEADLINE_MS, "seed": inputs.REQUEST_SEED}
    if item.kind == "sql":
        path = "/sql"
        fields["sql"] = item.problem.sql
    else:
        path = "/optimize"
        fields["kind"] = item.kind
        fields["problem"] = problem_to_dict(item.kind, item.problem)
    return path, json.dumps(fields, separators=(",", ":")).encode()


class HttpClient:
    """One keep-alive connection, closed loop, in the calling thread."""

    HEADERS = {"Content-Type": "application/json"}

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def run(self, jobs: List[Tuple[str, str, bytes]]) -> List[tuple]:
        """(request id, status, body, seconds) for each (request id, path, body)."""
        out = []
        for rid, path, body in jobs:
            payload = b'{"request_id":"' + rid.encode() + b'",' + body[1:]
            start = time.perf_counter()
            try:
                conn = self.connection
                conn.request("POST", path, payload, self.HEADERS)
                response = conn.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                self.connection.close()
                self.connection = self._connect()
                status, data = 0, repr(exc).encode()
            out.append((rid, status, data, time.perf_counter() - start))
        return out

    def stats(self) -> Dict[str, Any]:
        conn = self.connection
        conn.request("GET", "/stats")
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET /stats answered {response.status}")
        return json.loads(data)

    def close(self) -> None:
        self.connection.close()


class Server:
    """``perfbench/server.py`` in a child process, up once it answers.

    The server prints its URL before it installs its SIGTERM handler, so
    set-up ends only when ``GET /healthz`` answers; a stop kills the
    whole process group afterwards, so no pool worker outlives it.
    """

    READY_TIMEOUT_S = 120.0

    def __init__(self, trace_dir: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(PERFBENCH, "server.py")]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self.READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"gateway did not start: {line!r}")
            self.port = int(line.split()[2].rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status != 200:
                    raise RuntimeError("gateway is not healthy")
            finally:
                conn.close()
        except BaseException:
            self.stop()
            raise

    def pids(self) -> List[int]:
        """The server and its pool workers."""
        return [self.proc.pid, *child_pids(self.proc.pid)]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        # pool workers that outlived their parent still hold its group;
        # the group is gone once every member has ended and been reaped
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            self.proc.poll()
            time.sleep(0.05)
        self.proc.wait()
        self.proc.stdout.close()
