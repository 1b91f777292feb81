"""Traced runs: spans nest inside their parents and tracing is transparent."""

from perfbench import tracing
from perfbench.workloads import fleet_policy
from repro.joinorder.generators import star_query
from repro.mqo.generator import random_mqo_problem
from repro.server import ServiceConfig, make_scheduler
from repro.service import OptimizationRequest
from repro.service.core import OptimizationService


def _requests():
    return [
        OptimizationRequest("m", "mqo", random_mqo_problem(6, 3, seed=3), deadline_ms=20_000, seed=5),
        OptimizationRequest("j", "join_order", star_query(5, seed=3), deadline_ms=20_000, seed=5),
    ]


def _serve(config, requests):
    scheduler = make_scheduler("thread", config=config, workers=1, warmup=[])
    try:
        return [scheduler.submit(request).result() for request in requests]
    finally:
        scheduler.shutdown()


def test_traced_spans_nest_and_plans_are_unchanged(tmp_path):
    config = ServiceConfig(seed=5)
    fleet = ServiceConfig(policy=fleet_policy(2), seed=5)
    fleet_request = [
        OptimizationRequest("f", "mqo", random_mqo_problem(12, 3, seed=3), deadline_ms=60_000, seed=5)
    ]
    plain = _serve(config, _requests()) + _serve(fleet, fleet_request)

    tracer = tracing.Tracer(str(tmp_path))
    uninstall = tracing.install(tracer)
    try:
        traced = _serve(config, _requests()) + _serve(fleet, fleet_request)
    finally:
        uninstall()

    assert [r.plan for r in traced] == [r.plan for r in plain]
    assert tracing.nesting_errors(tracer.spans) == []
    names = {span[1] for span in tracer.spans}
    assert {"service.optimize", "problems.adapter", "qubo.build", "qubo.compile",
            "chain.run", "hybrid.solve", "annealers.dispatch", "sa.sample",
            "reconcile"} <= names
    by_id = {span[0]: span for span in tracer.spans}
    for span in tracer.spans:
        if span[1] == "sa.sample":
            assert by_id[span[4]][1] == "annealers.dispatch"
        if span[1] == "chain.run":
            assert span[5] in {"m", "j", "f"}
    metrics = tracing.layer_metrics([{"spans": tracer.spans, "counters": tracer.counters}], 3)
    assert metrics["hybrid.solve_ms"] > 0 and metrics["annealers.subproblems"] > 0

    # unwrapping restores every original
    assert not hasattr(OptimizationService.optimize, "__wrapped__")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "parent", 0.0, 10.0, None, None, None),
        (2, "child", 1.0, 4.0, 1, None, None),
        (3, "child", 3.0, 6.0, 1, None, None),  # overlaps its sibling
        (4, "grandchild", 1.5, 2.0, 2, None, None),
    ]
    own = tracing.self_times(spans)
    assert own[1] == 5.0
    assert own[2] == 2.5
    assert tracing.nesting_errors(spans) == []
    assert tracing.nesting_errors(spans + [(5, "late", 9.0, 11.0, 1, None, None)])
