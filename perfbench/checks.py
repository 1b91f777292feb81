"""Correctness checks and the operation ledger.

Every served answer is checked against :mod:`perfbench.reference`; a
check that fails counts the operation as failed, and a wrong answer
(as opposed to an error, a rejection or a missed deadline) also makes
the run's ``correct`` flag false.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from perfbench.reference import InvalidPlan, costs_agree

#: ratios below ``1 - RATIO_SLACK`` beat the exhaustive optimum: a bug
RATIO_SLACK = 1e-9


@dataclass(frozen=True)
class Expected:
    """What the benchmark knows about one problem before it is served."""

    kind: str
    #: canonical content key; equal keys must get identical plans
    content: str
    #: exhaustive optimum cost
    optimum: float
    #: plan payload -> recomputed cost; raises InvalidPlan
    price: Callable[[Mapping[str, Any]], float]


def answer_of(result: Any) -> Dict[str, Any]:
    """The checked fields of an OptimizationResult or its JSON form."""
    if isinstance(result, Mapping):
        return {key: result.get(key) for key in ("status", "deadline_exceeded", "valid", "plan", "cost")}
    return {
        "status": result.status,
        "deadline_exceeded": result.deadline_exceeded,
        "valid": result.valid,
        "plan": result.plan,
        "cost": result.cost,
    }


def plan_key(plan: Mapping[str, Any]) -> tuple:
    """Identity of a plan: a join order is a sequence, an MQO selection a set."""
    return tuple(
        sorted(
            (key, tuple(sorted(value)) if key == "selected_plans" else tuple(value))
            for key, value in plan.items()
        )
    )


class Ledger:
    """Operations attempted and failed, by phase, with failure reasons."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.reasons: Counter = Counter()
        #: wrong answers (as opposed to errors) seen in any phase
        self.wrong = 0

    def record(self, phase: str, failure: Optional[str] = None, wrong: bool = False) -> bool:
        self.attempted[phase] += 1
        if failure is not None:
            self.failed[phase] += 1
            self.reasons[f"{phase}: {failure}"] += 1
            self.wrong += int(wrong)
        return failure is None

    def totals(self) -> Dict[str, int]:
        return {
            "attempted": sum(self.attempted.values()),
            "failed": sum(self.failed.values()),
        }

    def by_phase(self) -> Dict[str, Dict[str, int]]:
        return {
            phase: {"attempted": self.attempted[phase], "failed": self.failed[phase]}
            for phase in sorted(self.attempted)
        }


class Checker:
    """Checks answers and accumulates ``plan_cost_ratio``: the geometric
    mean, over served requests, of cost / exhaustive optimum."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.plans: Dict[str, tuple] = {}
        self.log_ratios: List[float] = []

    def check(self, phase: str, expected: Expected, result: Any, count_ratio: bool = True) -> bool:
        """Record one served operation; True when its answer is right."""
        failure, wrong, ratio = self._verdict(expected, answer_of(result))
        ok = self.ledger.record(phase, failure, wrong)
        if ok and count_ratio:
            self.log_ratios.append(math.log(ratio))
        return ok

    def fail(self, phase: str, reason: str) -> None:
        """Record an operation that produced no answer at all."""
        self.ledger.record(phase, reason)

    def plan_cost_ratio(self) -> float:
        if not self.log_ratios:
            return float("nan")
        return math.exp(math.fsum(self.log_ratios) / len(self.log_ratios))

    def _verdict(self, expected: Expected, answer: Dict[str, Any]):
        if answer["status"] != "ok":
            return f"status {answer['status']}", False, None
        if answer["deadline_exceeded"]:
            return "deadline_exceeded", False, None
        plan = answer["plan"] or {}
        try:
            cost = expected.price(plan)
        except (InvalidPlan, TypeError, ValueError) as exc:
            return f"invalid plan: {exc}", True, None
        if not answer["valid"]:
            return "valid plan reported as invalid", True, None
        if not costs_agree(float(answer["cost"]), cost):
            return f"reported cost {answer['cost']!r} != recomputed {cost!r}", True, None
        ratio = cost / expected.optimum
        if ratio < 1.0 - RATIO_SLACK:
            return f"cost ratio {ratio!r} below the exhaustive optimum", True, None
        key = plan_key(plan)
        previous = self.plans.setdefault(expected.content, key)
        if previous != key:
            return "plans for equal content disagree", True, None
        return None, False, max(ratio, 1.0)
