"""The checker accepts right answers and rejects wrong plans and costs."""

from perfbench.checks import Checker, Expected, Ledger
from perfbench.reference import mqo_cost, mqo_optimum
from repro.mqo.generator import paper_example_problem

PROBLEM = paper_example_problem()


def expected():
    optimum, _ = mqo_optimum(PROBLEM)
    return Expected(
        kind="mqo",
        content="paper",
        optimum=optimum,
        price=lambda plan: mqo_cost(PROBLEM, plan.get("selected_plans", ())),
    )


def answer(plans, cost, **fields):
    base = {"status": "ok", "deadline_exceeded": False, "valid": True,
            "plan": {"selected_plans": plans}, "cost": cost}
    base.update(fields)
    return base


def test_right_answers_pass_and_price_the_ratio():
    ledger = Ledger()
    checker = Checker(ledger)
    assert checker.check("m", expected(), answer([2, 4, 8], 21.0))
    assert checker.check("m", expected(), answer([8, 4, 2], 21.0))
    assert checker.check("other", Expected("mqo", "other", 21.0, expected().price),
                         answer([1, 4, 6], 26.0))
    assert ledger.totals() == {"attempted": 3, "failed": 0}
    assert ledger.wrong == 0
    assert checker.plan_cost_ratio() > 1.0


def test_wrong_plan_is_rejected():
    ledger = Ledger()
    assert not Checker(ledger).check("m", expected(), answer([1, 2, 4, 8], 31.0))
    assert ledger.totals() == {"attempted": 1, "failed": 1}
    assert ledger.wrong == 1


def test_wrong_cost_is_rejected():
    ledger = Ledger()
    assert not Checker(ledger).check("m", expected(), answer([2, 4, 8], 20.0))
    assert ledger.wrong == 1


def test_cost_below_the_optimum_is_rejected():
    ledger = Ledger()
    cheaper = Expected("mqo", "paper", 30.0, expected().price)
    assert not Checker(ledger).check("m", cheaper, answer([2, 4, 8], 21.0))
    assert "below the exhaustive optimum" in next(iter(ledger.reasons))


def test_equal_content_must_get_identical_plans():
    ledger = Ledger()
    checker = Checker(ledger)
    assert checker.check("m", expected(), answer([1, 4, 6], 26.0))
    assert not checker.check("m", expected(), answer([2, 4, 8], 21.0))
    assert ledger.wrong == 1


def test_errors_fail_without_being_wrong_answers():
    ledger = Ledger()
    checker = Checker(ledger)
    assert not checker.check("m", expected(), answer([2, 4, 8], 21.0, status="rejected"))
    assert not checker.check("m", expected(), answer([2, 4, 8], 21.0, deadline_exceeded=True))
    checker.fail("m", "HTTP 503")
    assert ledger.totals() == {"attempted": 3, "failed": 3}
    assert ledger.wrong == 0

