"""The reference module against the paper's worked examples and brute force."""

import itertools

import pytest

from perfbench.reference import (
    InvalidPlan,
    JoinSpace,
    join_optimum,
    mqo_cost,
    mqo_optimum,
)
from repro.joinorder.generators import cycle_query, paper_example_graph, star_query
from repro.mqo.generator import paper_example_problem, random_mqo_problem


def test_paper_tables_1_2_mqo_optimum():
    assert mqo_optimum(paper_example_problem()) == (21.0, (2, 4, 8))


def test_paper_table_3_join_optimum():
    cost, order = join_optimum(paper_example_graph())
    assert cost == 51_000.0
    assert order[2] == "T" and set(order[:2]) == {"R", "S"}


@pytest.mark.parametrize("queries,plans,seed", [(3, 2, 0), (5, 3, 1), (6, 3, 2), (7, 2, 3)])
def test_mqo_optimum_matches_brute_force(queries, plans, seed):
    problem = random_mqo_problem(queries, plans, seed=seed)
    groups = {}
    for plan in problem.plans:
        groups.setdefault(plan.query_id, []).append(plan.plan_id)
    brute = min(problem.execution_cost(s) for s in itertools.product(*groups.values()))
    cost, selection = mqo_optimum(problem)
    assert cost == pytest.approx(brute, rel=1e-12)
    assert mqo_cost(problem, selection) == cost


def test_mqo_optimum_covers_twelve_queries_of_three_plans():
    problem = random_mqo_problem(12, 3, seed=4)
    cost, selection = mqo_optimum(problem)
    assert len(selection) == 12
    # no single-plan swap improves the optimum
    for plan in problem.plans:
        swapped = [p for p in selection if problem.plan(p).query_id != plan.query_id]
        assert mqo_cost(problem, swapped + [plan.plan_id]) >= cost - 1e-9


@pytest.mark.parametrize("graph", [star_query(5, seed=1), cycle_query(6, seed=2)])
def test_join_optimum_matches_brute_force(graph):
    from repro.joinorder.cost import cout_cost

    names = graph.relation_names
    brute = min(cout_cost(graph, list(order)) for order in itertools.permutations(names))
    cost, order = join_optimum(graph)
    assert cost == pytest.approx(brute, rel=1e-12)
    assert JoinSpace(graph).cost(order) == cost


def test_plans_outside_the_space_are_rejected():
    problem = paper_example_problem()
    with pytest.raises(InvalidPlan):
        mqo_cost(problem, [1, 2, 4, 8])  # two plans for query 1
    with pytest.raises(InvalidPlan):
        mqo_cost(problem, [2, 4])  # query 3 unserved
    with pytest.raises(InvalidPlan):
        JoinSpace(paper_example_graph()).cost(["R", "S"])
