"""The benchmark's own reference answers: exact optima and plan costs.

Every correctness check and ``plan_cost_ratio`` rests on this module.
It recomputes costs from the problem itself (plan costs and savings for
MQO, cardinalities and selectivities for join ordering) and never calls
the solver stack, so a wrong answer from the service cannot agree with
it by sharing code.

* MQO: exhaustive minimum of Eq. 25 over every selection of one plan
  per query.  The selections are split into two halves of the queries;
  each half is one-hot encoded, and the cost of every pair of
  half-selections is ``c·x − ½ xᵀSx`` evaluated with two matrix
  products, so 3^12 = 531,441 selections take a few milliseconds.
* Join ordering: exhaustive minimum of C_out (Eq. 28) over every
  left-deep order, the plan space the service's permutation QUBO
  searches (cross products allowed).  Intermediate sizes are tabulated
  once per relation subset.

The vectorised search only shortlists candidates; the returned optimum
is recomputed with the same scalar function that prices the service's
plans, so a plan equal to the optimum has a ratio of exactly 1.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: relative tolerance for "the reported cost equals the recomputed cost"
COST_RTOL = 1e-9
#: largest exhaustive spaces the reference accepts
MAX_MQO_SELECTIONS = 3**14
MAX_JOIN_RELATIONS = 9


class InvalidPlan(ValueError):
    """A plan that is not a member of the problem's plan space."""


# ----------------------------------------------------------------------
# multi-query optimization
# ----------------------------------------------------------------------
def _plans_by_query(problem) -> List[List]:
    groups: Dict[int, List] = {}
    for plan in problem.plans:
        groups.setdefault(plan.query_id, []).append(plan)
    return list(groups.values())


def mqo_cost(problem, selected: Sequence[int]) -> float:
    """Eq. 25 for ``selected``; raises :class:`InvalidPlan` unless the
    selection holds exactly one known plan per query."""
    chosen = [int(p) for p in selected]
    chosen_set = set(chosen)
    if len(chosen_set) != len(chosen):
        raise InvalidPlan(f"plan selected twice in {sorted(chosen)}")
    known = {plan.plan_id for plan in problem.plans}
    if not chosen_set <= known:
        raise InvalidPlan(f"unknown plan ids {sorted(chosen_set - known)}")
    for group in _plans_by_query(problem):
        count = sum(1 for plan in group if plan.plan_id in chosen_set)
        if count != 1:
            raise InvalidPlan(
                f"query {group[0].query_id} has {count} selected plans"
            )
    cost = 0.0
    for plan in problem.plans:
        if plan.plan_id in chosen_set:
            cost += plan.cost
    for saving in problem.savings:
        if saving.plan_a in chosen_set and saving.plan_b in chosen_set:
            cost -= saving.amount
    return cost


def _half_selections(groups: List[List], index: Dict[int, int], size: int):
    """All selections over ``groups``: (plan-id tuples, one-hot matrix)."""
    combos = list(itertools.product(*groups)) if groups else [()]
    onehot = np.zeros((len(combos), size))
    for row, combo in enumerate(combos):
        for plan in combo:
            onehot[row, index[plan.plan_id]] = 1.0
    return combos, onehot


def mqo_optimum(problem) -> Tuple[float, Tuple[int, ...]]:
    """Exact minimum of Eq. 25: ``(cost, sorted plan ids)``."""
    groups = _plans_by_query(problem)
    space = math.prod(len(group) for group in groups)
    if space > MAX_MQO_SELECTIONS:
        raise ValueError(f"{space} selections exceed the exhaustive limit")
    index = {plan.plan_id: i for i, plan in enumerate(problem.plans)}
    size = len(problem.plans)
    cost = np.array([plan.cost for plan in problem.plans])
    savings = np.zeros((size, size))
    for saving in problem.savings:
        a, b = index[saving.plan_a], index[saving.plan_b]
        savings[a, b] = savings[b, a] = saving.amount

    half = (len(groups) + 1) // 2
    left, x_left = _half_selections(groups[:half], index, size)
    right, x_right = _half_selections(groups[half:], index, size)

    def own(x: np.ndarray) -> np.ndarray:
        return x @ cost - 0.5 * np.einsum("ij,ij->i", x @ savings, x)

    total = own(x_left)[:, None] + own(x_right)[None, :] - (x_left @ savings) @ x_right.T
    best = float(total.min())
    tolerance = 1e-7 * max(1.0, abs(best))
    candidates = np.argwhere(total <= best + tolerance)
    answers = []
    for i, j in candidates:
        selection = tuple(sorted(p.plan_id for p in left[i] + right[j]))
        answers.append((mqo_cost(problem, selection), selection))
    return min(answers)


# ----------------------------------------------------------------------
# join ordering (left-deep, C_out)
# ----------------------------------------------------------------------
class JoinSpace:
    """Intermediate result sizes of every relation subset of a graph."""

    def __init__(self, graph) -> None:
        self.names = [relation.name for relation in graph.relations]
        if len(self.names) > MAX_JOIN_RELATIONS:
            raise ValueError(f"{len(self.names)} relations exceed the exhaustive limit")
        self.bit = {name: 1 << i for i, name in enumerate(self.names)}
        cards = [float(relation.cardinality) for relation in graph.relations]
        preds = [
            (self.bit[p.first] | self.bit[p.second], float(p.selectivity))
            for p in graph.predicates
        ]
        self.size = [0.0] * (1 << len(self.names))
        for mask in range(1, len(self.size)):
            value = 1.0
            for i, card in enumerate(cards):
                if mask >> i & 1:
                    value *= card
            for pair, selectivity in preds:
                if mask & pair == pair:
                    value *= selectivity
            self.size[mask] = value

    def cost(self, order: Sequence[str]) -> float:
        """C_out of ``order`` including the final join (Eq. 28)."""
        order = list(order)
        if sorted(order) != sorted(self.names):
            raise InvalidPlan(f"{order} is not a permutation of {sorted(self.names)}")
        mask = self.bit[order[0]]
        cost = 0.0
        for name in order[1:]:
            mask |= self.bit[name]
            cost += self.size[mask]
        return cost

    def optimum(self) -> Tuple[float, Tuple[str, ...]]:
        """Exact minimum over all left-deep orders: ``(cost, order)``."""
        n = len(self.names)
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        masks = np.cumsum(np.left_shift(1, perms), axis=1)
        sizes = np.array(self.size)
        totals = sizes[masks[:, 1:]].sum(axis=1)
        best = float(totals.min())
        tolerance = 1e-7 * max(1.0, abs(best))
        answers = []
        for row in np.flatnonzero(totals <= best + tolerance):
            order = tuple(self.names[i] for i in perms[row])
            answers.append((self.cost(order), order))
        return min(answers)


def join_optimum(graph) -> Tuple[float, Tuple[str, ...]]:
    return JoinSpace(graph).optimum()


def costs_agree(reported: float, recomputed: float) -> bool:
    """Reported and recomputed cost equal up to float summation order."""
    return math.isclose(reported, recomputed, rel_tol=COST_RTOL, abs_tol=COST_RTOL)
