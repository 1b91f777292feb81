"""Workload inputs, made from the run's seed with the repo's generators.

The same seed always gives the same inputs.  Because the generators
live in the program, :func:`check_pin` regenerates a fixed sample and
compares its content hash with :data:`INPUT_PIN`: a change to a
generator stops the run instead of silently changing the workload.
``python3 perfbench/run.py --pin-hash`` prints the current hash.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Iterator, List, Set

from perfbench.checks import Expected
from perfbench.reference import JoinSpace, mqo_cost, mqo_optimum

#: sha256 over the pinned generator sample (see :func:`pin_hash`)
INPUT_PIN = "692bce150e744c1ac922e1554f4438bd0ac7e6cc88dec3eca856e7c3fa1ff85e"

#: statistics scale of the TPC-H-like catalog; ``POST /sql`` binds
#: against the same scale by default
CATALOG_SCALE = 0.01
#: root seed every request carries (solve seeds derive from it)
REQUEST_SEED = 11
#: loose enough that no chain stage is ever cut short
DEADLINE_MS = 20_000.0

KINDS = ("mqo", "join_order", "sql")
JOIN_SHAPES = ("chain", "star", "cycle")
#: every size a kind comes in: (queries, plans per query), (graph shape,
#: relations) and (tables,), twelve of each.  Streams cycle through them
#: in a fixed order, so every period of 36 requests serves the same mix
#: of sizes and only the content of each problem depends on the seed.
SHAPES = {
    "mqo": [(queries, plans) for queries in (4, 5, 6, 6, 7, 8) for plans in (2, 3)],
    "join_order": [(shape, relations) for relations in range(4, 8) for shape in JOIN_SHAPES],
    "sql": [(tables,) for tables in range(3, 7)] * 3,
}
#: requests after which a stream has served every shape of every kind
PERIOD = len(KINDS) * len(SHAPES["mqo"])


def derive(seed: int, *parts: Any) -> int:
    """Stable 31-bit seed for one input, independent of PYTHONHASHSEED."""
    text = json.dumps([seed, *parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass(frozen=True)
class Item:
    """One problem to serve."""

    kind: str
    #: MqoProblem, QueryGraph or SqlQuery
    problem: Any
    #: canonical content key; equal keys must get identical plans
    content: str


class Factory:
    """Builds problems and their references; holds the shared catalog."""

    def __init__(self) -> None:
        from repro.sql import tpch_catalog

        self.catalog = tpch_catalog(scale=CATALOG_SCALE)

    # -- generators ----------------------------------------------------
    def mqo_problem(self, gen_seed: int, queries: int, plans: int):
        from repro.mqo.generator import random_mqo_problem

        return random_mqo_problem(queries, plans, seed=gen_seed)

    def join_graph(self, gen_seed: int, shape: str, relations: int):
        from repro.joinorder import generators

        make = {
            "chain": generators.chain_query,
            "star": generators.star_query,
            "cycle": generators.cycle_query,
        }[shape]
        return make(relations, seed=gen_seed)

    def sql_text(self, gen_seed: int, tables: int) -> str:
        from repro.sql import generate_query

        return generate_query(
            seed=gen_seed, catalog=self.catalog, min_tables=tables, max_tables=tables
        )

    # -- items ---------------------------------------------------------
    def item(self, kind: str, shape: tuple, gen_seed: int) -> Item:
        """One problem of ``kind`` and ``shape`` (see :data:`SHAPES`)."""
        from repro.serialization import mqo_to_dict, query_graph_to_dict
        from repro.sql import SqlQuery, plan_query

        if kind == "mqo":
            problem = self.mqo_problem(gen_seed, *shape)
            return Item(kind, problem, _canonical(["mqo", mqo_to_dict(problem)]))
        if kind == "join_order":
            graph = self.join_graph(gen_seed, *shape)
            return Item(kind, graph, _canonical(["join_order", query_graph_to_dict(graph)]))
        (tables,) = shape
        text = self.sql_text(gen_seed, tables)
        query = SqlQuery(sql=text, catalog=self.catalog)
        # the service keys SQL on the join graph repro.sql extracts
        graph = plan_query(query).graph
        return Item(kind, query, _canonical(["sql", query_graph_to_dict(graph)]))

    def expect(self, item: Item) -> Expected:
        """The item's exhaustive optimum and plan pricing."""
        if item.kind == "mqo":
            problem = item.problem
            optimum, _selection = mqo_optimum(problem)
            price = lambda plan: mqo_cost(problem, plan.get("selected_plans", ()))  # noqa: E731
        else:
            if item.kind == "sql":
                from repro.sql import plan_query

                graph = plan_query(item.problem).graph
            else:
                graph = item.problem
            space = JoinSpace(graph)
            optimum, _order = space.optimum()
            price = lambda plan: space.cost(plan.get("order", ()))  # noqa: E731
        return Expected(kind=item.kind, content=item.content, optimum=optimum, price=price)


def _canonical(data: Any) -> str:
    """Digest of a problem's canonical JSON (short, so runs can keep many)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class DistinctStream:
    """An endless, seed-determined stream of problems that never repeat.

    Kinds rotate so every block of three holds one of each, and each
    kind cycles through its :data:`SHAPES`; content that equals an
    earlier item (two SQL texts can derive the same join graph) is
    skipped.
    """

    def __init__(self, factory: Factory, seed: int, tag: str, kinds=KINDS) -> None:
        self.factory = factory
        self.seed = seed
        self.tag = tag
        self.kinds = kinds
        self.index = 0
        self.seen: Set[str] = set()

    def __iter__(self) -> Iterator[Item]:
        return self

    def __next__(self) -> Item:
        while True:
            kind = self.kinds[self.index % len(self.kinds)]
            shapes = SHAPES[kind]
            shape = shapes[(self.index // len(self.kinds)) % len(shapes)]
            gen_seed = derive(self.seed, self.tag, self.index)
            self.index += 1
            item = self.factory.item(kind, shape, gen_seed)
            if item.content not in self.seen:
                self.seen.add(item.content)
                return item

    def take(self, count: int) -> List[Item]:
        return [next(self) for _ in range(count)]


def fleet_items(factory: Factory, seed: int) -> Iterator[Item]:
    """Distinct 12-query x 3-plan MQO instances (36 variables)."""
    from repro.serialization import mqo_to_dict

    seen: Set[str] = set()
    index = 0
    while True:
        problem = factory.mqo_problem(derive(seed, "fleet", index), 12, 3)
        index += 1
        content = _canonical(["mqo", mqo_to_dict(problem)])
        if content not in seen:
            seen.add(content)
            yield Item("mqo", problem, content)


class ZipfDraws:
    """Seeded Zipf(exponent) draws over ranks ``0..unique-1``."""

    def __init__(self, seed: int, unique: int, exponent: float = 1.1) -> None:
        self.ranks = range(unique)
        self.cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in self.ranks)
        )
        self.rng = random.Random(derive(seed, "zipf"))

    def take(self, count: int) -> List[int]:
        return self.rng.choices(self.ranks, cum_weights=self.cumulative, k=count)


# ----------------------------------------------------------------------
# generator pin
# ----------------------------------------------------------------------
def pin_hash() -> str:
    """Content hash of a fixed sample of every generator the inputs use."""
    from repro.serialization import mqo_to_dict, query_graph_to_dict
    from repro.sql.catalog import catalog_to_dict

    factory = Factory()
    sample: List[Any] = [catalog_to_dict(factory.catalog)]
    for pin in (1, 2, 3):
        sample.append(mqo_to_dict(factory.mqo_problem(pin, 4 + pin, 2 + pin % 2)))
        sample.append(mqo_to_dict(factory.mqo_problem(pin, 12, 3)))
        for shape in JOIN_SHAPES:
            sample.append(query_graph_to_dict(factory.join_graph(pin, shape, 4 + pin)))
        sample.append(factory.sql_text(pin, 2 + pin))
    text = json.dumps(sample, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_pin() -> None:
    """Raise when the generators no longer produce the pinned inputs."""
    actual = pin_hash()
    if actual != INPUT_PIN:
        raise RuntimeError(
            f"workload generators changed: input hash {actual} != pinned {INPUT_PIN}; "
            "the benchmark's inputs would silently differ from earlier runs"
        )
