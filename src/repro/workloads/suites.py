"""Named workload suites shared by the benchmarks and the scaling tests.

Each suite returns a list of :class:`WorkloadCase` objects — a label, a
schema, and optionally a query target and a database state — so that every
benchmark regenerating a paper artifact iterates over exactly the same
instances and prints comparable rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..hypergraph.cycles import aclique, aring
from ..hypergraph.generators import (
    chain_schema,
    grid_schema,
    random_cyclic_schema,
    random_tree_schema,
    star_schema,
)
from ..hypergraph.schema import DatabaseSchema, RelationSchema
from ..relational.database import DatabaseState
from ..relational.universal import random_ur_database

__all__ = [
    "WorkloadCase",
    "gyo_scaling_workload",
    "tableau_scaling_workload",
    "acyclicity_workload",
    "query_evaluation_workload",
]


@dataclass(frozen=True)
class WorkloadCase:
    """One benchmark instance: a labelled schema, optional target and state."""

    label: str
    schema: DatabaseSchema
    target: Optional[RelationSchema] = None
    state: Optional[DatabaseState] = None

    def __str__(self) -> str:
        return self.label


def gyo_scaling_workload(sizes: Sequence[int] = (10, 50, 100, 200, 400)) -> List[WorkloadCase]:
    """Schemas of growing size for the GYO-reduction scaling benchmark.

    Chains and stars are tree schemas (the reduction runs to empty); Arings
    are the canonical cyclic family (the reduction stops immediately); random
    tree schemas exercise non-trivial witness structure.
    """
    cases: List[WorkloadCase] = []
    for size in sizes:
        cases.append(WorkloadCase(label=f"chain-{size}", schema=chain_schema(size)))
        cases.append(WorkloadCase(label=f"star-{size}", schema=star_schema(size)))
        cases.append(WorkloadCase(label=f"aring-{size}", schema=aring(max(size, 3))))
        cases.append(
            WorkloadCase(
                label=f"random-tree-{size}",
                schema=random_tree_schema(size, rng=size),
            )
        )
    return cases


def tableau_scaling_workload(sizes: Sequence[int] = (4, 6, 8, 10, 12)) -> List[WorkloadCase]:
    """Schemas for the tableau-minimization / canonical-connection scaling benchmark."""
    cases: List[WorkloadCase] = []
    for size in sizes:
        chain = chain_schema(size)
        cases.append(
            WorkloadCase(
                label=f"chain-{size}",
                schema=chain,
                target=RelationSchema({"x0", f"x{size}"}),
            )
        )
        ring = aring(size)
        cases.append(
            WorkloadCase(
                label=f"aring-{size}",
                schema=ring,
                target=RelationSchema(ring[0]),
            )
        )
        tree = random_tree_schema(size, rng=size)
        cases.append(
            WorkloadCase(
                label=f"random-tree-{size}",
                schema=tree,
                target=RelationSchema(tree[0]),
            )
        )
    return cases


def acyclicity_workload(sizes: Sequence[int] = (4, 6, 8, 10)) -> List[WorkloadCase]:
    """Schemas spanning the acyclicity spectrum for the γ/β/α benchmarks."""
    cases: List[WorkloadCase] = []
    for size in sizes:
        cases.append(WorkloadCase(label=f"chain-{size}", schema=chain_schema(size)))
        cases.append(WorkloadCase(label=f"aring-{size}", schema=aring(size)))
        cases.append(WorkloadCase(label=f"aclique-{size}", schema=aclique(size)))
        cases.append(
            WorkloadCase(label=f"grid-2x{size}", schema=grid_schema(2, size))
        )
        cases.append(
            WorkloadCase(
                label=f"random-cyclic-{size}",
                schema=random_cyclic_schema(size, rng=size),
            )
        )
    return cases


def query_evaluation_workload(
    chain_lengths: Sequence[int] = (3, 4, 5),
    *,
    tuple_count: int = 90,
    domain_size: int = 24,
) -> List[WorkloadCase]:
    """Chain queries with UR states for the Yannakakis-vs-naive benchmark.

    The target is the pair of endpoint attributes, the worst case for the
    naive left-to-right join (every intermediate result carries attributes
    that the final projection throws away).  The default sizes keep the naive
    baseline's intermediate blow-up measurable (tens of thousands of tuples)
    but bounded, so the benchmark finishes in seconds in pure Python.
    """
    cases: List[WorkloadCase] = []
    for length in chain_lengths:
        schema = chain_schema(length)
        state = random_ur_database(
            schema,
            tuple_count=tuple_count,
            domain_size=domain_size,
            rng=length,
        )
        cases.append(
            WorkloadCase(
                label=f"chain-{length}-n{tuple_count}",
                schema=schema,
                target=RelationSchema({"x0", f"x{length}"}),
                state=state,
            )
        )
    return cases
