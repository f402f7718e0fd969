"""Free-standing relational-algebra helpers.

These functions wrap the :class:`~repro.relational.relation.Relation` methods
in a functional style and add the multi-way operations the paper uses
implicitly: joining a whole database state (``⋈_{R ∈ D} R``) and projecting
the result onto a target.

The multi-way join orders its inputs greedily by shared attributes ("join
connected relations first") so that, on the acyclic workloads used in the
benchmarks, intermediate results stay close to the sizes a sensible query
planner would produce — the *naive* baseline in the benchmarks bypasses this
and joins in schema order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from ..hypergraph.schema import Attribute, RelationSchema
from .relation import Relation

__all__ = [
    "project",
    "natural_join",
    "semijoin",
    "join_all",
    "join_all_in_order",
    "intermediate_join_sizes",
]


def project(relation: Relation, attributes: Union[RelationSchema, Iterable[Attribute]]) -> Relation:
    """``π_X(R)`` as a function."""
    return relation.project(attributes)


def natural_join(left: Relation, right: Relation) -> Relation:
    """``R ⋈ S`` as a function."""
    return left.natural_join(right)


def semijoin(left: Relation, right: Relation) -> Relation:
    """``R ⋉ S`` as a function."""
    return left.semijoin(right)


def join_all_in_order(relations: Sequence[Relation]) -> Relation:
    """Join relations left-to-right in the given order (the naive baseline)."""
    if not relations:
        return Relation.nullary_true()
    result = relations[0]
    for relation in relations[1:]:
        result = result.natural_join(relation)
    return result


def join_all(relations: Sequence[Relation]) -> Relation:
    """Join all relations, greedily preferring joins that share attributes.

    Starting from the first relation, the next operand is always one sharing
    at least one attribute with the accumulated result when such a relation
    exists (avoiding accidental cartesian products on connected schemas).
    """
    if not relations:
        return Relation.nullary_true()
    remaining: List[Relation] = list(relations)
    result = remaining.pop(0)
    while remaining:
        pick: Optional[int] = None
        best_overlap = -1
        for index, candidate in enumerate(remaining):
            overlap = len(result.attributes & candidate.attributes)
            if overlap > best_overlap:
                best_overlap = overlap
                pick = index
        assert pick is not None
        result = result.natural_join(remaining.pop(pick))
    return result


def intermediate_join_sizes(relations: Sequence[Relation]) -> List[int]:
    """Sizes of every intermediate result of the left-to-right join.

    Used by the benchmarks to report the intermediate-blowup shape that makes
    cyclic queries expensive and acyclic ones cheap.
    """
    sizes: List[int] = []
    if not relations:
        return sizes
    result = relations[0]
    sizes.append(len(result))
    for relation in relations[1:]:
        result = result.natural_join(relation)
        sizes.append(len(result))
    return sizes
