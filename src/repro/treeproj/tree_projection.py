"""Tree projections (Section 3.2).

Let ``D <= D'' <= D'`` (each schema covered by the next in the paper's
ordering).  ``D''`` is a *tree projection of D' with respect to D*, written
``D'' ∈ TP(D', D)``, when ``D''`` is a tree schema.  For a query ``Q = (D, X)``
the relevant notion is ``TP(D', D ∪ (X))`` — the target ``X`` must also be
covered by the tree projection.

Deciding whether a tree projection exists is NP-hard in general, so the
search is organized in layers:

1. cheap certificates — ``D`` itself (or its reduction) is a tree schema, or
   ``D'`` itself is;
2. the *greedy cover* candidate — for every ``R' ∈ D'`` take the union of all
   ``D``-edges contained in ``R'``; this covers ``D``, is covered by ``D'``
   and is frequently a tree (it is for the paper's Section 3.2 example);
3. bounded exact search over candidate edges formed as unions of ``D``-edges
   inside a ``D'``-edge, and (optionally) over arbitrary attribute subsets of
   ``D'``-edges.

Layer 3 carries an explicit budget and raises
:class:`~repro.exceptions.SearchBudgetExceeded` rather than silently giving
up, and ``find_tree_projection`` reports which layer produced its answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Optional, Sequence, Set

from ..exceptions import NotASubSchemaError, SearchBudgetExceeded
from ..hypergraph.gyo import is_tree_schema
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema

__all__ = [
    "is_tree_projection",
    "greedy_cover_candidate",
    "TreeProjectionSearch",
    "find_tree_projection",
    "has_tree_projection",
]


def _require_covered(small: DatabaseSchema, big: DatabaseSchema, label: str) -> None:
    if not big.covers(small):
        raise NotASubSchemaError(
            f"{label}: expected the first schema to be covered by the second "
            f"({small} is not <= {big})"
        )


def is_tree_projection(
    candidate: DatabaseSchema, upper: DatabaseSchema, lower: DatabaseSchema
) -> bool:
    """``candidate ∈ TP(upper, lower)``: ``lower <= candidate <= upper`` and
    ``candidate`` is a tree schema."""
    return (
        candidate.covers(lower)
        and upper.covers(candidate)
        and is_tree_schema(candidate)
    )


def greedy_cover_candidate(
    upper: DatabaseSchema, lower: DatabaseSchema
) -> DatabaseSchema:
    """The greedy candidate: each ``R' ∈ upper`` replaced by the union of the
    ``lower``-edges it contains (empty unions dropped), reduced."""
    relations: List[RelationSchema] = []
    for big in upper.relations:
        covered = [small for small in lower.relations if small <= big]
        if covered:
            union = RelationSchema(())
            for small in covered:
                union = union.union(small)
            relations.append(union)
    candidate = DatabaseSchema(relations).reduction()
    return candidate


@dataclass(frozen=True)
class TreeProjectionSearch:
    """Outcome of a tree-projection search.

    ``projection`` is ``None`` when no tree projection was found within the
    layers/budget tried; ``method`` records which layer succeeded
    (``"lower"``, ``"upper"``, ``"greedy-cover"``, ``"union-search"``,
    ``"subset-search"`` or ``"none"``); ``exhaustive`` is True when a ``None``
    answer is definitive (the subset search ran to completion).
    """

    projection: Optional[DatabaseSchema]
    method: str
    exhaustive: bool

    @property
    def found(self) -> bool:
        """True when a tree projection was found."""
        return self.projection is not None


def _union_candidates_within(
    big: RelationSchema, lower: DatabaseSchema, budget: int
) -> List[RelationSchema]:
    """All unions of non-empty subsets of the lower-edges contained in ``big``."""
    inside = [small for small in lower.relations if small <= big and small]
    unique: Set[FrozenSet[Attribute]] = set()
    results: List[RelationSchema] = []
    count = 0
    for size in range(1, len(inside) + 1):
        for subset in combinations(range(len(inside)), size):
            count += 1
            if count > budget:
                raise SearchBudgetExceeded(
                    f"union-candidate enumeration exceeded budget of {budget}"
                )
            union: Set[Attribute] = set()
            for index in subset:
                union |= inside[index].attributes
            frozen = frozenset(union)
            if frozen not in unique:
                unique.add(frozen)
                results.append(RelationSchema(frozen))
    return results


def _search_over_candidates(
    candidate_pool: Sequence[RelationSchema],
    upper: DatabaseSchema,
    lower: DatabaseSchema,
    budget: int,
) -> Optional[DatabaseSchema]:
    """Exact search over subsets of the (deduplicated) candidate pool.

    Subsets are enumerated by size, and ``budget`` counts subsets
    enumerated.  Coverage of ``lower`` is a bitmask test: each pool element
    carries the mask of the ``lower`` relations it contains, and a subset
    covers ``lower`` exactly when its masks OR to the full mask.  Only
    covering subsets pay for schema construction and the GYO test.
    """
    pool = list(dict.fromkeys(candidate_pool))
    targets = lower.relations
    full = (1 << len(targets)) - 1
    masks = [
        sum(1 << bit for bit, small in enumerate(targets) if small <= big)
        for big in pool
    ]
    count = 0
    for size in range(1, len(pool) + 1):
        for subset in combinations(range(len(pool)), size):
            count += 1
            if count > budget:
                raise SearchBudgetExceeded(
                    f"tree-projection candidate search exceeded budget of {budget}"
                )
            covered = 0
            for index in subset:
                covered |= masks[index]
            if covered != full:
                continue
            candidate = DatabaseSchema(pool[index] for index in subset)
            if is_tree_schema(candidate):
                # Coverage by `upper` holds by construction of the pool.
                return candidate.reduction()
    return None


def find_tree_projection(
    upper: DatabaseSchema,
    lower: DatabaseSchema,
    *,
    budget: int = 100_000,
    allow_subset_search: bool = False,
) -> TreeProjectionSearch:
    """Search for some ``D'' ∈ TP(upper, lower)``.

    ``lower <= upper`` is required.  The search tries, in order: ``lower``
    itself, ``upper`` itself, the greedy cover candidate, then an exact search
    over unions of ``lower``-edges nested in ``upper``-edges.  When
    ``allow_subset_search`` is set a final exact search over *all* attribute
    subsets of ``upper``-edges is attempted, which is complete but only
    feasible for small attribute universes.
    """
    _require_covered(lower, upper, "find_tree_projection")

    reduced_lower = lower.reduction()
    if is_tree_schema(reduced_lower):
        return TreeProjectionSearch(
            projection=reduced_lower, method="lower", exhaustive=False
        )
    reduced_upper = upper.reduction()
    if is_tree_schema(reduced_upper):
        return TreeProjectionSearch(
            projection=reduced_upper, method="upper", exhaustive=False
        )
    greedy = greedy_cover_candidate(upper, lower)
    if greedy.covers(lower) and is_tree_schema(greedy):
        return TreeProjectionSearch(
            projection=greedy, method="greedy-cover", exhaustive=False
        )

    # Exact search over unions of lower-edges nested in upper-edges.
    pool: List[RelationSchema] = []
    for big in upper.relations:
        pool.extend(_union_candidates_within(big, lower, budget))
    found = _search_over_candidates(pool, upper, lower, budget)
    if found is not None:
        return TreeProjectionSearch(
            projection=found, method="union-search", exhaustive=False
        )

    if allow_subset_search:
        subset_pool: List[RelationSchema] = []
        seen: Set[FrozenSet[Attribute]] = set()
        count = 0
        for big in upper.relations:
            attrs = big.sorted_attributes()
            for size in range(1, len(attrs) + 1):
                for subset in combinations(attrs, size):
                    count += 1
                    if count > budget:
                        raise SearchBudgetExceeded(
                            f"subset-candidate enumeration exceeded budget of {budget}"
                        )
                    frozen = frozenset(subset)
                    if frozen not in seen:
                        seen.add(frozen)
                        subset_pool.append(RelationSchema(frozen))
        found = _search_over_candidates(subset_pool, upper, lower, budget)
        return TreeProjectionSearch(
            projection=found,
            method="subset-search" if found is not None else "none",
            exhaustive=True,
        )

    return TreeProjectionSearch(projection=None, method="none", exhaustive=False)


def has_tree_projection(
    upper: DatabaseSchema,
    lower: DatabaseSchema,
    *,
    budget: int = 100_000,
    allow_subset_search: bool = False,
) -> bool:
    """Convenience wrapper around :func:`find_tree_projection`."""
    return find_tree_projection(
        upper, lower, budget=budget, allow_subset_search=allow_subset_search
    ).found
