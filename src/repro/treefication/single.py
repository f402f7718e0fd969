"""Single-relation treefication (Theorem 3.2 and Corollary 3.2).

Adding one relation schema to a cyclic schema ``D`` can make it a tree
schema.  The paper pins down the best choice exactly:

* Theorem 3.2(ii) — ``D ∪ (U(GR(D)))`` is always a tree schema;
* Theorem 3.2(iii) — any ``S`` with ``D ∪ (S)`` a tree schema satisfies
  ``S ⊇ U(GR(D))``;
* Corollary 3.2 — therefore ``U(GR(D))`` is the (unique) least-cardinality
  relation schema whose addition treefies ``D``.

:func:`treefying_relation` also feeds the cyclic execution planner
(:func:`repro.engine.cyclic.choose_tree_projection`): widened by the query
target, ``U(GR(D))`` is the "residue" candidate tree projection, competing
against the greedy-merge triangulation and the layered search of
:mod:`repro.treeproj.tree_projection` under the Greco–Scarcello
minimality-first ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Tuple, Union

from ..exceptions import SearchBudgetExceeded
from ..hypergraph.gyo import gyo_reduction, is_tree_schema
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema

__all__ = [
    "treefying_relation",
    "is_treefying_relation",
    "SingleTreefication",
    "single_relation_treefication",
    "minimum_treefying_relations_bruteforce",
]


def treefying_relation(schema: DatabaseSchema) -> RelationSchema:
    """``U(GR(D))`` — the minimum-cardinality relation whose addition treefies ``D``.

    For a tree schema this is the empty relation schema (nothing needs to be
    added).
    """
    return gyo_reduction(schema).attributes


def is_treefying_relation(
    schema: DatabaseSchema, relation: Union[RelationSchema, Iterable[Attribute]]
) -> bool:
    """True when ``D ∪ (relation)`` is a tree schema."""
    candidate = relation if isinstance(relation, RelationSchema) else RelationSchema(relation)
    return is_tree_schema(schema.add_relation(candidate))


@dataclass(frozen=True)
class SingleTreefication:
    """The result of single-relation treefication."""

    original: DatabaseSchema
    added_relation: RelationSchema
    treefied: DatabaseSchema

    @property
    def was_already_tree(self) -> bool:
        """True when the original schema needed nothing added."""
        return len(self.added_relation) == 0


def single_relation_treefication(schema: DatabaseSchema) -> SingleTreefication:
    """Apply Corollary 3.2: add ``U(GR(D))`` and return the treefied schema."""
    relation = treefying_relation(schema)
    treefied = schema if not relation else schema.add_relation(relation)
    return SingleTreefication(
        original=schema, added_relation=relation, treefied=treefied
    )


def minimum_treefying_relations_bruteforce(
    schema: DatabaseSchema, *, budget: int = 500_000
) -> Tuple[RelationSchema, ...]:
    """All minimum-cardinality relation schemas whose addition treefies ``D``.

    Brute force over attribute subsets in order of increasing size — used to
    validate Corollary 3.2 (the result should be exactly ``(U(GR(D)),)`` for
    cyclic schemas).  Exponential in ``|U(D)|``; guarded by ``budget``.
    """
    universe = schema.attributes.sorted_attributes()
    examined = 0
    winners = []
    for size in range(0, len(universe) + 1):
        for subset in combinations(universe, size):
            examined += 1
            if examined > budget:
                raise SearchBudgetExceeded(
                    f"brute-force treefication search exceeded budget of {budget}"
                )
            if is_treefying_relation(schema, subset):
                winners.append(RelationSchema(subset))
        if winners:
            return tuple(winners)
    return tuple(winners)
