"""Join dependencies and lossless joins (Section 5, semantic side).

A join dependency ``⋈D`` holds in a universal relation ``I`` (``I ⊨ ⋈D``)
when ``π_{U(D)}(I) = ⋈_{R ∈ D} π_R(I)`` — if ``U(D)`` is a proper subset of
``I``'s attributes this is an *embedded* join dependency.  ``⋈D ⊨ ⋈D'``
(``⋈D`` implies ``D'`` has a lossless join) when every universal relation
satisfying ``⋈D`` also satisfies ``⋈D'``.

This module provides the semantic operations:

* :func:`satisfies_join_dependency` — check ``I ⊨ ⋈D`` on a concrete relation;
* :func:`decompose_and_rejoin` — the classical lossless-join experiment
  (project then re-join, reporting the spurious tuples);
* :func:`search_implication_counterexample` — randomized search for a
  universal relation witnessing ``⋈D ⊭ ⋈D'``; the syntactic (and exact)
  criterion via canonical connections is Theorem 5.1, implemented in
  :mod:`repro.core.lossless`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import SchemaError
from ..hypergraph.generators import ResolvableRandom, resolve_rng
from ..hypergraph.schema import DatabaseSchema
from .algebra import join_all
from .relation import Relation
from .universal import random_universal_relation

__all__ = [
    "satisfies_join_dependency",
    "DecompositionReport",
    "decompose_and_rejoin",
    "search_implication_counterexample",
]


def satisfies_join_dependency(universal: Relation, schema: DatabaseSchema) -> bool:
    """``I ⊨ ⋈D``: the projection of ``I`` onto ``U(D)`` equals the join of the
    projections ``π_R(I)``."""
    if not schema.attributes <= universal.schema:
        raise SchemaError(
            "the join dependency mentions attributes absent from the relation"
        )
    projected = universal.project(schema.attributes)
    rejoined = join_all([universal.project(relation) for relation in schema.relations])
    if not schema.relations:
        # The empty join dependency is satisfied exactly by the relation whose
        # projection on no attributes equals the empty join (nullary TRUE).
        return projected == rejoined
    return projected == rejoined


@dataclass(frozen=True)
class DecompositionReport:
    """Result of the project-then-rejoin experiment for a decomposition ``D``.

    ``spurious`` holds the tuples present in the re-join but absent from the
    original projection — the decomposition is lossless on this instance iff
    ``spurious`` is empty.
    """

    original: Relation
    rejoined: Relation
    spurious: Relation

    @property
    def lossless(self) -> bool:
        """True when the decomposition lost no information on this instance."""
        return len(self.spurious) == 0


def decompose_and_rejoin(universal: Relation, schema: DatabaseSchema) -> DecompositionReport:
    """Project ``I`` onto each relation schema of ``D`` and join the pieces back."""
    if not schema.attributes <= universal.schema:
        raise SchemaError(
            "the decomposition mentions attributes absent from the relation"
        )
    original = universal.project(schema.attributes)
    rejoined = join_all([universal.project(relation) for relation in schema.relations])
    spurious = rejoined.difference(original) if schema.relations else rejoined
    return DecompositionReport(original=original, rejoined=rejoined, spurious=spurious)


def search_implication_counterexample(
    schema: DatabaseSchema,
    sub_schema: DatabaseSchema,
    *,
    trials: int = 50,
    tuple_count: int = 12,
    domain_size: int = 3,
    rng: ResolvableRandom = None,
) -> Optional[Relation]:
    """Randomized search for a counterexample to ``⋈D ⊨ ⋈D'``.

    Candidate universal relations are built as ``⋈_{R ∈ D} π_R(J)`` for random
    ``J`` — such relations always satisfy ``⋈D`` (the construction used in the
    proof of Theorem 5.1) — and are then tested against ``⋈D'``.  Returns a
    witnessing universal relation, or ``None`` if none was found within
    ``trials`` samples.  A ``None`` answer is *not* a proof of implication;
    the exact test is Theorem 5.1 via canonical connections.
    """
    generator = resolve_rng(rng)
    universe = schema.attributes.union(sub_schema.attributes)
    for _ in range(trials):
        seed_relation = random_universal_relation(
            universe,
            tuple_count=tuple_count,
            domain_size=domain_size,
            rng=generator,
        )
        candidate = join_all(
            [seed_relation.project(relation) for relation in schema.relations]
        )
        if not satisfies_join_dependency(candidate, schema):
            # By construction this should not happen; guard regardless.
            continue
        if not satisfies_join_dependency(candidate, sub_schema):
            return candidate
    return None
