"""Natural-join queries ``Q = (D, X)`` and weak containment / equivalence.

``Q = (D, X)`` denotes ``π_X(⋈_{R ∈ D} R)``.  The paper compares queries over
*universal databases only*: ``Q ⊑ Q'`` (weak containment) when ``Q(D) ⊆
Q'(D)`` for every UR database ``D``, and ``Q ≡ Q'`` (weak equivalence) when
containment holds both ways.

Exact decision procedures for weak equivalence are tableau-based (Lemma 3.2,
implemented in :mod:`repro.tableau`); this module provides the *semantic*
side: evaluating queries over states and empirically testing containment /
equivalence over sampled universal relations, which is how the property tests
validate the syntactic criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import SchemaError
from ..hypergraph.generators import ResolvableRandom, resolve_rng
from ..hypergraph.schema import DatabaseSchema, RelationSchema
from .algebra import join_all, join_all_in_order
from .database import DatabaseState, universal_database
from .relation import Relation
from .universal import random_universal_relation

__all__ = [
    "NaturalJoinQuery",
    "weakly_contained_empirically",
    "weakly_equivalent_empirically",
]


@dataclass(frozen=True)
class NaturalJoinQuery:
    """The query ``(D, X)``: join every relation of ``D`` and project onto ``X``."""

    schema: DatabaseSchema
    target: RelationSchema

    def __post_init__(self) -> None:
        target = self.target
        if not isinstance(target, RelationSchema):
            object.__setattr__(self, "target", RelationSchema(target))

    @property
    def attributes(self) -> RelationSchema:
        """``U(D)`` of the query's schema."""
        return self.schema.attributes

    def validate(self) -> None:
        """Check ``X ⊆ U(D)`` (the paper's standing assumption)."""
        if not self.target <= self.schema.attributes:
            raise SchemaError(
                f"query target {self.target.to_notation()} is not contained in "
                f"U(D) = {self.schema.attributes.to_notation()}"
            )

    def evaluate(self, state: DatabaseState, *, naive: bool = False) -> Relation:
        """Evaluate the query over a database state for its schema.

        ``naive=True`` joins relations strictly in schema order (the baseline
        used by the benchmarks); the default uses the greedy connected-join
        order.
        """
        if state.schema != self.schema:
            raise SchemaError("the state is for a different schema than the query")
        joined = (
            join_all_in_order(state.relations) if naive else join_all(state.relations)
        )
        return joined.project(self.target)

    def evaluate_on_universal(self, universal: Relation, *, naive: bool = False) -> Relation:
        """Evaluate the query over the UR database induced by ``universal``."""
        state = universal_database(self.schema, universal)
        return self.evaluate(state, naive=naive)

    def __str__(self) -> str:
        return f"({self.schema.to_notation()}; target={self.target.to_notation()})"


def _sample_universals(
    attributes: RelationSchema,
    trials: int,
    rng: ResolvableRandom,
    tuple_count: int,
    domain_size: int,
):
    generator = resolve_rng(rng)
    for _ in range(trials):
        yield random_universal_relation(
            attributes,
            tuple_count=tuple_count,
            domain_size=domain_size,
            rng=generator,
        )


def weakly_contained_empirically(
    first: NaturalJoinQuery,
    second: NaturalJoinQuery,
    *,
    trials: int = 25,
    tuple_count: int = 15,
    domain_size: int = 3,
    rng: ResolvableRandom = None,
) -> Optional[Relation]:
    """Empirically test ``first ⊑ second`` over sampled universal relations.

    Both queries must have the same target.  Returns ``None`` when no
    counterexample was found in ``trials`` samples, otherwise the witnessing
    universal relation (whose UR database makes ``first ⊄ second``).
    """
    if first.target != second.target:
        raise SchemaError("weak containment compares queries with the same target")
    universe = first.attributes.union(second.attributes)
    for universal in _sample_universals(universe, trials, rng, tuple_count, domain_size):
        left = first.evaluate_on_universal(universal)
        right = second.evaluate_on_universal(universal)
        if not left.issubset(right):
            return universal
    return None


def weakly_equivalent_empirically(
    first: NaturalJoinQuery,
    second: NaturalJoinQuery,
    *,
    trials: int = 25,
    tuple_count: int = 15,
    domain_size: int = 3,
    rng: ResolvableRandom = None,
) -> Optional[Relation]:
    """Empirically test ``first ≡ second``; returns a counterexample or ``None``."""
    generator = resolve_rng(rng)
    witness = weakly_contained_empirically(
        first,
        second,
        trials=trials,
        tuple_count=tuple_count,
        domain_size=domain_size,
        rng=generator,
    )
    if witness is not None:
        return witness
    return weakly_contained_empirically(
        second,
        first,
        trials=trials,
        tuple_count=tuple_count,
        domain_size=domain_size,
        rng=generator,
    )
