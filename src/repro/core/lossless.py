"""Lossless joins via canonical connections (Section 5.1).

Theorem 5.1: for ``D' <= D`` the following are equivalent —

(i)   ``CC(D, U(D')) ⊆ D'``;
(ii)  ``⋈D ⊨ ⋈D'`` (the join dependency of ``D`` implies that ``D'`` has a
      lossless join);
(iii) ``CC(D, U(D')) = CC(D', U(D'))``;

with equality in (i) exactly when ``D'`` is reduced.  Corollary 5.2
specializes the criterion to tree schemas: ``⋈D ⊨ ⋈D'`` iff ``D'`` is a
subtree of ``D``.  Theorem 5.2 / Corollary 5.3 relate minimum-cardinality
equivalent sub-schemas to lossless joins.

All functions are *syntactic* (tableau/GYO based) and therefore exact; the
semantic counterparts (project-and-rejoin experiments, randomized
counterexample search) live in :mod:`repro.relational.dependencies` and are
used by the tests to cross-validate these criteria.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

from ..exceptions import NotASubSchemaError, NotATreeSchemaError
from ..hypergraph.gyo import is_tree_schema
from ..hypergraph.join_tree import is_subtree
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema
from ..tableau.canonical import canonical_connection
from .query_planning import queries_weakly_equivalent

__all__ = [
    "jd_implies",
    "lossless_subschemas",
    "lossless_for_tree_schema",
    "minimum_equivalent_subschema_is_lossless",
]


def _require_subordinate(schema: DatabaseSchema, sub: DatabaseSchema) -> None:
    if not schema.covers(sub):
        raise NotASubSchemaError(
            f"expected D' <= D, but {sub} is not covered by {schema}"
        )


def jd_implies(schema: DatabaseSchema, sub_schema: DatabaseSchema) -> bool:
    """Theorem 5.1 / Corollary 5.1: decide ``⋈D ⊨ ⋈D'`` for ``D' <= D``.

    The criterion is ``CC(D, U(D')) <= D'`` (equivalently ``⊆``, since the
    canonical connection is reduced).
    """
    _require_subordinate(schema, sub_schema)
    connection = canonical_connection(schema, sub_schema.attributes)
    return sub_schema.covers(connection)


def lossless_subschemas(
    schema: DatabaseSchema, *, connected_only: bool = False, min_size: int = 1
) -> Tuple[DatabaseSchema, ...]:
    """All sub-multisets ``D' ⊆ D`` with ``⋈D ⊨ ⋈D'`` (exponential enumeration).

    Used by the γ-acyclicity experiments (Corollary 5.3': a schema is
    γ-acyclic iff *every* connected sub-multiset appears here).
    """
    winners = []
    for sub in schema.iter_sub_schemas(min_size=min_size, connected_only=connected_only):
        if jd_implies(schema, sub):
            winners.append(sub)
    return tuple(winners)


def lossless_for_tree_schema(schema: DatabaseSchema, sub_schema: DatabaseSchema) -> bool:
    """Corollary 5.2: for a tree schema ``D`` and ``D' ⊆ D``, ``⋈D ⊨ ⋈D'`` iff
    ``D'`` is a subtree of ``D``.

    Raises :class:`~repro.exceptions.NotATreeSchemaError` when ``D`` is cyclic.
    """
    if not is_tree_schema(schema):
        raise NotATreeSchemaError("Corollary 5.2 applies to tree schemas only")
    return is_subtree(schema, sub_schema)


def minimum_equivalent_subschema_is_lossless(
    schema: DatabaseSchema,
    sub_schema: DatabaseSchema,
    target: Union[RelationSchema, Iterable[Attribute]],
) -> bool:
    """Check the Corollary 5.3 property on a candidate sub-schema.

    Given ``D' <= D`` with ``(D, X) ≡ (D', X)`` and ``D'`` of minimum
    cardinality among such sub-schemas, the corollary states ``⋈D ⊨ ⋈D'``.
    This helper checks the conclusion (``jd_implies``); establishing the
    minimality hypothesis is the caller's business (the theorem checkers do it
    by enumerating smaller sub-schemas).
    """
    _require_subordinate(schema, sub_schema)
    if not queries_weakly_equivalent(schema, sub_schema, target):
        return False
    return jd_implies(schema, sub_schema)
