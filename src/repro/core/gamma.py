"""γ-acyclicity and lossless joins of connected sub-schemas (Section 5.2).

Fagin's result (*) characterizes the schemas for which *every* connected
sub-schema has a lossless join, and Corollary 5.3' of the paper re-derives it
through GYO reductions and canonical connections: the following are
equivalent —

(i)   ``D`` is γ-acyclic;
(ii)  for all connected ``D' ⊆ D``: ``GR(D, U(D')) ⊆ D'``;
(iii) for all connected ``D' ⊆ D``: ``CC(D, U(D')) ⊆ D'``;
(iv)  for all connected ``D' ⊆ D``: ``⋈D ⊨ ⋈D'``.

The per-sub-schema conditions are exponential to enumerate, so these
functions are meant for the verification experiments (and carry the same
sub-schema enumeration budget caveats as the rest of the library); the
polynomial γ-acyclicity test itself is
:func:`repro.hypergraph.acyclicity.is_gamma_acyclic`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hypergraph.acyclicity import is_gamma_acyclic
from ..hypergraph.gyo import gyo_reduction
from ..hypergraph.schema import DatabaseSchema
from ..tableau.canonical import canonical_connection
from .lossless import jd_implies

__all__ = [
    "gr_condition_holds_for_all_connected",
    "cc_condition_holds_for_all_connected",
    "all_connected_subschemas_lossless",
    "GammaEquivalenceReport",
    "check_gamma_equivalences",
]


def _connected_subschemas(schema: DatabaseSchema):
    return schema.iter_sub_schemas(min_size=1, connected_only=True)


def _contained_as_relations(small: DatabaseSchema, big: DatabaseSchema) -> bool:
    members = set(big.relations)
    return all(relation in members for relation in small.relations)


def gr_condition_holds_for_all_connected(schema: DatabaseSchema) -> bool:
    """Condition (ii): ``GR(D, U(D')) ⊆ D'`` for every connected ``D' ⊆ D``."""
    for sub in _connected_subschemas(schema):
        reduced = gyo_reduction(schema, sub.attributes)
        if not _contained_as_relations(reduced, sub):
            return False
    return True


def cc_condition_holds_for_all_connected(schema: DatabaseSchema) -> bool:
    """Condition (iii): ``CC(D, U(D')) ⊆ D'`` for every connected ``D' ⊆ D``."""
    for sub in _connected_subschemas(schema):
        connection = canonical_connection(schema, sub.attributes)
        if not sub.covers(connection):
            return False
    return True


def all_connected_subschemas_lossless(schema: DatabaseSchema) -> bool:
    """Condition (iv): ``⋈D ⊨ ⋈D'`` for every connected ``D' ⊆ D`` (Fagin's (*))."""
    for sub in _connected_subschemas(schema):
        if not jd_implies(schema, sub):
            return False
    return True


@dataclass(frozen=True)
class GammaEquivalenceReport:
    """Truth values of the four conditions of Corollary 5.3' on one schema."""

    schema: DatabaseSchema
    gamma_acyclic: bool
    gr_condition: bool
    cc_condition: bool
    lossless_condition: bool

    @property
    def all_agree(self) -> bool:
        """True when the four conditions have the same truth value."""
        values = {
            self.gamma_acyclic,
            self.gr_condition,
            self.cc_condition,
            self.lossless_condition,
        }
        return len(values) == 1


def check_gamma_equivalences(schema: DatabaseSchema) -> GammaEquivalenceReport:
    """Evaluate all four Corollary 5.3' conditions on ``schema``.

    The report's :attr:`~GammaEquivalenceReport.all_agree` flag is the
    mechanical verification of the corollary on this instance.
    """
    return GammaEquivalenceReport(
        schema=schema,
        gamma_acyclic=is_gamma_acyclic(schema),
        gr_condition=gr_condition_holds_for_all_connected(schema),
        cc_condition=cc_condition_holds_for_all_connected(schema),
        lossless_condition=all_connected_subschemas_lossless(schema),
    )
