"""Executable checkers for every numbered claim of the paper.

The paper proves its results once and for all; a reproduction cannot re-derive
the proofs, but it can *verify* every statement mechanically on concrete
schemas — the paper's own examples plus randomized families.  Each function
here checks one lemma / theorem / corollary on a given instance and returns
``True`` when the statement holds on it, so a single failing instance would
falsify the implementation of the underlying concepts (GYO, tableaux,
canonical connections, tree projections).

These checkers are used by the unit and property tests and by the
verification benchmarks; the experiment index in ``DESIGN.md`` maps each one
back to the paper.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from ..engine.analysis import analyze
from ..hypergraph.acyclicity import (
    find_weak_gamma_cycle,
    is_gamma_acyclic_via_subtrees,
    violating_pair,
)
from ..hypergraph.cycles import find_aring_or_aclique_witness
from ..hypergraph.gyo import gyo_reduction, is_tree_schema
from ..hypergraph.join_tree import is_subtree
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema
from ..relational.database import DatabaseState
from ..relational.query import NaturalJoinQuery
from ..tableau.containment import tableaux_equivalent
from .gamma import check_gamma_equivalences
from .lossless import jd_implies
from .query_planning import queries_weakly_equivalent

__all__ = [
    "check_lemma_3_1",
    "check_lemma_3_2",
    "check_lemma_3_5",
    "check_theorem_3_1_subtree",
    "check_theorem_3_2",
    "check_corollary_3_1",
    "check_corollary_3_2",
    "check_theorem_3_3",
    "check_theorem_4_1",
    "check_theorem_5_1",
    "check_corollary_5_2",
    "check_theorem_5_2",
    "check_theorem_5_3",
    "check_corollary_5_3_gamma",
]


def _as_relation(target: Union[RelationSchema, Iterable[Attribute]]) -> RelationSchema:
    return target if isinstance(target, RelationSchema) else RelationSchema(target)


# -- Section 3 ----------------------------------------------------------------------


def check_lemma_3_1(schema: DatabaseSchema, *, budget: int = 1_000_000) -> bool:
    """Lemma 3.1: ``D`` cyclic iff some attribute deletion + reduction yields an
    Aring or Aclique."""
    witness = find_aring_or_aclique_witness(schema, budget=budget)
    return (not is_tree_schema(schema)) == (witness is not None)


def check_lemma_3_2(
    first: DatabaseSchema,
    second: DatabaseSchema,
    target: Union[RelationSchema, Iterable[Attribute]],
    state: Optional[DatabaseState] = None,
) -> bool:
    """Lemma 3.2: ``(D, X) ≡ (D', X)`` iff ``Tab(D, X) ≡ Tab(D', X)``.

    The tableau side is decided exactly; the query side is decided through
    canonical connections (Lemma 3.5 / Theorem 4.1), and additionally
    cross-checked on ``state`` when one is supplied.  Both sides run against
    the engine façade's memoized tableaux, so checking several lemmas on the
    same query shares one tableau build and one minimization per schema.
    """
    target_schema = _as_relation(target)
    universe = first.attributes.union(second.attributes).union(target_schema)
    tab_side = tableaux_equivalent(
        analyze(first).standard_tableau(target_schema, universe=universe),
        analyze(second).standard_tableau(target_schema, universe=universe),
    )
    query_side = queries_weakly_equivalent(first, second, target_schema)
    if tab_side != query_side:
        return False
    if state is not None and tab_side:
        first_answer = NaturalJoinQuery(first, target_schema).evaluate(
            state.state_for(first)
        )
        second_answer = NaturalJoinQuery(second, target_schema).evaluate(
            state.state_for(second)
        )
        if first_answer != second_answer:
            return False
    return True


def check_lemma_3_5(
    first: DatabaseSchema,
    second: DatabaseSchema,
    target: Union[RelationSchema, Iterable[Attribute]],
) -> bool:
    """Lemma 3.5: ``(D, X) ≡ (D', X)`` iff ``CC(D, X) = CC(D', X)``.

    The left side is decided through tableau equivalence (Lemma 3.2), making
    the check non-circular.
    """
    target_schema = _as_relation(target)
    universe = first.attributes.union(second.attributes).union(target_schema)
    first_analysis = analyze(first)
    second_analysis = analyze(second)
    tableau_equal = tableaux_equivalent(
        first_analysis.standard_tableau(target_schema, universe=universe),
        second_analysis.standard_tableau(target_schema, universe=universe),
    )
    cc_equal = first_analysis.canonical_connection(
        target_schema, universe=universe
    ) == second_analysis.canonical_connection(target_schema, universe=universe)
    return tableau_equal == cc_equal


def check_theorem_3_1_subtree(schema: DatabaseSchema, sub: DatabaseSchema) -> bool:
    """Theorem 3.1(ii) (as used throughout Section 5): for a tree schema ``D``
    and ``D' ⊆ D``, the GYO characterization ``GR(D, U(D')) ⊆ D'`` agrees with
    the semantic subtree definition (some qual tree in which ``D'`` induces a
    connected subgraph).

    Only meaningful for small schemas (the semantic side enumerates labelled
    trees).
    """
    from ..hypergraph.join_tree import is_subtree_semantic

    syntactic = is_subtree(schema, sub)
    semantic = is_subtree_semantic(schema, sub)
    return syntactic == semantic


def check_theorem_3_2(
    schema: DatabaseSchema,
    extra: Optional[Union[RelationSchema, Iterable[Attribute]]] = None,
) -> bool:
    """Theorem 3.2: the four statements about adding a relation to ``D``.

    (i)   ``D ∪ (R)`` tree ⇒ ``GR(D) ∪ (R)`` tree (checked when ``extra`` is
          supplied and applicable);
    (ii)  ``D ∪ (U(GR(D)))`` is a tree schema;
    (iii) ``D ∪ (S)`` tree ⇒ ``S ⊇ U(GR(D))`` (checked when ``extra`` makes the
          hypothesis true);
    (iv)  ``GR(D) ∪ (S)`` tree ⇒ ``S ⊇ U(GR(D))`` (same proviso).
    """
    residue = gyo_reduction(schema)
    core_attributes = residue.attributes
    # (ii)
    if not is_tree_schema(schema.add_relation(core_attributes)):
        return False
    if extra is not None:
        relation = _as_relation(extra)
        extended_is_tree = is_tree_schema(schema.add_relation(relation))
        if extended_is_tree:
            # (i)
            if not is_tree_schema(residue.add_relation(relation)):
                return False
            # (iii)
            if not core_attributes <= relation:
                return False
        if is_tree_schema(residue.add_relation(relation)):
            # (iv)
            if not core_attributes <= relation:
                return False
    return True


def check_corollary_3_1(schema: DatabaseSchema) -> bool:
    """Corollary 3.1: ``D`` is a tree schema iff ``GR(D)`` deletes every attribute.

    The independent witness for being a tree schema is the existence of a qual
    tree (maximum-weight spanning-tree construction), so the two sides are
    computed by different algorithms.
    """
    from ..hypergraph.join_tree import join_tree_from_spanning_tree

    gyo_says_tree = not gyo_reduction(schema).attributes
    spanning_says_tree = join_tree_from_spanning_tree(schema) is not None
    return gyo_says_tree == spanning_says_tree


def check_corollary_3_2(schema: DatabaseSchema, *, budget: int = 500_000) -> bool:
    """Corollary 3.2: ``U(GR(D))`` is the least-cardinality treefying relation."""
    from ..treefication.single import (
        minimum_treefying_relations_bruteforce,
        treefying_relation,
    )

    best = treefying_relation(schema)
    winners = minimum_treefying_relations_bruteforce(schema, budget=budget)
    if not winners:
        return False
    minimum_size = len(winners[0])
    if len(best) != minimum_size:
        return False
    return best in winners


def check_theorem_3_3(
    schema: DatabaseSchema, target: Union[RelationSchema, Iterable[Attribute]]
) -> bool:
    """Theorem 3.3: (i) ``CC(D, X) <= GR(D, X)``; (ii) equality for tree
    schemas; (iii) equality when ``U(GR(D, X)) ⊆ X``."""
    target_schema = _as_relation(target)
    analysis = analyze(schema)
    connection = analysis.canonical_connection(target_schema)
    reduction = analysis.gyo_residue(target_schema)
    if not reduction.covers(connection):
        return False
    if analysis.is_tree_schema and connection != reduction.reduction():
        return False
    if reduction.attributes <= target_schema and connection != reduction.reduction():
        return False
    return True


# -- Section 4 ----------------------------------------------------------------------


def check_theorem_4_1(
    schema: DatabaseSchema,
    sub_schema: DatabaseSchema,
    target: Union[RelationSchema, Iterable[Attribute]],
    state: Optional[DatabaseState] = None,
) -> bool:
    """Theorem 4.1: for ``D' <= D``, ``CC(D, X) <= D'`` ⟺ ``(D, X) ≡ (D', X)``
    ⟺ ``CC(D, X) = CC(D', X)``.

    Weak equivalence is decided via tableau equivalence (Lemma 3.2) so the
    chain of equivalences is checked against an independent criterion; when a
    UR ``state`` is supplied the query answers are also compared on it.
    """
    target_schema = _as_relation(target)
    universe = schema.attributes.union(target_schema)
    analysis = analyze(schema)
    sub_analysis = analyze(sub_schema)
    condition_cc_covered = sub_schema.covers(
        analysis.canonical_connection(target_schema)
    )
    condition_tableau = tableaux_equivalent(
        analysis.standard_tableau(target_schema, universe=universe),
        sub_analysis.standard_tableau(target_schema, universe=universe),
    )
    condition_cc_equal = analysis.canonical_connection(
        target_schema, universe=universe
    ) == sub_analysis.canonical_connection(target_schema, universe=universe)
    if not (condition_cc_covered == condition_tableau == condition_cc_equal):
        return False
    if state is not None and condition_cc_covered:
        full = NaturalJoinQuery(schema, target_schema).evaluate(state)
        partial_state = state.state_for(sub_schema)
        partial = NaturalJoinQuery(sub_schema, target_schema).evaluate(partial_state)
        if full != partial:
            return False
    return True


# -- Section 5 ----------------------------------------------------------------------


def check_theorem_5_1(
    schema: DatabaseSchema,
    sub_schema: DatabaseSchema,
    state: Optional[DatabaseState] = None,
) -> bool:
    """Theorem 5.1: for ``D' <= D``, ``CC(D, U(D')) ⊆ D'`` ⟺ ``⋈D ⊨ ⋈D'``
    ⟺ ``CC(D, U(D')) = CC(D', U(D'))``.

    The middle condition is represented by Theorem 4.1's equivalence at target
    ``U(D')`` (which is how the paper proves it); when a UR ``state`` is
    supplied and the implication holds, the lossless-join conclusion is also
    checked semantically on the state's join.
    """
    universe_target = sub_schema.attributes
    analysis = analyze(schema)
    sub_analysis = analyze(sub_schema)
    condition_covered = sub_schema.covers(
        analysis.canonical_connection(universe_target)
    )
    condition_equiv = queries_weakly_equivalent(schema, sub_schema, universe_target)
    condition_cc_equal = analysis.canonical_connection(
        universe_target, universe=schema.attributes
    ) == sub_analysis.canonical_connection(
        universe_target, universe=schema.attributes
    )
    if not (condition_covered == condition_equiv == condition_cc_equal):
        return False
    if state is not None and condition_covered:
        joined = state.join()
        from ..relational.dependencies import satisfies_join_dependency

        if satisfies_join_dependency(joined, schema) and not satisfies_join_dependency(
            joined, sub_schema
        ):
            return False
    return True


def check_corollary_5_2(schema: DatabaseSchema, sub_schema: DatabaseSchema) -> bool:
    """Corollary 5.2: for a tree schema ``D`` and ``D' ⊆ D``, ``⋈D ⊨ ⋈D'`` iff
    ``D'`` is a subtree of ``D``."""
    if not is_tree_schema(schema):
        return True  # vacuously out of scope
    return jd_implies(schema, sub_schema) == is_subtree(schema, sub_schema)


def check_theorem_5_2(
    schema: DatabaseSchema,
    target: Union[RelationSchema, Iterable[Attribute]],
    *,
    max_candidate_size: Optional[int] = None,
) -> bool:
    """Theorem 5.2 / Corollary 5.3: a minimum-cardinality ``D' <= D`` with
    ``CC(D', X) = CC(D, X)`` satisfies ``CC(D, U(D')) = D'`` (hence has a
    lossless join).

    The check uses ``CC(D, X)`` itself as the minimum-cardinality witness
    (minimality follows from Theorem 4.1: any equivalent ``D'`` must cover the
    reduced schema ``CC(D, X)``, so it has at least as many relations).
    """
    target_schema = _as_relation(target)
    analysis = analyze(schema)
    connection = analysis.canonical_connection(target_schema)
    if len(connection) == 0:
        return True
    recovered = analysis.canonical_connection(connection.attributes)
    return recovered == connection


def check_theorem_5_3(schema: DatabaseSchema) -> bool:
    """Theorem 5.3: the three γ-acyclicity characterizations agree on ``schema``."""
    by_cycle = find_weak_gamma_cycle(schema) is None
    by_pairs = violating_pair(schema) is None
    by_subtrees = is_gamma_acyclic_via_subtrees(schema)
    return by_cycle == by_pairs == by_subtrees


def check_corollary_5_3_gamma(schema: DatabaseSchema) -> bool:
    """Corollary 5.3': γ-acyclicity ⟺ the GR / CC / lossless conditions on all
    connected sub-schemas."""
    return check_gamma_equivalences(schema).all_agree
