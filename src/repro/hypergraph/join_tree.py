"""Qual-tree (join-tree) construction and subtree characterizations.

Two constructions are provided for tree schemas:

* :func:`join_tree_from_gyo` — reverse the subset eliminations recorded by the
  GYO reduction: whenever relation ``i`` was eliminated because its (current)
  content was contained in relation ``j``, add the tree edge ``{i, j}``.  The
  paper's Theorem 3.1 argument ("the basic idea is to eliminate leaves of T")
  run backwards.
* :func:`join_tree_from_spanning_tree` — Kruskal maximum-weight spanning tree
  of the intersection graph (weights ``|R_i ∩ R_j|``); any maximum-weight
  spanning tree is a qual tree iff the schema is a tree schema
  (Bernstein–Goodman / Maier).

Both constructions return ``None`` for cyclic schemas, which makes either one
an α-acyclicity test independent of :func:`repro.hypergraph.gyo.is_tree_schema`.

The module also implements the subtree characterization extracted from
Theorem 3.1(ii): for a tree schema ``D`` and ``D' ⊆ D``, ``D'`` is a subtree
of ``D`` (its nodes induce a connected subgraph of some qual tree for ``D``)
iff ``GR(D, U(D')) ⊆ D'``, with equality iff ``D'`` is reduced.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..exceptions import NotASubSchemaError, NotATreeSchemaError
from .gyo import gyo_reduce
from .qual_graph import QualGraph, enumerate_qual_trees
from .schema import DatabaseSchema

__all__ = [
    "join_tree_from_gyo",
    "join_tree_from_spanning_tree",
    "find_qual_tree",
    "is_subtree",
    "is_subtree_semantic",
    "subtree_witness",
]


def join_tree_from_gyo(schema: DatabaseSchema) -> Optional[QualGraph]:
    """Build a qual tree for ``schema`` from its GYO reduction trace.

    Returns ``None`` when ``schema`` is cyclic.  For a tree schema the trace's
    parent map (``eliminated relation -> witness``) contains exactly
    ``len(schema) - 1`` edges and forms a qual tree over all relation indices.
    """
    if len(schema) == 0:
        return QualGraph(schema, [])
    trace = gyo_reduce(schema)
    if not trace.is_fully_reduced_to_empty:
        return None
    graph = QualGraph(schema, [])
    for child, parent in trace.parents.items():
        graph.add_edge(child, parent)
    return graph


def join_tree_from_spanning_tree(schema: DatabaseSchema) -> Optional[QualGraph]:
    """Build a qual tree as a maximum-weight spanning tree of the intersection graph.

    Kruskal's algorithm over edge weights ``|R_i ∩ R_j|`` (including weight-0
    edges so disconnected schemas still yield a spanning *tree*).  The result
    is returned only if it passes the qual-graph validity check; otherwise the
    schema is cyclic and ``None`` is returned.
    """
    n = len(schema)
    if n == 0:
        return QualGraph(schema, [])
    weighted_edges: List[Tuple[int, int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            weight = len(schema[i].intersection(schema[j]))
            weighted_edges.append((weight, i, j))
    weighted_edges.sort(key=lambda item: (-item[0], item[1], item[2]))

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    graph = QualGraph(schema, [])
    for weight, i, j in weighted_edges:
        if union(i, j):
            graph.add_edge(i, j)
    if graph.is_qual_tree():
        return graph
    return None


def find_qual_tree(
    schema: DatabaseSchema, method: str = "gyo"
) -> Optional[QualGraph]:
    """Find a qual tree for ``schema`` using the requested construction.

    ``method`` is ``"gyo"`` (default), ``"spanning-tree"`` or ``"exhaustive"``
    (Prüfer enumeration; exponential, small schemas only).  Returns ``None``
    when the schema is cyclic.
    """
    if method == "gyo":
        return join_tree_from_gyo(schema)
    if method == "spanning-tree":
        return join_tree_from_spanning_tree(schema)
    if method == "exhaustive":
        for tree in enumerate_qual_trees(schema):
            return tree
        return None
    raise ValueError(f"unknown qual-tree construction method: {method!r}")


def _require_sub_multiset(schema: DatabaseSchema, sub: DatabaseSchema) -> None:
    if not sub.is_sub_multiset_of(schema):
        raise NotASubSchemaError(
            "the candidate subtree must be a sub-multiset of the schema "
            f"(got {sub} which is not contained in {schema})"
        )


def is_subtree(schema: DatabaseSchema, sub: DatabaseSchema) -> bool:
    """Theorem 3.1(ii) characterization of subtrees of a tree schema.

    ``sub ⊆ schema`` is a subtree of the tree schema ``schema`` iff
    ``GR(schema, U(sub)) ⊆ sub``.  Raises
    :class:`~repro.exceptions.NotATreeSchemaError` when ``schema`` is cyclic
    and :class:`~repro.exceptions.NotASubSchemaError` when ``sub`` is not a
    sub-multiset of ``schema``.
    """
    _require_sub_multiset(schema, sub)
    trace = gyo_reduce(schema)
    if not trace.is_fully_reduced_to_empty:
        raise NotATreeSchemaError(
            "subtrees are defined for tree schemas only; the schema is cyclic"
        )
    reduced = gyo_reduce(schema, sub.attributes).result
    members = set(sub.relations)
    return all(relation in members for relation in reduced.relations)


def subtree_witness(
    schema: DatabaseSchema, sub: DatabaseSchema, *, budget: int = 200_000
) -> Optional[QualGraph]:
    """Search for a qual tree of ``schema`` in which ``sub`` induces a
    connected subgraph (the semantic definition of a subtree).

    Exhaustive over labelled trees; intended for validating :func:`is_subtree`
    on small instances.  Returns a witnessing qual tree or ``None``.
    """
    _require_sub_multiset(schema, sub)
    remaining = list(sub.relations)
    indices: List[int] = []
    used: set = set()
    for target in remaining:
        for index, relation in enumerate(schema.relations):
            if index not in used and relation == target:
                indices.append(index)
                used.add(index)
                break
    for tree in enumerate_qual_trees(schema, budget=budget):
        if tree.induces_connected_subgraph(indices):
            return tree
    return None


def is_subtree_semantic(
    schema: DatabaseSchema, sub: DatabaseSchema, *, budget: int = 200_000
) -> bool:
    """Semantic subtree test by exhaustive qual-tree enumeration (small schemas)."""
    return subtree_witness(schema, sub, budget=budget) is not None
