"""Solving queries from a program's relations via a tree projection
(Theorems 6.1, 6.2 and the constructions behind them).

Theorem 6.1 (tree projection sufficiency): if some ``D'' ∈ TP(P(D), D ∪ (X))``
exists then ``P`` augmented by at most ``2·|D|`` semijoins solves ``(D, X)``.
Theorem 6.2 specializes ``D`` to ``CC(D, X)`` for UR databases.

The construction implemented here follows the proof idea:

1. every relation of ``D''`` is covered by some relation of ``P(D)``, so its
   state is obtained by projecting that relation's value;
2. every original relation of ``D`` (respectively of ``CC(D, X)``) is covered
   by some node of ``D''``; semijoining the node by the original relation
   (≤ ``|D|`` semijoins) makes each node contain no tuple that conflicts with
   the original database;
3. because ``D''`` is a tree schema and ``X`` is covered by one of its nodes,
   a full-reducer pass plus a guarded bottom-up join (Yannakakis over ``D''``)
   yields ``π_X(⋈ D)``.

:func:`augment_program_with_semijoins` emits the construction as additional
:class:`~repro.relational.program.Program` statements, so the result is again
a program in the paper's sense; :func:`solve_with_tree_projection` runs it.

This module plans *per call* — every invocation re-searches the tree
projection and re-builds the augmented program — which is exactly the
fidelity the paper's construction asks for, and exactly what a serving
workload cannot afford.  The plan-once counterpart is
:class:`repro.engine.cyclic.CyclicPreparedQuery`, which freezes the same
Theorem 6.1 construction (node projections, guard semijoins, full reducer)
into a reusable plan on the compiled backends; this solver stays on verbatim
as a second oracle beside ``naive_join_project``
(``tests/engine/test_cyclic_pipeline.py``; the oracle matrix,
``tests/test_oracle_matrix.py``, holds the plan itself to naive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..exceptions import TreeProjectionError
from ..hypergraph.schema import DatabaseSchema, RelationSchema
from ..relational.database import DatabaseState
from ..relational.program import Program
from ..relational.relation import Relation
from ..relational.yannakakis import rooted_orientation
from .tree_projection import find_tree_projection, is_tree_projection

__all__ = ["AugmentedProgram", "augment_program_with_semijoins", "solve_with_tree_projection"]


@dataclass(frozen=True)
class AugmentedProgram:
    """A program extended per Theorem 6.1, with accounting of what was added."""

    program: Program
    tree_projection: DatabaseSchema
    added_semijoins: int
    added_joins: int
    added_projects: int

    def run(self, state: DatabaseState) -> Relation:
        """Execute the augmented program over a state for the base schema."""
        return self.program.run(state)


def _covering_name(program: Program, target: RelationSchema) -> str:
    """A relation name in ``P(D)`` whose schema contains ``target``.

    Base relations are preferred; created relations are scanned in creation
    order otherwise.
    """
    for name in program.base_names:
        if target <= program.schema_of(name):
            return name
    for name in program.created_names():
        if target <= program.schema_of(name):
            return name
    raise TreeProjectionError(
        f"no relation of P(D) covers {target.to_notation()}; "
        "the candidate is not <= P(D)"
    )


def augment_program_with_semijoins(
    program: Program,
    target: Union[RelationSchema, str],
    *,
    anchors: Optional[DatabaseSchema] = None,
    tree_projection: Optional[DatabaseSchema] = None,
    budget: int = 100_000,
) -> AugmentedProgram:
    """Extend ``program`` so that it solves ``(D, X)``, given a tree projection.

    ``anchors`` is the schema whose relations must be "re-attached" by
    semijoins — ``D`` itself for general databases (Theorem 6.1) or
    ``CC(D, X)`` for UR databases (Theorem 6.2); it defaults to the base
    schema ``D``.  When ``tree_projection`` is not supplied it is searched in
    ``TP(P(D), anchors ∪ (X))``; a :class:`TreeProjectionError` is raised when
    none is found.
    """
    target_schema = (
        target if isinstance(target, RelationSchema) else RelationSchema(target)
    )
    base = program.base_schema
    anchor_schema = anchors if anchors is not None else base
    lower = anchor_schema.add_relation(target_schema)
    extended = program.extended_schema()

    if tree_projection is None:
        if not extended.covers(lower):
            raise TreeProjectionError(
                "P(D) does not even cover D ∪ (X), so no tree projection exists; "
                "the program cannot be completed with semijoins alone (Theorem 6.3)"
            )
        search = find_tree_projection(extended, lower, budget=budget)
        if not search.found:
            raise TreeProjectionError(
                "no tree projection of P(D) w.r.t. D ∪ (X) was found; "
                "by Theorem 6.3 the program cannot be completed with semijoins alone"
            )
        tree_projection = search.projection
    else:
        if not is_tree_projection(tree_projection, extended, lower):
            raise TreeProjectionError(
                "the supplied schema is not a tree projection of P(D) w.r.t. D ∪ (X)"
            )

    # Rebuild the program so we can append to a fresh copy.
    augmented = Program(base, program.statements, base_names=program.base_names)
    added_semijoins = 0
    added_joins = 0
    added_projects = 0
    fresh_counter = 0

    def fresh(prefix: str) -> str:
        nonlocal fresh_counter
        fresh_counter += 1
        return f"__tp_{prefix}_{fresh_counter}"

    # Step 1: materialize one relation per tree-projection node.
    node_names: List[str] = []
    for node_schema in tree_projection.relations:
        cover = _covering_name(augmented, node_schema)
        name = fresh("node")
        augmented.project(name, cover, node_schema)
        added_projects += 1
        node_names.append(name)

    # Step 2: semijoin each node with every anchor relation it covers (each
    # anchor is attached to exactly one node).  Anchors that are D's own
    # relations are taken by position: a lookup by covering schema would
    # pick the first relation whose schema contains the anchor, which on a
    # general state is a different relation whenever schemas repeat or nest.
    # The lookup stays for other anchors (``CC(D, X)`` on UR databases, where
    # every covering relation projects to the same value).
    by_position = tuple(anchor_schema.relations) == tuple(base.relations)
    for anchor_index, anchor in enumerate(anchor_schema.relations):
        node_index = next(
            (
                index
                for index, node_schema in enumerate(tree_projection.relations)
                if anchor <= node_schema
            ),
            None,
        )
        if node_index is None:
            raise TreeProjectionError(
                f"tree projection does not cover anchor relation {anchor.to_notation()}"
            )
        if by_position:
            anchor_name = augmented.base_names[anchor_index]
        else:
            anchor_name = _covering_name(augmented, anchor)
        # If the covering relation is wider than the anchor, narrow it first so
        # the semijoin is on exactly the anchor attributes.
        if augmented.schema_of(anchor_name) != anchor:
            narrowed = fresh("anchor")
            augmented.project(narrowed, anchor_name, anchor)
            added_projects += 1
            anchor_name = narrowed
        new_name = fresh("reduced")
        augmented.semijoin(new_name, node_names[node_index], anchor_name)
        added_semijoins += 1
        node_names[node_index] = new_name

    # Step 3: full reducer over a qual tree of the tree projection, then a
    # bottom-up join ending in a node that covers X, and a final projection.
    # The qual tree comes from the engine façade, so repeated augmentations
    # over the same tree projection share one analysis.
    from ..engine.analysis import analyze  # deferred: the engine sits above us

    tree = analyze(tree_projection).qual_tree
    if tree is None:  # pragma: no cover - tree_projection is a tree by construction
        raise TreeProjectionError("internal error: tree projection is not a tree schema")
    target_node = next(
        index
        for index, node_schema in enumerate(tree_projection.relations)
        if target_schema <= node_schema
    )
    order, parent = rooted_orientation(tree, root=target_node)

    # Leaf-to-root semijoins.
    for node in reversed(order):
        mother = parent[node]
        if mother is None:
            continue
        new_name = fresh("up")
        augmented.semijoin(new_name, node_names[mother], node_names[node])
        added_semijoins += 1
        node_names[mother] = new_name
    # Root-to-leaf semijoins.
    for node in order:
        mother = parent[node]
        if mother is None:
            continue
        new_name = fresh("down")
        augmented.semijoin(new_name, node_names[node], node_names[mother])
        added_semijoins += 1
        node_names[node] = new_name

    # After the full reducer every node is globally consistent; in particular
    # the root (which was chosen to cover X) already holds the projection of
    # the join of all nodes onto its own schema, so the answer is a single
    # projection away — no join statements are needed, matching the theorem's
    # "augmented by semijoins" phrasing.
    final = fresh("answer")
    augmented.project(final, node_names[target_node], target_schema)
    added_projects += 1

    return AugmentedProgram(
        program=augmented,
        tree_projection=tree_projection,
        added_semijoins=added_semijoins,
        added_joins=added_joins,
        added_projects=added_projects,
    )


def solve_with_tree_projection(
    program: Program,
    target: Union[RelationSchema, str],
    state: DatabaseState,
    *,
    anchors: Optional[DatabaseSchema] = None,
    tree_projection: Optional[DatabaseSchema] = None,
    budget: int = 100_000,
) -> Relation:
    """Augment ``program`` per Theorem 6.1/6.2 and evaluate it on ``state``."""
    augmented = augment_program_with_semijoins(
        program,
        target,
        anchors=anchors,
        tree_projection=tree_projection,
        budget=budget,
    )
    return augmented.run(state)
