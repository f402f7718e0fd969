"""Semijoin full reducers and Yannakakis' algorithm for tree schemas.

The payoff of the paper's tree/cyclic dichotomy is query processing: over a
tree schema, ``π_X(⋈ D)`` can be computed with a linear number of semijoins
and joins whose intermediate results never exceed (input + output) size
(Yannakakis, VLDB 1981; Bernstein & Chiu).  This module implements:

* :func:`full_reducer_semijoins` — the semijoin program (leaf-to-root then
  root-to-leaf passes over a qual tree) that makes every relation state
  globally consistent;
* :func:`full_reduce` — apply that program to a database state;
* :func:`yannakakis` — the full algorithm: semijoin reduction followed by a
  bottom-up join with early projection over the part of the tree the
  answer depends on (a wrapper over the engine façade's cached
  :class:`~repro.engine.prepared.PreparedQuery` plans);
* :func:`naive_join_project` — the baseline the benchmarks compare against.

Both algorithms compute exactly ``π_X(⋈ D)`` for *any* database state (UR or
not); the difference is intermediate-result size and running time, which the
benchmarks measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..exceptions import NotATreeSchemaError, SchemaError
from ..hypergraph.qual_graph import QualGraph
from ..hypergraph.schema import DatabaseSchema, RelationSchema
from .database import DatabaseState
from .relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiled imports us)
    from .compiled import ExecutionStats

__all__ = [
    "SemijoinStep",
    "rooted_orientation",
    "full_reducer_semijoins",
    "full_reduce",
    "YannakakisRun",
    "yannakakis",
    "naive_join_project",
]


@dataclass(frozen=True)
class SemijoinStep:
    """One semijoin ``target := target ⋉ source`` over relation indices."""

    target: int
    source: int

    def describe(self) -> str:
        """Human readable description of the step."""
        return f"R{self.target} := R{self.target} ⋉ R{self.source}"


def rooted_orientation(
    tree: QualGraph, root: int = 0
) -> Tuple[Tuple[int, ...], Dict[int, Optional[int]]]:
    """Orient a qual tree from ``root``: returns a pre-order and a parent map."""
    adjacency = tree.adjacency()
    order: List[int] = []
    parent: Dict[int, Optional[int]] = {root: None}
    stack = [root]
    seen = {root}
    while stack:
        node = stack.pop()
        order.append(node)
        for neighbour in sorted(adjacency[node], reverse=True):
            if neighbour not in seen:
                seen.add(neighbour)
                parent[neighbour] = node
                stack.append(neighbour)
    if len(order) != len(tree.nodes):
        raise SchemaError("the qual tree is not connected")
    return tuple(order), parent


def full_reducer_semijoins(
    schema: DatabaseSchema,
    *,
    tree: Optional[QualGraph] = None,
    root: int = 0,
) -> Tuple[SemijoinStep, ...]:
    """The full-reducer semijoin program for a tree schema.

    Leaf-to-root pass (each parent semijoined by each child, children first)
    followed by a root-to-leaf pass (each child semijoined by its parent);
    ``2·(|D| - 1)`` semijoins in total.  Raises
    :class:`~repro.exceptions.NotATreeSchemaError` on cyclic schemas.
    """
    if len(schema) == 0:
        return ()
    if tree is None:
        from ..engine.analysis import analyze  # deferred: the engine sits above us

        tree = analyze(schema).qual_tree
        if tree is None:
            raise NotATreeSchemaError(
                "full reducers exist exactly for tree schemas; the schema is cyclic"
            )
    order, parent = rooted_orientation(tree, root=root)
    steps: List[SemijoinStep] = []
    for node in reversed(order):
        mother = parent[node]
        if mother is not None:
            steps.append(SemijoinStep(target=mother, source=node))
    for node in order:
        mother = parent[node]
        if mother is not None:
            steps.append(SemijoinStep(target=node, source=mother))
    return tuple(steps)


def full_reduce(
    state: DatabaseState,
    *,
    tree: Optional[QualGraph] = None,
    root: int = 0,
) -> DatabaseState:
    """Apply the full reducer to a state over a tree schema.

    Afterwards every relation state equals the projection of the global join
    onto its schema (global consistency).

    Each tree edge is semijoined across twice (leaf-to-root, then
    root-to-leaf) on the same shared attributes; the hash indexes that
    :meth:`~repro.relational.relation.Relation.key_index` caches per instance
    are therefore shared between the two passes instead of being rebuilt, and
    semijoins that drop no rows return the (already indexed) input unchanged.
    """
    steps = full_reducer_semijoins(state.schema, tree=tree, root=root)
    relations = list(state.relations)
    for step in steps:
        relations[step.target] = relations[step.target].semijoin(relations[step.source])
    return DatabaseState(state.schema, relations)


@dataclass(frozen=True)
class YannakakisRun:
    """The result of running Yannakakis' algorithm, with size accounting.

    ``max_intermediate_size`` is the largest relation materialized at any
    point (after semijoins, during the bottom-up joins, and the final
    result) — the quantity whose boundedness distinguishes tree from cyclic
    query processing.

    ``backend`` reports which execution backend produced the run:
    ``"classic"`` object-tuple operators, the ``"compiled"`` row-program
    kernel of :mod:`repro.relational.compiled`, or ``"parallel"`` when the
    run came out of the sharded process-pool layer of
    :mod:`repro.engine.parallel` (workers execute on the compiled kernel;
    the batch entry point re-tags their runs).  ``stats`` carries the
    compiled backend's instrumentation
    (:class:`~repro.relational.compiled.ExecutionStats`, shared by all runs
    of one batch; parallel batches share one merged
    :class:`~repro.engine.parallel.ParallelStats`) and is ``None`` on
    classic runs.  Neither field participates in equality: two runs that
    computed the same answer with the same accounting compare equal
    regardless of the backend.
    """

    result: Relation
    semijoin_count: int
    join_count: int
    max_intermediate_size: int
    backend: str = field(default="classic", compare=False)
    stats: Optional["ExecutionStats"] = field(  # noqa: F821 - see compiled.py
        default=None, compare=False, repr=False
    )


def yannakakis(
    schema: DatabaseSchema,
    target: RelationSchema,
    state: DatabaseState,
    *,
    tree: Optional[QualGraph] = None,
    root: Optional[int] = None,
    backend: str = "auto",
) -> YannakakisRun:
    """Compute ``π_X(⋈ D)`` over a tree schema via semijoins + guarded joins.

    This is a thin wrapper over the engine façade: the plan (qual tree,
    semijoin program, pruned join order, early-projection schedule) is
    compiled once per ``(schema, target, root)`` by
    :meth:`repro.engine.analysis.AnalyzedSchema.prepare` and cached, so
    repeated calls over different states only pay for execution.  Passing an
    explicit ``tree`` bypasses the cache and compiles a one-off plan for that
    tree.  ``root`` left ``None`` resolves, as in ``prepare``, to the
    relation covering most of ``X``.  ``backend`` selects the execution
    kernel: ``"auto"`` picks the vectorized or compiled kernel per state
    (see :func:`repro.engine.prepared.resolve_backend_for`), and
    ``"classic"`` forces the object-tuple operators.  The returned run's
    ``backend`` field reports which one ran.  For bulk evaluation prefer
    ``analyze(schema).prepare(target).execute_many(states)``.
    """
    if not isinstance(target, RelationSchema):
        target = RelationSchema(target)
    if state.schema != schema:
        raise SchemaError("the state is for a different schema than the query")
    from ..engine.analysis import analyze  # deferred: the engine sits above us
    from ..engine.prepared import PreparedQuery

    if tree is not None:
        prepared = PreparedQuery(schema, target, tree=tree, root=root)
    else:
        prepared = analyze(schema).prepare(target, root=root)
    return prepared.execute(state, backend=backend)


def naive_join_project(
    schema: DatabaseSchema, target: RelationSchema, state: DatabaseState
) -> Tuple[Relation, int]:
    """The baseline: join every relation in schema order, then project.

    The accumulator is seeded from the smallest relation state; apart from
    that seed the joins proceed in plain schema order, deliberately without
    any join-ordering optimization — this function stays the *unoptimized*
    baseline that the benchmarks compare :func:`yannakakis` against.  (The
    seed can even hurt: a smallest relation sharing no attributes with the
    schema-order prefix makes the first join a cartesian product.  That
    unplanned behavior is exactly what a baseline should exhibit.)

    Returns the result and the largest intermediate relation size, for
    comparison with :func:`yannakakis` in the benchmarks.
    """
    if not isinstance(target, RelationSchema):
        target = RelationSchema(target)
    relations = state.relations
    if not relations:
        return Relation.nullary_true().project(RelationSchema(())), 0
    seed = min(range(len(relations)), key=lambda index: len(relations[index]))
    current = relations[seed]
    max_intermediate = len(current)
    for index, relation in enumerate(relations):
        if index == seed:
            continue
        current = current.natural_join(relation)
        max_intermediate = max(max_intermediate, len(current))
    result = current.project(target)
    max_intermediate = max(max_intermediate, len(result))
    return result, max_intermediate
