"""Cyclic queries on the compiled substrate: treefy once, execute many.

The paper's dichotomy (tree *vs.* cyclic schemas) splits the execution story
in two: tree schemas get Yannakakis — and, in this codebase, the compiled /
vectorized / parallel fast paths built on top of it — while cyclic schemas
historically fell back to :func:`repro.treeproj.solver.solve_with_tree_projection`,
which re-searches a tree projection and re-builds the augmented program on
*every call*.  This module closes the gap: a
:class:`CyclicPreparedQuery` plans the treefication once and lowers the
Theorem 6.1 construction into a frozen two-stage plan,

1. a **prologue** over the original state — materialize one relation per
   tree-projection node by joining (projections of) the base relations that
   cover it, then re-attach every base relation to a covering node with a
   guard semijoin (≤ ``|D|`` of them, the paper's anchor semijoins), and
2. the existing compiled full-reducer + bottom-up Yannakakis program of a
   :class:`~repro.engine.prepared.PreparedQuery` over the *projection's*
   (tree) schema with the same target,

so a cyclic query rides the same serial kernels, the same
:class:`~repro.engine.parallel.PlanSpec` round-trip, the same process pool
and the same :class:`~repro.engine.service.QueryService` routing as a tree
query.  Correctness is the proof idea of Theorem 6.1: each node value is a
superset of the projection of ``⋈ D`` onto the node, every base relation is
contained in some node and either joins into it un-projected or guards it
with a semijoin, hence ``⋈ (node values) = ⋈ D`` and the inner tree-schema
query computes exactly ``π_X(⋈ D)``.

Projection *selection* follows the Greco–Scarcello minimality criterion
(PAPERS.md): among candidate tree projections — a greedy-merge
triangulation, the search layers of
:func:`repro.treeproj.tree_projection.find_tree_projection`, the
single-relation treefication residue ``U(GR(D))`` of Corollary 3.2, and the
trivial one-node universe — each candidate is *shrunk* to an
attribute-minimal tree projection (no single attribute or node can be
dropped without breaking coverage or treeness) and the survivors are ranked
by ``(minimal, width, fan-out, total arity, node count)``: minimal
projections first, then the narrowest covering node, then the fewest base
relations joined per node.  The oracle matrix (``tests/test_oracle_matrix.py``)
holds every entry point of the plan to ``naive_join_project`` and checks
that every node value contains ``π_node(⋈ D)``; the seed-era solver stays
on verbatim as a second oracle (``tests/engine/test_cyclic_pipeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..exceptions import SchemaError, SearchBudgetExceeded, TreeProjectionError
from ..hypergraph.gyo import is_tree_schema
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema
from ..relational.database import DatabaseState, dedupe_states
from ..relational.relation import Relation, semijoin_key_layout
from ..relational.yannakakis import YannakakisRun
from ..treefication.single import treefying_relation
from ..treeproj.tree_projection import find_tree_projection
from .prepared import PreparedQuery, _execute_many, _execute_one, default_root

__all__ = [
    "CyclicPreparedQuery",
    "ProjectionChoice",
    "choose_tree_projection",
    "is_valid_projection",
]

#: Cap on candidate-validation work (``is_tree_schema`` + coverage checks)
#: spent shrinking one candidate toward minimality.  Planning is memoized per
#: target on the analysis, so this bounds a one-time cost; hitting the cap
#: only costs the ``minimal`` flag, never correctness.
_SHRINK_BUDGET = 4096

#: Budget handed to :func:`find_tree_projection` when it is consulted as a
#: candidate generator.  It counts subsets enumerated by the union-search
#: layer, which is exponential in the number of nested lower edges; a
#: subset's coverage is a bitmask test, so only covering subsets pay for
#: schema construction and GYO.  The greedy-merge candidate does not depend
#: on it.
_SEARCH_BUDGET = 20_000


@dataclass(frozen=True)
class ProjectionChoice:
    """A selected tree projection with the statistics it was ranked by.

    ``minimal`` reports the Greco–Scarcello-inspired local criterion: the
    shrink pass reached a fixpoint, i.e. no single attribute (or whole node)
    can be removed without breaking coverage of ``D ∪ (X)`` or treeness.
    ``width`` is the largest node arity, ``fanout`` the largest number of
    base-relation sources joined to materialize one node, ``total_arity``
    the summed node arities.
    """

    projection: DatabaseSchema
    method: str
    minimal: bool
    width: int
    fanout: int
    total_arity: int


def is_valid_projection(projection: DatabaseSchema, lower: DatabaseSchema) -> bool:
    """Whether ``projection`` is a tree projection Theorem 6.1 can execute
    through, for ``lower = D ∪ (X)``: it covers ``lower``, stays within
    ``U(lower) = U(D)`` and is a tree schema.

    The one meaning check behind candidate validation, the shrink pass and
    the plan catalog's read path — a restored choice is trusted exactly as
    far as a freshly searched one.
    """
    return (
        projection.covers(lower)
        and projection.attributes <= lower.attributes
        and is_tree_schema(projection)
    )


# -- candidate generation -------------------------------------------------------


def _greedy_merge(lower: DatabaseSchema) -> Optional[DatabaseSchema]:
    """Triangulate by merging the most-overlapping relation pair until the
    schema is a tree.

    Starting from the reduction of ``D ∪ (X)``, repeatedly replace the pair
    with the largest attribute overlap (ties: smallest union, then input
    order) by its union and re-reduce.  Every step removes at least one
    relation, so the loop terminates; a single relation is trivially a tree
    schema, so it always succeeds.  Coverage of ``lower`` is invariant —
    relations are only ever replaced by supersets.
    """
    candidate = lower.reduction()
    while candidate and not is_tree_schema(candidate):
        rels = candidate.relations
        if len(rels) < 2:  # pragma: no cover - single relation is a tree
            break
        best: Optional[Tuple[Tuple[int, int, int, int], int, int]] = None
        for i in range(len(rels)):
            for j in range(i + 1, len(rels)):
                overlap = len(rels[i].attributes & rels[j].attributes)
                union_size = len(rels[i].attributes | rels[j].attributes)
                key = (-overlap, union_size, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        assert best is not None
        _, i, j = best
        union = rels[i].union(rels[j])
        merged = tuple(
            rel for k, rel in enumerate(rels) if k != i and k != j
        ) + (union,)
        candidate = DatabaseSchema(merged).reduction()
    return candidate


def _candidates(
    schema: DatabaseSchema, lower: DatabaseSchema, target: RelationSchema
) -> Iterable[Tuple[str, Optional[DatabaseSchema]]]:
    """Yield ``(method, candidate)`` pairs; candidates may be invalid or
    ``None`` — the caller validates."""
    yield "greedy-merge", _greedy_merge(lower)

    # Corollary 3.2's single-relation treefication: adding U(GR(D)) (widened
    # by the target, which must also be covered) treefies D.  The union with
    # X can re-introduce cyclicity in corner cases, so this one is validated
    # like any other candidate.
    residue = treefying_relation(schema).union(target)
    if residue:
        yield "residue", schema.add_relation(residue).reduction()

    # The layered tree-projection search, over an upper bound made of the
    # lower edges plus every pairwise union of overlapping lower edges plus
    # the treefication residue.  (The one-node universe is deliberately left
    # out of `upper`: its reduction would short-circuit the search at the
    # "upper" layer and hide the interesting candidates.)
    extras: List[RelationSchema] = []
    rels = lower.relations
    for i in range(len(rels)):
        for j in range(i + 1, len(rels)):
            if rels[i].attributes & rels[j].attributes:
                extras.append(rels[i].union(rels[j]))
    if residue:
        extras.append(residue)
    upper = lower.add_relations(extras)
    try:
        search = find_tree_projection(upper, lower, budget=_SEARCH_BUDGET)
    except SearchBudgetExceeded:
        search = None
    if search is not None and search.found:
        yield f"tp-{search.method}", search.projection

    # The trivial fallback: one node holding the whole universe.  Always a
    # valid tree projection; the shrink pass often improves it considerably.
    universe = schema.attributes.union(target)
    if universe:
        yield "universe", DatabaseSchema((universe,))


def _shrink(
    projection: DatabaseSchema,
    lower: DatabaseSchema,
    budget: int = _SHRINK_BUDGET,
) -> Tuple[DatabaseSchema, bool]:
    """Drive a valid tree projection toward minimality by local removals.

    Repeatedly drop a whole node, or a single attribute from a node, as long
    as the result still covers ``lower`` and remains a tree schema; each
    removal strictly shrinks the total arity, so the loop terminates.
    Returns the shrunk projection and whether a fixpoint was reached within
    ``budget`` validation checks (the ``minimal`` flag of
    :class:`ProjectionChoice`).
    """
    checks = 0
    current = projection
    while True:
        improved = False
        rels = current.relations
        if len(rels) > 1:
            for index in range(len(rels)):
                trial = DatabaseSchema(rels[:index] + rels[index + 1 :])
                checks += 1
                if checks > budget:
                    return current, False
                if is_valid_projection(trial, lower):
                    current = trial.reduction()
                    improved = True
                    break
        if not improved:
            for index, rel in enumerate(rels):
                for attribute in rel.sorted_attributes():
                    slim = rel.difference((attribute,))
                    if not slim:
                        continue
                    trial = DatabaseSchema(
                        rels[:index] + (slim,) + rels[index + 1 :]
                    ).reduction()
                    checks += 1
                    if checks > budget:
                        return current, False
                    if is_valid_projection(trial, lower):
                        current = trial
                        improved = True
                        break
                if improved:
                    break
        if not improved:
            return current, True


def _node_sources(
    schema: DatabaseSchema, node: RelationSchema
) -> Tuple[Tuple[int, Optional[RelationSchema]], ...]:
    """How to materialize one projection node from the base relations.

    Returns ``(relation_index, projection)`` pairs whose (projected) schemas
    union to exactly the node's attribute set; ``projection is None`` marks a
    base relation contained in the node, joined as-is (and therefore already
    anchored — no guard semijoin needed for it).  Contained relations are
    preferred, largest first; leftover attributes are covered greedily by
    projections of overlapping relations.
    """
    sources: List[Tuple[int, Optional[RelationSchema]]] = []
    covered: Set[Attribute] = set()
    contained = sorted(
        (
            index
            for index, rel in enumerate(schema.relations)
            if rel and rel <= node
        ),
        key=lambda index: (-len(schema[index]), index),
    )
    for index in contained:
        attrs = schema[index].attributes
        if not attrs <= covered:
            sources.append((index, None))
            covered |= attrs
    node_attrs = node.attributes
    while not node_attrs <= covered:
        best_index: Optional[int] = None
        best_gain = 0
        for index, rel in enumerate(schema.relations):
            gain = len((rel.attributes & node_attrs) - covered)
            if gain > best_gain:
                best_index, best_gain = index, gain
        if best_index is None:
            raise TreeProjectionError(
                f"internal error: node {node.to_notation()} is not covered "
                "by U(D)"
            )
        overlap = RelationSchema(schema[best_index].attributes & node_attrs)
        sources.append((best_index, overlap))
        covered |= overlap.attributes
    return tuple(sources)


def _assign_guards(
    schema: DatabaseSchema,
    nodes: Tuple[RelationSchema, ...],
    sources: Tuple[Tuple[Tuple[int, Optional[RelationSchema]], ...], ...],
) -> Tuple[Tuple[int, int], ...]:
    """The guard semijoins: ``(node_index, relation_index)`` pairs.

    Theorem 6.1's anchor step — every base relation must constrain some node
    that contains it.  A relation joined *un-projected* into a containing
    node is anchored for free; every other relation guards the first node
    that contains it (≤ ``|D|`` semijoins total).
    """
    unprojected: List[Set[int]] = [
        {index for index, projection in node_sources if projection is None}
        for node_sources in sources
    ]
    guards: List[Tuple[int, int]] = []
    for rel_index, rel in enumerate(schema.relations):
        holder: Optional[int] = None
        anchored = False
        for node_index, node in enumerate(nodes):
            if rel <= node:
                if rel_index in unprojected[node_index]:
                    anchored = True
                    break
                if holder is None:
                    holder = node_index
        if anchored:
            continue
        if holder is None:
            raise TreeProjectionError(
                f"tree projection does not cover base relation "
                f"{rel.to_notation()}"
            )
        guards.append((holder, rel_index))
    return tuple(guards)


def _score(choice: ProjectionChoice) -> Tuple[int, int, int, int, int, str]:
    return (
        0 if choice.minimal else 1,
        choice.width,
        choice.fanout,
        choice.total_arity,
        len(choice.projection),
        choice.projection.to_notation(),
    )


def choose_tree_projection(
    schema: DatabaseSchema, target: Union[RelationSchema, Iterable[Attribute]]
) -> ProjectionChoice:
    """Select a tree projection of ``D`` w.r.t. ``D ∪ (X)`` for execution.

    Generates candidates (greedy-merge triangulation, the layered
    :func:`find_tree_projection` search, the Corollary 3.2 residue, the
    one-node universe), shrinks each toward minimality, and ranks them by
    ``(minimal, width, fanout, total arity, node count)`` — the
    Greco–Scarcello preference for minimal projections with the narrowest
    intermediate relations.  Deterministic: ties break on notation.
    """
    if not isinstance(schema, DatabaseSchema):
        schema = DatabaseSchema(schema)
    target_schema = (
        target if isinstance(target, RelationSchema) else RelationSchema(target)
    )
    if not target_schema <= schema.attributes:
        raise SchemaError("the target must be contained in U(D)")
    if len(schema) == 0:
        return ProjectionChoice(
            projection=DatabaseSchema(()),
            method="empty",
            minimal=True,
            width=0,
            fanout=0,
            total_arity=0,
        )
    lower = (
        schema.add_relation(target_schema) if target_schema else schema
    )
    best: Optional[ProjectionChoice] = None
    seen: Set[DatabaseSchema] = set()
    for method, candidate in _candidates(schema, lower, target_schema):
        if candidate is None:
            continue
        candidate = candidate.reduction()
        if not is_valid_projection(candidate, lower):
            continue
        shrunk, minimal = _shrink(candidate, lower)
        if shrunk in seen:
            continue
        seen.add(shrunk)
        nodes = shrunk.relations
        sources = tuple(_node_sources(schema, node) for node in nodes)
        choice = ProjectionChoice(
            projection=shrunk,
            method=method,
            minimal=minimal,
            width=max((len(node) for node in nodes), default=0),
            fanout=max((len(s) for s in sources), default=0),
            total_arity=sum(len(node) for node in nodes),
        )
        if best is None or _score(choice) < _score(best):
            best = choice
    if best is None:  # pragma: no cover - the universe candidate always validates
        raise TreeProjectionError(
            f"no tree projection found for {schema.to_notation()}"
        )
    return best


# -- the frozen cyclic plan -----------------------------------------------------


class _CyclicPlanAdapter:
    """A serial-kernel adapter with the compiled/vectorized plan surface.

    Duck-types the slice of :class:`~repro.relational.compiled.CompiledPlan`
    / :class:`~repro.relational.vectorized.VectorizedPlan` the engine layers
    touch — ``execute_state`` and ``execute_batch`` — but runs the owner's
    classic prologue (node materialization + guard semijoins) before
    handing the *derived* state to the inner tree-schema plan.  This is
    what lets the parallel shard body, the in-process executor and the
    routing prober run a cyclic plan without knowing it is one.
    """

    __slots__ = ("_owner", "_plan", "_backend")

    def __init__(self, owner: "CyclicPreparedQuery", plan, backend: str) -> None:
        self._owner = owner
        self._plan = plan
        self._backend = backend

    def execute_state(self, state: DatabaseState, stats=None) -> YannakakisRun:
        derived, prologue_max = self._owner._derive(state)
        if len(self._owner._nodes) == 1:
            return self._owner._single_node_run(
                derived.relations[0], prologue_max, self._backend
            )
        run = self._plan.execute_state(derived, stats=stats)
        return self._owner._merge(run, prologue_max)

    def execute_batch(self, states: Iterable[DatabaseState]) -> List[YannakakisRun]:
        """Batched execution with input-level dedup.

        A state object repeated in the batch is derived and executed once
        (:func:`~repro.relational.database.dedupe_states`).  Every returned
        run carries the one shared :class:`~repro.relational.compiled
        .ExecutionStats` of the batch.
        """
        from ..relational.compiled import ExecutionStats

        stats = ExecutionStats()
        unique, positions = dedupe_states(states)
        stats.deduped_states += len(positions) - len(unique)
        derived_list: List[DatabaseState] = []
        prologue_maxes: List[int] = []
        for state in unique:
            derived, prologue_max = self._owner._derive(state)
            derived_list.append(derived)
            prologue_maxes.append(prologue_max)
        if len(self._owner._nodes) == 1:
            # Single-node projection (e.g. a clique's universe node): the
            # inner tree plan is a bare projection of the node value, so the
            # per-state encode/row-program round-trip buys nothing — project
            # directly and keep the batch's dedup stats.
            merged = [
                self._owner._single_node_run(
                    derived.relations[0], prologue_max, self._backend, stats
                )
                for derived, prologue_max in zip(derived_list, prologue_maxes)
            ]
            return [merged[index] for index in positions]
        runs = self._plan.execute_batch(derived_list, stats=stats)
        merged = [
            self._owner._merge(run, prologue_max)
            for run, prologue_max in zip(runs, prologue_maxes)
        ]
        return [merged[index] for index in positions]


class CyclicPreparedQuery:
    """A frozen execution plan for ``π_X(⋈ D)`` over a *cyclic* schema.

    Built by :meth:`repro.engine.analysis.AnalyzedSchema.prepare_cyclic`;
    carries the selected tree projection (:class:`ProjectionChoice`), the
    per-node source lists and guard semijoins of the Theorem 6.1 prologue,
    and an inner :class:`~repro.engine.prepared.PreparedQuery` over the
    projection's tree schema that does the heavy lifting on whichever serial
    kernel is requested.  The public surface mirrors ``PreparedQuery`` —
    ``execute`` / ``execute_many`` with the full
    ``backend={classic,compiled,vectorized,auto,parallel}`` matrix,
    ``plan_spec()`` for process-pool round-trips, ``compiled`` /
    ``vectorized`` plan handles, ``reset_compiled()`` — so every engine
    layer above (parallel executor, adaptive router, query service) treats
    the two interchangeably.
    """

    __slots__ = (
        "_schema",
        "_target",
        "_choice",
        "_nodes",
        "_sources",
        "_guards",
        "_guard_layout",
        "_inner",
        "_root",
        "_prologue_joins",
        "_prologue_projects",
        "_compiled",
        "_vectorized",
    )

    #: Marks this plan as cyclic for duck-typed dispatch
    #: (:meth:`~repro.engine.parallel.PlanSpec.of` checks this instead of
    #: importing the class).
    is_cyclic_plan = True

    def __init__(
        self,
        schema: Union[DatabaseSchema, Iterable[RelationSchema]],
        target: Union[RelationSchema, Iterable[Attribute]],
        *,
        root: Optional[int] = None,
        choice: Optional[ProjectionChoice] = None,
    ) -> None:
        if not isinstance(schema, DatabaseSchema):
            schema = DatabaseSchema(schema)
        target_schema = (
            target
            if isinstance(target, RelationSchema)
            else RelationSchema(target)
        )
        if not target_schema <= schema.attributes:
            raise SchemaError("the target must be contained in U(D)")
        if choice is None:
            choice = choose_tree_projection(schema, target_schema)
        nodes = choice.projection.relations
        sources = tuple(_node_sources(schema, node) for node in nodes)
        guards = _assign_guards(schema, nodes, sources)
        if root is None:
            root = default_root(nodes, target_schema)
        elif nodes and not 0 <= root < len(nodes):
            raise ValueError(
                f"root must index a projection node (0..{len(nodes) - 1}), "
                f"got {root}"
            )
        # Through the façade so repeated prepares of the same projection —
        # including worker-side PlanSpec rebuilds — share one analysis and
        # one inner prepared query (compiled plans included).
        from .analysis import analyze

        inner = analyze(choice.projection).prepare(target_schema, root=root)
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_target", target_schema)
        object.__setattr__(self, "_choice", choice)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_sources", sources)
        object.__setattr__(self, "_guards", guards)
        # Guards grouped per node with their semijoin key layouts hoisted
        # out of the per-state path: every state filters the same schema
        # pairs, so the shared columns and key getters are plan constants.
        grouped_guards: Dict[int, List[int]] = {}
        for node_index, rel_index in guards:
            grouped_guards.setdefault(node_index, []).append(rel_index)
        object.__setattr__(
            self,
            "_guard_layout",
            tuple(
                (
                    node_index,
                    tuple(rel_indexes),
                    tuple(
                        semijoin_key_layout(
                            nodes[node_index], schema.relations[rel_index]
                        )
                        for rel_index in rel_indexes
                    ),
                )
                for node_index, rel_indexes in grouped_guards.items()
            ),
        )
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_root", root)
        object.__setattr__(
            self,
            "_prologue_joins",
            sum(max(len(node_sources) - 1, 0) for node_sources in sources),
        )
        object.__setattr__(
            self,
            "_prologue_projects",
            sum(
                1
                for node_sources in sources
                for _, projection in node_sources
                if projection is not None
            ),
        )
        object.__setattr__(self, "_compiled", None)
        object.__setattr__(self, "_vectorized", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CyclicPreparedQuery is immutable")

    # -- plan introspection ----------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        """The original (cyclic) schema ``D``."""
        return self._schema

    @property
    def target(self) -> RelationSchema:
        """The projection target ``X``."""
        return self._target

    @property
    def root(self) -> int:
        """Index of the projection node the inner bottom-up join ends in."""
        return self._root

    @property
    def tree_projection(self) -> DatabaseSchema:
        """The selected tree projection ``D'' ∈ TP(·, D ∪ (X))``."""
        return self._choice.projection

    @property
    def projection_choice(self) -> ProjectionChoice:
        """The full selection record (method, minimality, width, fan-out)."""
        return self._choice

    @property
    def projection_method(self) -> str:
        """Which candidate generator produced the winning projection."""
        return self._choice.method

    @property
    def treefication_width(self) -> int:
        """Largest node arity of the tree projection."""
        return self._choice.width

    @property
    def guard_semijoins(self) -> int:
        """Number of Theorem 6.1 anchor semijoins in the prologue."""
        return len(self._guards)

    @property
    def prologue_joins(self) -> int:
        """Number of joins materializing projection-node states."""
        return self._prologue_joins

    @property
    def inner(self) -> PreparedQuery:
        """The tree-schema prepared query over the projection's nodes."""
        return self._inner

    @property
    def compiled(self) -> _CyclicPlanAdapter:
        """The compiled row-program kernel behind the classic prologue."""
        if self._compiled is None:
            object.__setattr__(
                self,
                "_compiled",
                _CyclicPlanAdapter(self, self._inner.compiled, "compiled"),
            )
        return self._compiled

    @property
    def vectorized(self) -> _CyclicPlanAdapter:
        """The array kernel behind the classic prologue."""
        if self._vectorized is None:
            object.__setattr__(
                self,
                "_vectorized",
                _CyclicPlanAdapter(self, self._inner.vectorized, "vectorized"),
            )
        return self._vectorized

    def reset_compiled(self) -> None:
        """Drop the lazily built serial plans (and the inner query's)."""
        object.__setattr__(self, "_compiled", None)
        object.__setattr__(self, "_vectorized", None)
        self._inner.reset_compiled()

    def plan_spec(self):
        """The picklable :class:`~repro.engine.parallel.PlanSpec` identifying
        this query across process boundaries (``spec.cyclic`` is set, so
        :func:`~repro.engine.analysis.prepared_from_spec` rebuilds through
        :meth:`~repro.engine.analysis.AnalyzedSchema.prepare_cyclic`)."""
        from .parallel import PlanSpec

        return PlanSpec.of(self)

    def describe(self) -> str:
        """The whole plan — prologue and inner program — as readable text."""
        lines = [
            f"cyclic prepared query: π_{self._target.to_notation() or '{}'}"
            f"(⋈ {self._schema}) via tree projection "
            f"{self._choice.projection.to_notation()} "
            f"[{self._choice.method}"
            f"{', minimal' if self._choice.minimal else ''}]"
        ]
        for node_index, node in enumerate(self._nodes):
            parts = []
            for rel_index, projection in self._sources[node_index]:
                if projection is None:
                    parts.append(f"R{rel_index}")
                else:
                    parts.append(
                        f"π_{projection.to_notation()}(R{rel_index})"
                    )
            lines.append(
                f"  N{node_index}[{node.to_notation()}] := {' ⋈ '.join(parts)}"
            )
        for node_index, rel_index in self._guards:
            lines.append(f"  N{node_index} := N{node_index} ⋉ R{rel_index}")
        lines.extend(
            "  " + line for line in self._inner.describe().splitlines()
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CyclicPreparedQuery(schema={self._schema.to_notation()!r}, "
            f"target={self._target.to_notation()!r}, "
            f"projection={self._choice.projection.to_notation()!r}, "
            f"method={self._choice.method!r})"
        )

    # -- the Theorem 6.1 prologue ----------------------------------------------

    def _derive(self, state: DatabaseState) -> Tuple[DatabaseState, int]:
        """Materialize the projection-node state from the original state.

        Classic :class:`~repro.relational.relation.Relation` operators: node
        values are joins of (projections of) base relations — supersets of
        ``π_node(⋈ D)`` — then each guard semijoin re-attaches one base
        relation per Theorem 6.1.  Returns the derived state over the
        projection's schema plus the largest intermediate produced.

        Every execution path of the plan — single, batch, in-process and
        pool — derives through here, so this is where a state for another
        schema is rejected (the inner plan only ever sees derived states).
        """
        if state.schema is not self._schema and state.schema != self._schema:
            raise SchemaError("the state is for a different schema than the query")
        relations = state.relations
        values: List[Relation] = []
        largest = 0
        for node_index, node in enumerate(self._nodes):
            value: Optional[Relation] = None
            for rel_index, projection in self._sources[node_index]:
                relation = relations[rel_index]
                if projection is not None:
                    relation = relation.project(projection)
                value = (
                    relation if value is None else value.natural_join(relation)
                )
                if len(value) > largest:
                    largest = len(value)
            if value is None:
                # A node with no attributes (degenerate); its only sound
                # materialization is the nullary TRUE — guards still apply.
                value = Relation.nullary_true()
            values.append(value)
        # All guards on one node fuse into a single conjunctive filter pass
        # (semijoins commute), skipping the per-guard intermediate relations
        # a fold would materialize; key layouts were hoisted at plan time.
        for node_index, rel_indexes, layouts in self._guard_layout:
            values[node_index] = values[node_index].semijoin_many(
                [relations[rel_index] for rel_index in rel_indexes],
                layouts=layouts,
            )
        derived = DatabaseState(self._choice.projection, values)
        return derived, largest

    def _single_node_run(
        self,
        value: Relation,
        prologue_max: int,
        backend: str,
        stats=None,
    ) -> YannakakisRun:
        """Finish a single-node plan: the answer is ``π_X(node value)``.

        With one projection node the inner tree schema has no edges — no
        full reducer, no bottom-up join — so Yannakakis degenerates to one
        projection.  Used by the kernel adapters to skip the inner plan's
        per-state encode round-trip; the classic path keeps going through
        :class:`~repro.engine.prepared.PreparedQuery` so the property tests
        retain an independently computed oracle.
        """
        result = value.project(self._target)
        return YannakakisRun(
            result=result,
            semijoin_count=len(self._guards),
            join_count=self._prologue_joins,
            max_intermediate_size=max(len(value), len(result), prologue_max),
            backend=backend,
            stats=stats,
        )

    def _merge(self, run: YannakakisRun, prologue_max: int) -> YannakakisRun:
        """Fold the prologue's accounting into an inner run.

        Constructed directly rather than via :func:`dataclasses.replace` —
        ``replace`` pays per-call field introspection, which at one call per
        state is measurable on many-small-state batches.
        """
        return YannakakisRun(
            result=run.result,
            semijoin_count=run.semijoin_count + len(self._guards),
            join_count=run.join_count + self._prologue_joins,
            max_intermediate_size=max(run.max_intermediate_size, prologue_max),
            backend=run.backend,
            stats=run.stats,
        )

    # -- execution -------------------------------------------------------------

    def execute(self, state: DatabaseState, *, backend: str = "auto") -> YannakakisRun:
        """Run the frozen plan against one state; no planning happens here.

        Same contract as :meth:`PreparedQuery.execute`: ``backend`` picks the
        serial kernel (``"auto"`` applies the gate of
        :func:`~repro.engine.prepared.resolve_backend_for` to the *original*
        state and the inner plan), the returned run's counts include the
        prologue's guard semijoins and node-materialization joins.
        """
        return _execute_one(self, state, backend)

    def _execute_classic(self, state: DatabaseState) -> YannakakisRun:
        """Prologue + inner classic executor (the property-test oracle)."""
        derived, prologue_max = self._derive(state)
        run = self._inner.execute(derived, backend="classic")
        return self._merge(run, prologue_max)

    def execute_many(
        self,
        states: Iterable[DatabaseState],
        *,
        backend: str = "auto",
        workers: Optional[int] = None,
        executor: Optional[object] = None,
        shard_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        failure_policy: Optional[str] = None,
    ) -> List[YannakakisRun]:
        """Execute the plan against each state, amortizing the planning cost.

        Identical contract and knob matrix to
        :meth:`PreparedQuery.execute_many` — serial batches share the inner
        plan's per-slot encoding caches (plus input-level
        dedup of repeated states before the prologue runs), and
        ``backend="parallel"`` ships the plan to the process pool as a cyclic
        :class:`~repro.engine.parallel.PlanSpec` (workers rebuild via
        ``prepare_cyclic`` and run the same prologue per shard).
        """
        return _execute_many(
            self,
            states,
            backend=backend,
            workers=workers,
            executor=executor,
            shard_timeout=shard_timeout,
            max_retries=max_retries,
            failure_policy=failure_policy,
        )
