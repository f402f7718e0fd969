"""Compiled execution plans: plan once, execute many.

A :class:`PreparedQuery` freezes everything about evaluating ``π_X(⋈ D)``
over a tree schema that depends only on the *schema* and the *target* — the
qual tree, its rooted orientation, the semijoin program, the pruned
early-projection schedule of the bottom-up join, and the final projection —
so that :meth:`PreparedQuery.execute` does no planning work at all: it only
runs semijoins, joins and projections against the supplied
:class:`~repro.relational.database.DatabaseState`.

The execution semantics (result, semijoin/join counts, maximum intermediate
size) are exactly those of :func:`repro.relational.yannakakis.yannakakis`,
which is now a thin wrapper around this class.  The key observation that
makes ahead-of-time compilation possible is that the attribute set of every
intermediate relation in Yannakakis' bottom-up join is determined by the
schema and target alone: a node's relation, at the moment it is merged into
its mother, carries ``schema[node]``'s attributes plus whatever its own
children were allowed to keep.  The constructor replays that recurrence
symbolically and records, per tree edge, whether a projection is needed and
onto which attributes.

**Canonical-connection pruning.**  The same recurrence tells which joins
matter.  A step ``node → mother`` whose kept attributes lie inside
``schema[mother]`` is an identity once the leaf-to-root semijoin pass has
run: by running intersection those attributes sit on the edge, and the pass
already matched every mother row across it.  The plan drops such steps, and
the root-to-leaf semijoins into their nodes with them; what survives is a
subtree holding the root, the part of the tree that ``CC(D, X) = GR(D, X)``
(Theorem 3.3(ii)) says the answer depends on.  The leaf-to-root pass stays
whole, so every kept relation still sees the whole state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import NotATreeSchemaError, SchemaError
from ..hypergraph.qual_graph import QualGraph
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema
from ..relational.compiled import _JOIN_GENERAL, CompiledPlan, plan_layout
from ..relational.database import DatabaseState
from ..relational.vectorized import VectorizedPlan, numpy_available
from ..relational.relation import Relation
from ..relational.yannakakis import SemijoinStep, YannakakisRun, rooted_orientation

__all__ = [
    "JoinStep",
    "PreparedQuery",
    "VECTORIZED_MIN_STATE_ROWS",
    "VECTORIZED_NARROW_RELATIONS",
    "VECTORIZED_RELATION_ROWS_FACTOR",
    "default_root",
    "resolve_backend",
    "resolve_backend_for",
    "vectorized_batch_profitable",
]

#: Execution backends accepted by :meth:`PreparedQuery.execute` /
#: :meth:`PreparedQuery.execute_many` (``parallel`` is batch-only).
_BACKENDS = ("auto", "classic", "compiled", "parallel", "vectorized")


def _check_backend(backend: str) -> None:
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(_BACKENDS)}"
        )


def resolve_backend(backend: str) -> str:
    """Normalize a backend name: ``auto`` resolves to the fastest serial kernel.

    With numpy importable that is the array-backed vectorized kernel of
    :mod:`repro.relational.vectorized`; without it, the compiled
    row-program backend — and an explicit ``"vectorized"`` request maps
    to compiled too, since the array kernel needs numpy.  Both compute
    exactly what the classic object-tuple operators compute — the
    equivalence suites hold on every exposed entry point — so ``auto``
    always takes a fast path; ``classic`` remains available as the oracle
    and for A/B timing.  ``parallel`` (the sharded process-pool layer of
    :mod:`repro.engine.parallel`) resolves to itself — it batches states
    across workers and is therefore accepted only by
    :meth:`PreparedQuery.execute_many`.

    This answers the static question with no batch in hand, so for
    ``"auto"`` and ``"vectorized"`` it imports numpy (once per process) to
    learn whether it is there.  Routing a batch goes through
    :func:`resolve_backend_for` instead, which asks about numpy only after
    the batch has passed its shape gate; a process that serves only small
    batches never imports numpy.
    """
    _check_backend(backend)
    if backend in ("auto", "vectorized"):
        return "vectorized" if numpy_available() else "compiled"
    return backend


#: Below this many total rows per state, ``auto`` keeps the compiled
#: backend even with numpy importable: the array kernel pays a fixed
#: per-call toll (ndarray construction, argsort/searchsorted dispatch) on
#: every relation it touches, and on tiny states that toll dwarfs the
#: work.  The crossover sits around 200–250 total rows on the PR-8
#: benchmark host; 256 keeps a margin on the compiled side of it.  This is
#: the documented *floor*; :func:`vectorized_batch_profitable` adds a
#: shape-aware test on top of it.
VECTORIZED_MIN_STATE_ROWS = 256

#: Shape term of the profitability gate: with ``n`` relations the plan runs
#: ``O(n)`` semijoin/join steps, each paying the array kernel's fixed
#: dispatch toll, so the rows available *per relation* must scale with the
#: relation count for the tolls to amortize.  The first few slots' tolls
#: hide under the batch's fixed costs (encode-cache setup, plan dispatch),
#: so the requirement scales with the relation-count *surplus* over
#: :data:`VECTORIZED_NARROW_RELATIONS`: ``auto`` upgrades to the vectorized
#: kernel only when the batch's mean rows per relation reach
#: ``VECTORIZED_RELATION_ROWS_FACTOR × (n − VECTORIZED_NARROW_RELATIONS)``.
#: The pair (32, 4) is fit to measured extremes on the benchmark host:
#: chain-6 at ~190 rows/relation (vectorized wins ~3×) clears 32·2 = 64,
#: chain-8 at ~290 rows/relation clears 32·4 = 128, while flarge-star
#: (12 relations, ~234 rows each — vectorized ran 0.67× compiled) stays
#: under 32·8 = 256 and routes to compiled.
VECTORIZED_RELATION_ROWS_FACTOR = 32

#: Relation-count allowance of the shape term: schemas with at most this
#: many relations are gated by the row floor alone (their few per-slot
#: tolls are indistinguishable from the batch's fixed costs).
VECTORIZED_NARROW_RELATIONS = 4


def _state_rows(state: DatabaseState) -> int:
    return sum(len(relation) for relation in state.relations)


def vectorized_batch_profitable(
    state_count: int, total_rows: int, relation_count: int
) -> bool:
    """The shape half of the ``auto`` gate: is the batch big enough for the
    vectorized kernel?

    True when the batch's mean total rows per state clear the
    :data:`VECTORIZED_MIN_STATE_ROWS` floor **and** the mean rows per
    relation clear :data:`VECTORIZED_RELATION_ROWS_FACTOR` ×
    ``(relation_count − VECTORIZED_NARROW_RELATIONS)`` (wide schemas of
    many small relations lose to the per-join array-setup toll even when
    total rows look large; narrow schemas are floor-only).  It counts rows,
    not value types or plan shape: :func:`resolve_backend_for`, the one
    kernel seam, asks it first and then checks the plan and the values
    before it commits a batch to the array kernel.
    """
    if state_count <= 0:
        return False
    mean_rows = total_rows / state_count
    if mean_rows < VECTORIZED_MIN_STATE_ROWS:
        return False
    surplus = relation_count - VECTORIZED_NARROW_RELATIONS
    if relation_count <= 0 or surplus <= 0:
        return True
    return (
        mean_rows / relation_count
        >= VECTORIZED_RELATION_ROWS_FACTOR * surplus
    )


def _samples_non_int(states: Sequence[DatabaseState]) -> bool:
    """True when the first row of some relation of some state holds a cell
    that is not an ``int``: a value the array kernel must dictionary-encode."""
    for state in states:
        for relation in state.relations:
            for row in relation.rows:
                if any(type(cell) is not int for cell in row):
                    return True
                break
    return False


def resolve_backend_for(
    backend: str, states: Sequence[DatabaseState], *, query=None
) -> str:
    """Resolve ``backend`` with the workload in hand: ``auto`` upgrades to
    the vectorized kernel only when it is the faster one.

    :func:`resolve_backend` answers the static question (which kernels can
    run here); this answers the routing question (which kernel *should* run
    this batch).  ``auto`` resolves to ``"vectorized"`` when the batch
    passes two checks and numpy is importable, and to ``"compiled"``
    otherwise:

    * the shape gate, :func:`vectorized_batch_profitable`: mean state size
      over the :data:`VECTORIZED_MIN_STATE_ROWS` floor *and* enough rows per
      relation to amortize the per-join array toll;
    * given the ``query`` (a :class:`PreparedQuery`, or a cyclic query,
      judged by its inner plan): the batch stays on compiled when the plan
      has no expanding join (:attr:`PreparedQuery.expands`) *and* the first
      row of some relation holds a non-``int`` cell.  Such a plan is a
      semijoin program, which the compiled kernel runs on the values
      themselves, while the array kernel would first dictionary-encode every
      cell.  A plan with a general join stays on vectorized whatever its
      values: there the array join's gathers outrun the row loop by far more
      than the encode costs.

    Only a batch that passes both checks asks whether numpy imports, so
    numpy is imported the first time a batch is routed to the array kernel
    and never before.  With ``query=None`` only the shape gate applies.
    Explicit backend names are never second-guessed; ``"vectorized"``
    itself still maps to compiled when numpy is absent.
    """
    if backend != "auto":
        return resolve_backend(backend)
    if not states:
        return "compiled"
    total_rows = sum(_state_rows(state) for state in states)
    relation_count = max(len(state.relations) for state in states)
    if not vectorized_batch_profitable(len(states), total_rows, relation_count):
        return "compiled"
    if query is not None:
        if getattr(query, "is_cyclic_plan", False):
            query = query.inner
        if not query.expands and _samples_non_int(states):
            return "compiled"
    return "vectorized" if numpy_available() else "compiled"


def default_root(
    relations: Sequence[RelationSchema], target: RelationSchema
) -> int:
    """The relation covering most of ``target``, lowest index on ties.

    The one root rule for tree plans and the inner plans of cyclic ones.
    Rooting inside ``CC(X)`` keeps the target's attributes near the root,
    so the bottom-up join carries them over the fewest edges.  A relation
    covering all of ``X`` wins outright, which is the tree-projection
    solver's choice on cyclic schemas.
    """
    best, best_cover = 0, -1
    for index, relation in enumerate(relations):
        cover = len(relation.attributes & target.attributes)
        if cover > best_cover:
            best, best_cover = index, cover
    return best


def _subtree_intervals(
    order: Sequence[int], parent: Dict[int, Optional[int]]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Preorder index and subtree extent per node, in one traversal.

    ``order`` is a DFS preorder, so the subtree of ``node`` occupies the
    contiguous index interval ``[tin[node], tout[node]]``; "does attribute
    ``a`` occur outside this subtree?" becomes an O(1) extent test.
    """
    tin = {node: position for position, node in enumerate(order)}
    tout = dict(tin)
    for node in reversed(order):
        mother = parent[node]
        if mother is not None and tout[node] > tout[mother]:
            tout[mother] = tout[node]
    return tin, tout


class JoinStep:
    """One step of the bottom-up join: merge ``node`` into ``mother``.

    ``projection`` is the early-projection schema to apply to the node's
    relation before the join, or ``None`` when the relation already carries
    exactly the attributes worth keeping.
    """

    __slots__ = ("node", "mother", "projection")

    def __init__(
        self, node: int, mother: int, projection: Optional[RelationSchema]
    ) -> None:
        self.node = node
        self.mother = mother
        self.projection = projection

    def describe(self) -> str:
        """Human readable description of the step."""
        if self.projection is None:
            return f"R{self.mother} := R{self.mother} ⋈ R{self.node}"
        return (
            f"R{self.mother} := R{self.mother} ⋈ "
            f"π_{self.projection.to_notation()}(R{self.node})"
        )


class PreparedQuery:
    """A compiled plan for ``π_X(⋈ D)`` over a tree schema.

    Instances are immutable and are normally obtained from
    :meth:`repro.engine.analysis.AnalyzedSchema.prepare`, which memoizes them
    per ``(target, root)`` and shares the schema's cached qual tree.  Direct
    construction is also supported (and is what ``yannakakis(..., tree=...)``
    uses when handed an explicit qual tree).  ``root`` defaults to
    :func:`default_root`; an explicit one must index a relation of ``D``.
    """

    __slots__ = (
        "_schema",
        "_target",
        "_root",
        "_tree",
        "_order",
        "_semijoin_steps",
        "_join_steps",
        "_final_projection",
        "_compiled",
        "_vectorized",
        "_expands",
    )

    def __init__(
        self,
        schema: DatabaseSchema,
        target: Union[RelationSchema, Iterable[Attribute]],
        *,
        tree: Optional[QualGraph] = None,
        root: Optional[int] = None,
    ) -> None:
        if not isinstance(target, RelationSchema):
            target = RelationSchema(target)
        if not target <= schema.attributes:
            raise SchemaError("the target must be contained in U(D)")
        if root is None:
            root = default_root(schema.relations, target)
        elif len(schema) > 0 and not 0 <= root < len(schema):
            raise ValueError(
                f"root must index a relation (0..{len(schema) - 1}), got {root}"
            )
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_compiled", None)
        object.__setattr__(self, "_vectorized", None)
        object.__setattr__(self, "_expands", None)

        if len(schema) == 0:
            object.__setattr__(self, "_tree", None)
            object.__setattr__(self, "_order", ())
            object.__setattr__(self, "_semijoin_steps", ())
            object.__setattr__(self, "_join_steps", ())
            object.__setattr__(self, "_final_projection", RelationSchema(()))
            return

        if tree is None:
            from .analysis import analyze

            tree = analyze(schema).qual_tree
            if tree is None:
                raise NotATreeSchemaError(
                    "Yannakakis' algorithm applies to tree schemas; the schema is cyclic"
                )
        object.__setattr__(self, "_tree", tree)

        order, parent = rooted_orientation(tree, root=root)
        object.__setattr__(self, "_order", order)

        # Early-projection schedule for the bottom-up join.  The attribute
        # set each node carries when it reaches its mother is a function of
        # the schema and target only, so the projections are decided here,
        # once, instead of per execution.  A step whose kept attributes lie
        # inside the mother's schema is an identity after the leaf-to-root
        # pass (see the module notes) and is pruned; pruning never changes
        # ``carried``, since such a ``keep`` is already part of the mother.
        tin, tout = _subtree_intervals(order, parent)
        attr_min: Dict[Attribute, int] = {}
        attr_max: Dict[Attribute, int] = {}
        for node in order:
            position = tin[node]
            for attribute in schema[node].attributes:
                if attribute not in attr_min:
                    attr_min[attribute] = attr_max[attribute] = position
                else:
                    if position < attr_min[attribute]:
                        attr_min[attribute] = position
                    if position > attr_max[attribute]:
                        attr_max[attribute] = position
        target_attributes = target.attributes
        carried: Dict[int, frozenset] = {
            node: frozenset(schema[node].attributes) for node in order
        }
        join_steps: List[JoinStep] = []
        for node in reversed(order):
            mother = parent[node]
            if mother is None:
                continue
            attributes = carried[node]
            low, high = tin[node], tout[node]
            keep = frozenset(
                attribute
                for attribute in attributes
                if attribute in target_attributes
                or attr_min[attribute] < low
                or attr_max[attribute] > high
            )
            if keep <= schema[mother].attributes:
                continue
            projection = RelationSchema(keep) if keep != attributes else None
            join_steps.append(JoinStep(node, mother, projection))
            carried[mother] = carried[mother] | keep
        object.__setattr__(self, "_join_steps", tuple(join_steps))

        # All |D|-1 leaf-to-root semijoins; root-to-leaf ones only into the
        # nodes whose join survived (a subtree holding the root).
        joined = {step.node for step in join_steps}
        object.__setattr__(
            self,
            "_semijoin_steps",
            tuple(
                SemijoinStep(target=parent[node], source=node)
                for node in reversed(order)
                if parent[node] is not None
            )
            + tuple(
                SemijoinStep(target=node, source=parent[node])
                for node in order
                if node in joined
            ),
        )

        final = RelationSchema(carried[order[0]] & set(target.attributes))
        if final != target:
            # The `keep` sets always retain target attributes, so a mismatch
            # indicates an internal error rather than a user mistake.
            raise SchemaError(
                "internal error: Yannakakis result schema does not match the target"
            )
        object.__setattr__(self, "_final_projection", final)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PreparedQuery is immutable")

    # -- inspection -----------------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        """The schema ``D`` the plan was compiled for."""
        return self._schema

    @property
    def target(self) -> RelationSchema:
        """The projection target ``X``."""
        return self._target

    @property
    def root(self) -> int:
        """The relation index the qual tree was rooted at."""
        return self._root

    @property
    def tree(self) -> Optional[QualGraph]:
        """The qual tree the plan joins along (``None`` for the empty schema)."""
        return self._tree

    @property
    def semijoin_steps(self) -> Tuple[SemijoinStep, ...]:
        """The semijoin program, in execution order: the whole leaf-to-root
        pass, then root-to-leaf semijoins into the nodes that are joined."""
        return self._semijoin_steps

    @property
    def join_steps(self) -> Tuple[JoinStep, ...]:
        """The pruned bottom-up join schedule with early projections, in
        order (identity joins dropped; see the module notes)."""
        return self._join_steps

    @property
    def pruned_join_count(self) -> int:
        """How many identity joins the plan dropped (``|D| − 1 − joins``)."""
        return max(len(self._schema) - 1, 0) - len(self._join_steps)

    @property
    def final_projection(self) -> RelationSchema:
        """The projection applied to the root relation after the joins."""
        return self._final_projection

    @property
    def expands(self) -> bool:
        """True when some join step combines rows (a general join), so the
        join can grow past its inputs; False for a plan whose joins only
        filter, such as a semijoin-only plan.  Read off :func:`plan_layout`
        once and cached."""
        expands = self._expands
        if expands is None:
            expands = any(
                step.kind == _JOIN_GENERAL for step in plan_layout(self).joins
            )
            object.__setattr__(self, "_expands", expands)
        return expands

    @property
    def compiled(self) -> CompiledPlan:
        """The compiled row-program plan, built lazily and cached.

        The plan owns an encoding cache shared by every state this query
        executes (keyed per plan, not per state); see
        :mod:`repro.relational.compiled` for the lifecycle.  Building is
        idempotent, so a benign duplicate under concurrency is harmless.
        """
        plan = self._compiled
        if plan is None:
            plan = CompiledPlan(self)
            object.__setattr__(self, "_compiled", plan)
        return plan

    @property
    def vectorized(self) -> VectorizedPlan:
        """The array-backed vectorized plan, built lazily and cached.

        The plan owns its interner and per-slot encoding cache, shared by
        every state this query executes.  It requires numpy, which the
        first such plan in a process imports (``ImportError`` when it is
        absent — the ``auto`` and
        ``vectorized`` backend names route to :attr:`compiled` instead); see
        :mod:`repro.relational.vectorized`.
        """
        plan = self._vectorized
        if plan is None:
            plan = VectorizedPlan(self)
            object.__setattr__(self, "_vectorized", plan)
        return plan

    def reset_compiled(self) -> None:
        """Drop the compiled and vectorized plans (encoding caches and the
        vectorized interner included).

        Long-running serving processes can use this to release the relations
        a plan's encode cache holds, or the interning dictionaries a
        vectorized plan accumulated from states no longer in rotation; the
        next execution rebuilds the plan it needs.  (Plans also bound
        themselves: the encode cache per slot, and the vectorized interner
        through ``repro.relational.vectorized.DEFAULT_MAX_INTERNED_VALUES``
        and its epochs.)
        """
        object.__setattr__(self, "_compiled", None)
        object.__setattr__(self, "_vectorized", None)

    def plan_spec(self):
        """The picklable :class:`~repro.engine.parallel.PlanSpec` identifying
        this query across process boundaries.

        The spec captures the *ordered* relation tuple, target, root and
        cyclic flag — everything a worker needs to rebuild the plan via
        :func:`repro.engine.analysis.prepared_from_spec`.  Workers
        re-derive the canonical qual tree for the schema, so a query built
        with an explicit non-canonical ``tree=`` has no spec: the rebuilt
        plan would compute the same answers (``π_X(⋈ D)`` does not depend on
        the join tree) but with different step accounting, and the parallel
        layer promises accounting parity with serial execution — such
        queries are rejected here rather than silently re-planned.
        """
        from .analysis import analyze
        from .parallel import PlanSpec

        if self._tree is not None:
            canonical = analyze(self._schema).qual_tree
            if canonical is None or (
                self._tree is not canonical
                and self._tree.edges != canonical.edges
            ):
                raise ValueError(
                    "this query was planned over an explicit non-canonical "
                    "qual tree; it cannot be shipped to worker processes "
                    "(workers rebuild plans over the schema's canonical "
                    "tree, which would change the run accounting)"
                )
        return PlanSpec.of(self)

    def describe(self) -> str:
        """The whole plan as human-readable program text."""
        lines = [
            f"prepared query: π_{self._target.to_notation() or '{}'}(⋈ {self._schema})"
        ]
        for step in self._semijoin_steps:
            lines.append(f"  {step.describe()}")
        for step in self._join_steps:
            lines.append(f"  {step.describe()}")
        lines.append(
            f"  answer := π_{self._final_projection.to_notation() or '{}'}"
            f"(R{self._root})"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"PreparedQuery(schema={self._schema.to_notation()!r}, "
            f"target={self._target.to_notation()!r}, "
            f"semijoins={len(self._semijoin_steps)}, joins={len(self._join_steps)})"
        )

    # -- execution ------------------------------------------------------------

    def execute(self, state: DatabaseState, *, backend: str = "auto") -> YannakakisRun:
        """Run the compiled plan against a state; no planning happens here.

        ``backend`` selects the execution kernel: ``"auto"`` (the default)
        routes through the array-backed vectorized kernel of
        :mod:`repro.relational.vectorized` when numpy is importable *and*
        the state is large enough to amortize the array toll — the
        shape-aware :func:`vectorized_batch_profitable` gate, which adds a
        per-relation term to the :data:`VECTORIZED_MIN_STATE_ROWS` floor —
        unless the plan has no expanding join and the state holds
        non-``int`` values (see :func:`resolve_backend_for`), and through
        the row-program backend of :mod:`repro.relational.compiled`
        otherwise;
        ``"vectorized"``/``"compiled"`` request those kernels explicitly and
        ``"classic"`` forces the object-tuple
        :class:`~repro.relational.relation.Relation` operators.  All
        backends return the same :class:`~repro.relational.yannakakis.
        YannakakisRun` — result, semijoin/join counts and intermediate-size
        accounting — and the run's ``backend`` field reports which one ran.
        """
        return _execute_one(self, state, backend)

    def _execute_classic(self, state: DatabaseState) -> YannakakisRun:
        """The object-tuple reference executor (also the property-test oracle)."""
        relations = list(state.relations)
        for step in self._semijoin_steps:
            relations[step.target] = relations[step.target].semijoin(
                relations[step.source]
            )
        max_intermediate = max((len(relation) for relation in relations), default=0)

        join_count = 0
        for step in self._join_steps:
            child = relations[step.node]
            if step.projection is not None:
                child = child.project(step.projection)
                if len(child) > max_intermediate:
                    max_intermediate = len(child)
            joined = relations[step.mother].natural_join(child)
            join_count += 1
            if len(joined) > max_intermediate:
                max_intermediate = len(joined)
            relations[step.mother] = joined

        final = relations[self._root].project(self._final_projection)
        if len(final) > max_intermediate:
            max_intermediate = len(final)
        return YannakakisRun(
            result=final,
            semijoin_count=len(self._semijoin_steps),
            join_count=join_count,
            max_intermediate_size=max_intermediate,
            backend="classic",
        )

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

        With a serial columnar backend (``"auto"`` picks the vectorized
        kernel or the compiled one per batch, as :func:`resolve_backend_for`
        decides) this is a true batch: all states share the plan's
        per-slot encoding cache, so a relation object repeated across states
        is encoded — and its key indexes built — once for the whole batch.  The returned runs all carry one shared
        :class:`~repro.relational.compiled.ExecutionStats` describing the
        batch; with ``backend="classic"`` each state is executed
        independently by the object-tuple operators.

        ``backend="parallel"`` shards the batch across a process pool
        (:mod:`repro.engine.parallel`): ``workers`` sets the pool width
        (default: one per CPU, clamped by ``REPRO_PARALLEL_MAX_WORKERS``) and
        a one-shot pool is spawned and torn down around the call.  Long-lived
        serving should instead pass a reusable
        :class:`~repro.engine.parallel.ParallelExecutor` as ``executor``
        (``workers`` must then be left unset — the pool already has a width),
        which amortizes both the pool spawn and the workers' per-spec plan
        compilation across calls.  Results come back in input order and every
        run reports ``backend="parallel"`` with one merged
        :class:`~repro.engine.parallel.ParallelStats` for the batch.

        The robustness knobs — ``shard_timeout`` (seconds per shard attempt),
        ``max_retries`` (resubmissions before bisection) and
        ``failure_policy`` (``"raise"`` or ``"degrade"``) — apply to parallel
        execution only and are rejected for the serial backends.  When an
        ``executor`` is supplied they override its configured defaults for
        this batch; left ``None``, the executor's (or the environment's)
        defaults apply.  Under
        ``failure_policy="degrade"`` the returned list contains ``None`` at
        quarantined input positions; see :mod:`repro.engine.parallel` and
        ``docs/robustness.md``.

        One-shot parallel batches (no ``executor``) are cost-routed: an
        empty batch returns immediately and a *degenerate* batch — a single
        unique state, or states with no rows at all — runs in-process on the
        serial kernel ``"auto"`` resolves to for the batch (still retagged
        ``backend="parallel"``) instead of paying a pool spawn that would
        dwarf the work.  Pass an ``executor`` to pin execution to a real pool
        unconditionally.
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


def kernel_plan(query, kernel: str):
    """The plan ``query`` runs on the serial ``kernel`` (``"vectorized"`` or
    ``"compiled"``), built lazily and cached on the query.

    The one kernel→plan lookup behind every dispatch site: single and batch
    execution here, the routing probe, and the process pool's in-process
    and worker paths.  ``query`` is either plan class.
    """
    return query.vectorized if kernel == "vectorized" else query.compiled


def _execute_one(query, state: DatabaseState, backend: str) -> YannakakisRun:
    """The single-state entry shared by :meth:`PreparedQuery.execute` and
    :meth:`~repro.engine.cyclic.CyclicPreparedQuery.execute`."""
    resolved = resolve_backend_for(backend, (state,), query=query)
    if resolved == "parallel":
        raise ValueError(
            "the parallel backend batches states across processes; "
            "use execute_many(states, backend='parallel') or a "
            "ParallelExecutor"
        )
    if state.schema is not query._schema and state.schema != query._schema:
        raise SchemaError("the state is for a different schema than the query")
    if len(query._schema) == 0:
        return YannakakisRun(
            result=Relation.nullary_true(),
            semijoin_count=0,
            join_count=0,
            max_intermediate_size=1,
            backend=resolved,
        )
    if resolved == "classic":
        return query._execute_classic(state)
    # Single executions skip the stats object; execute_many attaches a
    # shared ExecutionStats to every run of the batch.
    return kernel_plan(query, resolved).execute_state(state)


def _execute_many(
    query,
    states: Iterable[DatabaseState],
    *,
    backend: str,
    workers: Optional[int],
    executor: Optional[object],
    shard_timeout: Optional[float],
    max_retries: Optional[int],
    failure_policy: Optional[str],
) -> List[YannakakisRun]:
    """The batch entry shared by :meth:`PreparedQuery.execute_many` and
    :meth:`~repro.engine.cyclic.CyclicPreparedQuery.execute_many`.

    ``query`` is either plan class; both expose ``_execute_classic``,
    ``compiled``, ``vectorized``, ``plan_spec`` and ``_schema``, which is all
    the serial and parallel dispatch below touches.
    """
    _check_backend(backend)
    # "auto" may opt into the pool an executor provides, but an explicit
    # "compiled"/"classic" request must not be silently upgraded to
    # parallel execution.
    if executor is not None and backend not in ("parallel", "auto"):
        raise ValueError("executor= requires backend='parallel' (or 'auto')")
    if executor is not None or backend == "parallel":
        overrides = {}
        if shard_timeout is not None:
            overrides["shard_timeout"] = shard_timeout
        if max_retries is not None:
            overrides["max_retries"] = max_retries
        if failure_policy is not None:
            overrides["failure_policy"] = failure_policy
        if executor is not None:
            if workers is not None:
                raise ValueError(
                    "workers= cannot be combined with executor=; the "
                    "executor's pool width applies"
                )
            return executor.execute_many(query, states, **overrides)
        state_list = list(states)
        if not state_list:
            # An empty batch must not spawn a pool (or even import the
            # parallel machinery) just to discover there is no work.
            return []
        from .parallel import ParallelExecutor, execute_in_process
        from .routing import RoutingPolicy

        # Robustness overrides pin the batch to a real pool: the
        # in-process shortcut could honor neither shard_timeout (no
        # supervisor above the serving process) nor degrade-mode
        # quarantine semantics.
        if not overrides:
            decision = RoutingPolicy().decide(
                query, state_list, backend="parallel"
            )
            if decision.rule == "override-degenerate":
                return execute_in_process(query, state_list)
        with ParallelExecutor(workers=workers) as pool:
            return pool.execute_many(query, state_list, **overrides)
    if workers is not None:
        raise ValueError("workers= requires backend='parallel'")
    if (
        shard_timeout is not None
        or max_retries is not None
        or failure_policy is not None
    ):
        raise ValueError(
            "shard_timeout=/max_retries=/failure_policy= require "
            "backend='parallel'; the serial backends run in-process"
        )
    state_list = states if isinstance(states, list) else list(states)
    resolved = resolve_backend_for(backend, state_list, query=query)
    if resolved == "classic":
        return [_execute_one(query, state, resolved) for state in state_list]
    return kernel_plan(query, resolved).execute_batch(state_list)
