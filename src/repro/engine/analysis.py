"""The engine façade: analyze a schema once, reuse the analysis everywhere.

The paper's central economy is that schema *structure* — the GYO residue,
qual tree, acyclicity classification, canonical connections — is a function
of the schema alone and can be computed once and reused across many queries
and database states.  :func:`analyze` returns an :class:`AnalyzedSchema`, an
immutable façade that lazily computes and caches each of those artifacts;
:meth:`AnalyzedSchema.prepare` compiles a
:class:`~repro.engine.prepared.PreparedQuery` whose
:meth:`~repro.engine.prepared.PreparedQuery.execute` pays zero re-planning
cost per database state.

``analyze`` itself memoizes analyses in a bounded LRU keyed by the schema, so
the classic free functions (:func:`repro.hypergraph.gyo.gyo_reduce`,
:func:`repro.tableau.canonical.canonical_connection`,
:func:`repro.core.query_planning.plan_join_query`,
:func:`repro.relational.yannakakis.yannakakis`) can delegate here and share
one analysis per schema instead of recomputing per call.

See ``docs/api.md`` for the analyze → prepare → execute lifecycle, the cache
semantics and the old-function → new-method migration table.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..exceptions import NotATreeSchemaError, SchemaError
from ..hypergraph.acyclicity import is_beta_acyclic, is_gamma_acyclic
from ..hypergraph.berge import is_berge_acyclic
from ..hypergraph.gyo import GYOReduction, GYOTrace
from ..hypergraph.join_tree import find_qual_tree
from ..hypergraph.parsing import parse_schema
from ..hypergraph.qual_graph import QualGraph
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema
from ..tableau.canonical import (
    CanonicalConnectionResult,
    canonical_connection_result,
)
from ..tableau.minimize import MinimizationResult
from ..tableau.tableau import Tableau, standard_tableau as build_standard_tableau
from ..treefication.single import SingleTreefication, single_relation_treefication
from .prepared import PreparedQuery, default_root

__all__ = [
    "AnalyzedSchema",
    "analyze",
    "analysis_cache_size",
    "clear_analysis_cache",
    "peek_analysis",
    "prepared_from_spec",
]

_UNSET = object()

#: Cap on each per-target memo (GYO traces, canonical connections, join
#: plans, prepared queries) within one analysis.  Bounds the memory a
#: long-running process can accumulate by querying one schema with many
#: distinct targets; artifacts are immutable, so eviction never invalidates
#: a reference a caller already holds.
_PER_TARGET_CACHE_MAX = 128

TargetLike = Union[RelationSchema, Iterable[Attribute]]


def _as_relation_schema(target: TargetLike) -> RelationSchema:
    return target if isinstance(target, RelationSchema) else RelationSchema(target)


#: One coarse lock guards every cache-structure operation (the module LRU and
#: the per-analysis memos).  It is held only around dict manipulation — never
#: during analysis work — so concurrent threads may compute the same immutable
#: artifact twice (benign; last write wins) but can never corrupt an LRU or
#: hit a get/move_to_end race.
_CACHE_LOCK = threading.Lock()


def _memo_put(cache: OrderedDict, key, value) -> None:
    """Insert into a per-target LRU memo, evicting the oldest past the cap."""
    with _CACHE_LOCK:
        cache[key] = value
        if len(cache) > _PER_TARGET_CACHE_MAX:
            cache.popitem(last=False)


def _memo_get(cache: OrderedDict, key):
    with _CACHE_LOCK:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value


class AnalyzedSchema:
    """An immutable façade over a schema's structural analysis.

    Every accessor is lazy and memoized: nothing is computed until asked for,
    and nothing is computed twice.  Per-target artifacts (canonical
    connections, join plans, prepared queries) are memoized by target
    attribute set, so answering many queries over one schema shares the
    underlying tableau minimizations and qual-tree searches.
    """

    __slots__ = (
        "_schema",
        "_gyo_traces",
        "_qual_tree",
        "_flags",
        "_treefication",
        "_tableaux",
        "_connections",
        "_join_plans",
        "_prepared",
        "_cost_probes",
        "_cyclic_choices",
        "_cyclic_prepared",
    )

    def __init__(self, schema: Union[DatabaseSchema, Iterable[RelationSchema]]) -> None:
        if not isinstance(schema, DatabaseSchema):
            schema = DatabaseSchema(schema)
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_gyo_traces", OrderedDict())
        object.__setattr__(self, "_qual_tree", _UNSET)
        object.__setattr__(self, "_flags", {})
        object.__setattr__(self, "_treefication", None)
        object.__setattr__(self, "_tableaux", OrderedDict())
        object.__setattr__(self, "_connections", OrderedDict())
        object.__setattr__(self, "_join_plans", OrderedDict())
        object.__setattr__(self, "_prepared", OrderedDict())
        object.__setattr__(self, "_cost_probes", OrderedDict())
        object.__setattr__(self, "_cyclic_choices", OrderedDict())
        object.__setattr__(self, "_cyclic_prepared", OrderedDict())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AnalyzedSchema is immutable")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"AnalyzedSchema({self._schema.to_notation()!r})"

    # -- schema-level structure ------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        """The analyzed schema ``D``."""
        return self._schema

    def gyo_trace(self, sacred: TargetLike = ()) -> GYOTrace:
        """``GR(D, X)`` with its full operation trace, memoized per ``X``."""
        key = _as_relation_schema(sacred)
        trace = _memo_get(self._gyo_traces, key)
        if trace is None:
            reducer = GYOReduction(self._schema, key)
            reducer.run_to_completion()
            trace = reducer.trace()
            _memo_put(self._gyo_traces, key, trace)
        return trace

    def gyo_residue(self, sacred: TargetLike = ()) -> DatabaseSchema:
        """``GR(D, X)`` — just the reduced schema."""
        return self.gyo_trace(sacred).result

    @property
    def qual_tree(self) -> Optional[QualGraph]:
        """A qual tree (join tree) for ``D``, or ``None`` when ``D`` is cyclic."""
        if self._qual_tree is _UNSET:
            object.__setattr__(self, "_qual_tree", find_qual_tree(self._schema))
        return self._qual_tree

    @property
    def is_tree_schema(self) -> bool:
        """Corollary 3.1: ``D`` is a tree schema iff ``U(GR(D)) = ∅``."""
        return self.gyo_trace().is_fully_reduced_to_empty

    @property
    def is_cyclic(self) -> bool:
        """``D`` is cyclic iff it is not a tree schema."""
        return not self.is_tree_schema

    # α-acyclicity is a synonym for the tree-schema property.
    is_alpha_acyclic = is_tree_schema

    def _flag(self, name: str, compute) -> bool:
        value = self._flags.get(name)
        if value is None:
            value = compute(self._schema)
            self._flags[name] = value
        return value

    @property
    def is_beta_acyclic(self) -> bool:
        """β-acyclicity: every subset of ``D`` is a tree schema."""
        return self._flag("beta", is_beta_acyclic)

    @property
    def is_gamma_acyclic(self) -> bool:
        """γ-acyclicity (Section 5.2)."""
        return self._flag("gamma", is_gamma_acyclic)

    @property
    def is_berge_acyclic(self) -> bool:
        """Berge acyclicity of the bipartite incidence graph."""
        return self._flag("berge", is_berge_acyclic)

    @property
    def treefication(self) -> SingleTreefication:
        """Corollary 3.2: add ``U(GR(D))`` to treefy ``D`` (cached).

        Delegates to :func:`single_relation_treefication`, whose GYO
        reduction routes back through this analysis's cached trace, so
        classifying the schema and treefying it share one reduction.
        """
        if self._treefication is None:
            object.__setattr__(
                self, "_treefication", single_relation_treefication(self._schema)
            )
        return self._treefication

    # -- per-target artifacts --------------------------------------------------

    def standard_tableau(
        self, target: TargetLike, universe: Optional[TargetLike] = None
    ) -> Tableau:
        """``Tab(D, X)``, memoized per ``(X, universe)``.

        The interned-symbol compiled form
        (:meth:`~repro.tableau.tableau.Tableau.compiled`) is cached on the
        returned instance, so every consumer of the memo — containment
        checks, minimization, canonical-connection read-off — shares one
        compilation.
        """
        target_schema = _as_relation_schema(target)
        universe_schema = None if universe is None else _as_relation_schema(universe)
        key = (target_schema, universe_schema)
        tableau = _memo_get(self._tableaux, key)
        if tableau is None:
            tableau = build_standard_tableau(
                self._schema, target_schema, universe=universe_schema
            )
            _memo_put(self._tableaux, key, tableau)
        return tableau

    def tableau_minimization(
        self, target: TargetLike, universe: Optional[TargetLike] = None
    ) -> MinimizationResult:
        """The minimization of ``Tab(D, X)``, memoized per ``(X, universe)``.

        This is the same minimization the canonical connection and join plan
        for ``X`` are built from, so Lemma 3.5 / Theorem 3.3 style checks and
        serving paths share one core computation per sacred set.
        """
        return self.canonical_connection_result(target, universe=universe).minimization

    def canonical_connection_result(
        self, target: TargetLike, universe: Optional[TargetLike] = None
    ) -> CanonicalConnectionResult:
        """``CC(D, X)`` with its full derivation, memoized per ``(X, universe)``."""
        target_schema = _as_relation_schema(target)
        universe_schema = None if universe is None else _as_relation_schema(universe)
        key = (target_schema, universe_schema)
        result = _memo_get(self._connections, key)
        if result is None:
            result = canonical_connection_result(
                self._schema,
                target_schema,
                universe=universe_schema,
                tableau=self.standard_tableau(target_schema, universe=universe_schema),
            )
            _memo_put(self._connections, key, result)
        return result

    def canonical_connection(
        self, target: TargetLike, universe: Optional[TargetLike] = None
    ) -> DatabaseSchema:
        """``CC(D, X)`` — the canonical connection of the query ``(D, X)``."""
        return self.canonical_connection_result(target, universe=universe).connection

    def join_plan(self, target: TargetLike):
        """The minimal join-then-project plan for ``(D, X)``, memoized per ``X``.

        Returns a :class:`repro.core.query_planning.JoinPlan` built from the
        cached canonical connection (Theorem 4.1 / Corollary 4.1).
        """
        from ..core.query_planning import JoinPlan

        target_schema = _as_relation_schema(target)
        plan = _memo_get(self._join_plans, target_schema)
        if plan is None:
            connection = self.canonical_connection(target_schema)
            used: List[int] = []
            for relation in connection.relations:
                for index, base in enumerate(self._schema.relations):
                    if relation <= base:
                        used.append(index)
                        break
            irrelevant = tuple(
                index for index in range(len(self._schema)) if index not in set(used)
            )
            plan = JoinPlan(
                schema=self._schema,
                target=target_schema,
                sub_schema=connection,
                irrelevant_relations=irrelevant,
            )
            _memo_put(self._join_plans, target_schema, plan)
        return plan

    def prepare(
        self, target: TargetLike, *, root: Optional[int] = None
    ) -> PreparedQuery:
        """Compile ``π_X(⋈ D)`` into a :class:`PreparedQuery`, memoized per
        ``(X, root)``.

        ``root`` left ``None`` resolves to
        :func:`~repro.engine.prepared.default_root` (the relation covering
        most of ``X``) before the memo lookup, so ``prepare(X)`` and
        ``prepare(X, root=r)`` with that same ``r`` share one plan.

        The memo is also the plan→compiled-plan map: each cached
        :class:`PreparedQuery` lazily builds and holds its
        :class:`~repro.relational.compiled.CompiledPlan` (positional step
        programs, encoding cache), so every caller that prepares the same
        ``(X, root)`` shares one compiled backend per analysis.  Eviction
        from this LRU is what ultimately releases a plan's encode cache;
        callers holding a reference can drop theirs early with
        :meth:`PreparedQuery.reset_compiled`.

        Raises :class:`~repro.exceptions.SchemaError` when ``X ⊄ U(D)`` and
        :class:`~repro.exceptions.NotATreeSchemaError` when ``D`` is cyclic.
        """
        target_schema = _as_relation_schema(target)
        if root is None:
            root = default_root(self._schema.relations, target_schema)
        key = (target_schema, root)
        prepared = _memo_get(self._prepared, key)
        if prepared is None:
            # Match the historical yannakakis() behavior: a bad target is
            # reported before cyclicity.
            if not target_schema <= self._schema.attributes:
                raise SchemaError("the target must be contained in U(D)")
            tree = None
            if len(self._schema) > 0:
                tree = self.qual_tree
                if tree is None:
                    raise NotATreeSchemaError(
                        "Yannakakis' algorithm applies to tree schemas; "
                        "the schema is cyclic"
                    )
            prepared = PreparedQuery(
                self._schema, target_schema, tree=tree, root=root
            )
            _memo_put(self._prepared, key, prepared)
        return prepared

    def cyclic_projection(self, target: TargetLike):
        """The selected tree projection for ``(D, X)``, memoized per ``X``.

        Returns the :class:`~repro.engine.cyclic.ProjectionChoice` the
        cyclic pipeline executes through — candidate generation reuses the
        cached GYO residue (Corollary 3.2's ``U(GR(D))``) and the layered
        search of :mod:`repro.treeproj.tree_projection`, then shrinks toward
        the Greco–Scarcello minimality criterion.  Also defined for tree
        schemas (the projection degenerates to the reduction of ``D ∪ (X)``),
        though :meth:`prepare` is the right entry point there.
        """
        from .cyclic import choose_tree_projection

        target_schema = _as_relation_schema(target)
        choice = _memo_get(self._cyclic_choices, target_schema)
        if choice is None:
            choice = choose_tree_projection(self._schema, target_schema)
            _memo_put(self._cyclic_choices, target_schema, choice)
        return choice

    def prepare_cyclic(self, target: TargetLike, *, root: Optional[int] = None):
        """Compile ``π_X(⋈ D)`` over a *cyclic* schema into a
        :class:`~repro.engine.cyclic.CyclicPreparedQuery`, memoized per
        ``(X, root)``.

        The treefication counterpart of :meth:`prepare`: plans a tree
        projection once (:meth:`cyclic_projection`), lowers the Theorem 6.1
        guard-semijoin construction into a frozen prologue, and reuses a
        tree-schema :class:`~repro.engine.prepared.PreparedQuery` over the
        projection's nodes — so cyclic queries serve through the same
        compiled/vectorized/parallel substrate.  ``root`` indexes a
        projection node for the inner bottom-up join; left ``None`` it
        defaults to :func:`~repro.engine.prepared.default_root`, which
        picks a node covering ``X`` (the solver's choice).  Also
        accepts tree schemas for uniformity, but :meth:`prepare` is cheaper
        there (no prologue).  Raises
        :class:`~repro.exceptions.SchemaError` when ``X ⊄ U(D)``.
        """
        from .cyclic import CyclicPreparedQuery

        target_schema = _as_relation_schema(target)
        if not target_schema <= self._schema.attributes:
            raise SchemaError("the target must be contained in U(D)")
        choice = self.cyclic_projection(target_schema)
        if root is None:
            root = default_root(choice.projection.relations, target_schema)
        key = (target_schema, root)
        prepared = _memo_get(self._cyclic_prepared, key)
        if prepared is None:
            prepared = CyclicPreparedQuery(
                self._schema, target_schema, root=root, choice=choice
            )
            _memo_put(self._cyclic_prepared, key, prepared)
        return prepared

    # -- cost probes -----------------------------------------------------------

    def cached_cost_probe(
        self, target: TargetLike, *, root: int = 0, backend: str = "compiled"
    ) -> Optional[float]:
        """The cached per-row cost for ``(target, root, backend)``, or ``None``.

        Written by the adaptive router (:mod:`repro.engine.routing`): the
        probe times a few serial executions once per plan and parks the
        per-row seconds here, so every later routing decision for the same
        plan — across services, batches and threads — is a dictionary lookup.
        ``backend`` keys the serial kernel that was timed (``"compiled"`` or
        ``"vectorized"``): their per-row costs differ by the very speedups
        the vectorized kernel exists for, so one must never stand in for the
        other.
        """
        key = (_as_relation_schema(target), root, backend)
        return _memo_get(self._cost_probes, key)

    def store_cost_probe(
        self,
        target: TargetLike,
        per_row_s: float,
        *,
        root: int = 0,
        backend: str = "compiled",
    ) -> None:
        """Cache a measured per-row cost for ``(target, root, backend)`` (see
        :meth:`cached_cost_probe`; last write wins under concurrency)."""
        key = (_as_relation_schema(target), root, backend)
        _memo_put(self._cost_probes, key, float(per_row_s))

    # -- summaries -------------------------------------------------------------

    def classification(self) -> Dict[str, bool]:
        """All four acyclicity flags in one dictionary."""
        return {
            "alpha_acyclic": self.is_tree_schema,
            "beta_acyclic": self.is_beta_acyclic,
            "gamma_acyclic": self.is_gamma_acyclic,
            "berge_acyclic": self.is_berge_acyclic,
        }


# -- the module-level analysis cache -------------------------------------------
#
# Keyed by the *ordered* tuple of relation schemas, not the DatabaseSchema:
# schema equality is multiset equality, but every analysis artifact (GYO
# survivor/parent maps, qual-tree nodes, semijoin programs, join plans) is
# positional, so schemas that are equal as multisets yet ordered differently
# must not share an analysis.

_ANALYSIS_CACHE: OrderedDict[Tuple[RelationSchema, ...], AnalyzedSchema] = (
    OrderedDict()
)
_ANALYSIS_CACHE_MAX = 256


def analyze(
    schema: Union[DatabaseSchema, str, Iterable[RelationSchema]],
    *,
    attribute_separator: Optional[str] = None,
    catalog=None,
) -> AnalyzedSchema:
    """Analyze a schema, reusing a cached :class:`AnalyzedSchema` when possible.

    ``schema`` may be a :class:`~repro.hypergraph.schema.DatabaseSchema`, an
    iterable of relation schemas, or schema notation text (parsed with
    ``attribute_separator``, as on the command line).  Analyses are cached in
    a bounded LRU keyed by the schema value, so repeated calls — including
    the ones made internally by ``gyo_reduce``/``canonical_connection``/
    ``plan_join_query``/``yannakakis`` — share one façade per schema.

    ``catalog`` consults a persistent :class:`~repro.engine.catalog.PlanCatalog`
    on an LRU miss (accepted forms: a catalog instance, a directory path, or
    ``None`` for the ``REPRO_CATALOG_DIR`` default when that variable is
    set).  A verified on-disk record seeds the analysis with its persisted
    tree-projection choices, so cyclic targets skip the search; catalog
    misses, corruption and I/O failures all silently fall through to fresh
    analysis — the catalog can make this function faster but never make it
    fail.
    """
    if isinstance(schema, str):
        schema = parse_schema(schema, attribute_separator=attribute_separator)
    elif not isinstance(schema, DatabaseSchema):
        schema = DatabaseSchema(schema)
    key = schema.relations
    with _CACHE_LOCK:
        analysis = _ANALYSIS_CACHE.get(key)
        if analysis is not None:
            _ANALYSIS_CACHE.move_to_end(key)
            return analysis
    analysis = None
    # The import is gated so catalog-free processes never pay for the
    # persistence machinery on this hot path.
    if catalog is not None or os.environ.get("REPRO_CATALOG_DIR"):
        from .catalog import resolve_catalog

        resolved = resolve_catalog(catalog)
        if resolved is not None:
            analysis = resolved.load(schema)
    if analysis is None:
        analysis = AnalyzedSchema(schema)
    with _CACHE_LOCK:
        existing = _ANALYSIS_CACHE.get(key)
        if existing is not None:
            return existing
        _ANALYSIS_CACHE[key] = analysis
        if len(_ANALYSIS_CACHE) > _ANALYSIS_CACHE_MAX:
            _ANALYSIS_CACHE.popitem(last=False)
    return analysis


def peek_analysis(
    schema: Union[DatabaseSchema, Iterable[RelationSchema]],
) -> Optional[AnalyzedSchema]:
    """The cached analysis for ``schema``, or ``None`` — never creates one.

    This is what the substrate-level free functions (``gyo_reduce``,
    ``canonical_connection``) use: they reuse an analysis when one exists but
    fall back to a direct computation on a miss, so brute-force loops over
    thousands of *candidate* schemas (treefication search, tree-projection
    search) neither flood the LRU nor evict the live analyses that serving
    paths depend on.
    """
    if not isinstance(schema, DatabaseSchema):
        schema = DatabaseSchema(schema)
    key = schema.relations
    with _CACHE_LOCK:
        analysis = _ANALYSIS_CACHE.get(key)
        if analysis is not None:
            _ANALYSIS_CACHE.move_to_end(key)
        return analysis


def prepared_from_spec(spec, *, catalog=None):
    """Rebuild the prepared query a :class:`~repro.engine.parallel.PlanSpec`
    identifies — a :class:`PreparedQuery`, or a
    :class:`~repro.engine.cyclic.CyclicPreparedQuery` for cyclic specs —
    through the analysis LRU.

    The spec's ``relations`` tuple is the *ordered* relation tuple — exactly
    the key the analysis cache uses — so the round-trip hits every layer of
    caching: an unpickled spec in a process whose LRU already holds the
    schema's analysis gets back the **same** :class:`AnalyzedSchema`, and its
    per-``(target, root)`` memo then returns the same ``PreparedQuery``
    object (compiled plan included).  This is what makes worker-side plan
    rebuilds pay analysis at most once per (worker, spec): the first call
    computes, every later call is two cache lookups.

    With a catalog in play (the ``catalog`` argument, or ``REPRO_CATALOG_DIR``
    inherited from the parent process) the miss path gets a third tier: the
    analysis is first sought on disk, and after preparing, its tree-projection
    choices are **stored back** — so a worker respawned after a crash, or a
    whole fresh process, skips the tree-projection search.  The store is
    skipped when the on-disk record already holds every choice (always, for
    tree schemas), so the per-call overhead on a warm path is one in-memory
    comparison.

    Cyclic specs (``spec.cyclic``) rebuild through
    :meth:`AnalyzedSchema.prepare_cyclic`, landing in the same per-target
    memos — a worker that served a cyclic plan once never re-plans its tree
    projection.
    """
    resolved = None
    if catalog is not None or os.environ.get("REPRO_CATALOG_DIR"):
        from .catalog import resolve_catalog

        resolved = resolve_catalog(catalog)
    analysis = analyze(DatabaseSchema(spec.relations), catalog=resolved)
    if getattr(spec, "cyclic", False):
        prepared = analysis.prepare_cyclic(spec.target, root=spec.root)
    else:
        prepared = analysis.prepare(spec.target, root=spec.root)
    if resolved is not None:
        resolved.store(analysis)
    return prepared


def clear_analysis_cache() -> None:
    """Drop every cached analysis (used by benchmarks to time cold paths)."""
    with _CACHE_LOCK:
        _ANALYSIS_CACHE.clear()


def analysis_cache_size() -> int:
    """Number of schemas currently held by the analysis cache."""
    with _CACHE_LOCK:
        return len(_ANALYSIS_CACHE)
