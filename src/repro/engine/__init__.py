"""The engine façade: plan-once / execute-many query processing.

This package is the primary public API of the library:

* :func:`analyze` — turn a schema (or schema notation text) into an
  :class:`AnalyzedSchema`, an immutable façade that lazily computes and
  caches the GYO trace, qual tree, acyclicity flags, treefication and
  per-target canonical connections / join plans;
* :meth:`AnalyzedSchema.prepare` — compile a :class:`PreparedQuery` (full
  reducer + Yannakakis join order + early-projection schedule, derived once)
  whose :meth:`~PreparedQuery.execute` / :meth:`~PreparedQuery.execute_many`
  evaluate the query against any number of database states with zero
  re-planning cost, routed by default through the positional row-program
  backend of :mod:`repro.relational.compiled` (``backend="classic"``
  selects the object-tuple oracle operators).

* :class:`ParallelExecutor` — the sharded multi-process serving layer
  (:mod:`repro.engine.parallel`): batches of independent states shard across
  a reusable, *supervised* process pool (``backend="parallel"``), workers
  rebuilding and caching plans from picklable :class:`PlanSpec` identities.
  Worker crashes, hangs and unpicklable states are recovered via pool
  respawn, per-shard timeout/retry with backoff, bisection and in-process
  fallback; unrecoverable states surface as a structured
  :class:`~repro.exceptions.ShardExecutionError` or, under
  ``failure_policy="degrade"``, as quarantined positions in
  :class:`ParallelStats` (see ``docs/robustness.md``).  The deterministic
  fault-injection harness behind the recovery tests lives in
  :mod:`repro.engine.faults`.

* :meth:`AnalyzedSchema.prepare_cyclic` — the same plan-once / execute-many
  story for *cyclic* schemas (:mod:`repro.engine.cyclic`): a
  :class:`CyclicPreparedQuery` selects a tree projection once (Greco–
  Scarcello minimality-guided), lowers Theorem 6.1's guard-semijoin
  construction into a frozen prologue, and serves through the same
  compiled/vectorized/parallel substrate and :class:`PlanSpec` round-trip
  as tree schemas.

* :class:`QueryService` — the long-lived streaming serving front end
  (:mod:`repro.engine.service`): thread-safe ``submit``/``stream`` APIs with
  bounded admission control, adaptive compiled-vs-parallel routing from a
  per-plan cost probe (:mod:`repro.engine.routing`) and one long-lived
  worker pool whose per-spec plan caches give affinity.  See
  ``docs/serving.md``.

The classic free functions (``gyo_reduce``, ``canonical_connection``,
``plan_join_query``, ``yannakakis``) remain available and now delegate here,
so they amortize across calls automatically.  See ``docs/api.md``.
"""

from .analysis import (
    AnalyzedSchema,
    analysis_cache_size,
    analyze,
    clear_analysis_cache,
    peek_analysis,
    prepared_from_spec,
)
from .prepared import JoinStep, PreparedQuery, resolve_backend

#: Re-exported lazily via __getattr__: repro.engine.parallel (and the
#: service/routing layers above it) pull in multiprocessing/
#: concurrent.futures/threading, which every plain `import repro` (CLI
#: startup included) should not pay for.  `from repro.engine import
#: ParallelExecutor` still works — PEP 562 routes it through __getattr__.
_PARALLEL_EXPORTS = (
    "ParallelExecutor",
    "ParallelStats",
    "PlanSpec",
    "execute_in_process",
)
_ROUTING_EXPORTS = ("RoutingDecision", "RoutingPolicy")
_CYCLIC_EXPORTS = (
    "CyclicPreparedQuery",
    "ProjectionChoice",
    "choose_tree_projection",
)
_SERVICE_EXPORTS = (
    "QueryService",
    "ServiceHandle",
    "ServiceStats",
    "ServiceStream",
    "StreamItem",
)
_CATALOG_EXPORTS = (
    "CatalogStats",
    "PlanCatalog",
    "default_catalog",
    "resolve_catalog",
)


def __getattr__(name: str):
    if name in _PARALLEL_EXPORTS:
        from . import parallel

        return getattr(parallel, name)
    if name in _ROUTING_EXPORTS:
        from . import routing

        return getattr(routing, name)
    if name in _CYCLIC_EXPORTS:
        from . import cyclic

        return getattr(cyclic, name)
    if name in _SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    if name in _CATALOG_EXPORTS:
        from . import catalog

        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(
        set(globals())
        | set(_PARALLEL_EXPORTS)
        | set(_ROUTING_EXPORTS)
        | set(_SERVICE_EXPORTS)
        | set(_CYCLIC_EXPORTS)
        | set(_CATALOG_EXPORTS)
    )

__all__ = [
    "AnalyzedSchema",
    "CatalogStats",
    "CyclicPreparedQuery",
    "ParallelExecutor",
    "ParallelStats",
    "PlanCatalog",
    "PlanSpec",
    "PreparedQuery",
    "ProjectionChoice",
    "JoinStep",
    "QueryService",
    "RoutingDecision",
    "RoutingPolicy",
    "ServiceHandle",
    "ServiceStats",
    "ServiceStream",
    "StreamItem",
    "analyze",
    "analysis_cache_size",
    "choose_tree_projection",
    "clear_analysis_cache",
    "default_catalog",
    "execute_in_process",
    "peek_analysis",
    "prepared_from_spec",
    "resolve_catalog",
    "resolve_backend",
]
