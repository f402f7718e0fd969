"""Sharded multi-process execution for batched plan serving, with supervision.

Semijoin-program serving is embarrassingly parallel across database states:
one full-reducer pass plus bottom-up join per Yannakakis touches only its own
state, so a batch of independent states shards cleanly across a process pool.
This module puts that behind two entry points:

* ``PreparedQuery.execute_many(states, backend="parallel", workers=N)`` — a
  one-shot pool per call (pays pool spawn every time; fine for large batches);
* :class:`ParallelExecutor` — a reusable context manager owning a long-lived
  pool, so serving processes pay the spawn cost once and every later batch is
  pure dispatch.

**The serialization boundary.**  Compiled plans hold ``itemgetter`` programs
and closures and are deliberately not picklable, so nothing plan-shaped ever
crosses a process boundary.  What does cross is a :class:`PlanSpec` — the
ordered relation tuple, the target, the root and the cyclic flag — plus the
serial kernel the parent picked for the batch and the shard's database
states; each worker rebuilds the prepared query from the spec through
:func:`repro.engine.analysis.prepared_from_spec` (hitting the worker's own
analysis LRU) and caches it in worker-local storage keyed by the spec.  The
first shard a worker sees for a spec pays analysis + compilation once; every
later shard is pure execution.  Worker plans are independent by
construction, which is sound because answers cross back as plain-value
relations: the compiled kernel runs on the values, and the vectorized
kernel's interner codes are decoded inside the worker.

**Sharding.**  States are deduplicated (a repeated state object executes
once), then grouped by estimated cost — total tuple count, assigned
largest-first to the least-loaded shard (LPT scheduling) — so one heavy state
cannot serialize the batch behind it.  Shards are submitted heaviest-first and results are
reassembled in input order; per-shard :class:`ExecutionStats` are merged into
one :class:`ParallelStats` with per-worker attribution, shared by every run
of the batch, and every run reports ``backend="parallel"``.

**Supervision (PR 6).**  A long-lived serving pool must survive the things
processes do: crash, hang, and choke on states that cannot cross a pickle
boundary.  :meth:`ParallelExecutor.execute_many` therefore runs a
supervision loop rather than a blocking gather:

* **worker death** (``BrokenProcessPool`` — segfault, ``os._exit``, OOM
  kill) respawns the pool within a bounded per-batch budget
  (:data:`DEFAULT_MAX_RESPAWNS`) and resubmits only the shards whose results
  were lost;
* **per-shard timeouts** (``shard_timeout=`` /
  ``REPRO_PARALLEL_SHARD_TIMEOUT``) detect hung workers: the pool is killed
  and respawned, the overdue shard is charged a failure, and innocent
  in-flight shards are resubmitted without penalty.  When a timeout is
  armed, at most ``workers`` shards are dispatched at a time so a shard's
  deadline clock starts when it can actually run, not when it enters a
  queue;
* **retry with exponential backoff** (``max_retries=``): a failed or
  timed-out shard is resubmitted up to ``max_retries`` times (sleeping
  ``DEFAULT_RETRY_BACKOFF * 2**(attempt-1)`` between attempts), after which
  it is **bisected** — split in half and re-executed — until the offending
  state(s) are isolated;
* **poison-state quarantine**: a state that still fails alone is retried
  once on the in-process compiled backend (which clears pickle failures and
  worker-only crashes); only if that also fails is it quarantined.  Under
  ``failure_policy="raise"`` (default) the batch then raises a structured
  :class:`~repro.exceptions.ShardExecutionError` carrying per-state
  attribution; under ``failure_policy="degrade"`` the batch returns with
  ``None`` at the quarantined input positions and the indices reported in
  :attr:`ParallelStats.quarantined`.  Timed-out states are never retried
  in-process (an in-process hang would stall the serving process itself) —
  they quarantine directly with a
  :class:`~repro.exceptions.ShardTimeoutError`.

Attribution under pool breakage is necessarily pessimistic: when a worker
dies, every in-flight shard is charged an attempt, because the parent cannot
know which shard the dead worker was executing.  Innocent shards may
therefore be bisected or even fall back in-process — extra work, never a
wrong answer — and every recovery path is held hypothesis-equal to
``backend="classic"`` by the fault-injection suite
(:mod:`repro.engine.faults`, ``tests/engine/test_fault_tolerance.py``).

Worker-count resolution honours the ``REPRO_PARALLEL_MAX_WORKERS``
environment variable (a hard cap, used by CI to keep the suite stable on
small runners); the start method defaults to ``fork`` on Linux (cheapest
spawn; see ``docs/api.md`` for the fork/spawn trade-offs) and ``spawn``
elsewhere, and can be forced with ``REPRO_PARALLEL_START_METHOD`` or the
constructor argument.  Failure semantics are documented end to end in
``docs/robustness.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import (
    ExecutionError,
    ShardExecutionError,
    ShardTimeoutError,
    StatePicklingError,
    WorkerCrashError,
)
from ..relational.compiled import ExecutionStats
from ..relational.database import DatabaseState, dedupe_states
from ..relational.yannakakis import YannakakisRun
from ..hypergraph.schema import RelationSchema
from . import faults

# Module-level on purpose: every batch consults the shape-aware
# profitability gate, and ``prepared`` imports this module only lazily, so
# the import is cycle-free.
from .prepared import kernel_plan, resolve_backend_for

__all__ = [
    "ENV_MAX_WORKERS",
    "ENV_SHARD_TIMEOUT",
    "ENV_START_METHOD",
    "FAILURE_POLICIES",
    "ParallelExecutor",
    "ParallelStats",
    "PlanSpec",
    "execute_in_process",
    "plan_shards",
    "resolve_failure_policy",
    "resolve_max_retries",
    "resolve_shard_timeout",
    "resolve_start_method",
    "resolve_worker_count",
]

#: Environment variable holding a hard cap on resolved worker counts.
ENV_MAX_WORKERS = "REPRO_PARALLEL_MAX_WORKERS"

#: Environment variable forcing the multiprocessing start method.
ENV_START_METHOD = "REPRO_PARALLEL_START_METHOD"

#: Environment variable holding the default per-shard timeout (seconds).
ENV_SHARD_TIMEOUT = "REPRO_PARALLEL_SHARD_TIMEOUT"

#: Accepted values for ``failure_policy``.
FAILURE_POLICIES = ("raise", "degrade")

#: Default per-shard retry budget (attempts beyond the first).
DEFAULT_MAX_RETRIES = 2

#: Default per-batch pool-respawn budget.  Each worker death *and* each
#: timeout kill consumes one unit; exhausting it raises
#: :class:`~repro.exceptions.WorkerCrashError` regardless of the failure
#: policy, because a pool that cannot stay alive is a systemic failure, not
#: a per-state one.
DEFAULT_MAX_RESPAWNS = 8

#: Base for exponential retry backoff (seconds); attempt ``n`` sleeps
#: ``DEFAULT_RETRY_BACKOFF * 2**(n-1)`` before resubmission.
DEFAULT_RETRY_BACKOFF = 0.05

#: Shards per worker.  Oversharding (rather than one shard per worker) lets
#: the pool rebalance when cost estimates are off: a worker that finishes
#: its light shards early picks up queued ones instead of idling behind a
#: mis-estimated heavy shard.
DEFAULT_SHARDS_PER_WORKER = 4


def resolve_worker_count(workers: Optional[int]) -> int:
    """Resolve a requested worker count.

    ``None`` means one worker per available CPU; explicit requests are taken
    at face value (a pool wider than the machine still overlaps pickling with
    execution).  Either way the :data:`ENV_MAX_WORKERS` cap clamps the
    result, so operators and CI can bound fan-out without touching call
    sites.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cap_text = os.environ.get(ENV_MAX_WORKERS)
    if cap_text:
        try:
            cap = int(cap_text)
        except ValueError:
            raise ValueError(
                f"{ENV_MAX_WORKERS} must be an integer, got {cap_text!r}"
            ) from None
        if cap < 1:
            # A cap of 0 or less is a misconfiguration; ignoring it would
            # silently unclamp the very pools it was set to bound.
            raise ValueError(f"{ENV_MAX_WORKERS} must be >= 1, got {cap}")
        workers = min(workers, cap)
    return workers


def resolve_start_method(method: Optional[str] = None) -> str:
    """Pick the multiprocessing start method for a pool.

    Explicit argument beats :data:`ENV_START_METHOD` beats the platform
    default: ``fork`` on Linux (by far the cheapest spawn, and the child
    inherits warm analysis caches), ``spawn`` everywhere else.  macOS lists
    ``fork`` as available but forking there is unsafe under Apple system
    libraries (CPython itself switched its default to ``spawn`` in 3.8), so
    only Linux opts into it by default.
    """
    if method is None:
        method = os.environ.get(ENV_START_METHOD) or None
    available = multiprocessing.get_all_start_methods()
    if method is None:
        if sys.platform.startswith("linux") and "fork" in available:
            return "fork"
        return "spawn"
    if method not in available:
        raise ValueError(
            f"start method {method!r} not available here (have: {', '.join(available)})"
        )
    return method


def resolve_shard_timeout(timeout: Optional[float]) -> Optional[float]:
    """Resolve a per-shard timeout: explicit beats :data:`ENV_SHARD_TIMEOUT`.

    ``None`` with the env var unset means *no timeout* (a hung worker blocks
    the batch, exactly as a hung in-process execution would).  The timeout
    bounds one shard *attempt*, measured from dispatch to a free worker.
    """
    if timeout is None:
        text = os.environ.get(ENV_SHARD_TIMEOUT)
        if not text:
            return None
        try:
            timeout = float(text)
        except ValueError:
            raise ValueError(
                f"{ENV_SHARD_TIMEOUT} must be a number of seconds, got {text!r}"
            ) from None
    if timeout <= 0:
        raise ValueError(f"shard_timeout must be > 0, got {timeout}")
    return timeout


def resolve_max_retries(retries: Optional[int]) -> int:
    """Resolve the per-shard retry budget: ``None`` means
    :data:`DEFAULT_MAX_RETRIES` (2)."""
    if retries is None:
        return DEFAULT_MAX_RETRIES
    if retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {retries}")
    return retries


def resolve_failure_policy(policy: str) -> str:
    """Validate a ``failure_policy`` value (``raise`` or ``degrade``)."""
    if policy not in FAILURE_POLICIES:
        raise ValueError(
            f"failure_policy must be one of {', '.join(FAILURE_POLICIES)}, "
            f"got {policy!r}"
        )
    return policy


@dataclass(frozen=True)
class PlanSpec:
    """The picklable identity of a prepared query.

    Everything a worker needs to rebuild (and cache) the plan: the **ordered**
    relation tuple (plans are positional — order is part of the identity, see
    the analysis-cache notes in :mod:`repro.engine.analysis`), the projection
    target, the qual-tree root, and whether the plan is cyclic.

    Specs are frozen, hashable and comparable, which makes them directly
    usable as worker-side cache keys; an unpickled spec compares equal to the
    original, so a worker that already compiled it never compiles again.
    """

    relations: Tuple[RelationSchema, ...]
    target: RelationSchema
    root: int = 0
    #: True when the spec identifies a cyclic plan
    #: (:class:`~repro.engine.cyclic.CyclicPreparedQuery`): workers rebuild
    #: through ``prepare_cyclic`` (treefication prologue + inner tree plan).
    cyclic: bool = False

    @classmethod
    def of(cls, prepared) -> "PlanSpec":
        """The spec of a :class:`~repro.engine.prepared.PreparedQuery`
        (normally reached through ``prepared.plan_spec()``)."""
        return cls(
            relations=prepared.schema.relations,
            target=prepared.target,
            root=prepared.root,
            cyclic=bool(getattr(prepared, "is_cyclic_plan", False)),
        )

    def describe(self) -> str:
        """Human readable one-liner (for logs and CLI output)."""
        relations = ",".join(r.to_notation() for r in self.relations)
        return f"π_{self.target.to_notation() or '{}'}(⋈ {relations}) @R{self.root}"


# -- worker side ---------------------------------------------------------------


#: Worker-local plan cache: spec → PreparedQuery (holding the serial plans
#: its shards built).  Lives in the worker process's module globals; bounded
#: so a worker serving many distinct plans cannot grow without limit.
#: Within the bound, each spec's plan for a kernel is built at most once per
#: worker — the property the call-count tests pin down.
_PLAN_CACHE_MAX = 128
_worker_plans: "OrderedDict[PlanSpec, Any]" = OrderedDict()


def _plan_for_spec(spec: PlanSpec, backend: str) -> Tuple[Any, int]:
    """The worker's ``backend`` serial plan for ``spec`` plus a did-build
    flag (0/1).

    On a miss the query is rebuilt through the analysis LRU
    (:func:`~repro.engine.analysis.prepared_from_spec`) and the requested
    plan is built immediately, so the build cost lands on the first shard
    and later shards are pure execution.
    """
    prepared = _worker_plans.get(spec)
    if prepared is None:
        from .analysis import prepared_from_spec

        prepared = prepared_from_spec(spec)
        _worker_plans[spec] = prepared
        if len(_worker_plans) > _PLAN_CACHE_MAX:
            _worker_plans.popitem(last=False)
    else:
        _worker_plans.move_to_end(spec)
    # The flag counts *actual* plan builds: a fork-started worker inherits
    # the parent's analysis LRU, so the rebuilt query may already carry the
    # plan and the first shard pays nothing.
    resident = getattr(prepared, "_" + backend)  # the built plan, if any
    if resident is not None:
        return resident, 0
    return kernel_plan(prepared, backend), 1


def _execute_shard(
    spec: PlanSpec, backend: str, states: Tuple[DatabaseState, ...]
) -> Tuple[int, int, List[YannakakisRun], ExecutionStats]:
    """Worker entry point: execute one shard on the batch's serial kernel.

    ``backend`` is the kernel the parent picked once for the whole batch.
    Returns ``(pid, plans_compiled, runs, shard_stats)``; runs hold
    plain-value relations, so worker-local interner codes never leave the
    process.  The injectable fault points of
    :mod:`repro.engine.faults` hook in here — once per shard, once per
    state — and cost four env lookups per shard when nothing is armed.
    """
    inject = faults.any_active()
    if inject:
        faults.on_shard_start()
    # Both serial plans handle every schema, the empty one included, and
    # their encode paths are what keep ``stats.states`` accounting truthful.
    plan, compiled_now = _plan_for_spec(spec, backend)
    stats = ExecutionStats()
    runs = []
    for state in states:
        if inject:
            faults.check_state(state)
        runs.append(plan.execute_state(state, stats=stats))
    return os.getpid(), compiled_now, runs, stats


def _warmup() -> int:
    """No-op task used to spin a worker up ahead of real traffic."""
    return os.getpid()


# -- sharding ------------------------------------------------------------------


def plan_shards(costs: Sequence[int], shard_count: int) -> List[List[int]]:
    """Group item indices into at most ``shard_count`` cost-balanced shards.

    Longest-processing-time scheduling: items are taken largest-first and
    each goes to the currently lightest shard, so one heavy item ends up
    alone in its shard instead of serializing a whole chunk behind it.
    Deterministic (ties break on index), every index appears exactly once,
    empty shards are dropped, and within a shard indices stay in input order
    (reassembly relies on per-shard order).
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    count = len(costs)
    shard_count = min(shard_count, count)
    if shard_count <= 1:
        return [list(range(count))] if count else []
    order = sorted(range(count), key=lambda index: (-costs[index], index))
    heap: List[Tuple[int, int]] = [(0, shard) for shard in range(shard_count)]
    shards: List[List[int]] = [[] for _ in range(shard_count)]
    for index in order:
        load, shard = heappop(heap)
        shards[shard].append(index)
        # +1 per item so zero-cost (empty) states still spread across shards.
        heappush(heap, (load + costs[index] + 1, shard))
    result = [sorted(shard) for shard in shards if shard]
    return result


# -- merged instrumentation ----------------------------------------------------


class ParallelStats(ExecutionStats):
    """Batch instrumentation merged across every shard of a parallel batch.

    Extends :class:`~repro.relational.compiled.ExecutionStats` (all counters
    summed over shards; lineage maps merged per (slot, key) — note that
    across *workers* the same (slot, key) index is built once per worker that
    touched the slot, since encodings are worker-local) with the parallel
    layer's own accounting: resolved ``workers``, shard count and sizes,
    total ``plan_compiles``, ``per_worker`` attribution keyed by worker pid,
    and the supervision counters of PR 6 — ``retries`` (shard resubmissions
    beyond first attempts), ``respawns`` (pool rebuilds after worker death
    or timeout kill), ``timeouts`` (shard attempts past ``shard_timeout``),
    ``bisections`` (failing shards split to isolate offenders),
    ``fallback_runs`` (states recovered on the in-process compiled backend),
    ``quarantined`` (input positions whose states could not be executed at
    all — non-empty only under ``failure_policy="degrade"``, since ``raise``
    surfaces them as a :class:`~repro.exceptions.ShardExecutionError`), and
    ``worker_crashes`` (pid → observed death count, best effort — a pid that
    died before ever reporting a shard appears here and not in
    ``per_worker``).
    """

    __slots__ = (
        "workers",
        "shard_sizes",
        "plan_compiles",
        "per_worker",
        "failure_policy",
        "retries",
        "respawns",
        "timeouts",
        "bisections",
        "fallback_runs",
        "quarantined",
        "quarantine_causes",
        "worker_crashes",
        "routed_in_process",
    )

    def __init__(self, workers: int) -> None:
        super().__init__()
        self.workers = workers
        #: States per shard, in completion order (fallback runs excluded:
        #: ``states == sum(shard_sizes) + fallback_runs``).
        self.shard_sizes: List[int] = []
        self.plan_compiles = 0
        self.per_worker: Dict[int, Dict[str, int]] = {}
        self.failure_policy = "raise"
        self.retries = 0
        self.respawns = 0
        self.timeouts = 0
        self.bisections = 0
        self.fallback_runs = 0
        self.quarantined: List[int] = []
        #: Input position -> terminal exception for every quarantined state
        #: (the same attribution ``ShardExecutionError.causes`` carries under
        #: ``failure_policy="raise"``; populated under ``"degrade"`` so the
        #: streaming service can surface typed error items).
        self.quarantine_causes: Dict[int, BaseException] = {}
        self.worker_crashes: Dict[int, int] = {}
        #: States served on the in-process compiled backend because routing
        #: classified the batch as degenerate (no pool was spawned for them).
        self.routed_in_process = 0

    @property
    def shard_count(self) -> int:
        """Number of shards the batch was split into."""
        return len(self.shard_sizes)

    def record_shard(
        self,
        pid: int,
        compiled_now: int,
        state_count: int,
        shard_stats: ExecutionStats,
    ) -> None:
        """Fold one shard's result metadata into the merged view."""
        self.absorb(shard_stats)
        self.plan_compiles += compiled_now
        self.shard_sizes.append(state_count)
        info = self.per_worker.setdefault(
            pid,
            {
                "shards": 0,
                "states": 0,
                "plan_compiles": 0,
                "encoded_slots": 0,
                "keyset_builds": 0,
                "bucket_builds": 0,
                "interner_resets": 0,
            },
        )
        info["shards"] += 1
        info["states"] += state_count
        info["plan_compiles"] += compiled_now
        info["encoded_slots"] += shard_stats.encoded_slots
        info["keyset_builds"] += shard_stats.total_keyset_builds()
        info["bucket_builds"] += shard_stats.total_bucket_builds()
        info["interner_resets"] += shard_stats.interner_resets

    def record_crash(self, pid: int) -> None:
        """Note one observed worker death (best-effort attribution)."""
        self.worker_crashes[pid] = self.worker_crashes.get(pid, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ParallelStats(workers={self.workers}, shards={self.shard_count}, "
            f"states={self.states}, plan_compiles={self.plan_compiles}, "
            f"retries={self.retries}, respawns={self.respawns}, "
            f"quarantined={len(self.quarantined)})"
        )


# -- supervision ---------------------------------------------------------------


@dataclass
class _ShardTask:
    """One unit of supervised work: a set of unique-state indices.

    ``attempt`` counts failures charged so far; a task past the retry budget
    is bisected (size > 1) or sent to isolation handling (size 1).
    """

    indices: List[int]
    attempt: int = 0


def _looks_like_pickling_error(error: BaseException) -> bool:
    """True for the exception shapes CPython raises on unpicklable args.

    ``pickle.PicklingError`` covers top-level functions and closures, but the
    pickle machinery also leaks ``TypeError`` ("cannot pickle '_thread.lock'
    object") and ``AttributeError`` ("Can't pickle local object ...")
    depending on where reduction fails, so those are matched by message.
    """
    if isinstance(error, pickle.PicklingError):
        return True
    return isinstance(error, (TypeError, AttributeError)) and (
        "pickle" in str(error).lower()
    )


class ParallelExecutor:
    """A reusable, supervised process pool for sharded batched execution.

    Lifecycle: construct once, call :meth:`execute_many` any number of times
    (for any number of distinct prepared queries — workers cache plans per
    spec), close via the context-manager protocol or :meth:`close`.  The pool
    itself is created lazily on first use; :meth:`ensure_started` forces it
    eagerly (and round-trips one no-op per worker) so serving processes can
    pay the spawn cost at startup instead of on the first request — the
    benchmarks time exactly this distinction.

    Fault tolerance is always on: worker death respawns the pool (within
    :data:`DEFAULT_MAX_RESPAWNS` per batch) and resubmits only the lost
    shards, and failed shards are retried/bisected per the module docstring.
    The optional knobs — ``shard_timeout``, ``max_retries``,
    ``failure_policy`` — set executor-wide defaults that individual
    :meth:`execute_many` calls may override.  :attr:`healthy` and
    :attr:`restarts` expose the supervision state for serving dashboards.

    One-shot use (``PreparedQuery.execute_many(..., backend="parallel")``
    without an executor) constructs, uses and closes a pool per call, which
    only amortizes on large batches; long-lived serving should hold one
    executor.
    """

    _UNSET = object()

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
        shard_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        failure_policy: str = "raise",
    ) -> None:
        self._workers = resolve_worker_count(workers)
        self._start_method = resolve_start_method(start_method)
        self._shard_timeout = resolve_shard_timeout(shard_timeout)
        self._max_retries = resolve_max_retries(max_retries)
        self._failure_policy = resolve_failure_policy(failure_policy)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._restarts = 0
        #: Stats of the most recent completed :meth:`execute_many` batch.
        #: Callers that serialize batches (the executor is not thread-safe)
        #: read quarantine causes here even when a degraded batch returned
        #: only ``None`` runs to hang the stats object on.
        self.last_batch_stats: Optional[ParallelStats] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def workers(self) -> int:
        """The resolved worker count (request clamped by the env cap)."""
        return self._workers

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the pool uses."""
        return self._start_method

    @property
    def healthy(self) -> bool:
        """Whether the executor can currently accept work.

        True while open with a live (or not-yet-started — the next batch
        spawns it) pool; False once closed or when the pool is broken and
        has not been respawned yet.  Supervision repairs a broken pool on
        the next :meth:`execute_many`, so an unhealthy-but-open executor is
        a transient state, not a terminal one.
        """
        if self._closed:
            return False
        pool = self._pool
        if pool is None:
            return True
        return not getattr(pool, "_broken", False)

    @property
    def restarts(self) -> int:
        """Lifetime pool respawns (worker deaths + timeout kills recovered)."""
        return self._restarts

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("ParallelExecutor is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context(self._start_method),
            )
        return self._pool

    def ensure_started(self) -> int:
        """Create the pool and spin up every worker; returns the worker count.

        Round-trips one no-op task per worker so that later batches measure
        pure dispatch + execution, never process spawn.  (Workers that race
        to steal two no-ops leave a sibling cold — harmless, the pool tops
        itself up — but submitting ``workers`` tasks makes full spin-up the
        overwhelmingly common case.)
        """
        pool = self._ensure_pool()
        futures = [pool.submit(_warmup) for _ in range(self._workers)]
        for future in futures:
            future.result()
        return self._workers

    def _kill_pool(self) -> None:
        """Tear the current pool down hard, surviving a broken one.

        Hung or dead workers are terminated directly (``shutdown`` alone
        would block behind a sleeping worker); every error is swallowed
        because the pool being un-shutdown-ably broken is exactly the case
        this path exists for.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Shut the pool down (idempotent); the executor is unusable after.

        Safe on a broken pool: shutdown errors from already-dead workers are
        swallowed, so ``close()``/``__exit__`` never raise over a crash that
        execution already reported.
        """
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:
                pass

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "closed" if self._closed else ("idle" if self._pool is None else "live")
        return (
            f"ParallelExecutor(workers={self._workers}, "
            f"start_method={self._start_method!r}, restarts={self._restarts}, "
            f"{status})"
        )

    # -- execution -------------------------------------------------------------

    def execute_many(
        self,
        prepared,
        states: Iterable[DatabaseState],
        *,
        shard_timeout: Any = _UNSET,
        max_retries: Any = _UNSET,
        failure_policy: Any = _UNSET,
    ) -> List[Optional[YannakakisRun]]:
        """Execute a prepared query against every state across the pool.

        Semantics match ``prepared.execute_many(states)`` exactly — same
        results, same per-run accounting — with results in input order;
        a repeated state object is executed once and shares a run.  Every
        returned run reports ``backend="parallel"`` and carries one shared
        :class:`ParallelStats` for the batch.

        The keyword arguments override the executor-wide defaults for this
        batch.  Under ``failure_policy="degrade"`` the returned list holds
        ``None`` at every input position whose state was quarantined (the
        same positions listed in ``ParallelStats.quarantined``); under the
        default ``"raise"`` policy a batch with quarantined states raises
        :class:`~repro.exceptions.ShardExecutionError` instead, and a pool
        that cannot be kept alive raises
        :class:`~repro.exceptions.WorkerCrashError` under either policy.
        """
        state_list = list(states)
        if not state_list:
            return []
        spec = prepared.plan_spec()
        timeout = (
            self._shard_timeout
            if shard_timeout is self._UNSET
            else resolve_shard_timeout(shard_timeout)
        )
        retries = (
            self._max_retries
            if max_retries is self._UNSET
            else resolve_max_retries(max_retries)
        )
        policy = (
            self._failure_policy
            if failure_policy is self._UNSET
            else resolve_failure_policy(failure_policy)
        )

        # Repeated state objects (the dedup of EncodedPlan.execute_batch)
        # ride along for free and never cross the wire twice.
        unique_states, positions = dedupe_states(state_list)

        # One kernel for the whole batch, the one the serial paths pick.
        backend = resolve_backend_for("auto", unique_states, query=prepared)
        costs = [state.total_rows() for state in unique_states]
        shards = plan_shards(costs, self._workers * DEFAULT_SHARDS_PER_WORKER)
        # Heaviest shard first: it starts executing while the rest are still
        # being pickled onto the queue.
        shards.sort(key=lambda indices: -sum(costs[index] for index in indices))

        stats = ParallelStats(self._workers)
        stats.failure_policy = policy
        unique_runs: List[Optional[YannakakisRun]] = [None] * len(unique_states)
        quarantine: Dict[int, BaseException] = {}
        #: First input position per unique state, for human-facing attribution.
        first_position = {}
        for position, index in enumerate(positions):
            first_position.setdefault(index, position)

        tasks: "deque[_ShardTask]" = deque(_ShardTask(list(s)) for s in shards)
        inflight: Dict[Future, _ShardTask] = {}
        deadlines: Dict[Future, float] = {}
        respawn_budget = respawns_left = DEFAULT_MAX_RESPAWNS
        # When a timeout is armed, dispatch at most one shard per worker so a
        # shard's deadline clock starts when it can actually run; unlimited
        # dispatch would start the clock while the shard sits in the queue.
        max_inflight = self._workers if timeout is not None else None

        def fallback_in_process(index: int, error: BaseException) -> None:
            """Last resort for a state that failed in isolation: run it on
            the in-process compiled backend (clears pickle failures and
            worker-only crashes), quarantining it only if that fails too."""
            state = unique_states[index]
            try:
                faults.check_state(state)
                run = prepared.compiled.execute_state(state, stats=stats)
            except Exception as fallback_error:
                if _looks_like_pickling_error(error):
                    cause: BaseException = StatePicklingError(
                        f"state at input position {first_position[index]} "
                        f"cannot be pickled across the process boundary and "
                        f"also failed on the in-process backend",
                        state_index=first_position[index],
                    )
                    cause.__cause__ = fallback_error
                else:
                    cause = fallback_error
                quarantine[index] = cause
                return
            stats.fallback_runs += 1
            unique_runs[index] = run

        def fail_task(
            task: _ShardTask, error: BaseException, *, timed_out: bool = False
        ) -> None:
            """Charge one failure to a task and route it onward: resubmit
            (with backoff), bisect, or isolate."""
            task.attempt += 1
            if timed_out:
                stats.timeouts += 1
            if _looks_like_pickling_error(error):
                # Deterministic failure: retrying the identical pickle is
                # pointless.  Probe each state individually — offenders go
                # straight to the in-process fallback, the rest re-run.
                survivors: List[int] = []
                for index in task.indices:
                    try:
                        pickle.dumps(unique_states[index])
                    except Exception:
                        fallback_in_process(index, error)
                    else:
                        survivors.append(index)
                if survivors:
                    if len(survivors) == len(task.indices):
                        # Nothing in the shard is unpicklable: the spec (or
                        # the result path) is the problem, and resubmitting
                        # cannot fix it.
                        raise StatePicklingError(
                            f"shard submission failed to pickle but every "
                            f"state pickles cleanly; the plan spec is the "
                            f"likely offender: {error}"
                        ) from error
                    tasks.append(_ShardTask(survivors))
                return
            if task.attempt <= retries:
                stats.retries += 1
                backoff = DEFAULT_RETRY_BACKOFF * (2 ** (task.attempt - 1))
                if backoff:
                    time.sleep(backoff)
                tasks.append(task)
                return
            if len(task.indices) > 1:
                # Retry budget exhausted on a multi-state shard: bisect to
                # isolate the offender(s).  Children restart their budgets;
                # sizes strictly shrink, so this terminates at singletons.
                stats.bisections += 1
                middle = len(task.indices) // 2
                tasks.append(_ShardTask(task.indices[:middle]))
                tasks.append(_ShardTask(task.indices[middle:]))
                return
            index = task.indices[0]
            if timed_out:
                # Never re-run a hanger in-process: an in-process hang would
                # stall the serving process with no supervisor above it.
                quarantine[index] = ShardTimeoutError(
                    f"state at input position {first_position[index]} timed "
                    f"out after {task.attempt} attempt(s) of "
                    f"{timeout:g}s each",
                    state_indices=(first_position[index],),
                )
                return
            fallback_in_process(index, error)

        def respawn(reason: BaseException) -> ProcessPoolExecutor:
            nonlocal respawns_left
            pool = self._pool
            if pool is not None:
                processes = getattr(pool, "_processes", None) or {}
                for pid, process in list(processes.items()):
                    exitcode = getattr(process, "exitcode", None)
                    if exitcode not in (None, 0):
                        stats.record_crash(pid)
            if respawns_left <= 0:
                self._kill_pool()
                raise WorkerCrashError(
                    f"pool respawn budget exhausted ({respawn_budget} "
                    f"respawns) while executing the batch; last failure: "
                    f"{reason!r}"
                ) from reason
            respawns_left -= 1
            self._kill_pool()
            self._restarts += 1
            stats.respawns += 1
            return self._ensure_pool()

        pool = self._ensure_pool()
        while tasks or inflight:
            # -- dispatch ------------------------------------------------------
            submit_failure: Optional[BaseException] = None
            while tasks and (
                max_inflight is None or len(inflight) < max_inflight
            ):
                task = tasks.popleft()
                if not task.indices:
                    continue
                try:
                    future = pool.submit(
                        _execute_shard,
                        spec,
                        backend,
                        tuple(unique_states[index] for index in task.indices),
                    )
                except BrokenExecutor as error:
                    tasks.appendleft(task)
                    submit_failure = error
                    break
                except RuntimeError as error:
                    # A pool shut down underneath us (closed concurrently).
                    tasks.appendleft(task)
                    raise ExecutionError(
                        f"pool rejected shard submission: {error}"
                    ) from error
                inflight[future] = task
                if timeout is not None:
                    deadlines[future] = time.monotonic() + timeout
            if submit_failure is not None:
                lost = list(inflight.values())
                inflight.clear()
                deadlines.clear()
                pool = respawn(submit_failure)
                for task in lost:
                    fail_task(task, submit_failure)
                continue
            if not inflight:
                continue

            # -- harvest -------------------------------------------------------
            wait_timeout = None
            if deadlines:
                wait_timeout = max(
                    0.0, min(deadlines.values()) - time.monotonic()
                )
            done, _ = wait(
                set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )
            breakage: Optional[BaseException] = None
            broken_tasks: List[_ShardTask] = []
            for future in done:
                task = inflight.pop(future)
                deadlines.pop(future, None)
                try:
                    pid, compiled_now, runs, shard_stats = future.result()
                except BrokenExecutor as error:
                    breakage = error
                    broken_tasks.append(task)
                except Exception as error:
                    fail_task(task, error)
                else:
                    stats.record_shard(
                        pid, compiled_now, len(task.indices), shard_stats
                    )
                    for index, run in zip(task.indices, runs):
                        unique_runs[index] = run
            if breakage is not None:
                # The pool is dead: every other in-flight future is doomed
                # too.  Reclaim them all; attribution is pessimistic (see
                # the module docstring) but never wrong.
                broken_tasks.extend(inflight.values())
                inflight.clear()
                deadlines.clear()
                pool = respawn(breakage)
                for task in broken_tasks:
                    fail_task(task, breakage)
                continue

            # -- timeout scan --------------------------------------------------
            if deadlines:
                now = time.monotonic()
                overdue = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline <= now
                ]
                if overdue:
                    overdue_tasks = [inflight[future] for future in overdue]
                    innocent = [
                        inflight[future]
                        for future in inflight
                        if future not in set(overdue)
                    ]
                    inflight.clear()
                    deadlines.clear()
                    hang = ShardTimeoutError(
                        f"shard exceeded shard_timeout={timeout:g}s; "
                        f"worker killed"
                    )
                    pool = respawn(hang)
                    for task in overdue_tasks:
                        fail_task(task, hang, timed_out=True)
                    # We killed the innocents ourselves — resubmit without
                    # charging an attempt.
                    tasks.extend(innocent)

        stats.deduped_states += len(state_list) - len(unique_states)

        missing = [
            index
            for index, run in enumerate(unique_runs)
            if run is None and index not in quarantine
        ]
        if missing:  # pragma: no cover - supervision invariant
            raise ExecutionError(
                f"internal error: {len(missing)} state(s) finished neither "
                f"executed nor quarantined"
            )

        if quarantine:
            causes: Dict[int, BaseException] = {}
            for position, index in enumerate(positions):
                if index in quarantine:
                    causes[position] = quarantine[index]
            stats.quarantined = sorted(causes)
            stats.quarantine_causes = dict(causes)
            if policy == "raise":
                raise ShardExecutionError(
                    f"{len(causes)} of {len(state_list)} state(s) could not "
                    f"be executed after retry, bisection and in-process "
                    f"fallback (positions {stats.quarantined}); pass "
                    f"failure_policy='degrade' for partial results",
                    causes,
                )

        retagged = [
            None if run is None else replace(run, backend="parallel", stats=stats)
            for run in unique_runs
        ]
        self.last_batch_stats = stats
        return [retagged[index] for index in positions]


# -- in-process routing --------------------------------------------------------


def execute_in_process(prepared, states: Iterable[DatabaseState]) -> List[YannakakisRun]:
    """Run a "parallel" batch on the in-process serial kernel, no pool.

    The adaptive router calls this when a batch bound for the parallel
    backend is degenerate — empty, a single unique state, or all-empty
    states — where spawning worker processes costs orders of magnitude more
    than just executing.  Results are indistinguishable from a real pool
    run: input order, duplicate dedup, ``backend="parallel"`` retagging, one
    shared :class:`ParallelStats` whose ``workers=0`` / ``routed_in_process``
    fields record that no pool was involved.  The
    serial kernel is the one ``backend="auto"`` resolves to for this batch
    (vectorized when numpy imports and the states are big enough to amortize
    the array toll), matching what the pool's workers would have run.
    """
    state_list = list(states)
    if not state_list:
        return []
    unique, positions = dedupe_states(state_list)
    stats = ParallelStats(0)
    plan = kernel_plan(
        prepared, resolve_backend_for("auto", state_list, query=prepared)
    )
    runs = [
        replace(plan.execute_state(state, stats=stats), backend="parallel", stats=stats)
        for state in unique
    ]
    stats.deduped_states += len(positions) - len(unique)
    stats.routed_in_process = len(unique)
    stats.shard_sizes.append(len(unique))
    return [runs[index] for index in positions]
