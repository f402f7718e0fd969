"""Long-lived streaming query service with adaptive backend routing.

:class:`QueryService` is the serving-layer face of the plan-once economy: a
thread-safe, long-lived object that accepts batches of database states
against prepared queries and decides *per batch* how to execute them.

Three ideas compose here:

* **Adaptive routing.**  Every ``backend="auto"`` batch is routed by a
  :class:`~repro.engine.routing.RoutingPolicy` cost model: thin workloads
  (repeat-heavy pools, small batches, cheap plans) stay on the in-process
  compiled kernel, heavy batches go to the supervised parallel pool.  The
  model calibrates itself from a tiny per-plan timing probe cached on the
  plan's :class:`~repro.engine.analysis.AnalyzedSchema`, so the probe cost is
  paid once per plan — not per batch, not per service.  ``backend=`` remains
  an explicit override that bypasses the model; the policy records it too,
  so every batch's verdict comes from the same
  :meth:`~repro.engine.routing.RoutingPolicy.decide` call.

* **Bounded admission.**  ``max_inflight_states`` caps the states the
  service will hold in flight.  ``submit(..., wait=True)`` blocks
  (backpressure) until capacity frees; ``wait=False`` or an exceeded
  ``timeout`` raises a structured
  :class:`~repro.exceptions.AdmissionError` carrying the state counts
  involved so callers can shed load intelligently.

* **Worker affinity.**  Parallel batches run on one
  :class:`~repro.engine.parallel.ParallelExecutor`, spawned by the first
  parallel batch and kept for the service's lifetime.  Its workers cache
  plans per spec (up to 128 specs each), so a (worker, spec) pair keeps its
  kernel plan warm across batches of any mix of specs.

:meth:`QueryService.stream` is the streaming API: it splits a batch into
cost-balanced shards and yields :class:`StreamItem` results *as each shard
completes* — no batch barrier — releasing admission capacity shard by
shard.  Under ``failure_policy="degrade"`` quarantined states surface as
typed error items (``item.error`` carries the terminal exception the
supervision ladder recorded) instead of poisoning the whole stream.

Cyclic plans (:class:`~repro.engine.cyclic.CyclicPreparedQuery`) serve
through every one of these paths unchanged: the service only touches
``plan_spec()`` (whose ``cyclic`` flag keys distinct worker plan-cache
entries) and the ``execute_many`` knob matrix, both of which the cyclic plan
mirrors.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import AdmissionError, ExecutionError
from ..relational.database import DatabaseState
from ..relational.yannakakis import YannakakisRun
from .catalog import resolve_catalog
from .parallel import (
    ParallelExecutor,
    execute_in_process,
    plan_shards,
    resolve_failure_policy,
    resolve_max_retries,
    resolve_shard_timeout,
    resolve_worker_count,
)
from .routing import RoutingDecision, RoutingPolicy

__all__ = [
    "QueryService",
    "ServiceHandle",
    "ServiceStats",
    "ServiceStream",
    "StreamItem",
]

#: Streaming granularity: target shards per pool worker.  More shards mean
#: earlier first results and finer admission release; fewer amortize batch
#: overhead better.
_STREAM_SHARDS_PER_WORKER = 2

#: Dispatcher threads: enough to overlap a few batches and stream shards
#: without unbounded thread growth (threads block, the GIL is released in
#: the pool-wait path, so width is about overlap, not CPU).
_DISPATCH_THREADS = 8

@dataclass(frozen=True)
class StreamItem:
    """One streamed result: the run (or typed error) for one input state.

    ``index`` is the position in the submitted batch.  Exactly one of
    ``run`` / ``error`` is set: ``error`` carries the terminal exception the
    supervision ladder recorded for a quarantined state (only possible under
    ``failure_policy="degrade"``; under ``"raise"`` the stream raises
    instead).
    """

    index: int
    run: Optional[YannakakisRun] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """True when the item carries a run."""
        return self.error is None


class ServiceStats:
    """Service-lifetime counters (all mutated under the service lock)."""

    __slots__ = (
        "submitted_batches",
        "submitted_states",
        "streamed_batches",
        "streamed_items",
        "admission_waits",
        "admission_rejections",
        "backends",
        "rules",
        "catalog",
    )

    def __init__(self) -> None:
        self.submitted_batches = 0
        self.submitted_states = 0
        self.streamed_batches = 0
        self.streamed_items = 0
        #: Times an admission had to block for capacity.
        self.admission_waits = 0
        #: Structured AdmissionErrors raised (wait=False or timeout).
        self.admission_rejections = 0
        #: Batches per executed backend ("compiled"/"parallel"/"classic").
        self.backends: Dict[str, int] = {}
        #: Batches per routing rule ("parallel-wins", "small-batch", ...).
        self.rules: Dict[str, int] = {}
        #: The service's :class:`~repro.engine.catalog.CatalogStats`, or
        #: ``None`` when no plan catalog is attached.  A live reference, not
        #: a copy: the same counters the catalog mutates (under its own
        #: lock), so hit/miss/quarantine/degraded are always current.
        self.catalog = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot."""
        return {
            "submitted_batches": self.submitted_batches,
            "submitted_states": self.submitted_states,
            "streamed_batches": self.streamed_batches,
            "streamed_items": self.streamed_items,
            "admission_waits": self.admission_waits,
            "admission_rejections": self.admission_rejections,
            "backends": dict(self.backends),
            "rules": dict(self.rules),
            "catalog": None if self.catalog is None else self.catalog.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ServiceStats(batches={self.submitted_batches}, "
            f"states={self.submitted_states}, backends={self.backends})"
        )


class ServiceHandle:
    """Future-style handle for one submitted batch.

    ``decision`` (available immediately — routing happens at submit time)
    records which backend the batch took and why; ``result()`` blocks for
    the runs, in input order, with ``None`` at quarantined positions under
    ``failure_policy="degrade"``.
    """

    __slots__ = ("decision", "_future")

    def __init__(self, decision: RoutingDecision, future: Future) -> None:
        self.decision = decision
        self._future = future

    def result(
        self, timeout: Optional[float] = None
    ) -> List[Optional[YannakakisRun]]:
        """The batch's runs in input order (blocks up to ``timeout``)."""
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The batch's exception, if it failed (blocks up to ``timeout``)."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        """True once the batch has finished (successfully or not)."""
        return self._future.done()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "done" if self._future.done() else "pending"
        return (
            f"ServiceHandle(backend={self.decision.backend!r}, "
            f"rule={self.decision.rule!r}, {status})"
        )


class ServiceStream:
    """Iterable of :class:`StreamItem` plus the routing decision that shaped it.

    Items arrive in *shard completion order*, not input order — that is the
    point of streaming — and each carries its input ``index`` so callers can
    reassemble.  Iterating drives execution; abandoning the iterator cancels
    undispatched shards and releases their admission.
    """

    __slots__ = ("decision", "shard_count", "_iterator")

    def __init__(
        self,
        decision: RoutingDecision,
        shard_count: int,
        iterator: Iterator[StreamItem],
    ) -> None:
        self.decision = decision
        #: Number of shards the batch was split into for streaming.
        self.shard_count = shard_count
        self._iterator = iterator

    def __iter__(self) -> Iterator[StreamItem]:
        return self._iterator


class QueryService:
    """Thread-safe, long-lived serving front end over the execution backends.

    One service owns: a routing policy (shared cost model), an admission
    gate (bounded in-flight states with blocking backpressure), a
    small dispatcher thread pool (asynchronous ``submit``), and one lazily
    spawned :class:`~repro.engine.parallel.ParallelExecutor` shared by every
    parallel batch.  All public methods are safe to call from any thread.

    Parameters mirror the executor's where they overlap; ``workers``,
    ``shard_timeout``, ``max_retries`` and ``failure_policy`` configure
    that pool and are validated here, when the service is built.
    ``routing=None`` installs a default
    :class:`~repro.engine.routing.RoutingPolicy`; ``max_inflight_states`` of
    ``None`` disables the admission limit.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        routing: Optional[RoutingPolicy] = None,
        max_inflight_states: Optional[int] = None,
        shard_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        failure_policy: str = "raise",
        catalog=None,
    ) -> None:
        if max_inflight_states is not None and max_inflight_states < 1:
            raise ValueError(
                f"max_inflight_states must be >= 1, got {max_inflight_states}"
            )
        self._workers = resolve_worker_count(workers)
        self._routing = routing if routing is not None else RoutingPolicy()
        self._failure_policy = resolve_failure_policy(failure_policy)
        self._shard_timeout = resolve_shard_timeout(shard_timeout)
        self._max_retries = resolve_max_retries(max_retries)
        self._max_inflight_states = max_inflight_states
        #: The persistent plan catalog this service reports on (an instance,
        #: a directory path, or ``None`` for the ``REPRO_CATALOG_DIR``
        #: default).  The serving path itself never blocks on the catalog —
        #: workers consult it through ``prepared_from_spec`` — but attaching
        #: it here threads its hit/miss/quarantine/degraded counters through
        #: :attr:`ServiceStats.catalog` so one stats snapshot tells the whole
        #: serving story.
        self._catalog = resolve_catalog(catalog)
        self.stats = ServiceStats()
        if self._catalog is not None:
            self.stats.catalog = self._catalog.stats

        self._lock = threading.Lock()
        self._admission = threading.Condition(self._lock)
        self._inflight_states = 0
        self._closed = False
        #: True only inside close(drain=True), between refusing new
        #: submissions and the dispatcher running dry: in-flight batches may
        #: still acquire (even spawn) the pool during this window.
        self._draining = False
        #: The process pool of every parallel batch, spawned by the first
        #: one; ``_pool_lock`` serializes batches on it
        #: (:class:`~repro.engine.parallel.ParallelExecutor` is not
        #: thread-safe).
        self._pool: Optional[ParallelExecutor] = None
        self._pool_lock = threading.Lock()
        #: Serializes in-process (compiled/classic) batches: the compiled
        #: kernel's caches are guarded for encoding but batch execution is
        #: not designed for concurrent mutation, and in-process routes are
        #: thin by construction, so serializing them costs little.
        self._in_process_lock = threading.Lock()
        self._dispatcher = ThreadPoolExecutor(
            max_workers=_DISPATCH_THREADS, thread_name_prefix="repro-service"
        )

    # -- lifecycle -------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while the service is open and its pool (if spawned) is usable."""
        with self._lock:
            if self._closed:
                return False
            pool = self._pool
        return pool is None or pool.healthy

    @property
    def catalog(self):
        """The attached :class:`~repro.engine.catalog.PlanCatalog`, or ``None``."""
        return self._catalog

    def close(self, *, drain: bool = True) -> None:
        """Shut the service down (idempotent).

        ``drain=True`` (the default) finishes every in-flight batch and
        stream shard before closing the pool, so handles returned
        earlier still resolve and already-dispatched stream shards still
        yield — the graceful shutdown a serving process wants on SIGTERM.
        ``drain=False`` cancels everything not yet executing and tears the
        pools down immediately; in-flight handles may complete or may fail
        with a pool-shutdown error.  Either way, submissions after ``close``
        raise the typed closed-service error.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = drain
            # Unblock admission waiters so they observe the closure.
            self._admission.notify_all()
        if drain:
            # In-flight work may still acquire (even spawn) the pool while
            # the dispatcher drains — _parallel_executor admits it via the
            # draining flag — so the pool is collected and closed only after
            # the last dispatched batch has finished.
            self._dispatcher.shutdown(wait=True)
        else:
            self._dispatcher.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            self._draining = False
            pool, self._pool = self._pool, None
        if pool is not None:
            # Waits for a batch still running on the pool.
            with self._pool_lock:
                pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        with self._lock:
            pool = "idle" if self._pool is None else "spawned"
            status = "closed" if self._closed else "open"
        return f"QueryService(workers={self._workers}, pool={pool}, {status})"

    # -- admission -------------------------------------------------------------

    def _admit(
        self, states: int, *, wait: bool, timeout: Optional[float]
    ) -> None:
        """Reserve capacity for a submission, blocking if asked to.

        Raises :class:`~repro.exceptions.AdmissionError` when the submission
        can *never* fit (it alone exceeds the limit), when ``wait=False`` and
        capacity is unavailable, or when the wait exceeds ``timeout``.
        """
        limit = self._max_inflight_states
        with self._admission:
            if self._closed:
                raise RuntimeError("QueryService is closed")
            if limit is not None and states > limit:
                self.stats.admission_rejections += 1
                raise AdmissionError(
                    f"submission of {states} state(s) can never be admitted: "
                    f"it alone exceeds max_inflight_states={limit}",
                    requested_states=states,
                    inflight_states=self._inflight_states,
                )
            deadline = None if timeout is None else time.monotonic() + timeout
            while limit is not None and self._inflight_states + states > limit:
                if not wait:
                    self.stats.admission_rejections += 1
                    raise AdmissionError(
                        f"admission refused: {states} state(s) would exceed "
                        f"the in-flight limit and wait=False",
                        requested_states=states,
                        inflight_states=self._inflight_states,
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.stats.admission_rejections += 1
                        raise AdmissionError(
                            f"admission wait timed out after {timeout:g}s "
                            f"for {states} state(s)",
                            requested_states=states,
                            inflight_states=self._inflight_states,
                        )
                self.stats.admission_waits += 1
                self._admission.wait(remaining)
                if self._closed:
                    raise RuntimeError("QueryService is closed")
            self._inflight_states += states

    def _release(self, states: int) -> None:
        with self._admission:
            self._inflight_states -= states
            self._admission.notify_all()

    @property
    def inflight(self) -> Tuple[int]:
        """Currently admitted states, as the one-element tuple ``(states,)``
        (``inflight[0]`` is the count)."""
        with self._admission:
            return (self._inflight_states,)

    # -- routing ---------------------------------------------------------------

    def _decide(
        self, prepared, states: Sequence[DatabaseState], backend: str
    ) -> RoutingDecision:
        with self._lock:
            pool_live = self._pool is not None and self._pool.healthy
        return self._routing.decide(
            prepared,
            states,
            workers=self._workers,
            pool_live=pool_live,
            backend=backend,
        )

    def _record_decision(self, decision: RoutingDecision, states: int) -> None:
        with self._lock:
            self.stats.submitted_batches += 1
            self.stats.submitted_states += states
            self.stats.backends[decision.backend] = (
                self.stats.backends.get(decision.backend, 0) + 1
            )
            self.stats.rules[decision.rule] = (
                self.stats.rules.get(decision.rule, 0) + 1
            )

    # -- the pool --------------------------------------------------------------

    def _parallel_executor(self) -> ParallelExecutor:
        """The service's pool, spawned by the first parallel batch.

        One pool serves every spec: its workers cache plans per spec, so
        affinity needs no pool per spec, and batches of different specs
        queue on it in turn.
        """
        with self._lock:
            if self._closed and not self._draining:
                raise RuntimeError("QueryService is closed")
            if self._pool is None:
                self._pool = ParallelExecutor(
                    workers=self._workers,
                    shard_timeout=self._shard_timeout,
                    max_retries=self._max_retries,
                    failure_policy=self._failure_policy,
                )
            return self._pool

    # -- execution -------------------------------------------------------------

    def _execute_batch(
        self,
        prepared,
        states: List[DatabaseState],
        decision: RoutingDecision,
        overrides: Dict[str, object],
        causes_out: Optional[Dict[int, BaseException]] = None,
    ) -> List[Optional[YannakakisRun]]:
        backend = decision.backend
        if backend == "parallel":
            if decision.rule == "override-degenerate":
                with self._in_process_lock:
                    return execute_in_process(prepared, states)
            pool = self._parallel_executor()
            with self._pool_lock:
                runs = pool.execute_many(prepared, states, **overrides)
                # Read under the lock, which serializes batches.  The read
                # matters when a degraded batch quarantined *every* state:
                # the returned runs are all None, so the stats (and their
                # quarantine causes) are reachable nowhere else.
                if causes_out is not None:
                    stats = pool.last_batch_stats
                    if stats is not None and stats.quarantine_causes:
                        causes_out.update(stats.quarantine_causes)
                return runs
        with self._in_process_lock:
            return prepared.execute_many(states, backend=backend)

    def submit(
        self,
        prepared,
        states: Iterable[DatabaseState],
        *,
        backend: str = "auto",
        failure_policy: Optional[str] = None,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> ServiceHandle:
        """Submit a batch asynchronously; returns a Future-style handle.

        Routing happens here, synchronously — ``handle.decision`` is
        available immediately — then the batch is admitted (blocking for
        capacity if ``wait``, else raising
        :class:`~repro.exceptions.AdmissionError`) and dispatched.
        ``handle.result()`` yields the runs in input order.  ``backend`` and
        ``failure_policy`` override the service defaults for this batch
        only.
        """
        state_list = list(states)
        decision = self._decide(prepared, state_list, backend)
        self._record_decision(decision, len(state_list))
        overrides: Dict[str, object] = {}
        if failure_policy is not None:
            overrides["failure_policy"] = resolve_failure_policy(failure_policy)
        self._admit(len(state_list), wait=wait, timeout=timeout)
        try:
            future = self._dispatcher.submit(
                self._execute_batch, prepared, state_list, decision, overrides
            )
        except BaseException:
            self._release(len(state_list))
            raise
        future.add_done_callback(
            lambda _f, n=len(state_list): self._release(n)
        )
        return ServiceHandle(decision, future)

    def execute_many(
        self,
        prepared,
        states: Iterable[DatabaseState],
        *,
        backend: str = "auto",
        failure_policy: Optional[str] = None,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> List[Optional[YannakakisRun]]:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(
            prepared,
            states,
            backend=backend,
            failure_policy=failure_policy,
            wait=wait,
            timeout=timeout,
        ).result()

    # -- streaming -------------------------------------------------------------

    def stream(
        self,
        prepared,
        states: Iterable[DatabaseState],
        *,
        backend: str = "auto",
        failure_policy: Optional[str] = None,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> ServiceStream:
        """Execute a batch, yielding results as shards complete.

        The batch is split into cost-balanced shards
        (two per pool worker, capped so every shard fits
        the admission limit); each shard is admitted, dispatched, and its
        :class:`StreamItem` results yielded the moment it finishes — the
        first results arrive while later shards are still queued or
        executing.  Admission capacity is released shard by shard, so a
        streaming consumer exerts backpressure simply by iterating slowly.

        Routing is decided once for the whole batch (a shard-sized slice
        would systematically under-estimate the work).  Under
        ``failure_policy="degrade"`` quarantined states arrive as items with
        ``error`` set; under ``"raise"`` the iterator propagates the shard's
        exception.
        """
        state_list = list(states)
        decision = self._decide(prepared, state_list, backend)
        with self._lock:
            self.stats.streamed_batches += 1
        self._record_decision(decision, len(state_list))
        policy = (
            resolve_failure_policy(failure_policy)
            if failure_policy is not None
            else self._failure_policy
        )
        overrides: Dict[str, object] = {"failure_policy": policy}

        # -- shard the *input positions* (duplicates dedup inside each
        # shard's executor call; cross-shard duplicates re-execute, which
        # preserves correctness and keeps reassembly trivial).
        costs = [max(1, state.total_rows()) for state in state_list]
        shard_count = max(2, self._workers * _STREAM_SHARDS_PER_WORKER)
        shards = plan_shards(costs, shard_count)
        if self._max_inflight_states is not None:
            shards = [
                shard[start : start + self._max_inflight_states]
                for shard in shards
                for start in range(0, len(shard), self._max_inflight_states)
            ]

        def run_shard(
            positions: List[int],
        ) -> List[Tuple[int, Optional[YannakakisRun], Optional[BaseException]]]:
            shard_states = [state_list[position] for position in positions]
            shard_decision = replace(decision, states=len(shard_states))
            causes: Dict[int, BaseException] = {}
            runs = self._execute_batch(
                prepared, shard_states, shard_decision, overrides, causes
            )
            items: List[
                Tuple[int, Optional[YannakakisRun], Optional[BaseException]]
            ] = []
            for offset, (position, run) in enumerate(zip(positions, runs)):
                if run is None:
                    error = causes.get(
                        offset,
                        ExecutionError("state quarantined without recorded cause"),
                    )
                    items.append((position, None, error))
                else:
                    items.append((position, run, None))
            return items

        def generate() -> Iterator[StreamItem]:
            inflight: Dict[Future, int] = {}

            def emit(future: Future) -> Iterator[StreamItem]:
                for position, run, error in future.result():
                    with self._lock:
                        self.stats.streamed_items += 1
                    yield StreamItem(index=position, run=run, error=error)

            try:
                for positions in shards:
                    shard_states = len(positions)
                    self._admit(shard_states, wait=wait, timeout=timeout)
                    try:
                        future = self._dispatcher.submit(run_shard, positions)
                    except BaseException:
                        self._release(shard_states)
                        raise
                    future.add_done_callback(
                        lambda _f, n=shard_states: self._release(n)
                    )
                    inflight[future] = shard_states
                    # Surface anything already finished before dispatching
                    # more — this is what makes results stream.
                    for done_future in [f for f in list(inflight) if f.done()]:
                        inflight.pop(done_future)
                        yield from emit(done_future)
                while inflight:
                    done, _ = wait_futures(
                        set(inflight), return_when=FIRST_COMPLETED
                    )
                    for done_future in done:
                        inflight.pop(done_future)
                        yield from emit(done_future)
            finally:
                for future in inflight:
                    future.cancel()

        return ServiceStream(decision, len(shards), generate())
