"""Adaptive backend routing: a per-plan cost model for thin-vs-heavy batches.

The serving backends have sharply different fixed costs: the in-process
compiled kernel starts executing immediately (repeat-pool workloads run at
~10 µs/state), while the parallel pool pays dispatch pickling per state
(~86 µs/state measured in PR-5), a per-batch scheduling overhead, and — on
the one-shot path — a full pool spawn.  Guessing ``backend=`` per call is
exactly the kind of decision the plan-once economy can make *once*: plan
shape is fixed at prepare time, so one tiny timing probe per plan calibrates
a cost model that every later batch reuses.

:meth:`RoutingPolicy.decide` is the one place that chooses between the pool
and in-process execution (the serial kernel itself is always
:func:`~repro.engine.prepared.resolve_backend_for`'s verdict):

* **Probe.**  The first decision for a plan times a few executions of the
  serial kernel :func:`~repro.engine.prepared.resolve_backend_for` picks for
  the batch (:data:`DEFAULT_PROBE_STATES` sample states) and caches the
  measured per-row seconds on the plan's
  :class:`~repro.engine.analysis.AnalyzedSchema`
  (:meth:`~repro.engine.analysis.AnalyzedSchema.cached_cost_probe`), keyed by
  ``(target, root, backend)`` — shared across services, threads and batches.
  The probed states run through the plan's normal encode cache, so their
  work is not wasted: the batch that follows reuses the encodings.
* **Estimate.**  A batch is profiled by its *unique* states (the executors
  dedup repeated state objects, so duplicates are free on every backend):
  ``serial ≈ per_row_s × unique_rows`` against
  ``parallel ≈ batch_overhead + dispatch_per_state × unique_states +
  serial / workers (+ spawn if the pool is cold)``.
* **Gates.**  Scale gates keep obviously-thin work in-process without
  probing noise deciding: a batch below :data:`DEFAULT_MIN_PARALLEL_STATES`
  unique states or :data:`DEFAULT_MIN_PARALLEL_SERIAL_S` estimated serial
  seconds never routes to the pool (process parallelism cannot amortize at
  that scale), and degenerate batches — empty, all-empty-rows, or a single
  unique state — are in-process by construction.
* **Overrides.**  An explicit ``backend=`` bypasses the model and is
  recorded as rule ``override``; an explicit ``"parallel"`` on a degenerate
  batch is recorded as ``override-degenerate`` and served in-process.

The gate constants are module-level ``DEFAULT_*`` values read at decision
time; tests pin them (and the probe, through
:meth:`~repro.engine.analysis.AnalyzedSchema.store_cost_probe`) to force
either outcome deterministically.

The policy is plan-shape agnostic: it touches only the ``plan_spec`` /
``compiled`` / ``vectorized`` / ``execute`` surface both
:class:`~repro.engine.prepared.PreparedQuery` and the cyclic
:class:`~repro.engine.cyclic.CyclicPreparedQuery` expose, so cyclic plans are
probed, cached (their ``(target, root, backend)`` probe keys live on the same
analysis, and never collide with tree plans — ``prepare`` refuses cyclic
schemas) and routed identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..relational.database import DatabaseState, dedupe_states
from .analysis import analyze
from .prepared import kernel_plan, resolve_backend, resolve_backend_for

__all__ = [
    "DEFAULT_BATCH_OVERHEAD_S",
    "DEFAULT_DISPATCH_PER_STATE_S",
    "DEFAULT_MIN_PARALLEL_SERIAL_S",
    "DEFAULT_MIN_PARALLEL_STATES",
    "DEFAULT_PROBE_STATES",
    "DEFAULT_SPAWN_S",
    "RoutingDecision",
    "RoutingPolicy",
]

#: Sample states timed by the calibration probe (spread across the batch).
DEFAULT_PROBE_STATES = 3

#: Cross-process cost charged per unique state: dispatch pickling, result
#: unpickling and reassembly.  Seeded from the PR-5 measurement (~86 µs per
#: msmall state pickled to a worker and back).
DEFAULT_DISPATCH_PER_STATE_S = 86e-6

#: Fixed per-batch cost of the supervised dispatch loop (sharding, submit,
#: harvest bookkeeping).
DEFAULT_BATCH_OVERHEAD_S = 2e-3

#: One-shot pool spawn cost charged when no live pool exists (fork start on
#: Linux; spawn elsewhere costs more, which only strengthens the in-process
#: choice this constant drives).
DEFAULT_SPAWN_S = 0.25

#: Below this many *unique* states the pool is never chosen: per-state
#: dispatch overhead cannot amortize across so few shards.
DEFAULT_MIN_PARALLEL_STATES = 32

#: Below this estimated serial cost (seconds) the whole batch is cheaper than
#: one round of pool bookkeeping; stay in-process.
DEFAULT_MIN_PARALLEL_SERIAL_S = 0.02

#: Floor for probed per-row cost, so zero-length timings cannot divide the
#: model into nonsense.
_MIN_PER_ROW_S = 1e-9


@dataclass(frozen=True)
class RoutingDecision:
    """One routing verdict with the evidence that produced it.

    ``backend`` is the resolved execution backend — ``"parallel"``, or the
    serial kernel :func:`~repro.engine.prepared.resolve_backend_for` picks
    for the batch (``"vectorized"`` or ``"compiled"``); an explicit override
    may carry any backend name, ``"classic"`` included.  ``rule``
    is a stable machine-readable tag naming the branch that decided
    (``"override"``, ``"override-degenerate"``, ``"empty"``,
    ``"single-unique"``, ``"all-empty"``, ``"narrow-pool"``,
    ``"small-batch"``, ``"thin-serial"``, ``"parallel-wins"``,
    ``"parallel-loses"``); ``reason`` is the human
    sentence.  The estimate fields are ``None`` on branches that never
    reached the cost comparison.
    """

    backend: str
    rule: str
    reason: str
    states: int
    unique_states: int
    unique_rows: int
    per_row_s: Optional[float] = None
    estimated_serial_s: Optional[float] = None
    estimated_parallel_s: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (CLI ``--json`` reporting)."""
        return {
            "backend": self.backend,
            "rule": self.rule,
            "reason": self.reason,
            "states": self.states,
            "unique_states": self.unique_states,
            "unique_rows": self.unique_rows,
            "per_row_s": self.per_row_s,
            "estimated_serial_s": self.estimated_serial_s,
            "estimated_parallel_s": self.estimated_parallel_s,
        }


def _dedup_profile(states: Sequence[DatabaseState]) -> Tuple[int, int]:
    """(unique state count, total rows across unique states), deduped as
    the kernels dedupe a batch (:func:`~repro.relational.database.dedupe_states`)."""
    unique, _ = dedupe_states(states)
    return len(unique), sum(state.total_rows() for state in unique)


class RoutingPolicy:
    """The adaptive cost model.

    Stateless apart from the probe cache it shares through
    :class:`~repro.engine.analysis.AnalyzedSchema`, so one policy instance
    can be shared by any number of threads and services.  Subclassing is
    the substitution point: :class:`~repro.engine.service.QueryService`
    accepts any policy through ``routing=``.
    """

    # -- calibration -----------------------------------------------------------

    def probe(
        self, prepared, states: Sequence[DatabaseState]
    ) -> float:
        """Per-row serial cost for ``prepared``, probing at most once.

        Returns the value cached on the plan's analysis, else times up to
        :data:`DEFAULT_PROBE_STATES` sample states (spread across the
        batch) on the serial kernel ``auto`` resolves to *for this batch* —
        the vectorized backend when numpy imports and the states are big
        enough to amortize the array toll, compiled otherwise — and caches
        the result keyed by that backend, so a vectorized calibration never
        masquerades as a compiled one.  The probed executions go through the
        plan's encode cache, so a following batch re-executes them nearly
        for free.
        """
        serial = resolve_backend_for("auto", states, query=prepared)
        analysis = analyze(prepared.schema)
        cached = analysis.cached_cost_probe(
            prepared.target, root=prepared.root, backend=serial
        )
        if cached is not None:
            return cached
        count = len(states)
        picks = sorted(
            {
                index * (count - 1) // max(1, DEFAULT_PROBE_STATES - 1)
                for index in range(min(DEFAULT_PROBE_STATES, count))
            }
        )
        samples = [states[index] for index in picks]
        rows = sum(state.total_rows() for state in samples)
        plan = kernel_plan(prepared, serial)
        started = time.perf_counter()
        for state in samples:
            plan.execute_state(state)
        elapsed = time.perf_counter() - started
        per_row = max(_MIN_PER_ROW_S, elapsed / max(1, rows))
        analysis.store_cost_probe(
            prepared.target, per_row, root=prepared.root, backend=serial
        )
        return per_row

    # -- decisions -------------------------------------------------------------

    def decide(
        self,
        prepared,
        states: Sequence[DatabaseState],
        *,
        workers: int = 1,
        pool_live: bool = False,
        backend: str = "auto",
    ) -> RoutingDecision:
        """Route a batch: the in-process serial kernel vs the supervised pool.

        ``workers`` is the pool width a parallel route would use;
        ``pool_live`` suppresses the spawn charge when a warm pool already
        exists (the long-lived service case).  Any ``backend`` other than
        ``"auto"`` is an explicit override: it is validated and recorded as
        given (rule ``override``), except that ``"parallel"`` on an empty,
        single-unique or all-empty batch — which no pool can shard — is
        recorded as ``override-degenerate`` for in-process execution.
        """
        state_list = (
            states if isinstance(states, (list, tuple)) else list(states)
        )
        count = len(state_list)
        unique_states, unique_rows = _dedup_profile(state_list)

        def verdict(
            chosen: str, rule: str, reason: str, **estimates
        ) -> RoutingDecision:
            return RoutingDecision(
                backend=chosen,
                rule=rule,
                reason=reason,
                states=count,
                unique_states=unique_states,
                unique_rows=unique_rows,
                **estimates,
            )

        if backend != "auto":
            resolved = resolve_backend(backend)
            if resolved == "parallel" and (unique_states <= 1 or unique_rows == 0):
                return verdict(
                    "parallel",
                    "override-degenerate",
                    "backend='parallel' requested but the batch is "
                    "degenerate; serving in-process",
                )
            return verdict(
                resolved, "override", f"backend={resolved!r} requested explicitly"
            )

        kernel = resolve_backend_for("auto", state_list, query=prepared)
        if count == 0:
            return verdict(kernel, "empty", "empty batch: nothing to execute")
        if unique_states <= 1:
            return verdict(
                kernel,
                "single-unique",
                "a single unique state cannot be parallelized across shards",
            )
        if unique_rows == 0:
            return verdict(
                kernel, "all-empty", "all states are empty; execution is trivial"
            )
        if workers < 2:
            return verdict(
                kernel,
                "narrow-pool",
                f"pool width {workers} offers no parallelism",
            )
        if unique_states < DEFAULT_MIN_PARALLEL_STATES:
            return verdict(
                kernel,
                "small-batch",
                f"{unique_states} unique state(s) is below the "
                f"min_parallel_states={DEFAULT_MIN_PARALLEL_STATES} gate",
            )
        per_row = self.probe(prepared, state_list)
        serial = per_row * unique_rows
        if serial < DEFAULT_MIN_PARALLEL_SERIAL_S:
            return verdict(
                kernel,
                "thin-serial",
                f"estimated serial cost {serial * 1e3:.2f} ms is below the "
                f"min_parallel_serial_s="
                f"{DEFAULT_MIN_PARALLEL_SERIAL_S * 1e3:g} ms gate",
                per_row_s=per_row,
                estimated_serial_s=serial,
            )
        parallel = (
            DEFAULT_BATCH_OVERHEAD_S
            + DEFAULT_DISPATCH_PER_STATE_S * unique_states
            + serial / workers
            + (0.0 if pool_live else DEFAULT_SPAWN_S)
        )
        estimates = dict(
            per_row_s=per_row,
            estimated_serial_s=serial,
            estimated_parallel_s=parallel,
        )
        if parallel < serial:
            return verdict(
                "parallel",
                "parallel-wins",
                f"estimated {parallel * 1e3:.1f} ms on {workers} workers "
                f"vs {serial * 1e3:.1f} ms in-process",
                **estimates,
            )
        return verdict(
            kernel,
            "parallel-loses",
            f"estimated {parallel * 1e3:.1f} ms on {workers} workers does "
            f"not beat {serial * 1e3:.1f} ms in-process",
            **estimates,
        )
