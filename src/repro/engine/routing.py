"""Adaptive backend routing: a per-plan cost model for thin-vs-heavy batches.

The serving backends have sharply different fixed costs: the in-process
compiled kernel starts executing immediately (repeat-pool workloads run at
~10 µs/state), while the parallel pool pays dispatch pickling per state
(~86 µs/state measured in PR-5), a per-batch scheduling overhead, and — on
the one-shot path — a full pool spawn.  Guessing ``backend=`` per call is
exactly the kind of decision the plan-once economy can make *once*: plan
shape is fixed at prepare time, so one tiny timing probe per plan calibrates
a cost model that every later batch reuses.

:class:`RoutingPolicy` implements that model:

* **Probe.**  The first decision for a plan times a few executions of the
  serial kernel ``auto`` resolves to — vectorized when numpy imports,
  compiled otherwise (:data:`DEFAULT_PROBE_STATES` sample states) — and
  caches the measured per-row seconds on the plan's
  :class:`~repro.engine.analysis.AnalyzedSchema`
  (:meth:`~repro.engine.analysis.AnalyzedSchema.cached_cost_probe`), keyed by
  ``(target, root, backend)`` — shared across services, threads and batches.
  The probed states run through the plan's normal encode cache, so their
  work is not wasted: the batch that follows reuses the encodings.
* **Estimate.**  A batch is profiled by its *unique* states (the executors
  dedup verbatim duplicates, so duplicates are free on every backend):
  ``serial ≈ per_row_s × unique_rows`` against
  ``parallel ≈ batch_overhead + dispatch_per_state × unique_states +
  serial / workers (+ spawn if the pool is cold)``.
* **Gates.**  Scale gates keep obviously-thin work in-process without
  probing noise deciding: a batch below :data:`DEFAULT_MIN_PARALLEL_STATES`
  unique states or :data:`DEFAULT_MIN_PARALLEL_SERIAL_S` estimated serial
  seconds never routes to the pool (process parallelism cannot amortize at
  that scale), and degenerate batches — empty, all-empty-rows, or a single
  unique state — are in-process by construction.

Every knob is a constructor argument, so tests (and unusual deployments) can
force either outcome deterministically; ``backend=`` on the service API
remains an explicit override that bypasses the model entirely.

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

from ..relational.database import DatabaseState
from .analysis import analyze
from .prepared import resolve_backend_for

__all__ = [
    "DEFAULT_BATCH_OVERHEAD_S",
    "DEFAULT_DISPATCH_PER_STATE_S",
    "DEFAULT_MIN_PARALLEL_SERIAL_S",
    "DEFAULT_MIN_PARALLEL_STATES",
    "DEFAULT_PROBE_STATES",
    "DEFAULT_SPAWN_S",
    "RoutingDecision",
    "RoutingPolicy",
    "override_decision",
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

    ``backend`` is the resolved execution backend — the serial kernel
    ``auto`` resolves to (``"vectorized"`` when numpy imports, else
    ``"compiled"``) or ``"parallel"``; an explicit override may carry any
    backend name, ``"classic"`` included.  ``rule``
    is a stable machine-readable tag naming the branch that decided
    (``"override"``, ``"empty"``, ``"single-unique"``, ``"all-empty"``,
    ``"narrow-pool"``, ``"small-batch"``, ``"thin-serial"``,
    ``"parallel-wins"``, ``"parallel-loses"``); ``reason`` is the human
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


def override_decision(
    backend: str, states: Sequence[DatabaseState]
) -> RoutingDecision:
    """The decision recorded when the caller forced ``backend=`` explicitly."""
    unique_states, unique_rows = _dedup_profile(states)
    return RoutingDecision(
        backend=backend,
        rule="override",
        reason=f"backend={backend!r} requested explicitly",
        states=len(states),
        unique_states=unique_states,
        unique_rows=unique_rows,
    )


def _dedup_profile(states: Sequence[DatabaseState]) -> Tuple[int, int]:
    """(unique state count, total rows across unique states)."""
    seen = set()
    rows = 0
    for state in states:
        if state not in seen:
            seen.add(state)
            rows += state.total_rows()
    return len(seen), rows


class RoutingPolicy:
    """The adaptive cost model; every constant is a constructor knob.

    Stateless apart from the probe cache it shares through
    :class:`~repro.engine.analysis.AnalyzedSchema`, so one policy instance
    can be shared by any number of threads and services.  ``per_row_s``
    pins the compiled per-row cost and disables probing entirely — tests and
    benchmarks use it to make decisions deterministic.
    """

    def __init__(
        self,
        *,
        probe_states: int = DEFAULT_PROBE_STATES,
        dispatch_per_state_s: float = DEFAULT_DISPATCH_PER_STATE_S,
        batch_overhead_s: float = DEFAULT_BATCH_OVERHEAD_S,
        spawn_s: float = DEFAULT_SPAWN_S,
        min_parallel_states: int = DEFAULT_MIN_PARALLEL_STATES,
        min_parallel_serial_s: float = DEFAULT_MIN_PARALLEL_SERIAL_S,
        per_row_s: Optional[float] = None,
    ) -> None:
        if probe_states < 1:
            raise ValueError(f"probe_states must be >= 1, got {probe_states}")
        if min_parallel_states < 2:
            raise ValueError(
                f"min_parallel_states must be >= 2, got {min_parallel_states}"
            )
        for name, value in (
            ("dispatch_per_state_s", dispatch_per_state_s),
            ("batch_overhead_s", batch_overhead_s),
            ("spawn_s", spawn_s),
            ("min_parallel_serial_s", min_parallel_serial_s),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if per_row_s is not None and per_row_s <= 0:
            raise ValueError(f"per_row_s must be > 0, got {per_row_s}")
        self.probe_states = probe_states
        self.dispatch_per_state_s = dispatch_per_state_s
        self.batch_overhead_s = batch_overhead_s
        self.spawn_s = spawn_s
        self.min_parallel_states = min_parallel_states
        self.min_parallel_serial_s = min_parallel_serial_s
        self.per_row_s = per_row_s

    # -- calibration -----------------------------------------------------------

    def probe(
        self, prepared, states: Sequence[DatabaseState]
    ) -> float:
        """Per-row serial cost for ``prepared``, probing at most once.

        Returns the pinned ``per_row_s`` if configured, else the value cached
        on the plan's analysis, else times up to ``probe_states`` sample
        states (spread across the batch) on the serial kernel ``auto``
        resolves to *for this batch* — the vectorized backend when numpy
        imports and the states are big enough to amortize the array toll,
        compiled otherwise — and caches the result keyed by that backend,
        so a vectorized calibration never masquerades as a compiled one.  The
        probed executions go through the plan's encode cache, so a following
        batch re-executes them nearly for free.
        """
        if self.per_row_s is not None:
            return self.per_row_s
        serial = resolve_backend_for("auto", states)
        analysis = analyze(prepared.schema)
        cached = analysis.cached_cost_probe(
            prepared.target, root=prepared.root, backend=serial
        )
        if cached is not None:
            return cached
        count = len(states)
        picks = sorted(
            {
                index * (count - 1) // max(1, self.probe_states - 1)
                for index in range(min(self.probe_states, count))
            }
        )
        samples = [states[index] for index in picks]
        rows = sum(state.total_rows() for state in samples)
        plan = (
            prepared.vectorized if serial == "vectorized" else prepared.compiled
        )
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

    def is_degenerate(self, states: Sequence[DatabaseState]) -> bool:
        """True for batches where spawning a pool can never pay: empty, a
        single unique state, or no rows at all.  This is the (deliberately
        narrow) test the one-shot ``backend="parallel"`` path applies — an
        explicit parallel request is otherwise honored as given."""
        if not states:
            return True
        unique_states, unique_rows = _dedup_profile(states)
        return unique_states <= 1 or unique_rows == 0

    def decide(
        self,
        prepared,
        states: Sequence[DatabaseState],
        *,
        workers: int,
        pool_live: bool = False,
    ) -> RoutingDecision:
        """Route a batch: the in-process serial kernel vs the supervised pool.

        ``workers`` is the pool width a parallel route would use;
        ``pool_live`` suppresses the spawn charge when a warm pool already
        exists (the long-lived service case).
        """
        state_list = (
            states if isinstance(states, (list, tuple)) else list(states)
        )
        count = len(state_list)
        unique_states, unique_rows = _dedup_profile(state_list)
        serial_backend = resolve_backend_for("auto", state_list)

        def compiled(rule: str, reason: str, **estimates) -> RoutingDecision:
            return RoutingDecision(
                backend=serial_backend,
                rule=rule,
                reason=reason,
                states=count,
                unique_states=unique_states,
                unique_rows=unique_rows,
                **estimates,
            )

        if count == 0:
            return compiled("empty", "empty batch: nothing to execute")
        if unique_states <= 1:
            return compiled(
                "single-unique",
                "a single unique state cannot be parallelized across shards",
            )
        if unique_rows == 0:
            return compiled(
                "all-empty", "all states are empty; execution is trivial"
            )
        if workers < 2:
            return compiled(
                "narrow-pool",
                f"pool width {workers} offers no parallelism",
            )
        if unique_states < self.min_parallel_states:
            return compiled(
                "small-batch",
                f"{unique_states} unique state(s) is below the "
                f"min_parallel_states={self.min_parallel_states} gate",
            )
        per_row = self.probe(prepared, state_list)
        serial = per_row * unique_rows
        if serial < self.min_parallel_serial_s:
            return compiled(
                "thin-serial",
                f"estimated serial cost {serial * 1e3:.2f} ms is below the "
                f"min_parallel_serial_s={self.min_parallel_serial_s * 1e3:g} ms gate",
                per_row_s=per_row,
                estimated_serial_s=serial,
            )
        parallel = (
            self.batch_overhead_s
            + self.dispatch_per_state_s * unique_states
            + serial / workers
            + (0.0 if pool_live else self.spawn_s)
        )
        if parallel < serial:
            return RoutingDecision(
                backend="parallel",
                rule="parallel-wins",
                reason=(
                    f"estimated {parallel * 1e3:.1f} ms on {workers} workers "
                    f"vs {serial * 1e3:.1f} ms in-process"
                ),
                states=count,
                unique_states=unique_states,
                unique_rows=unique_rows,
                per_row_s=per_row,
                estimated_serial_s=serial,
                estimated_parallel_s=parallel,
            )
        return compiled(
            "parallel-loses",
            f"estimated {parallel * 1e3:.1f} ms on {workers} workers does "
            f"not beat {serial * 1e3:.1f} ms in-process",
            per_row_s=per_row,
            estimated_serial_s=serial,
            estimated_parallel_s=parallel,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RoutingPolicy(min_parallel_states={self.min_parallel_states}, "
            f"min_parallel_serial_s={self.min_parallel_serial_s}, "
            f"dispatch_per_state_s={self.dispatch_per_state_s})"
        )
