"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class SchemaError(ReproError):
    """Raised when a relation or database schema is malformed or misused."""


class ParseError(SchemaError):
    """Raised when the textual schema notation cannot be parsed."""


class NotATreeSchemaError(SchemaError):
    """Raised when an operation requires a tree (acyclic) schema but the
    supplied schema is cyclic."""


class NotASubSchemaError(SchemaError):
    """Raised when an operation requires ``D' <= D`` (every relation schema of
    ``D'`` contained in some relation schema of ``D``) and the condition fails."""


class QualGraphError(ReproError):
    """Raised when a graph is not a valid qual graph for a schema."""


class GYOError(ReproError):
    """Raised when an invalid GYO operation is attempted (e.g. deleting a
    sacred attribute, or eliminating a relation that is not a subset)."""


class TableauError(ReproError):
    """Raised for malformed tableaux or invalid containment mappings."""


class RelationError(ReproError):
    """Raised for malformed relation states or invalid algebra operations."""


class ProgramError(ReproError):
    """Raised when a join/project/semijoin program is malformed or references
    unknown relations."""


class TreeProjectionError(ReproError):
    """Raised when tree-projection search is invoked on invalid inputs."""


class TreeficationError(ReproError):
    """Raised for invalid treefication problem instances."""


class SearchBudgetExceeded(ReproError):
    """Raised when a worst-case-exponential search exceeds its explicit budget.

    The library keeps exponential searches (Lemma 3.1 witnesses, weak
    gamma-cycle enumeration, exact tree-projection search, exact Fixed
    Treefication) behind explicit budgets so that callers never hit a silent
    blow-up.  Catching this exception and retrying with a larger budget is
    always safe.
    """


class CatalogError(ReproError):
    """Base class for persistent plan-catalog failures.

    Raised only by catalog construction with ``create=False`` on a missing
    directory.  The serving-path catalog methods
    (:meth:`repro.engine.catalog.PlanCatalog.load` /
    :meth:`~repro.engine.catalog.PlanCatalog.store`) never raise: disk
    failures degrade to in-memory-only operation and corrupt records are
    quarantined, both recorded in
    :class:`~repro.engine.catalog.CatalogStats`.
    """


class CatalogCorruptionError(CatalogError):
    """A persisted record failed verification.

    Covers every defended failure shape: truncated header or payload, bad
    magic, a format version this library does not speak, checksum mismatch,
    trailing garbage, payloads that are not the expected JSON structure, and
    restored tree projections that fail the meaning check.  ``path`` names
    the offending file when known.
    """

    def __init__(self, message: str, path: "str | None" = None) -> None:
        super().__init__(message)
        #: Filesystem path of the record that failed verification.
        self.path = path


class ExecutionError(ReproError):
    """Base class for runtime execution failures of the serving layer.

    Planning and schema errors stay under :class:`SchemaError`; this branch
    of the hierarchy covers failures that happen while *executing* a compiled
    plan — worker processes dying, shards timing out, states that cannot
    cross a process boundary.  Every subclass is raised by the parallel
    executor's supervision machinery (:mod:`repro.engine.parallel`).
    """


class AdmissionError(ExecutionError):
    """A submission was refused by the query service's admission control.

    Raised by :class:`repro.engine.service.QueryService` when a batch alone
    exceeds its ``max_inflight_states``, when accepting it would push the
    service past that limit and the caller asked not to block
    (``wait=False``), or when the admission wait exceeded the caller's
    timeout.  Carries the state counts involved so callers can shed load
    intelligently: retry later, shrink the batch, or route elsewhere.
    """

    def __init__(
        self,
        message: str,
        *,
        requested_states: int = 0,
        inflight_states: int = 0,
    ) -> None:
        super().__init__(message)
        #: States in the refused submission.
        self.requested_states = requested_states
        #: States already admitted and not yet completed.
        self.inflight_states = inflight_states


class WorkerCrashError(ExecutionError):
    """A worker process died (segfault, ``os._exit``, OOM kill) and the pool
    could not be recovered within the respawn budget.

    While the respawn budget lasts, worker death is handled transparently —
    the pool is respawned and only the lost shards are resubmitted — so this
    error surfaces only when crashes (and timeout kills) in one batch exceed
    :data:`repro.engine.parallel.DEFAULT_MAX_RESPAWNS`.
    """


class ShardTimeoutError(ExecutionError):
    """A shard exceeded ``shard_timeout`` and its worker had to be killed.

    Carries ``state_indices`` — the input positions of the states that kept
    timing out after retry and bisection isolated them.  Timed-out states are
    never retried on the in-process backend (an in-process hang would stall
    the caller forever), so repeated timeout leads directly here or, under
    ``failure_policy="degrade"``, to quarantine.
    """

    def __init__(self, message: str, state_indices: "tuple" = ()) -> None:
        super().__init__(message)
        #: Input positions of the states attributed to the timeout.
        self.state_indices = tuple(state_indices)


class StatePicklingError(ExecutionError):
    """A database state (or the plan spec) could not be pickled across the
    process boundary.

    ``state_index`` names the offending state's input position, or ``None``
    when the failure is attributed to the plan spec itself.  The parallel
    executor converts the opaque ``PicklingError`` a worker submission
    produces into this error by probing each state of the failed shard
    individually; unpicklable states are first retried on the in-process
    compiled backend, so this surfaces only when that fallback also fails.
    """

    def __init__(self, message: str, state_index: "int | None" = None) -> None:
        super().__init__(message)
        #: Input position of the unpicklable state (``None``: the spec).
        self.state_index = state_index


class ShardExecutionError(ExecutionError):
    """A batch finished with quarantined states under ``failure_policy="raise"``.

    The structured summary of everything the supervision machinery could not
    recover: ``state_indices`` holds the input positions of the quarantined
    states and ``causes`` maps each of those positions to the terminal
    exception recorded for it (an :class:`ExecutionError` subclass, or the
    original worker exception for plain execution failures).  Under
    ``failure_policy="degrade"`` the same attribution is reported through
    ``ParallelStats.quarantined`` instead of raising.
    """

    def __init__(self, message: str, causes: "dict" = ()) -> None:
        super().__init__(message)
        #: Input position -> terminal exception for every quarantined state.
        self.causes = dict(causes)

    @property
    def state_indices(self) -> "tuple":
        """Input positions of the quarantined states, sorted."""
        return tuple(sorted(self.causes))
