"""The supervised executor's recovery matrix, driven by deterministic faults.

Every scenario arms a fault point of :mod:`repro.engine.faults` (fresh fault
directory per scenario — firing slots are claimed by file creation and
persist), builds a pool *after* arming (workers inherit the environment at
spawn/fork time), and holds the recovered batch to the PR 3/4 oracle
standard: hypothesis-equal to ``backend="classic"``, in input order.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings

from repro.engine import ParallelExecutor, analyze
from repro.engine import faults, parallel
from repro.exceptions import (
    ExecutionError,
    ReproError,
    ShardExecutionError,
    ShardTimeoutError,
    StatePicklingError,
    WorkerCrashError,
)
from repro.hypergraph import RelationSchema, chain_schema
from repro.relational import DatabaseState, Relation
from strategies import instances


def _assert_parallel_matches_classic(classic_runs, parallel_runs) -> None:
    assert len(classic_runs) == len(parallel_runs)
    for classic, parallel in zip(classic_runs, parallel_runs):
        assert parallel.result == classic.result
        assert parallel.semijoin_count == classic.semijoin_count
        assert parallel.join_count == classic.join_count
        assert parallel.max_intermediate_size == classic.max_intermediate_size
        assert classic.backend == "classic"
        assert parallel.backend == "parallel"

_ALL_FAULT_VARS = (
    faults.ENV_FAULT_DIR,
    faults.ENV_CRASH,
    faults.ENV_HANG,
    faults.ENV_TRANSIENT,
    faults.ENV_POISON,
)


@contextlib.contextmanager
def armed(**env):
    """Arm exactly the given fault points against a fresh fault directory.

    Saves and restores every fault variable manually (rather than through the
    ``monkeypatch`` fixture) so the hypothesis-driven tests can re-arm per
    example without mixing function-scoped fixtures into ``@given``.
    """
    directory = tempfile.mkdtemp(prefix="repro-faults-")
    saved = {name: os.environ.pop(name, None) for name in _ALL_FAULT_VARS}
    os.environ[faults.ENV_FAULT_DIR] = directory
    for name, value in env.items():
        os.environ[name] = value
    try:
        yield directory
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(directory, ignore_errors=True)


def _chain_states(schema, count, *, salt=0):
    return [
        DatabaseState(
            schema,
            [
                Relation(
                    relation,
                    [(i + salt + index, i + salt + index + 1) for i in range(3)],
                )
                for relation in schema.relations
            ],
        )
        for index in range(count)
    ]


def _poison_state(schema):
    """A state whose every relation contains the poison sentinel."""
    return DatabaseState(
        schema,
        [
            Relation(relation, [(faults.POISON_VALUE, 1), (2, 3)])
            for relation in schema.relations
        ],
    )


@pytest.fixture(autouse=True)
def immediate_retries(monkeypatch):
    """Retry at once: the recovery paths, not the backoff sleeps, are under
    test.  (Autouse function-scoped fixtures pass hypothesis's health
    check.)"""
    monkeypatch.setattr(parallel, "DEFAULT_RETRY_BACKOFF", 0.0)


@pytest.fixture()
def prepared():
    schema = chain_schema(3)
    return analyze(schema).prepare(RelationSchema({"x0", "x3"}))


class TestCrashRecovery:
    def test_crash_on_first_shard_recovers_transparently(self, prepared):
        schema = prepared.schema
        states = _chain_states(schema, 6)
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_CRASH: "1"}):
            with ParallelExecutor(workers=2) as executor:
                runs = executor.execute_many(prepared, states)
                assert executor.restarts >= 1
                assert executor.healthy  # the pool was respawned, not lost
        _assert_parallel_matches_classic(classic, runs)
        stats = runs[0].stats
        assert stats.respawns >= 1
        assert stats.quarantined == []
        assert stats.states == sum(stats.shard_sizes) + stats.fallback_runs

    def test_pool_stays_usable_after_recovery(self, prepared):
        schema = prepared.schema
        states = _chain_states(schema, 4)
        with armed(**{faults.ENV_CRASH: "1"}):
            with ParallelExecutor(workers=2) as executor:
                first = executor.execute_many(prepared, states)
                assert first[0].stats.respawns >= 1
                # The crash slot is consumed: the next batch is clean.
                second = executor.execute_many(
                    prepared, _chain_states(schema, 4, salt=50)
                )
                assert second[0].stats.respawns == 0
                assert executor.healthy
        classic = prepared.execute_many(
            _chain_states(schema, 4, salt=50), backend="classic"
        )
        _assert_parallel_matches_classic(classic, second)

    def test_respawn_budget_exhaustion_raises_worker_crash_error(
        self, prepared, monkeypatch
    ):
        # Every poison execution kills its worker and the sentinel state
        # keeps being resubmitted, so a tiny respawn budget must trip.
        monkeypatch.setattr(parallel, "DEFAULT_MAX_RESPAWNS", 1)
        schema = prepared.schema
        states = [_poison_state(schema)]
        with armed(**{faults.ENV_POISON: "crash"}):
            with ParallelExecutor(workers=1, max_retries=3) as executor:
                with pytest.raises(WorkerCrashError) as info:
                    executor.execute_many(prepared, states)
        assert isinstance(info.value, ReproError)


class TestHangRecovery:
    def test_hang_past_timeout_recovers(self, prepared):
        schema = prepared.schema
        states = _chain_states(schema, 4)
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_HANG: "1:30"}):
            with ParallelExecutor(workers=2, shard_timeout=1.0) as executor:
                runs = executor.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic, runs)
        stats = runs[0].stats
        assert stats.timeouts >= 1
        assert stats.respawns >= 1

    def test_repeated_hang_quarantines_without_in_process_retry(self, prepared):
        # A state that hangs on every attempt must never reach the
        # in-process fallback (that would hang the serving process); it
        # quarantines with a ShardTimeoutError instead.
        schema = prepared.schema
        states = [_poison_state(schema)]  # any single state; hang is counted
        with armed(**{faults.ENV_HANG: "10:30"}):
            with ParallelExecutor(
                workers=1, shard_timeout=0.5, max_retries=1
            ) as executor:
                with pytest.raises(ShardExecutionError) as info:
                    executor.execute_many(prepared, states)
        error = info.value
        assert error.state_indices == (0,)
        cause = error.causes[0]
        assert isinstance(cause, ShardTimeoutError)
        assert cause.state_indices == (0,)

    def test_repeated_hang_degrades_to_partial_results(self, prepared, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_SHARDS_PER_WORKER", 1)
        schema = prepared.schema
        good = _chain_states(schema, 2)
        with armed(**{faults.ENV_HANG: "10:30"}):
            with ParallelExecutor(
                workers=1, shard_timeout=0.5, max_retries=0
            ) as executor:
                runs = executor.execute_many(
                    prepared, good, failure_policy="degrade"
                )
        # The hang is counted, not content-targeted: with one worker and one
        # shard per worker both states share the first (hanging) shard, the
        # bisected halves hang again, and both end up quarantined.
        assert runs == [None, None]


class TestTransientFailures:
    def test_transient_succeeds_on_retry(self, prepared):
        schema = prepared.schema
        states = _chain_states(schema, 6)
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_TRANSIENT: "2"}):
            with ParallelExecutor(workers=2, max_retries=2) as executor:
                runs = executor.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic, runs)
        stats = runs[0].stats
        assert stats.retries >= 1
        assert stats.respawns == 0  # clean exceptions never break the pool
        assert stats.quarantined == []

    def test_exhausted_retries_bisect_then_fall_back(self, prepared, monkeypatch):
        # With a zero retry budget and a fault that fires on *every* shard
        # attempt, a 4-state shard must bisect 4 -> (2, 2) -> 4 singletons
        # and recover every state on the in-process backend.
        monkeypatch.setattr(parallel, "DEFAULT_SHARDS_PER_WORKER", 1)
        schema = prepared.schema
        states = _chain_states(schema, 4)
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_TRANSIENT: "100"}):
            with ParallelExecutor(workers=1, max_retries=0) as executor:
                runs = executor.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic, runs)
        stats = runs[0].stats
        assert stats.bisections == 3
        assert stats.fallback_runs == 4
        assert stats.states == sum(stats.shard_sizes) + stats.fallback_runs


class TestPoisonQuarantine:
    def test_worker_only_poison_recovers_in_process(self, prepared):
        schema = prepared.schema
        good = _chain_states(schema, 2)
        states = [good[0], _poison_state(schema), good[1]]
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_POISON: "worker"}):
            with ParallelExecutor(workers=2, max_retries=0) as executor:
                runs = executor.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic, runs)
        stats = runs[0].stats
        assert stats.fallback_runs == 1
        assert stats.quarantined == []

    def test_crashing_poison_recovers_in_process(self, prepared):
        schema = prepared.schema
        states = [_poison_state(schema)] + _chain_states(schema, 3)
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_POISON: "crash"}):
            with ParallelExecutor(workers=2, max_retries=1) as executor:
                runs = executor.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic, runs)
        stats = runs[0].stats
        assert stats.respawns >= 1
        assert stats.fallback_runs >= 1
        assert stats.quarantined == []

    def test_unrecoverable_poison_raises_with_attribution(self, prepared):
        schema = prepared.schema
        good = _chain_states(schema, 2)
        states = [good[0], _poison_state(schema), good[1]]
        with armed(**{faults.ENV_POISON: "always"}):
            with ParallelExecutor(workers=2, max_retries=0) as executor:
                with pytest.raises(ShardExecutionError) as info:
                    executor.execute_many(prepared, states)
        error = info.value
        assert error.state_indices == (1,)
        assert isinstance(error.causes[1], faults.InjectedFault)
        assert isinstance(error, ExecutionError)

    def test_degrade_returns_partial_results_in_input_order(self, prepared):
        schema = prepared.schema
        good = _chain_states(schema, 3)
        poison = _poison_state(schema)
        # The poison state appears twice (dedup shares its quarantine).
        states = [good[0], poison, good[1], poison, good[2]]
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_POISON: "always"}):
            with ParallelExecutor(workers=2, max_retries=0) as executor:
                runs = executor.execute_many(
                    prepared, states, failure_policy="degrade"
                )
        assert runs[1] is None and runs[3] is None
        survivors = [runs[0], runs[2], runs[4]]
        expected = [classic[0], classic[2], classic[4]]
        _assert_parallel_matches_classic(expected, survivors)
        stats = runs[0].stats
        assert stats.quarantined == [1, 3]
        assert stats.failure_policy == "degrade"

    def test_executor_wide_degrade_default(self, prepared):
        schema = prepared.schema
        states = [_poison_state(schema), _chain_states(schema, 1)[0]]
        with armed(**{faults.ENV_POISON: "always"}):
            with ParallelExecutor(
                workers=1, max_retries=0, failure_policy="degrade"
            ) as executor:
                runs = executor.execute_many(prepared, states)
                assert runs[0] is None and runs[1] is not None
                # A per-batch override flips back to raising.
                with pytest.raises(ShardExecutionError):
                    executor.execute_many(prepared, states, failure_policy="raise")


class TestPicklingFailures:
    def test_unpicklable_state_recovers_in_process(self, prepared):
        schema = prepared.schema
        good = _chain_states(schema, 2)
        bad = DatabaseState(
            schema,
            [
                # A lambda is hashable (Relation accepts it) but unpicklable,
                # so the shard submission fails in the pool's feeder thread.
                Relation(relation, [((lambda: 1), 1)])
                for relation in schema.relations
            ],
        )
        states = [good[0], bad, good[1]]
        classic = prepared.execute_many(states, backend="classic")
        # armed() with no faults shields this test from the chaos CI job's
        # globally armed fault points: the assertions below pin down the
        # pickling path specifically.
        with armed():
            with ParallelExecutor(workers=2) as executor:
                runs = executor.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic, runs)
        stats = runs[0].stats
        assert stats.fallback_runs == 1
        assert stats.respawns == 0

    def test_unpicklable_and_failing_state_names_its_index(self, prepared):
        schema = prepared.schema
        good = _chain_states(schema, 2)
        bad = DatabaseState(
            schema,
            [
                Relation(relation, [((lambda: 1), faults.POISON_VALUE)])
                for relation in schema.relations
            ],
        )
        states = [good[0], good[1], bad]
        # Poison "always" makes the in-process fallback fail too, so the
        # opaque PicklingError must surface as a structured error naming the
        # offending input position.
        with armed(**{faults.ENV_POISON: "always"}):
            with ParallelExecutor(workers=2, max_retries=0) as executor:
                with pytest.raises(ShardExecutionError) as info:
                    executor.execute_many(prepared, states)
        cause = info.value.causes[2]
        assert isinstance(cause, StatePicklingError)
        assert cause.state_index == 2


class TestRecoveredBatchesMatchClassic:
    """The acceptance-criteria property: with faults injected, recovered
    parallel batches stay hypothesis-equal to ``backend="classic"``."""

    @settings(max_examples=8, deadline=None)
    @given(instances("tree"))
    def test_crash_recovery_equivalence(self, instance):
        prepared = instance.prepare()
        states = instance.states
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_CRASH: "1"}):
            with ParallelExecutor(workers=2) as executor:
                runs = executor.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic, runs)

    @settings(max_examples=8, deadline=None)
    @given(instances("tree"))
    def test_transient_recovery_equivalence(self, instance):
        prepared = instance.prepare()
        states = instance.states
        classic = prepared.execute_many(states, backend="classic")
        with armed(**{faults.ENV_TRANSIENT: "1"}):
            with ParallelExecutor(workers=2) as executor:
                runs = executor.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic, runs)


class TestFaultHarness:
    """The harness itself: parsing, counting, and misconfiguration."""

    def test_counted_faults_require_fault_dir(self, monkeypatch):
        for name in _ALL_FAULT_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(faults.ENV_TRANSIENT, "1")
        with pytest.raises(ValueError, match="REPRO_FAULT_DIR"):
            faults.on_shard_start()

    def test_slots_fire_exactly_n_times(self, monkeypatch):
        for name in _ALL_FAULT_VARS:
            monkeypatch.delenv(name, raising=False)
        directory = tempfile.mkdtemp(prefix="repro-faults-")
        monkeypatch.setenv(faults.ENV_FAULT_DIR, directory)
        monkeypatch.setenv(faults.ENV_TRANSIENT, "2")
        fired = 0
        for _ in range(5):
            try:
                faults.on_shard_start()
            except faults.InjectedFault:
                fired += 1
        assert fired == 2
        shutil.rmtree(directory, ignore_errors=True)

    def test_poison_detection_and_mode_validation(self, monkeypatch):
        schema = chain_schema(2)
        assert faults.state_is_poison(_poison_state(schema))
        assert not faults.state_is_poison(_chain_states(schema, 1)[0])
        monkeypatch.setenv(faults.ENV_POISON, "sometimes")
        with pytest.raises(ValueError, match="REPRO_FAULT_POISON"):
            faults.poison_mode()

    def test_injected_fault_is_not_a_repro_error(self):
        # The harness stands in for arbitrary third-party failures; the
        # supervision layer must not be able to special-case it.
        assert not issubclass(faults.InjectedFault, ReproError)

    def test_malformed_counts_rejected(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_HANG, "soon")
        with pytest.raises(ValueError, match="REPRO_FAULT_HANG"):
            faults.on_shard_start()
        monkeypatch.setenv(faults.ENV_HANG, "1:fast")
        with pytest.raises(ValueError, match="REPRO_FAULT_HANG"):
            faults.on_shard_start()
