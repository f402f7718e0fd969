"""The sharded multi-process executor: parallel ≡ classic, order, lifecycle.

The pool is expensive relative to the tiny hypothesis states, so the whole
module shares one two-worker :class:`~repro.engine.ParallelExecutor`; that is
also the realistic serving shape (one long-lived pool, many batches) and what
makes the at-most-once-compile-per-worker property observable across calls.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings

from repro.engine import (
    ParallelExecutor,
    ParallelStats,
    PlanSpec,
    analyze,
    prepared_from_spec,
)
from repro.engine.parallel import (
    plan_shards,
    resolve_failure_policy,
    resolve_max_retries,
    resolve_shard_timeout,
    resolve_worker_count,
)
from repro.hypergraph import DatabaseSchema, RelationSchema, chain_schema
from repro.relational import DatabaseState, Relation
from strategies import instances


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(workers=2) as executor:
        yield executor


def _assert_parallel_matches_classic(classic_runs, parallel_runs) -> None:
    assert len(classic_runs) == len(parallel_runs)
    for classic, parallel in zip(classic_runs, parallel_runs):
        assert parallel.result == classic.result
        assert parallel.semijoin_count == classic.semijoin_count
        assert parallel.join_count == classic.join_count
        assert parallel.max_intermediate_size == classic.max_intermediate_size
        assert classic.backend == "classic"
        assert parallel.backend == "parallel"


class TestParallelEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(instances("tree", max_states=6))
    def test_parallel_matches_classic_in_input_order(self, pool, instance):
        """Random tree schemas/states (empty relations, dangling tuples,
        mixed value types, repeated states): parallel ≡ classic, and the
        ``i``-th run answers the ``i``-th input state."""
        prepared = instance.prepare()
        states = instance.states
        classic_runs = prepared.execute_many(states, backend="classic")
        parallel_runs = pool.execute_many(prepared, states)
        _assert_parallel_matches_classic(classic_runs, parallel_runs)

    @settings(max_examples=10, deadline=None)
    @given(instances("tree", max_states=3))
    def test_one_shot_backend_kwarg(self, instance):
        """``execute_many(backend="parallel", workers=N)`` without a reusable
        executor: same answers, one-shot pool per call."""
        prepared = instance.prepare()
        states = instance.states
        classic_runs = prepared.execute_many(states, backend="classic")
        parallel_runs = prepared.execute_many(
            states, backend="parallel", workers=2
        )
        _assert_parallel_matches_classic(classic_runs, parallel_runs)

    def test_duplicate_states_deduped_and_aligned(self, pool):
        schema = chain_schema(3)
        target = RelationSchema({"x0", "x3"})
        prepared = analyze(schema).prepare(target)
        base = [
            DatabaseState(
                schema,
                [
                    Relation(relation, [(i, i + offset) for i in range(4)])
                    for relation in schema.relations
                ],
            )
            for offset in (1, 2)
        ]
        states = [base[0], base[1], base[0], base[0], base[1]]
        runs = pool.execute_many(prepared, states)
        classic = prepared.execute_many(states, backend="classic")
        _assert_parallel_matches_classic(classic, runs)
        stats = runs[0].stats
        assert stats.deduped_states == 3
        assert stats.states == 2
        # Duplicate inputs share the duplicate's run object outright.
        assert runs[2] is runs[0] and runs[3] is runs[0] and runs[4] is runs[1]

    def test_empty_batch_and_empty_schema(self, pool):
        schema = chain_schema(2)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        assert pool.execute_many(prepared, []) == []

        from repro.engine import PreparedQuery
        from repro.hypergraph import parse_schema

        empty = PreparedQuery(parse_schema(""), RelationSchema(()))
        empty_state = DatabaseState(parse_schema(""), [])
        runs = pool.execute_many(empty, [empty_state, empty_state])
        assert len(runs) == 2
        assert runs[0].backend == "parallel"
        assert len(runs[0].result) == 1  # nullary true
        # Stats accounting must hold on the empty schema too.
        stats = runs[0].stats
        assert stats.states + stats.deduped_states == 2
        assert stats.states == 1 and stats.deduped_states == 1

    def test_execute_rejects_parallel(self):
        schema = chain_schema(2)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        state = DatabaseState(
            schema, [Relation(relation, []) for relation in schema.relations]
        )
        with pytest.raises(ValueError, match="execute_many"):
            prepared.execute(state, backend="parallel")
        with pytest.raises(ValueError, match="workers"):
            prepared.execute_many([state], backend="classic", workers=2)


class TestStatsAndCompileCounts:
    def _states(self, schema, count, *, salt=0):
        return [
            DatabaseState(
                schema,
                [
                    Relation(
                        relation,
                        [
                            (i + salt + index, i + salt + index + 1)
                            for i in range(3 + index % 3)
                        ],
                    )
                    for relation in schema.relations
                ],
            )
            for index in range(count)
        ]

    def test_shared_merged_stats_with_per_worker_attribution(self, pool):
        schema = chain_schema(4)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x4"}))
        states = self._states(schema, 10)
        runs = pool.execute_many(prepared, states)
        stats = runs[0].stats
        assert isinstance(stats, ParallelStats)
        assert all(run.stats is stats for run in runs)
        assert stats.workers == 2
        assert stats.states + stats.deduped_states == len(states)
        assert sum(stats.shard_sizes) == stats.states
        assert stats.shard_count == len(stats.shard_sizes)
        # Per-worker attribution is a partition of the batch totals.
        assert sum(info["states"] for info in stats.per_worker.values()) == stats.states
        assert (
            sum(info["shards"] for info in stats.per_worker.values())
            == stats.shard_count
        )
        assert (
            sum(info["encoded_slots"] for info in stats.per_worker.values())
            == stats.encoded_slots
        )

    def test_plan_compiled_at_most_once_per_worker(self):
        """The call-count property: across repeated batches on one pool, a
        given PlanSpec is compiled at most once per worker process."""
        schema = chain_schema(5)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x5"}))
        compiles_by_pid: Counter = Counter()
        respawns = 0
        with ParallelExecutor(workers=2) as executor:
            for round_index in range(4):
                states = self._states(schema, 8, salt=100 * round_index)
                runs = executor.execute_many(prepared, states)
                for pid, info in runs[0].stats.per_worker.items():
                    compiles_by_pid[pid] += info["plan_compiles"]
                respawns += runs[0].stats.respawns
        assert compiles_by_pid, "no workers reported"
        assert all(count <= 1 for count in compiles_by_pid.values()), compiles_by_pid
        # Pool width, plus a fresh set of workers per supervised respawn
        # (respawns only happen under the chaos CI job's injected faults).
        assert sum(compiles_by_pid.values()) <= 2 * (1 + respawns)


class TestPlanSpec:
    def test_spec_round_trip_hits_analysis_lru(self):
        schema = chain_schema(3)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x3"}))
        spec = prepared.plan_spec()
        unpickled = pickle.loads(pickle.dumps(spec))
        assert unpickled == spec
        assert hash(unpickled) == hash(spec)
        # Same process, warm LRU: the round-trip returns the *same* object,
        # compiled plan included — no duplicate analysis, no duplicate plan.
        assert prepared_from_spec(unpickled) is prepared

    def test_spec_distinguishes_relation_order(self):
        forward = DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])
        backward = DatabaseSchema([RelationSchema("bc"), RelationSchema("ab")])
        target = RelationSchema("ac")
        first = analyze(forward).prepare(target).plan_spec()
        second = analyze(backward).prepare(target).plan_spec()
        assert first != second  # positional identity, multiset-equal schemas

    def test_spec_fields(self):
        """A spec is the plan's identity and nothing else: no kernel
        settings ride along (the interner cap is a module constant)."""
        from dataclasses import fields

        schema = chain_schema(2)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        spec = PlanSpec.of(prepared)
        assert [field.name for field in fields(PlanSpec)] == [
            "relations",
            "target",
            "root",
            "cyclic",
        ]
        assert spec == prepared.plan_spec()
        assert spec.describe()

    def test_plan_for_spec_reuses_resident_plans(self):
        """The worker builds a spec's serial plan once; a plan already
        resident on the query (shared via the analysis LRU, or inherited
        over fork) is reused and not counted as a build."""
        from repro.engine.parallel import _plan_for_spec, _worker_plans
        from repro.engine.prepared import resolve_backend

        schema = chain_schema(2)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x2"}))
        spec = prepared.plan_spec()
        for backend in {resolve_backend("compiled"), resolve_backend("vectorized")}:
            prepared.reset_compiled()
            _worker_plans.pop(spec, None)
            try:
                serial_a, compiled_a = _plan_for_spec(spec, backend)
                assert compiled_a == 1
                # A fresh worker-cache entry over the same analysis finds
                # the plan already resident.
                _worker_plans.pop(spec, None)
                serial_b, compiled_b = _plan_for_spec(spec, backend)
                assert compiled_b == 0
                assert serial_b is serial_a
                # A worker-cache hit neither rebuilds nor swaps the plan.
                serial_c, compiled_c = _plan_for_spec(spec, backend)
                assert compiled_c == 0
                assert serial_c is serial_a
            finally:
                _worker_plans.pop(spec, None)
                prepared.reset_compiled()

    def test_non_canonical_tree_has_no_spec(self):
        """A query planned over an explicit non-canonical qual tree cannot be
        shipped to workers: re-planning would change the run accounting."""
        from repro.engine import PreparedQuery
        from repro.hypergraph.qual_graph import QualGraph

        schema = DatabaseSchema(
            [RelationSchema("ab"), RelationSchema("b"), RelationSchema("bc")]
        )
        canonical = analyze(schema).qual_tree
        # A different valid qual tree over the same schema (x_b is shared by
        # all three relations, so any tree over {0,1,2} qualifies).
        all_trees = [
            QualGraph(schema, edges)
            for edges in ([(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 2), (1, 2)])
        ]
        other = next(
            tree for tree in all_trees if tree.edges != canonical.edges
        )
        custom = PreparedQuery(schema, RelationSchema("ac"), tree=other)
        with pytest.raises(ValueError, match="non-canonical"):
            custom.plan_spec()
        # An explicit tree that *matches* the canonical one is fine.
        same = PreparedQuery(
            schema, RelationSchema("ac"), tree=QualGraph(schema, canonical.edges)
        )
        assert same.plan_spec() == analyze(schema).prepare(RelationSchema("ac")).plan_spec()


class TestShardPlanner:
    def test_partition_and_order(self):
        costs = [5, 1, 9, 2, 2, 7]
        shards = plan_shards(costs, 3)
        flat = sorted(index for shard in shards for index in shard)
        assert flat == list(range(len(costs)))
        for shard in shards:
            assert shard == sorted(shard)

    def test_largest_first_balances(self):
        # One heavy item must not drag light ones into its shard.
        costs = [100, 1, 1, 1, 1, 1]
        shards = plan_shards(costs, 2)
        heavy = next(shard for shard in shards if 0 in shard)
        assert heavy == [0]

    def test_degenerate_inputs(self):
        assert plan_shards([], 4) == []
        assert plan_shards([3], 4) == [[0]]
        assert plan_shards([1, 2, 3], 1) == [[0, 1, 2]]
        with pytest.raises(ValueError):
            plan_shards([1], 0)

    def test_zero_cost_items_still_spread(self):
        shards = plan_shards([0, 0, 0, 0], 2)
        assert len(shards) == 2
        assert sorted(len(shard) for shard in shards) == [2, 2]


class TestWorkerResolution:
    def test_env_cap_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MAX_WORKERS", "2")
        assert resolve_worker_count(8) == 2
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(None) <= 2

    def test_invalid_requests_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_worker_count(0)
        monkeypatch.setenv("REPRO_PARALLEL_MAX_WORKERS", "zebra")
        with pytest.raises(ValueError):
            resolve_worker_count(4)
        # A cap of 0 is a misconfiguration, not "no cap".
        monkeypatch.setenv("REPRO_PARALLEL_MAX_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_worker_count(4)

    def test_fork_default_is_linux_only(self, monkeypatch):
        from repro.engine.parallel import resolve_start_method

        monkeypatch.setattr("repro.engine.parallel.sys.platform", "darwin")
        assert resolve_start_method() == "spawn"
        monkeypatch.setattr("repro.engine.parallel.sys.platform", "linux")
        assert resolve_start_method() in ("fork", "spawn")  # fork where available
        with pytest.raises(ValueError):
            resolve_start_method("not-a-method")

    def test_shard_timeout_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_SHARD_TIMEOUT", raising=False)
        assert resolve_shard_timeout(None) is None
        assert resolve_shard_timeout(2.5) == 2.5
        monkeypatch.setenv("REPRO_PARALLEL_SHARD_TIMEOUT", "7.5")
        assert resolve_shard_timeout(None) == 7.5
        assert resolve_shard_timeout(1.0) == 1.0  # explicit beats env
        monkeypatch.setenv("REPRO_PARALLEL_SHARD_TIMEOUT", "soon")
        with pytest.raises(ValueError):
            resolve_shard_timeout(None)
        with pytest.raises(ValueError):
            resolve_shard_timeout(0)

    def test_max_retries_resolution(self):
        assert resolve_max_retries(None) == 2  # documented default
        assert resolve_max_retries(0) == 0
        assert resolve_max_retries(1) == 1
        with pytest.raises(ValueError):
            resolve_max_retries(-1)

    def test_failure_policy_validation(self):
        assert resolve_failure_policy("raise") == "raise"
        assert resolve_failure_policy("degrade") == "degrade"
        with pytest.raises(ValueError, match="failure_policy"):
            resolve_failure_policy("ignore")
        with pytest.raises(ValueError, match="failure_policy"):
            ParallelExecutor(workers=1, failure_policy="ignore")

    def test_healthy_and_restarts_introspection(self):
        executor = ParallelExecutor(workers=1)
        # Not yet started: healthy (the next batch spawns the pool).
        assert executor.healthy
        assert executor.restarts == 0
        executor.ensure_started()
        assert executor.healthy
        executor.close()
        assert not executor.healthy
        # close() stays idempotent after the pool is gone.
        executor.close()
        assert executor.restarts == 0

    def test_serial_backends_reject_robustness_kwargs(self):
        schema = chain_schema(2)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        state = DatabaseState(
            schema, [Relation(relation, []) for relation in schema.relations]
        )
        for kwargs in (
            {"shard_timeout": 1.0},
            {"max_retries": 1},
            {"failure_policy": "degrade"},
        ):
            with pytest.raises(ValueError, match="parallel"):
                prepared.execute_many([state], backend="compiled", **kwargs)

    def test_closed_executor_rejects_work(self):
        executor = ParallelExecutor(workers=1)
        executor.close()
        schema = chain_schema(2)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        state = DatabaseState(
            schema, [Relation(relation, []) for relation in schema.relations]
        )
        with pytest.raises(RuntimeError):
            executor.execute_many(prepared, [state])

    def test_executor_workers_kwarg_conflict(self, pool):
        schema = chain_schema(2)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        state = DatabaseState(
            schema, [Relation(relation, []) for relation in schema.relations]
        )
        with pytest.raises(ValueError, match="executor"):
            prepared.execute_many([state], executor=pool, workers=3)
        runs = prepared.execute_many([state], executor=pool)
        assert runs[0].backend == "parallel"

    def test_explicit_serial_backend_refuses_executor(self, pool):
        """backend='compiled'/'classic' must not be silently upgraded to the
        pool an executor provides (only 'parallel' and 'auto' opt in)."""
        schema = chain_schema(2)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        state = DatabaseState(
            schema, [Relation(relation, []) for relation in schema.relations]
        )
        for backend in ("compiled", "classic"):
            with pytest.raises(ValueError, match="executor"):
                prepared.execute_many([state], backend=backend, executor=pool)
