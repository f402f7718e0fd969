"""The streaming query service: routing, admission, affinity, degrade items."""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings

from repro.engine import QueryService, analyze, clear_analysis_cache
from repro.engine import faults
from repro.engine import service as service_module
from repro.engine.prepared import resolve_backend_for
from repro.engine.service import StreamItem
from repro.exceptions import AdmissionError, ShardExecutionError
from repro.hypergraph import RelationSchema, chain_schema
from repro.relational import DatabaseState, Relation
from repro.relational.universal import random_ur_database
from strategies import instances


def _states(schema, count, *, rows=3, salt=0):
    return [
        DatabaseState(
            schema,
            [
                Relation(
                    relation,
                    [(i + salt + index, i + salt + index + 1) for i in range(rows)],
                )
                for relation in schema.relations
            ],
        )
        for index in range(count)
    ]


@pytest.fixture()
def prepared():
    schema = chain_schema(3)
    return analyze(schema).prepare(RelationSchema({"x0", "x3"}))


@pytest.fixture(scope="module")
def service():
    with QueryService(workers=2) as shared:
        yield shared


@contextlib.contextmanager
def _poison_armed(mode="always"):
    saved = os.environ.pop(faults.ENV_POISON, None)
    os.environ[faults.ENV_POISON] = mode
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(faults.ENV_POISON, None)
        else:
            os.environ[faults.ENV_POISON] = saved


class TestEquivalence:
    """Serial backends through ``submit`` and ``stream`` are cells of the
    oracle matrix (``tests/test_oracle_matrix.py``); the process pool stays
    here with the rest of the pool's tests."""

    @settings(max_examples=8, deadline=None)
    @given(instances("tree"))
    def test_submit_parallel_override_matches_classic(self, service, instance):
        prepared = instance.prepare()
        states = instance.states
        classic = prepared.execute_many(states, backend="classic")
        handle = service.submit(prepared, states, backend="parallel")
        runs = handle.result(timeout=120)
        assert [run.result for run in runs] == [run.result for run in classic]
        assert handle.decision.backend == "parallel"
        assert handle.decision.rule in ("override", "override-degenerate")
        assert all(run.backend == "parallel" for run in runs)

    def test_execute_many_is_submit_plus_result(self, service, prepared):
        states = _states(prepared.schema, 3)
        runs = service.execute_many(prepared, states)
        classic = prepared.execute_many(states, backend="classic")
        assert [run.result for run in runs] == [run.result for run in classic]


class TestRouting:
    def test_classic_override_honored(self, service, prepared):
        states = _states(prepared.schema, 3)
        handle = service.submit(prepared, states, backend="classic")
        runs = handle.result(timeout=60)
        assert handle.decision.backend == "classic"
        assert handle.decision.rule == "override"
        assert all(run.backend == "classic" for run in runs)

    def test_auto_routes_thin_batch_in_process(self, service, prepared):
        # 3 tiny states sit far under min_parallel_states: the small-batch
        # gate keeps them on the compiled backend without probing timing
        # (tiny states never upgrade to the vectorized kernel).
        states = _states(prepared.schema, 3)
        handle = service.submit(prepared, states)
        handle.result(timeout=60)
        assert handle.decision.backend == "compiled"
        assert handle.decision.rule == "small-batch"
        assert service.stats.backends.get("compiled", 0) >= 1

    def test_auto_routes_heavy_batch_to_a_warm_pool(self):
        # service-mixed's heavy request: 64 fresh chain-5 UR states of 40
        # tuples over 12 values.  The probe is pinned near its measured
        # value (~5 us per row), so the verdict does not hang on host speed:
        # ~56 ms in-process against ~36 ms on a warm two-worker pool, while
        # a cold pool's spawn charge keeps the batch in-process.
        clear_analysis_cache()
        schema = chain_schema(5)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x5"}))
        states = [
            random_ur_database(schema, tuple_count=40, domain_size=12, rng=seed)
            for seed in range(64)
        ]
        analyze(schema).store_cost_probe(
            prepared.target,
            5e-6,
            root=prepared.root,
            backend=resolve_backend_for("auto", states, query=prepared),
        )
        classic = [prepared.execute(state, backend="classic").result for state in states]
        with QueryService(workers=2) as svc:
            cold = svc.submit(prepared, states)
            cold.result(timeout=120)
            svc.execute_many(prepared, states[:4], backend="parallel")
            warm = svc.submit(prepared, states)
            runs = warm.result(timeout=120)
        clear_analysis_cache()
        assert (cold.decision.backend, cold.decision.rule) == ("compiled", "parallel-loses")
        assert (warm.decision.backend, warm.decision.rule) == ("parallel", "parallel-wins")
        assert warm.decision.estimated_parallel_s < warm.decision.estimated_serial_s
        assert {run.backend for run in runs} == {"parallel"}
        assert runs[0].stats.workers == 2
        assert [run.result for run in runs] == classic

    def test_degenerate_parallel_override_stays_in_process(self, service, prepared):
        state = _states(prepared.schema, 1)[0]
        handle = service.submit(prepared, [state, state], backend="parallel")
        runs = handle.result(timeout=60)
        assert handle.decision.rule == "override-degenerate"
        assert handle.decision.states == 2
        assert handle.decision.unique_states == 1
        assert handle.decision.unique_rows == state.total_rows()
        assert runs[0].stats.workers == 0
        assert runs[0].stats.routed_in_process == 1

    def test_decisions_recorded_in_stats(self, prepared):
        with QueryService(workers=2) as fresh:
            fresh.execute_many(prepared, _states(prepared.schema, 2))
            fresh.execute_many(
                prepared, _states(prepared.schema, 2), backend="classic"
            )
            stats = fresh.stats.as_dict()
        assert stats["submitted_batches"] == 2
        assert stats["submitted_states"] == 4
        assert stats["rules"].get("override") == 1


class TestStreamingOverlap:
    def test_stream_yields_before_final_shard_completes(self, prepared):
        """The acceptance property: at least one item arrives while another
        shard is still executing (i.e. streaming is not a batch barrier)."""
        schema = prepared.schema
        fast = _states(schema, 6)
        blocker = _states(schema, 1, salt=1000)[0]
        entered = threading.Event()
        release = threading.Event()

        with QueryService(workers=2) as svc:
            original = svc._execute_batch

            def gated(prepared_arg, states_arg, *args, **kwargs):
                if blocker in states_arg:
                    entered.set()
                    # Block *before* any lock is taken so other shards keep
                    # flowing through the in-process path.
                    assert release.wait(timeout=60)
                return original(prepared_arg, states_arg, *args, **kwargs)

            svc._execute_batch = gated
            streamed = svc.stream(prepared, fast + [blocker], backend="classic")
            assert streamed.shard_count >= 2
            iterator = iter(streamed)
            # Consume items while the blocker shard is held at its gate (or
            # not yet dispatched — lazy dispatch is itself backpressure).
            # Stop before the only outstanding shard is the gated one, so
            # the iterator never blocks on a shard we have to release.
            early = []
            for item in iterator:
                early.append(item)
                if entered.is_set() or len(early) >= len(fast):
                    break
            # Items arrived while the final shard had provably not
            # completed: its gate never released.
            assert not release.is_set()
            assert len(early) >= 1
            assert all(item.index != 6 for item in early)
            release.set()
            rest = list(iterator)
            assert entered.is_set()
        indices = sorted(item.index for item in early + rest)
        assert indices == list(range(7))

    def test_stream_items_carry_input_positions_for_duplicates(
        self, service, prepared
    ):
        state_a, state_b = _states(prepared.schema, 2)
        batch = [state_a, state_b, state_a, state_a]
        items = list(service.stream(prepared, batch))
        assert sorted(item.index for item in items) == [0, 1, 2, 3]
        expected = prepared.execute_many(batch, backend="classic")
        by_index = {item.index: item.run for item in items}
        for position, run in enumerate(expected):
            assert by_index[position].result == run.result


class TestAdmission:
    def test_oversized_submission_rejected_immediately(self, prepared):
        states = _states(prepared.schema, 3)
        with QueryService(workers=2, max_inflight_states=2) as svc:
            with pytest.raises(AdmissionError) as excinfo:
                svc.submit(prepared, states)
            error = excinfo.value
            assert error.requested_states == 3
            assert error.inflight_states == 0
            assert svc.stats.admission_rejections == 1

    def test_wait_false_rejects_when_full(self, prepared):
        states = _states(prepared.schema, 2)
        with QueryService(workers=2, max_inflight_states=2) as svc:
            svc._admit(2, wait=True, timeout=None)
            try:
                with pytest.raises(AdmissionError) as excinfo:
                    svc.submit(prepared, states[:1], wait=False)
                assert excinfo.value.inflight_states == 2
            finally:
                svc._release(2)
            # Capacity restored: the same submission now sails through.
            svc.execute_many(prepared, states[:1])

    def test_wait_timeout_raises(self, prepared):
        states = _states(prepared.schema, 1)
        with QueryService(workers=2, max_inflight_states=1) as svc:
            svc._admit(1, wait=True, timeout=None)
            try:
                with pytest.raises(AdmissionError, match="timed out"):
                    svc.submit(prepared, states, timeout=0.05)
                assert svc.stats.admission_waits >= 1
            finally:
                svc._release(1)

    def test_admission_released_after_completion(self, service, prepared):
        states = _states(prepared.schema, 2)
        handle = service.submit(prepared, states)
        handle.result(timeout=60)
        # The done-callback releases asynchronously; give it a beat.
        for _ in range(100):
            if service.inflight == (0,):
                break
            threading.Event().wait(0.01)
        assert service.inflight == (0,)

    def test_stream_shards_respect_max_inflight_states(self, prepared):
        states = _states(prepared.schema, 7)
        with QueryService(workers=2, max_inflight_states=2) as svc:
            streamed = svc.stream(prepared, states, backend="classic")
            # Every shard must individually fit the admission window.
            assert streamed.shard_count >= 4
            items = list(streamed)
        assert sorted(item.index for item in items) == list(range(7))


class TestDegrade:
    def test_degrade_streams_typed_error_items(self, prepared):
        schema = prepared.schema
        good = _states(schema, 3)
        poison = DatabaseState(
            schema,
            [
                Relation(relation, [(faults.POISON_VALUE, 1), (2, 3)])
                for relation in schema.relations
            ],
        )
        batch = good + [poison]
        with _poison_armed("always"):
            with QueryService(workers=2, failure_policy="degrade") as svc:
                items = list(
                    svc.stream(prepared, batch, backend="parallel")
                )
        assert sorted(item.index for item in items) == [0, 1, 2, 3]
        by_index = {item.index: item for item in items}
        bad = by_index[3]
        assert not bad.ok
        assert bad.run is None
        assert isinstance(bad.error, faults.InjectedFault)
        for position in range(3):
            assert by_index[position].ok
            assert by_index[position].run is not None

    def test_raise_policy_propagates_through_stream(self, prepared):
        schema = prepared.schema
        good = _states(schema, 2)
        poison = DatabaseState(
            schema,
            [
                Relation(relation, [(faults.POISON_VALUE, 1), (2, 3)])
                for relation in schema.relations
            ],
        )
        with _poison_armed("always"):
            with QueryService(workers=2) as svc:
                with pytest.raises(ShardExecutionError):
                    list(svc.stream(prepared, good + [poison], backend="parallel"))


class TestAffinity:
    def test_repeat_submissions_share_one_pinned_pool(self, prepared):
        # Affinity: repeat batches land on workers that already hold the
        # plan, so each worker builds it at most once.
        states = _states(prepared.schema, 3)
        compiles: Counter = Counter()
        with QueryService(workers=2) as svc:
            for _ in range(3):
                runs = svc.execute_many(prepared, states, backend="parallel")
                for pid, info in runs[0].stats.per_worker.items():
                    compiles[pid] += info["plan_compiles"]
        assert compiles, "no workers reported"
        assert all(count <= 1 for count in compiles.values()), compiles

    def test_specs_share_one_pool(self, monkeypatch):
        constructed = []

        class CountingExecutor(service_module.ParallelExecutor):
            def __init__(self, *args, **kwargs):
                constructed.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(service_module, "ParallelExecutor", CountingExecutor)
        schema_a = chain_schema(3)
        schema_b = chain_schema(4)
        prepared_a = analyze(schema_a).prepare(RelationSchema({"x0", "x3"}))
        prepared_b = analyze(schema_b).prepare(RelationSchema({"x0", "x4"}))
        with QueryService(workers=2) as svc:
            for query, schema in (
                (prepared_a, schema_a),
                (prepared_b, schema_b),
                (prepared_a, schema_a),
            ):
                states = _states(schema, 2)
                runs = svc.execute_many(query, states, backend="parallel")
                assert [run.result for run in runs] == [
                    query.execute(state, backend="classic").result
                    for state in states
                ]
                assert runs[0].stats.workers == 2
        assert len(constructed) == 1

    def test_concurrent_specs_on_one_pool(self, monkeypatch):
        # Threads outnumbering cores submit parallel batches of two specs at
        # once; a short switch interval widens the race between the first
        # batches to spawn the pool.  Exactly one pool must be built and
        # every answer must match classic.
        constructed = []

        class CountingExecutor(service_module.ParallelExecutor):
            def __init__(self, *args, **kwargs):
                constructed.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(service_module, "ParallelExecutor", CountingExecutor)
        queries = []
        for size in (3, 4):
            schema = chain_schema(size)
            query = analyze(schema).prepare(RelationSchema({"x0", f"x{size}"}))
            queries.append((query, _states(schema, 3, salt=size)))
        expected = [
            [query.execute(state, backend="classic").result for state in states]
            for query, states in queries
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(workers=2) as svc:
                handles = [
                    (index, svc.submit(query, states, backend="parallel"))
                    for _ in range(4)
                    for index, (query, states) in enumerate(queries)
                ]
                for index, handle in handles:
                    runs = handle.result(timeout=120)
                    assert [run.result for run in runs] == expected[index]
        finally:
            sys.setswitchinterval(interval)
        assert len(constructed) == 1


class TestLifecycle:
    def test_closed_service_refuses_submissions(self, prepared):
        svc = QueryService(workers=2)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(prepared, _states(prepared.schema, 2))
        assert not svc.healthy
        svc.close()  # idempotent

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_inflight_states"):
            QueryService(max_inflight_states=0)
        # Pool settings fail when the service is built, not at the first
        # batch routed to the pool.
        with pytest.raises(ValueError, match="shard_timeout"):
            QueryService(workers=2, shard_timeout=-1)
        with pytest.raises(ValueError, match="max_retries"):
            QueryService(workers=2, max_retries=-5)

    def test_stream_metadata_surface(self, service, prepared):
        streamed = service.stream(prepared, _states(prepared.schema, 4))
        assert streamed.decision.backend in ("compiled", "parallel")
        assert streamed.shard_count >= 1
        runs = [item.run for item in streamed]
        assert {run.backend for run in runs} == {streamed.decision.backend}

    def test_stream_shards_keep_the_batch_estimates(self, monkeypatch):
        # 40 unique states clear the small-batch gate and reach the cost
        # model; a pinned per-row cost keeps them on the thin-serial rule,
        # whose decision carries estimates every shard must inherit.
        clear_analysis_cache()
        schema = chain_schema(3)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x3"}))
        states = _states(schema, 40)
        analyze(schema).store_cost_probe(
            prepared.target,
            1e-9,
            root=prepared.root,
            backend=resolve_backend_for("auto", states),
        )
        with QueryService(workers=2) as svc:
            seen = []
            execute = svc._execute_batch

            def record(query, shard_states, decision, *args):
                seen.append(decision)
                return execute(query, shard_states, decision, *args)

            monkeypatch.setattr(svc, "_execute_batch", record)
            streamed = svc.stream(prepared, states)
            assert len(list(streamed)) == 40
        clear_analysis_cache()
        decision = streamed.decision
        assert decision.rule == "thin-serial"
        assert decision.per_row_s == 1e-9
        assert len(seen) == streamed.shard_count >= 2
        assert sum(shard.states for shard in seen) == 40
        for shard in seen:
            assert shard.per_row_s == decision.per_row_s
            assert shard.estimated_serial_s == decision.estimated_serial_s
            assert shard.unique_states == decision.unique_states

    def test_stream_item_repr_fields(self):
        item = StreamItem(index=2)
        assert item.ok
        failed = StreamItem(index=1, error=RuntimeError("x"))
        assert not failed.ok


class TestDrainingClose:
    def test_close_drain_finishes_inflight_handles(self, prepared):
        svc = QueryService(workers=2)
        states = _states(prepared.schema, 6)
        handles = [
            svc.submit(prepared, states, backend="classic") for _ in range(4)
        ]
        svc.close(drain=True)
        expected = prepared.execute_many(states, backend="classic")
        for handle in handles:
            runs = handle.result(timeout=30)
            assert [run.result for run in runs] == [
                run.result for run in expected
            ]
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(prepared, states)

    def test_close_drain_finishes_inflight_parallel_batch(self, prepared):
        svc = QueryService(workers=2)
        states = _states(prepared.schema, 4)
        handle = svc.submit(prepared, states, backend="parallel")
        svc.close(drain=True)
        runs = handle.result(timeout=60)
        expected = prepared.execute_many(states, backend="classic")
        assert [run.result for run in runs] == [run.result for run in expected]

    def test_close_without_drain_cancels_pending(self, prepared):
        svc = QueryService(workers=2)
        states = _states(prepared.schema, 2)
        handles = [
            svc.submit(prepared, states, backend="classic") for _ in range(16)
        ]
        svc.close(drain=False)
        from concurrent.futures import CancelledError

        finished = cancelled = 0
        for handle in handles:
            try:
                error = handle.exception(timeout=30)
            except CancelledError:
                cancelled += 1
                continue
            if error is None:
                finished += 1
            else:
                cancelled += 1
        # Every handle resolves one way or the other; nothing hangs.
        assert finished + cancelled == len(handles)
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(prepared, states)

    def test_close_default_is_drain(self, prepared):
        svc = QueryService(workers=2)
        handle = svc.submit(
            prepared, _states(prepared.schema, 3), backend="classic"
        )
        svc.close()
        assert handle.result(timeout=30) is not None


class TestCatalogIntegration:
    def test_catalog_stats_threaded_through_service_stats(self, tmp_path, prepared):
        from repro.engine.catalog import PlanCatalog

        catalog = PlanCatalog(str(tmp_path))
        with QueryService(workers=2, catalog=catalog) as svc:
            assert svc.catalog is catalog
            assert svc.stats.catalog is catalog.stats
            snapshot = svc.stats.as_dict()["catalog"]
            assert snapshot == catalog.stats.as_dict()
            assert set(snapshot) >= {"hits", "misses", "quarantined", "degraded"}

    def test_no_catalog_reports_none(self, prepared):
        with QueryService(workers=2) as svc:
            assert svc.catalog is None
            assert svc.stats.as_dict()["catalog"] is None

    def test_catalog_accepts_directory_path(self, tmp_path):
        with QueryService(workers=2, catalog=str(tmp_path / "cat")) as svc:
            assert svc.catalog is not None
            assert svc.catalog.directory == str(tmp_path / "cat")
