"""The adaptive routing cost model: gates, probe caching, degenerate one-shots."""

from __future__ import annotations

import pytest

from repro.engine import analyze
from repro.engine import parallel as parallel_module
from repro.engine import prepared as prepared_module
from repro.engine.routing import (
    DEFAULT_MIN_PARALLEL_STATES,
    RoutingPolicy,
    override_decision,
)
from repro.hypergraph import RelationSchema, chain_schema
from repro.relational import DatabaseState, Relation, numpy_available


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


def _empty_state(schema):
    return DatabaseState(
        schema, [Relation(relation, []) for relation in schema.relations]
    )


@pytest.fixture()
def prepared():
    schema = chain_schema(3)
    return analyze(schema).prepare(RelationSchema({"x0", "x3"}))


class TestGates:
    """Each rule in the gate cascade, decided deterministically via a pinned
    per-row cost (``per_row_s=``) so no timing noise enters the verdict."""

    def test_empty_batch(self, prepared):
        decision = RoutingPolicy(per_row_s=1.0).decide(prepared, [], workers=2)
        assert decision.backend == "compiled"
        assert decision.rule == "empty"

    def test_single_unique_state(self, prepared):
        schema = prepared.schema
        state = _states(schema, 1)[0]
        decision = RoutingPolicy(per_row_s=1.0).decide(
            prepared, [state, state, state], workers=2
        )
        assert decision.backend == "compiled"
        assert decision.rule == "single-unique"
        assert decision.states == 3
        assert decision.unique_states == 1

    def test_all_empty_states(self, prepared):
        schema = prepared.schema
        empties = [_empty_state(schema)]
        # A second, distinct all-empty state: drop one relation's rows only.
        partial = DatabaseState(
            schema, [Relation(relation, []) for relation in schema.relations]
        )
        decision = RoutingPolicy(per_row_s=1.0).decide(
            prepared, empties + [partial], workers=2
        )
        # Verbatim-equal empties dedup to one: the single-unique gate fires
        # first, which is equally in-process.
        assert decision.backend == "compiled"
        assert decision.rule in ("single-unique", "all-empty")

    def test_narrow_pool(self, prepared):
        states = _states(prepared.schema, 4)
        decision = RoutingPolicy(per_row_s=1.0).decide(prepared, states, workers=1)
        assert decision.backend == "compiled"
        assert decision.rule == "narrow-pool"

    def test_small_batch_gate(self, prepared):
        states = _states(prepared.schema, 4)
        decision = RoutingPolicy(per_row_s=1.0).decide(prepared, states, workers=2)
        assert decision.backend == "compiled"
        assert decision.rule == "small-batch"
        assert decision.unique_states == 4 < DEFAULT_MIN_PARALLEL_STATES

    def test_thin_serial_gate(self, prepared):
        # Many unique states, but a pinned per-row cost so tiny the whole
        # batch is cheaper than one round of pool bookkeeping.
        states = _states(prepared.schema, 40)
        decision = RoutingPolicy(
            per_row_s=1e-9, min_parallel_states=2
        ).decide(prepared, states, workers=2)
        assert decision.backend == "compiled"
        assert decision.rule == "thin-serial"
        assert decision.estimated_serial_s is not None

    def test_parallel_wins(self, prepared):
        states = _states(prepared.schema, 40)
        decision = RoutingPolicy(
            per_row_s=1.0, min_parallel_states=2, min_parallel_serial_s=0.0
        ).decide(prepared, states, workers=2, pool_live=True)
        assert decision.backend == "parallel"
        assert decision.rule == "parallel-wins"
        assert decision.estimated_parallel_s < decision.estimated_serial_s

    def test_parallel_loses_on_spawn_cost(self, prepared):
        # Same batch, but a cold pool: the spawn charge flips the verdict
        # when the serial estimate is smaller than the spawn.
        states = _states(prepared.schema, 40)
        policy = RoutingPolicy(
            per_row_s=1e-4,
            min_parallel_states=2,
            min_parallel_serial_s=0.0,
            spawn_s=1e9,
        )
        decision = policy.decide(prepared, states, workers=2, pool_live=False)
        assert decision.backend == "compiled"
        assert decision.rule == "parallel-loses"
        live = policy.decide(prepared, states, workers=2, pool_live=True)
        assert live.backend == "parallel"

    def test_as_dict_is_json_shaped(self, prepared):
        states = _states(prepared.schema, 4)
        decision = RoutingPolicy(per_row_s=1.0).decide(prepared, states, workers=2)
        payload = decision.as_dict()
        assert payload["backend"] == "compiled"
        assert payload["rule"] == "small-batch"
        assert set(payload) >= {"reason", "states", "unique_states", "unique_rows"}

    def test_large_states_upgrade_serial_verdict(self, prepared):
        # 200 rows x 3 relations clears VECTORIZED_MIN_STATE_ROWS, so the
        # in-process verdict names the vectorized kernel whenever numpy
        # imports; tiny batches (every other test here) stay compiled.
        states = _states(prepared.schema, 4, rows=200)
        decision = RoutingPolicy(per_row_s=1.0).decide(prepared, states, workers=2)
        expected = "vectorized" if numpy_available() else "compiled"
        assert decision.backend == expected
        assert decision.rule == "small-batch"

    def test_override_decision(self, prepared):
        states = _states(prepared.schema, 3) * 2
        decision = override_decision("parallel", states)
        assert decision.backend == "parallel"
        assert decision.rule == "override"
        assert decision.states == 6
        assert decision.unique_states == 3


class TestProbe:
    def test_probe_caches_on_analysis(self, prepared):
        analysis = analyze(prepared.schema)
        assert analysis.cached_cost_probe(prepared.target, root=prepared.root) is None
        states = _states(prepared.schema, 8)
        policy = RoutingPolicy()
        first = policy.probe(prepared, states)
        assert first > 0
        cached = analysis.cached_cost_probe(prepared.target, root=prepared.root)
        assert cached == first
        # A second probe returns the cached value without re-timing: pin the
        # cache to a sentinel and observe it come back verbatim.
        analysis.store_cost_probe(prepared.target, 123.0, root=prepared.root)
        assert policy.probe(prepared, states) == 123.0

    def test_pinned_per_row_skips_probe(self, prepared):
        analysis = analyze(prepared.schema)
        policy = RoutingPolicy(per_row_s=7.0)
        assert policy.probe(prepared, _states(prepared.schema, 2)) == 7.0
        # Pinning must not populate the shared cache.
        schema = chain_schema(4)
        other = analyze(schema).prepare(RelationSchema({"x0"}))
        assert analyze(schema).cached_cost_probe(other.target, root=other.root) is None
        del analysis

    def test_probe_cache_is_per_target(self, prepared):
        analysis = analyze(prepared.schema)
        other_target = RelationSchema({"x0"})
        other = analysis.prepare(other_target)
        analysis.store_cost_probe(prepared.target, 1.0, root=prepared.root)
        assert analysis.cached_cost_probe(other.target, root=other.root) is None


class TestDegenerate:
    def test_degenerate_shapes(self, prepared):
        schema = prepared.schema
        policy = RoutingPolicy()
        assert policy.is_degenerate([])
        state = _states(schema, 1)[0]
        assert policy.is_degenerate([state, state])
        assert policy.is_degenerate([_empty_state(schema)])
        assert not policy.is_degenerate(_states(schema, 2))

    def test_one_shot_empty_batch_never_touches_parallel(self, prepared, monkeypatch):
        monkeypatch.setattr(
            parallel_module,
            "ParallelExecutor",
            _raise_if_constructed,
        )
        assert prepared.execute_many([], backend="parallel") == []

    def test_one_shot_degenerate_batch_stays_in_process(self, prepared, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "ParallelExecutor", _raise_if_constructed
        )
        schema = prepared.schema
        state = _states(schema, 1)[0]
        expected = prepared.execute(state)
        runs = prepared.execute_many([state, state, state], backend="parallel")
        assert [run.result for run in runs] == [expected.result] * 3
        assert all(run.backend == "parallel" for run in runs)
        stats = runs[0].stats
        assert stats.workers == 0
        assert stats.routed_in_process == 1
        assert stats.deduped_states == 2

    def test_one_shot_robustness_overrides_pin_a_real_pool(self, prepared):
        # Degenerate shape + degrade request: the shortcut must NOT apply
        # (in-process execution cannot honor quarantine semantics).
        schema = prepared.schema
        state = _states(schema, 1)[0]
        runs = prepared.execute_many(
            [state], backend="parallel", workers=2, failure_policy="degrade"
        )
        assert runs[0].stats.workers == 2

    def test_non_degenerate_one_shot_still_spawns(self, prepared):
        runs = prepared.execute_many(
            _states(prepared.schema, 3), backend="parallel", workers=2
        )
        assert runs[0].stats.workers == 2
        assert runs[0].stats.shard_count >= 1


def _raise_if_constructed(*args, **kwargs):
    raise AssertionError("degenerate batch must not construct a pool")


class TestValidation:
    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="probe_states"):
            RoutingPolicy(probe_states=0)
        with pytest.raises(ValueError, match="min_parallel_states"):
            RoutingPolicy(min_parallel_states=1)
        with pytest.raises(ValueError, match="spawn_s"):
            RoutingPolicy(spawn_s=-1.0)
        with pytest.raises(ValueError, match="per_row_s"):
            RoutingPolicy(per_row_s=0.0)


# The degenerate one-shot path imports ParallelExecutor from the *module*, so
# the monkeypatch above must target repro.engine.parallel — assert the import
# shape stays that way (a from-import in prepared.py would silently unbind
# the patch and let the test pass while spawning pools).
def test_prepared_imports_executor_lazily():
    import inspect

    source = inspect.getsource(prepared_module._execute_many)
    assert "from .parallel import" in source
