"""The adaptive routing cost model: gates, probe caching, degenerate one-shots."""

from __future__ import annotations

import pytest

from repro.engine import analyze, clear_analysis_cache
from repro.engine import parallel as parallel_module
from repro.engine import prepared as prepared_module
from repro.engine import routing
from repro.engine.prepared import resolve_backend_for
from repro.engine.routing import DEFAULT_MIN_PARALLEL_STATES, RoutingPolicy
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
    # A fresh analysis per test: probe results (pinned or measured) are
    # cached on it and must not leak between tests.
    clear_analysis_cache()
    schema = chain_schema(3)
    yield analyze(schema).prepare(RelationSchema({"x0", "x3"}))
    clear_analysis_cache()


def _pin_per_row(prepared, states, per_row_s):
    """Prime the plan's probe cache so ``decide`` reads ``per_row_s``
    instead of timing anything."""
    analyze(prepared.schema).store_cost_probe(
        prepared.target,
        per_row_s,
        root=prepared.root,
        backend=resolve_backend_for("auto", states),
    )


@pytest.fixture()
def gates(monkeypatch):
    """Pin routing's gate constants for one test."""

    def pin(**values):
        for name, value in values.items():
            monkeypatch.setattr(routing, f"DEFAULT_{name.upper()}", value)

    return pin


class TestGates:
    """Each rule in the gate cascade, decided deterministically via a pinned
    per-row cost (primed into the probe cache) and pinned gate constants,
    so no timing noise enters the verdict."""

    def test_empty_batch(self, prepared):
        decision = RoutingPolicy().decide(prepared, [], workers=2)
        assert decision.backend == "compiled"
        assert decision.rule == "empty"

    def test_single_unique_state(self, prepared):
        schema = prepared.schema
        state = _states(schema, 1)[0]
        decision = RoutingPolicy().decide(
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
        decision = RoutingPolicy().decide(
            prepared, empties + [partial], workers=2
        )
        # Verbatim-equal empties dedup to one: the single-unique gate fires
        # first, which is equally in-process.
        assert decision.backend == "compiled"
        assert decision.rule in ("single-unique", "all-empty")

    def test_narrow_pool(self, prepared):
        states = _states(prepared.schema, 4)
        decision = RoutingPolicy().decide(prepared, states, workers=1)
        assert decision.backend == "compiled"
        assert decision.rule == "narrow-pool"

    def test_small_batch_gate(self, prepared):
        states = _states(prepared.schema, 4)
        decision = RoutingPolicy().decide(prepared, states, workers=2)
        assert decision.backend == "compiled"
        assert decision.rule == "small-batch"
        assert decision.unique_states == 4 < DEFAULT_MIN_PARALLEL_STATES

    def test_thin_serial_gate(self, prepared, gates):
        # Many unique states, but a pinned per-row cost so tiny the whole
        # batch is cheaper than one round of pool bookkeeping.
        states = _states(prepared.schema, 40)
        _pin_per_row(prepared, states, 1e-9)
        gates(min_parallel_states=2)
        decision = RoutingPolicy().decide(prepared, states, workers=2)
        assert decision.backend == "compiled"
        assert decision.rule == "thin-serial"
        assert decision.estimated_serial_s is not None

    def test_parallel_wins(self, prepared, gates):
        states = _states(prepared.schema, 40)
        _pin_per_row(prepared, states, 1.0)
        gates(min_parallel_states=2, min_parallel_serial_s=0.0)
        decision = RoutingPolicy().decide(
            prepared, states, workers=2, pool_live=True
        )
        assert decision.backend == "parallel"
        assert decision.rule == "parallel-wins"
        assert decision.estimated_parallel_s < decision.estimated_serial_s

    def test_parallel_loses_on_spawn_cost(self, prepared, gates):
        # Same batch, but a cold pool: the spawn charge flips the verdict
        # when the serial estimate is smaller than the spawn.
        states = _states(prepared.schema, 40)
        _pin_per_row(prepared, states, 1e-4)
        gates(min_parallel_states=2, min_parallel_serial_s=0.0, spawn_s=1e9)
        policy = RoutingPolicy()
        decision = policy.decide(prepared, states, workers=2, pool_live=False)
        assert decision.backend == "compiled"
        assert decision.rule == "parallel-loses"
        live = policy.decide(prepared, states, workers=2, pool_live=True)
        assert live.backend == "parallel"

    def test_as_dict_is_json_shaped(self, prepared):
        states = _states(prepared.schema, 4)
        decision = RoutingPolicy().decide(prepared, states, workers=2)
        payload = decision.as_dict()
        assert payload["backend"] == "compiled"
        assert payload["rule"] == "small-batch"
        assert set(payload) >= {"reason", "states", "unique_states", "unique_rows"}

    def test_large_states_upgrade_serial_verdict(self, prepared):
        # 200 rows x 3 relations clears VECTORIZED_MIN_STATE_ROWS, so the
        # in-process verdict names the vectorized kernel whenever numpy
        # imports; tiny batches (every other test here) stay compiled.
        states = _states(prepared.schema, 4, rows=200)
        decision = RoutingPolicy().decide(prepared, states, workers=2)
        expected = "vectorized" if numpy_available() else "compiled"
        assert decision.backend == expected
        assert decision.rule == "small-batch"

    def test_override_decision(self, prepared):
        states = _states(prepared.schema, 3) * 2
        policy = RoutingPolicy()
        decision = policy.decide(prepared, states, backend="parallel")
        assert decision.backend == "parallel"
        assert decision.rule == "override"
        assert decision.states == 6
        assert decision.unique_states == 3
        assert decision.unique_rows == sum(s.total_rows() for s in states[:3])
        # An override bypasses the model whatever the pool width, and
        # validates the name it is given.
        classic = policy.decide(prepared, states, workers=2, backend="classic")
        assert (classic.backend, classic.rule) == ("classic", "override")
        with pytest.raises(ValueError, match="unknown backend"):
            policy.decide(prepared, states, backend="gpu")


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
        states = _states(prepared.schema, 2)
        _pin_per_row(prepared, states, 7.0)
        assert RoutingPolicy().probe(prepared, states) == 7.0
        # Nothing was timed: timing would have built the fresh plan's kernel.
        assert prepared._compiled is None and prepared._vectorized is None

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

        def parallel(states):
            return policy.decide(prepared, states, backend="parallel")

        state = _states(schema, 1)[0]
        for states in ([], [state, state], [_empty_state(schema)]):
            decision = parallel(states)
            assert decision.backend == "parallel"
            assert decision.rule == "override-degenerate"
        repeated = parallel([state, state])
        assert repeated.states == 2
        assert repeated.unique_states == 1
        assert repeated.unique_rows == state.total_rows()
        assert parallel(_states(schema, 2)).rule == "override"

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


# The degenerate one-shot path imports ParallelExecutor from the *module*, so
# the monkeypatch above must target repro.engine.parallel — assert the import
# shape stays that way (a from-import in prepared.py would silently unbind
# the patch and let the test pass while spawning pools).
def test_prepared_imports_executor_lazily():
    import inspect

    source = inspect.getsource(prepared_module._execute_many)
    assert "from .parallel import" in source
