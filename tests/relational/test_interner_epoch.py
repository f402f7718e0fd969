"""Bounded interner growth: epoch rollover under ``DEFAULT_MAX_INTERNED_VALUES``,
and the per-slot encode cache both serial kernels share.

The vectorized kernel interns values to int64 codes and checks a cap, the
module constant ``repro.relational.vectorized.DEFAULT_MAX_INTERNED_VALUES``,
at every state-encode boundary; overflow opens a new epoch — interning maps
rebuilt, stale encodings evicted — without changing any answer.  Tests
shrink the cap by patching that constant (:class:`TestEpochRolloverVectorized`,
skipped without numpy).  The compiled kernel runs on the values themselves
and has no interner: :class:`TestCompiledInternsNothing` drives it through
the same tiny caps and checks that nothing grows, rolls over or changes.

The per-slot encode cache, batch dedupe and miss-streak disable are one
core shared by both kernels (``EncodedPlan``), so those tests run on the
compiled kernel (:class:`TestEncodeCache`) and again on the vectorized one
(:class:`TestEncodeCacheVectorized`).
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import analyze
from repro.hypergraph import DatabaseSchema, RelationSchema
from repro.relational import (
    CompiledPlan,
    DatabaseState,
    Relation,
    VectorizedPlan,
    numpy_available,
)
from repro.relational import vectorized as vectorized_module
from repro.relational.compiled import ExecutionStats
from repro.relational.vectorized import DEFAULT_MAX_INTERNED_VALUES

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorized kernel requires numpy"
)


def _schema():
    return DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])


def _string_state(schema, salt: int, rows: int = 4) -> DatabaseState:
    return DatabaseState(
        schema,
        [
            Relation(
                schema[0],
                [(f"a{salt}.{i}", f"b{salt}.{i}") for i in range(rows)],
            ),
            Relation(
                schema[1],
                [(f"b{salt}.{i}", f"c{salt}.{i}") for i in range(rows)],
            ),
        ],
    )


def _set_cap(monkeypatch, cap):
    """Shrink the interner cap every vectorized plan reads at its encode
    boundary."""
    monkeypatch.setattr(vectorized_module, "DEFAULT_MAX_INTERNED_VALUES", cap)


#: Strategies of the randomized cap test (shared by both kernels' copies).
RANDOM_CAPS = dict(
    cap=st.integers(1, 30),
    salts=st.lists(st.integers(0, 6), min_size=1, max_size=10),
)


def _fresh_plan(kernel: str):
    prepared = analyze(_schema()).prepare(RelationSchema("ac"))
    prepared.reset_compiled()
    return prepared, getattr(prepared, kernel)


@requires_numpy
class TestEpochRolloverVectorized:
    """The vectorized kernel's interner and its epochs."""

    kernel = "vectorized"

    def test_default_cap_is_finite(self):
        assert DEFAULT_MAX_INTERNED_VALUES == 1 << 20
        _, plan = _fresh_plan(self.kernel)
        assert plan.interner_epoch == 0
        # The cap is the module constant, not a per-plan setting.
        assert not hasattr(plan, "max_interned_values")

    def test_overflow_opens_epochs_and_bounds_growth(self, monkeypatch):
        _set_cap(monkeypatch, 20)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        for salt in range(12):
            prepared.execute(_string_state(schema, salt), backend=self.kernel)
        assert plan.interner_epoch > 0
        # Growth is bounded by cap + one state's worth of fresh values.
        assert plan.interned_value_count() <= 20 + 4 * 3

    def test_results_stay_correct_across_rollovers(self, monkeypatch):
        _set_cap(monkeypatch, 10)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        for salt in range(15):
            state = _string_state(schema, salt)
            compiled = prepared.execute(state, backend=self.kernel)
            classic = prepared.execute(state, backend="classic")
            assert compiled.result == classic.result
            assert compiled.max_intermediate_size == classic.max_intermediate_size
        assert plan.interner_epoch >= 1

    def test_batch_surfaces_reset_counter(self, monkeypatch):
        _set_cap(monkeypatch, 10)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        states = [_string_state(schema, salt) for salt in range(10)]
        runs = prepared.execute_many(states, backend=self.kernel)
        stats = runs[0].stats
        assert stats.interner_resets > 0
        assert stats.interner_resets == plan.interner_epoch

    def test_rollover_drops_stale_slot_encodings(self, monkeypatch):
        _set_cap(monkeypatch, 10)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        state = _string_state(schema, 0)
        prepared.execute(state, backend=self.kernel)
        assert sum(plan.cache_sizes()) > 0
        for salt in range(1, 8):
            prepared.execute(_string_state(schema, salt), backend=self.kernel)
        assert plan.interner_epoch > 0
        # Re-executing the very first state after rollovers re-encodes it
        # against the new epoch and still answers correctly.
        rerun = prepared.execute(state, backend=self.kernel)
        classic = prepared.execute(state, backend="classic")
        assert rerun.result == classic.result

    def test_pinned_encoded_state_survives_rollover(self, monkeypatch):
        """An encoded state captures its epoch's decoders at encode time, so
        executing it after rollovers still decodes the retired epoch's codes
        to the right values."""
        _set_cap(monkeypatch, 10)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        state = _string_state(schema, 0)
        pinned = plan.encode_state(state)
        expected = prepared.execute(state, backend="classic").result
        assert plan.execute(pinned).result == expected
        for salt in range(1, 9):
            prepared.execute(_string_state(schema, salt), backend=self.kernel)
        assert plan.interner_epoch > 0
        # Same pinned encoding, executed against a plan that has since
        # rolled its interner over (possibly several times).
        assert plan.execute(pinned).result == expected

    def test_default_cap_never_rolls_over_small_domains(self):
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        for salt in range(10):
            prepared.execute(_string_state(schema, salt), backend=self.kernel)
        assert plan.interner_epoch == 0
        assert plan.interned_value_count() > 20

    def test_identity_columns_unaffected_by_cap(self, monkeypatch):
        """Pure-int states intern nothing, so even a tiny cap never triggers."""
        _set_cap(monkeypatch, 1)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        for salt in range(6):
            state = DatabaseState(
                schema,
                [
                    Relation(schema[0], [(salt * 10 + i, i) for i in range(4)]),
                    Relation(schema[1], [(i, salt * 10 + i) for i in range(4)]),
                ],
            )
            compiled = prepared.execute(state, backend=self.kernel)
            classic = prepared.execute(state, backend="classic")
            assert compiled.result == classic.result
        assert plan.interner_epoch == 0

    def test_interner_epoch_rollover(self, monkeypatch):
        """The cap bounds a directly constructed single-slot plan."""
        _set_cap(monkeypatch, 4)
        schema = DatabaseSchema([RelationSchema("ab")])
        prepared = analyze(schema).prepare(RelationSchema("ab"))
        plan = VectorizedPlan(prepared)
        stats = ExecutionStats()
        for index in range(8):
            state = DatabaseState(
                schema,
                [Relation(schema[0], [(f"k{index}", f"v{index}")])],
            )
            run = plan.execute_state(state, stats=stats)
            assert run.result == state.relations[0]
        assert plan.interner_epoch > 0
        assert stats.interner_resets > 0
        assert plan.interned_value_count() <= 4 + 2


class TestCompiledInternsNothing:
    """The compiled kernel under the caps that roll the vectorized interner
    over: it holds no interner, so nothing grows, rolls over or changes."""

    kernel = "compiled"

    def test_fresh_plan_has_no_interner(self):
        _, plan = _fresh_plan(self.kernel)
        assert plan.interned_value_count() == 0
        assert not hasattr(plan, "interner_epoch")
        assert not hasattr(plan, "_intern")

    def test_distinct_values_never_grow_an_interner(self, monkeypatch):
        _set_cap(monkeypatch, 1)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        states = [_string_state(schema, salt) for salt in range(12)]
        for state in states:
            prepared.execute(state, backend=self.kernel)
            assert plan.interned_value_count() == 0
        # Each slot caches one encoding per distinct live relation object.
        assert plan.cache_sizes() == (12, 12)

    def test_results_match_classic_under_a_tiny_cap(self, monkeypatch):
        _set_cap(monkeypatch, 1)
        schema = _schema()
        prepared, _ = _fresh_plan(self.kernel)
        for salt in range(15):
            state = _string_state(schema, salt)
            compiled = prepared.execute(state, backend=self.kernel)
            classic = prepared.execute(state, backend="classic")
            assert compiled.result == classic.result
            assert compiled.max_intermediate_size == classic.max_intermediate_size

    def test_batch_reports_no_interner_resets(self, monkeypatch):
        _set_cap(monkeypatch, 10)
        schema = _schema()
        prepared, _ = _fresh_plan(self.kernel)
        states = [_string_state(schema, salt) for salt in range(10)]
        runs = prepared.execute_many(states, backend=self.kernel)
        stats = runs[0].stats
        assert stats.states == 10
        assert stats.interner_resets == 0

    def test_rerun_of_first_state_hits_the_slot_cache(self, monkeypatch):
        """Where a vectorized rollover would evict the first state's slot
        encodings, the compiled plan still holds them."""
        _set_cap(monkeypatch, 10)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        state = _string_state(schema, 0)
        prepared.execute(state, backend=self.kernel)
        for salt in range(1, 8):
            prepared.execute(_string_state(schema, salt), backend=self.kernel)
        stats = ExecutionStats()
        rerun = plan.execute_state(state, stats=stats)
        assert (stats.encoded_slots, stats.cached_slots) == (0, 2)
        assert rerun.result == prepared.execute(state, backend="classic").result

    def test_pinned_compiled_state_survives_many_states(self, monkeypatch):
        """A pinned encoding is the state's own rows, so it needs no decoders
        and answers the same after any number of other states."""
        _set_cap(monkeypatch, 10)
        schema = _schema()
        prepared, plan = _fresh_plan(self.kernel)
        state = _string_state(schema, 0)
        pinned = plan.encode_state(state)
        assert pinned.decoders == ()
        for encoding, relation in zip(pinned.encodings, state.relations):
            assert set(encoding.rows) == set(relation.rows)
        expected = prepared.execute(state, backend="classic").result
        assert plan.execute(pinned).result == expected
        for salt in range(1, 9):
            prepared.execute(_string_state(schema, salt), backend=self.kernel)
        assert plan.execute(pinned).result == expected

    def test_answer_cells_are_the_states_own_objects(self, monkeypatch):
        """A directly constructed single-slot plan answers with the very
        cell objects of its input: nothing is decoded."""
        _set_cap(monkeypatch, 1)
        schema = DatabaseSchema([RelationSchema("ab")])
        prepared = analyze(schema).prepare(RelationSchema("ab"))
        plan = CompiledPlan(prepared)
        stats = ExecutionStats()
        for index in range(8):
            # Floats made at run time are distinct objects per state.
            rows = [(float(index) + 0.5, float(index) + 0.25)]
            state = DatabaseState(schema, [Relation(schema[0], rows)])
            run = plan.execute_state(state, stats=stats)
            assert run.result == state.relations[0]
            (answer,) = run.result.rows
            (given_row,) = state.relations[0].rows
            assert all(a is b for a, b in zip(answer, given_row))
        assert stats.interner_resets == 0
        assert plan.interned_value_count() == 0

    def test_int_mixed_and_string_states_match_classic(self, monkeypatch):
        """One plan meets pure-int, numeric-tower and string states in turn
        under a cap of one; each answer equals classic's cell for cell."""
        _set_cap(monkeypatch, 1)
        schema = _schema()
        prepared, _ = _fresh_plan(self.kernel)
        for salt in range(6):
            if salt % 3 == 0:
                ab = [(salt * 10 + i, i) for i in range(4)]
                bc = [(i, salt * 10 + i) for i in range(4)]
            elif salt % 3 == 1:
                ab = [(1.0, 1), (True, 2.0)]
                bc = [(True, salt), (2, "two")]
            else:
                state = _string_state(schema, salt)
                ab, bc = state.relations[0].rows, state.relations[1].rows
            state = DatabaseState(
                schema, [Relation(schema[0], ab), Relation(schema[1], bc)]
            )
            compiled = prepared.execute(state, backend=self.kernel)
            classic = prepared.execute(state, backend="classic")
            assert compiled.result == classic.result
            assert sorted(map(repr, compiled.result.rows)) == sorted(
                map(repr, classic.result.rows)
            )


class TestEncodeCache:
    """The shared encode core, driven through the compiled kernel."""

    kernel = "compiled"

    @settings(max_examples=25, deadline=None)
    @given(**RANDOM_CAPS)
    def test_equivalence_under_random_caps(self, cap, salts):
        self._check_random_caps(cap, salts)

    def _check_random_caps(self, cap, salts):
        """Any cap, any (possibly repeating) state sequence: the kernel with
        rollovers ≡ classic.  (Patched per example: hypothesis rejects
        function-scoped fixtures such as ``monkeypatch``.)"""
        schema = _schema()
        with mock.patch.object(vectorized_module, "DEFAULT_MAX_INTERNED_VALUES", cap):
            prepared, _ = _fresh_plan(self.kernel)
            for salt in salts:
                state = _string_state(schema, salt, rows=3)
                compiled = prepared.execute(state, backend=self.kernel)
                classic = prepared.execute(state, backend="classic")
                assert compiled.result == classic.result

    def test_batch_dedups_repeated_states(self):
        _, plan = _fresh_plan(self.kernel)
        state = _string_state(_schema(), 0)
        runs = plan.execute_batch([state, state, state])
        assert runs[0] is runs[1] is runs[2]
        assert runs[0].stats.deduped_states == 2

    def test_miss_streak_disables_slot_cache_until_cleared(self):
        """A slot that misses more than ``_CACHE_MISS_STREAK_MAX`` times in a
        row turns its cache off (and drops it); a slot that keeps hitting is
        unaffected, and ``clear_encode_cache`` re-arms the tripped slot."""
        schema = _schema()
        _, plan = _fresh_plan(self.kernel)
        shared = Relation(schema[1], [(0, 0)])

        def state(value):
            return DatabaseState(schema, [Relation(schema[0], [(value, 0)]), shared])

        def encode_counts(encoded):
            stats = ExecutionStats()
            plan.encode_state(encoded, stats=stats)
            return stats.encoded_slots, stats.cached_slots

        limit = plan._CACHE_MISS_STREAK_MAX
        # Held, so their (weak) cache entries stay while the streak grows.
        held = [state(value) for value in range(limit + 1)]
        for encoded in held[:limit]:
            plan.encode_state(encoded)
        assert plan.cache_sizes() == (limit, 1)
        plan.encode_state(held[limit])  # one miss past the streak limit
        assert plan.cache_sizes() == (0, 1)
        repeat = state(0)
        encode_counts(repeat)
        # The tripped slot re-encodes every time; the shared slot still hits.
        assert encode_counts(repeat) == (1, 1)
        assert plan.cache_sizes() == (0, 1)

        plan.clear_encode_cache()
        assert plan.cache_sizes() == (0, 0)
        assert encode_counts(repeat) == (2, 0)
        assert encode_counts(repeat) == (0, 2)


@requires_numpy
class TestEncodeCacheVectorized(TestEncodeCache):
    """The same core, driven through the vectorized kernel."""

    kernel = "vectorized"

    # Hypothesis binds a @given test to one executing class, so this class
    # declares its own copy of the randomized test.
    @settings(max_examples=25, deadline=None)
    @given(**RANDOM_CAPS)
    def test_equivalence_under_random_caps(self, cap, salts):
        self._check_random_caps(cap, salts)
