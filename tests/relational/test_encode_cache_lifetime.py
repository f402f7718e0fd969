"""The per-slot encode cache holds its relations weakly.

A kernel plan's encode cache (``EncodedPlan._encode_slots``) keys each slot's
entries by relation object, and an entry lives exactly as long as its
relation: when the caller drops a state, its entries go with it.  These tests
drive that on both kernels (:class:`TestWeakEntries` on the compiled one,
:class:`TestWeakEntriesVectorized` on the vectorized one): dropped states
leave no entries, a new relation that reuses a dead one's ``id`` never gets
the dead one's encoding, a cyclic plan's derived node states leave nothing in
the inner plan, eviction never takes the encode lock, and threads that drop
states while others encode neither deadlock nor answer wrong.

:class:`TestMemoryGuard` is the end-to-end check: a plan that serves a
stream of fresh string-valued states, each dropped after its run, holds on
to less than a few states' worth of memory.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import tracemalloc

import pytest

from repro.engine import analyze
from repro.hypergraph import DatabaseSchema, RelationSchema, parse_schema
from repro.relational import DatabaseState, Relation, numpy_available
from repro.relational.compiled import ExecutionStats

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorized kernel requires numpy"
)


def _schema():
    return DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])


def _state(schema, salt: int, rows: int = 4) -> DatabaseState:
    return DatabaseState(
        schema,
        [
            Relation(schema[0], [(f"a{salt}.{i}", f"b{salt}.{i}") for i in range(rows)]),
            Relation(schema[1], [(f"b{salt}.{i}", f"c{salt}.{i}") for i in range(rows)]),
        ],
    )


class TestWeakEntries:
    """The weak slot entries, driven through the compiled kernel."""

    kernel = "compiled"

    def _fresh(self, schema=None, target="ac"):
        prepared = analyze(schema or _schema()).prepare(RelationSchema(target))
        prepared.reset_compiled()
        return prepared, getattr(prepared, self.kernel)

    def test_dropped_state_leaves_no_entries(self):
        schema = _schema()
        prepared, plan = self._fresh(schema)
        kept = _state(schema, 0)
        dropped = [_state(schema, salt) for salt in range(1, 6)]
        for state in [kept] + dropped:
            prepared.execute(state, backend=self.kernel)
        assert plan.cache_sizes() == (6, 6)
        del dropped, state
        gc.collect()
        assert plan.cache_sizes() == (1, 1)
        # The survivor's entries still hit.
        stats = ExecutionStats()
        plan.execute_state(kept, stats=stats)
        assert (stats.encoded_slots, stats.cached_slots) == (0, 2)

    def test_reused_id_never_gets_the_dead_relations_encoding(self):
        """CPython hands a dead relation's address to the next one of its
        size, so a new relation often reuses its ``id``: it must be encoded
        afresh, not answered from the dead one's entry."""
        schema = DatabaseSchema([RelationSchema("ab")])
        prepared, plan = self._fresh(schema, target="ab")
        reused = 0
        for salt in range(30):
            old = DatabaseState(schema, [Relation(schema[0], [(salt, "old")])])
            prepared.execute(old, backend=self.kernel)
            old_id = id(old.relations[0])
            del old
            new = DatabaseState(schema, [Relation(schema[0], [(salt, "new")])])
            reused += id(new.relations[0]) == old_id
            run = prepared.execute(new, backend=self.kernel)
            assert run.result == prepared.execute(new, backend="classic").result
            assert run.result == new.relations[0]
            del new
        assert reused  # the scenario actually happened
        assert plan.cache_sizes() == (0,)

    def test_cyclic_inner_plan_keeps_no_derived_states(self):
        """The Theorem 6.1 prologue derives new node relations on every
        execute; once the execute returns, the inner plan holds none."""
        schema = parse_schema("ab,bc,cd,da")
        prepared = analyze(schema).prepare_cyclic(RelationSchema("ac"))
        prepared.reset_compiled()
        inner = getattr(prepared.inner, self.kernel)
        rng = random.Random(7)

        def state():
            return DatabaseState(
                schema,
                [
                    Relation(
                        relation,
                        [(rng.randrange(4), rng.randrange(4)) for _ in range(6)],
                    )
                    for relation in schema.relations
                ],
            )

        for _ in range(5):
            held = state()
            run = prepared.execute(held, backend=self.kernel)
            assert run.result == prepared.execute(held, backend="classic").result
            assert inner.cache_sizes() == (0,) * len(inner.cache_sizes())
        runs = prepared.execute_many([state() for _ in range(4)], backend=self.kernel)
        assert len(runs) == 4
        assert inner.cache_sizes() == (0,) * len(inner.cache_sizes())

    def test_eviction_never_takes_the_encode_lock(self):
        """A relation can die on a thread that holds the plan's encode lock;
        its entries' callbacks then run there and must not block on it."""
        schema = _schema()
        prepared, plan = self._fresh(schema)
        holder = [_state(schema, 0)]
        plan.encode_state(holder[0])
        assert plan.cache_sizes() == (1, 1)

        def drop_under_lock():
            with plan._encode_lock:
                holder.clear()  # the state's relations die right here

        thread = threading.Thread(target=drop_under_lock, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "eviction deadlocked on the encode lock"
        assert plan.cache_sizes() == (0, 0)

    def test_threads_drop_states_while_others_encode(self):
        schema = _schema()
        prepared, plan = self._fresh(schema)
        shared = [_state(schema, salt) for salt in range(8)]
        expected = {
            id(state): prepared.execute(state, backend="classic").result
            for state in shared
        }
        errors = []

        def encoder(seed):
            rng = random.Random(seed)
            try:
                for _ in range(150):
                    state = rng.choice(shared)
                    run = plan.execute_state(state)
                    if run.result != expected[id(state)]:
                        errors.append(("shared", state))
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)

        def dropper(seed):
            try:
                for salt in range(seed, seed + 60):
                    state = _state(schema, salt, rows=3)
                    answer = prepared.execute(state, backend="classic").result
                    if plan.execute_state(state).result != answer:
                        errors.append(("fresh", salt))
                    del state
                    if salt % 20 == 0:
                        gc.collect()
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=encoder, args=(1,), daemon=True),
                threading.Thread(target=encoder, args=(2,), daemon=True),
                threading.Thread(target=dropper, args=(1000,), daemon=True),
                threading.Thread(target=dropper, args=(2000,), daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert errors == []
        gc.collect()
        # Only the shared states are still alive, so only they stay cached.
        assert plan.cache_sizes() == (len(shared), len(shared))


@requires_numpy
class TestWeakEntriesVectorized(TestWeakEntries):
    """The same core, driven through the vectorized kernel."""

    kernel = "vectorized"


def _string_state(schema, rng, rows: int = 150) -> DatabaseState:
    """Fresh string objects over a fixed domain, so the vectorized interner
    (which keeps one representative per distinct value) stops growing after
    the first state, while each state's own strings and rows are new."""

    def value(prefix):
        return "".join([prefix, "-value-", str(rng.randrange(40))])

    return DatabaseState(
        schema,
        [
            Relation(schema[0], [(value("a"), value("b")) for _ in range(rows)]),
            Relation(schema[1], [(value("b"), value("c")) for _ in range(rows)]),
        ],
    )


class TestMemoryGuard:
    """A plan serving fresh states, each dropped after its run, keeps only a
    bounded amount of memory: at most a few states' worth, not one entry per
    state ever served."""

    STATES = 40
    #: Held memory allowed, in multiples of one state's traced footprint.
    #: Pinning every served state would hold about ``STATES`` of them.
    ALLOWED_STATES = 6

    def _check(self, kernel):
        schema = _schema()
        prepared = analyze(schema).prepare(RelationSchema("ac"))
        prepared.reset_compiled()
        rng = random.Random(11)
        # Warm up: the plan, its interner (vectorized) and lazy module state.
        for _ in range(2):
            prepared.execute(_string_state(schema, rng), backend=kernel)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            one = _string_state(schema, rng)
            footprint = tracemalloc.get_traced_memory()[0] - before
            del one
            gc.collect()
            baseline = tracemalloc.get_traced_memory()[0]
            for _ in range(self.STATES):
                state = _string_state(schema, rng)
                run = prepared.execute(state, backend=kernel)
                assert len(run.result) > 0
                del state, run
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert footprint > 0
        assert held < self.ALLOWED_STATES * footprint, (
            f"{kernel}: {held} bytes held after {self.STATES} dropped states "
            f"(one state is {footprint} bytes)"
        )

    def test_compiled_plan_holds_no_dropped_state(self):
        self._check("compiled")

    @requires_numpy
    def test_vectorized_plan_holds_no_dropped_state(self):
        self._check("vectorized")
