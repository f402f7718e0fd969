"""The array-backed vectorized kernel: stats parity with compiled, its
value semantics, and the fused root join.

The random equivalence checks — every entry point on every backend,
numpy-blocked included, against ``naive_join_project`` — live in the oracle
matrix (``tests/test_oracle_matrix.py``).  This suite pins what the matrix
does not see: the vectorized kernel reproduces the *compiled* backend's
execution accounting (stats parity), promotes identity columns to
dictionary mode when a value int64 cannot hold arrives, keeps strings that
differ only in trailing NULs apart, and fuses the last root join.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import repro.relational.vectorized as vectorized_module
from repro.engine import analyze, resolve_backend
from repro.hypergraph import (
    DatabaseSchema,
    RelationSchema,
    chain_schema,
    parse_schema,
    random_tree_schema,
)
from repro.relational import (
    CompiledPlan,
    DatabaseState,
    Relation,
    VectorizedPlan,
    numpy_available,
)
from repro.relational.compiled import ExecutionStats
from strategies import instances


def _assert_runs_agree(classic, vectorized) -> None:
    assert vectorized.result == classic.result
    assert vectorized.semijoin_count == classic.semijoin_count
    assert vectorized.join_count == classic.join_count
    assert vectorized.max_intermediate_size == classic.max_intermediate_size
    assert classic.backend == "classic"
    assert vectorized.backend == "vectorized"


#: The array kernel itself needs numpy; without it these tests have nothing
#: to run (``TestWithoutNumpy`` covers what the other backend names do then).
requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorized kernel requires numpy"
)


class TestAutoGate:
    def test_auto_prefers_vectorized_when_numpy_imports(self):
        schema = chain_schema(2)
        attrs = schema.attributes.sorted_attributes()
        prepared = analyze(schema).prepare(RelationSchema((attrs[0],)))
        # Large enough to clear the profitability floor: auto upgrades to
        # the array kernel exactly when numpy imports ...
        big = DatabaseState(
            schema,
            [Relation(rs, [(i, i + 1) for i in range(200)]) for rs in schema.relations],
        )
        expected = "vectorized" if numpy_available() else "compiled"
        assert prepared.execute(big).backend == expected
        # ... while a one-tuple state stays on the compiled backend even
        # with numpy present: arrays cannot pay for themselves there.
        tiny = DatabaseState(
            schema, [Relation(rs, [(1, 2)]) for rs in schema.relations]
        )
        assert prepared.execute(tiny).backend == "compiled"


@requires_numpy
class TestCompiledStatsParity:
    """The vectorized kernel reproduces the compiled backend's execution
    accounting, not just its answers: same keyset/bucket build schedule,
    same identity-vs-filtering semijoin lineage, same encode/cache counts —
    except after an identity→dictionary promotion, which the compiled
    backend does not have (it canonicalizes strays in place); there the
    per-slot totals still reconcile."""

    @settings(max_examples=50, deadline=None)
    @given(instances("tree", max_states=3))
    def test_stats_match_compiled(self, instance):
        states = instance.states
        prepared = instance.prepare()
        vplan = VectorizedPlan(prepared)
        cplan = CompiledPlan(prepared)
        vstats, cstats = ExecutionStats(), ExecutionStats()
        for state in states:
            vrun = vplan.execute_state(state, stats=vstats)
            crun = cplan.execute_state(state, stats=cstats)
            assert vrun.result == crun.result
        for field in ("states", "identity_semijoins", "filtering_semijoins"):
            assert getattr(vstats, field) == getattr(cstats, field)
        if vplan.mode_promotions == 0:
            for field in (
                "encoded_slots",
                "cached_slots",
                "keyset_builds",
                "bucket_builds",
            ):
                assert getattr(vstats, field) == getattr(cstats, field)
        else:
            assert (
                vstats.encoded_slots + vstats.cached_slots
                == cstats.encoded_slots + cstats.cached_slots
            )


class TestWithoutNumpy:
    """numpy masked out: the array kernel cannot be built, and every backend
    name that would reach it resolves to compiled (the oracle matrix's
    ``numpy-blocked`` column checks the answers)."""

    def test_array_kernel_unavailable(self, monkeypatch):
        prepared = analyze(chain_schema(2)).prepare(RelationSchema({"x0"}))
        monkeypatch.setattr(vectorized_module, "_np", None)
        assert not numpy_available()
        assert resolve_backend("vectorized") == "compiled"
        assert resolve_backend("auto") == "compiled"
        with pytest.raises(ImportError):
            VectorizedPlan(prepared)


@requires_numpy
class TestValueSemantics:
    def test_identity_pinned_then_promotion(self):
        """A plan that saw pure-int columns first must still join later
        states carrying values int64 cannot hold (promotion restart)."""
        schema = DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])
        target = RelationSchema("ac")
        prepared = analyze(schema).prepare(target)
        plan = VectorizedPlan(prepared)
        first = DatabaseState(
            schema,
            [Relation(schema[0], [(5, 1)]), Relation(schema[1], [(1, 9)])],
        )
        plan.execute_state(first)  # pins attributes to identity mode
        mixed = DatabaseState(
            schema,
            [
                Relation(schema[0], [(5.0, True), (1 << 70, 1)]),
                Relation(schema[1], [(1.0, 9)]),
            ],
        )
        classic = prepared.execute(mixed, backend="classic")
        run = plan.execute_state(mixed)
        _assert_runs_agree(classic, run)
        assert plan.mode_promotions >= 1

    def test_nullary_relation_slot(self):
        schema = DatabaseSchema([RelationSchema("ab"), RelationSchema(())])
        target = RelationSchema("ab")
        prepared = analyze(schema).prepare(target)
        for nullary_rows in ([], [()]):
            state = DatabaseState(
                schema,
                [
                    Relation(schema[0], [(1, 2), (3, 4)]),
                    Relation(schema[1], nullary_rows),
                ],
            )
            classic = prepared.execute(state, backend="classic")
            run = prepared.execute(state, backend="vectorized")
            _assert_runs_agree(classic, run)


class TestTrailingNulStrings:
    """Strings that differ only in trailing NULs stay distinct values (numpy's
    unicode dtype would drop the NULs and merge them)."""

    @staticmethod
    def _query():
        schema = DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])
        return schema, analyze(schema).prepare(RelationSchema("ac"))

    @requires_numpy
    def test_explicit_vectorized(self):
        schema, prepared = self._query()
        state = DatabaseState(
            schema,
            [
                Relation(schema[0], [(1, "k"), (2, "k\x00")]),
                Relation(schema[1], [("k", "x")]),
            ],
        )
        classic = prepared.execute(state, backend="classic")
        assert set(classic.result.rows) == {(1, "x")}
        _assert_runs_agree(classic, prepared.execute(state, backend="vectorized"))

    def test_auto(self):
        schema, prepared = self._query()
        state = DatabaseState(
            schema,
            [
                Relation(
                    schema[0],
                    [(i, f"s{i % 50}") for i in range(2000)] + [(2000, "s0\x00")],
                ),
                Relation(schema[1], [(f"s{j}", "x") for j in range(50)]),
            ],
        )
        run = prepared.execute(state)
        assert run.backend == ("vectorized" if numpy_available() else "compiled")
        assert run.result == prepared.execute(state, backend="classic").result
        assert len(run.result) == 2000


def _assert_fused_matches(prepared, state) -> None:
    """The plan fuses its last root join, and agrees with classic (answer,
    counts, max intermediate size) and with compiled (key-set and bucket
    builds)."""
    vplan = VectorizedPlan(prepared)
    assert vplan._fused is not None
    cplan = CompiledPlan(prepared)
    vstats, cstats = ExecutionStats(), ExecutionStats()
    run = vplan.execute_state(state, stats=vstats)
    cplan.execute_state(state, stats=cstats)
    _assert_runs_agree(prepared.execute(state, backend="classic"), run)
    assert vstats.keyset_builds == cstats.keyset_builds
    assert vstats.bucket_builds == cstats.bucket_builds


@pytest.fixture
def emitted(monkeypatch):
    """What each fused step returned: its final columns, or ``None`` when
    it fell back to materializing the join."""
    results = []
    emit = VectorizedPlan._emit_fused

    def spy(self, *args):
        results.append(emit(self, *args))
        return results[-1]

    monkeypatch.setattr(VectorizedPlan, "_emit_fused", spy)
    return results


@requires_numpy
class TestFusedRootJoin:
    """The last join into the root emits only the final columns."""

    @staticmethod
    def _state(schema, rng, rows, values):
        return DatabaseState(
            schema,
            [
                Relation(
                    rs,
                    [
                        tuple(rng.choice(values) for _ in rs.sorted_attributes())
                        for _ in range(rows)
                    ],
                )
                for rs in schema.relations
            ],
        )

    VALUE_SETS = {
        "identity": list(range(-6, 6)),
        "dictionary": [f"v{i}" for i in range(12)],
    }

    @pytest.mark.parametrize("mode", ["identity", "dictionary"])
    @pytest.mark.parametrize(
        "notation,target,root",
        [
            # a and c from the mother, b from the child: interleaved.
            ("acd,bd", "abc", None),
            # a from the mother, c from the child, in target order.
            ("ab,bc", "ac", None),
            # every final column from the child (explicit root).
            ("ab,bc", "c", 0),
            ("abc,cd,de", "ae", 0),
        ],
    )
    def test_column_splits(self, mode, notation, target, root, emitted):
        schema = parse_schema(notation)
        prepared = analyze(schema).prepare(RelationSchema(target), root=root)
        rng = random.Random(f"{notation}/{target}/{mode}")
        for _ in range(5):
            state = self._state(schema, rng, 40, self.VALUE_SETS[mode])
            _assert_fused_matches(prepared, state)
        assert emitted and all(result is not None for result in emitted)

    def test_no_fused_step_takes_only_mother_columns(self):
        """Final columns all from the mother do not occur: the child's new
        columns in the last root join are target columns, since any other
        kept column already sits in the root.  This sweep pins that."""
        rng = random.Random(24)
        fused = 0
        for _ in range(300):
            schema = random_tree_schema(rng.randint(2, 7), rng=rng.randint(0, 10**6))
            attrs = schema.attributes.sorted_attributes()
            target = RelationSchema(rng.sample(attrs, rng.randint(1, min(4, len(attrs)))))
            root = rng.choice([None] + list(range(len(schema))))
            plan = VectorizedPlan(analyze(schema).prepare(target, root=root))
            if plan._fused is not None:
                fused += 1
                assert plan._fused[2]
        assert fused > 50

    def test_negative_ints(self, emitted):
        schema = parse_schema("acd,bd")
        prepared = analyze(schema).prepare(RelationSchema("abc"))
        rng = random.Random(7)
        state = self._state(schema, rng, 60, [-1000, -3, -1, 0, 5, 1000])
        _assert_fused_matches(prepared, state)
        assert emitted and emitted[0] is not None

    @pytest.mark.parametrize(
        "notation,target",
        [
            # Two mother columns: the mother's own span passes 2^62.
            ("acd,bd", "abc"),
            # One column a side: each span fits, their product does not.
            ("ab,bc", "ac"),
        ],
    )
    def test_span_past_pack_limit_falls_back(self, notation, target, emitted):
        """Identity columns near 2^61: the packed span reaches 2^62, so the
        step materializes the join and dedups it as an unfused step does."""
        schema = parse_schema(notation)
        prepared = analyze(schema).prepare(RelationSchema(target))
        big = 1 << 61
        rng = random.Random(61)
        for _ in range(5):
            state = self._state(schema, rng, 30, [0, 1, big - 1, big, big + 1])
            _assert_fused_matches(prepared, state)
        assert emitted and all(result is None for result in emitted)

    def test_empty_join_output(self, emitted):
        schema = parse_schema("ab,bc")
        prepared = analyze(schema).prepare(RelationSchema("ac"))
        state = DatabaseState(
            schema,
            [Relation(schema[0], [(1, 2), (3, 4)]), Relation(schema[1], [(5, 6)])],
        )
        _assert_fused_matches(prepared, state)
        assert emitted == []

    @settings(max_examples=80, deadline=None)
    @given(instances("tree", max_states=1))
    def test_random_tree_schemas(self, instance):
        prepared = instance.prepare()
        if VectorizedPlan(prepared)._fused is None:
            return
        _assert_fused_matches(prepared, instance.states[0])
