"""Property-based tests: the compiled row-program backend ≡ the classic
object-tuple operators on every exposed entry point.

The classic executor (``backend="classic"``) is the retained oracle — it is
itself property-tested against ``naive_join_project`` — and shares no
execution code with :mod:`repro.relational.compiled`: no positional step
programs, no cached key indexes.  Agreement on random tree
schemas and random states (empty relations, dangling tuples, mixed value
types across the numeric tower, repeated relations across states) is strong
evidence the compilation is faithful.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import analyze, clear_analysis_cache
from repro.hypergraph import (
    DatabaseSchema,
    RelationSchema,
    chain_schema,
    parse_schema,
    random_tree_schema,
    star_schema,
)
from repro.relational import DatabaseState, Relation, numpy_available, yannakakis

#: Value pool spanning the numeric tower (1 == 1.0 == True) plus strings and
#: None, so equal values of different types meet in keys and joins.
VALUES = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([1.0, 2.5, -1.0, True, False, "a", "b", "v1", None]),
)


def _build_schema(family: str, size: int, seed: int) -> DatabaseSchema:
    if family == "chain":
        return chain_schema(size)
    if family == "star":
        return star_schema(max(size, 2))
    return random_tree_schema(size, rng=seed)


@st.composite
def tree_instances(draw, max_states: int = 1):
    """A tree schema, a target, and ``max_states`` random (possibly
    repeated) states with independently sized relations."""
    family = draw(st.sampled_from(["chain", "star", "random-tree"]))
    size = draw(st.integers(1, 5))
    schema = _build_schema(family, size, draw(st.integers(0, 10**6)))
    attrs = schema.attributes.sorted_attributes()
    target = RelationSchema(
        draw(st.sets(st.sampled_from(list(attrs)), max_size=min(3, len(attrs))))
    )

    def draw_state() -> DatabaseState:
        relations = []
        for relation_schema in schema.relations:
            width = len(relation_schema.sorted_attributes())
            rows = draw(
                st.lists(st.tuples(*([VALUES] * width)), min_size=0, max_size=8)
            )
            relations.append(Relation(relation_schema, rows))
        return DatabaseState(schema, relations)

    states = [draw_state()]
    while len(states) < max_states:
        if draw(st.booleans()):
            # Repeat an earlier state object: the batch paths must amortize
            # (and stay correct) when relations recur across states.
            states.append(states[draw(st.integers(0, len(states) - 1))])
        else:
            states.append(draw_state())
    return schema, target, states


def _assert_runs_agree(classic, compiled) -> None:
    assert compiled.result == classic.result
    assert compiled.semijoin_count == classic.semijoin_count
    assert compiled.join_count == classic.join_count
    assert compiled.max_intermediate_size == classic.max_intermediate_size
    assert classic.backend == "classic"
    assert compiled.backend == "compiled"


class TestExecuteEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(tree_instances())
    def test_execute_matches_classic(self, instance):
        schema, target, (state,) = instance
        prepared = analyze(schema).prepare(target)
        classic = prepared.execute(state, backend="classic")
        compiled = prepared.execute(state, backend="compiled")
        _assert_runs_agree(classic, compiled)

    @settings(max_examples=40, deadline=None)
    @given(tree_instances(max_states=4))
    def test_execute_many_matches_classic(self, instance):
        schema, target, states = instance
        prepared = analyze(schema).prepare(target)
        classic_runs = prepared.execute_many(states, backend="classic")
        compiled_runs = prepared.execute_many(states, backend="compiled")
        assert len(classic_runs) == len(compiled_runs)
        for classic, compiled in zip(classic_runs, compiled_runs):
            _assert_runs_agree(classic, compiled)
        # One shared stats object describes the whole batch; repeated states
        # are deduplicated rather than re-executed.
        stats_ids = {id(run.stats) for run in compiled_runs}
        assert len(stats_ids) == 1
        stats = compiled_runs[0].stats
        assert stats.states + stats.deduped_states == len(states)

    @settings(max_examples=40, deadline=None)
    @given(tree_instances())
    def test_yannakakis_wrapper_routes_backends(self, instance):
        schema, target, (state,) = instance
        classic = yannakakis(schema, target, state, backend="classic")
        compiled = yannakakis(schema, target, state, backend="compiled")
        _assert_runs_agree(classic, compiled)

    @settings(max_examples=30, deadline=None)
    @given(tree_instances())
    def test_fresh_plan_equivalence(self, instance):
        """Cold path: a fresh analysis (and thus a fresh interner) per call."""
        schema, target, (state,) = instance
        clear_analysis_cache()
        compiled = yannakakis(schema, target, state, backend="compiled")
        clear_analysis_cache()
        classic = yannakakis(schema, target, state, backend="classic")
        _assert_runs_agree(classic, compiled)


class TestEncodeDecodeRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_decode_encode_round_trip(self, data):
        """π_U(R) over the single-relation schema [R] is R itself, and the
        compiled run computes it as decode(encode(R)) verbatim."""
        attrs = data.draw(
            st.sets(st.sampled_from(list("abcd")), min_size=1, max_size=3)
        )
        relation_schema = RelationSchema(attrs)
        width = len(relation_schema.sorted_attributes())
        rows = data.draw(
            st.lists(st.tuples(*([VALUES] * width)), min_size=0, max_size=10)
        )
        relation = Relation(relation_schema, rows)
        schema = DatabaseSchema([relation_schema])
        prepared = analyze(schema).prepare(relation_schema)
        run = prepared.execute(DatabaseState(schema, [relation]), backend="compiled")
        assert run.backend == "compiled"
        assert run.result == relation

    def test_round_trip_returns_input_rows_without_interning(self):
        schema = DatabaseSchema([RelationSchema("ab")])
        prepared = analyze(schema).prepare(RelationSchema("ab"))
        prepared.reset_compiled()  # other tests may share this cached plan
        plan = prepared.compiled
        states = [
            DatabaseState(
                schema, [Relation(schema[0], [("k", i), ("k", i + 1.0)])]
            )
            for i in range(4)
        ]
        runs = prepared.execute_many(states, backend="compiled")
        for state, run in zip(states, runs):
            # The answer's rows are the input rows, cell types included.
            assert _cells(run.result) == _cells(state.relations[0])
        # The compiled kernel runs on the values: nothing is interned.
        assert plan.interned_value_count() == 0


def _cells(relation):
    """A relation's rows with each cell's type, so ``1``, ``1.0`` and
    ``True`` compare unequal."""
    return sorted(
        (tuple((type(v).__name__, repr(v)) for v in row) for row in relation.rows)
    )


class TestValueSemantics:
    def test_numeric_tower_joins_across_relations(self):
        schema = DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])
        target = RelationSchema("ac")
        prepared = analyze(schema).prepare(target)
        state = DatabaseState(
            schema,
            [
                Relation(schema[0], [(1, "x"), (2.0, "y"), (True, "z")]),
                Relation(schema[1], [("x", 10), ("y", 2), ("z", 30)]),
            ],
        )
        classic = prepared.execute(state, backend="classic")
        compiled = prepared.execute(state, backend="compiled")
        _assert_runs_agree(classic, compiled)
        assert len(compiled.result) == 3

    def test_answers_carry_the_states_own_values(self):
        """Each answer holds the values of its own state, as classic's does:
        equal values of another type that the plan met in an earlier state
        never stand in for them."""
        schema = DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])
        prepared = analyze(schema).prepare(RelationSchema("ac"))
        prepared.reset_compiled()  # a fresh plan
        for a, c in ((1.0, "y"), (1, "y"), (True, "x")):
            state = DatabaseState(
                schema,
                [
                    Relation(schema[0], [(a, 0)]),
                    Relation(schema[1], [(0, c)]),
                ],
            )
            classic = prepared.execute(state, backend="classic")
            compiled = prepared.execute(state, backend="compiled")
            _assert_runs_agree(classic, compiled)
            assert _cells(compiled.result) == _cells(classic.result)

    def test_batch_dedupe_keeps_equal_representations_apart(self):
        """A batch shares a run only between repeats of one state object:
        equal states of different representations (``1.0``, ``1``, ``True``)
        each answer with their own values, as classic does — on the compiled
        kernel, under ``auto``, through ``prepare_cyclic`` and for a
        generator-fed batch."""
        from repro.engine.routing import RoutingPolicy

        def chain_states():
            schema = DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])
            return schema, RelationSchema("ac"), [
                DatabaseState(
                    schema,
                    [Relation(schema[0], [(a, 0)]), Relation(schema[1], [(0, "x")])],
                )
                for a in (1.0, 1, True)
            ]

        def ring_states():
            schema = parse_schema("ab,bc,cd,da")
            return schema, RelationSchema("ac"), [
                DatabaseState(
                    schema,
                    [
                        Relation(schema[0], [(a, 0)]),
                        Relation(schema[1], [(0, "c")]),
                        Relation(schema[2], [("c", 5)]),
                        Relation(schema[3], [(a, 5)]),
                    ],
                )
                for a in (1.0, 1, True)
            ]

        cases = [
            (chain_states, lambda s, t: analyze(s).prepare(t), ("compiled", "auto")),
            (ring_states, lambda s, t: analyze(s).prepare_cyclic(t), ("compiled", "auto")),
        ]
        for make, prepare, backends in cases:
            schema, target, states = make()
            prepared = prepare(schema, target)
            expected = [
                _cells(prepared.execute(state, backend="classic").result)
                for state in states
            ]
            assert len(set(map(tuple, expected))) == 3  # the oracle tells them apart
            assert RoutingPolicy().decide(prepared, states).unique_states == 3
            for backend in backends:
                prepared.reset_compiled()
                runs = prepared.execute_many(states + states[:1], backend=backend)
                assert [_cells(run.result) for run in runs] == expected + expected[:1]
                assert runs[3] is runs[0]
                # A generator hands over each state once; none may die (and
                # free its id for the next) before the batch is done.
                prepared.reset_compiled()
                fed = prepared.execute_many(
                    (make()[2][index] for index in range(3)), backend=backend
                )
                assert [_cells(run.result) for run in fed] == expected

    def test_vectorized_answers_equal_classic_by_value(self):
        """The vectorized kernel's documented contract on the same states:
        its answers equal classic's by value (a dictionary-mode cell may be
        an equal value of another type that the plan interned first)."""
        if not numpy_available():
            pytest.skip("the vectorized kernel requires numpy")
        schema = DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])
        prepared = analyze(schema).prepare(RelationSchema("ac"))
        prepared.reset_compiled()  # a fresh plan
        for a, c in ((1.0, "y"), (1, "y"), (True, "x")):
            state = DatabaseState(
                schema,
                [
                    Relation(schema[0], [(a, 0)]),
                    Relation(schema[1], [(0, c)]),
                ],
            )
            classic = prepared.execute(state, backend="classic")
            vectorized = prepared.execute(state, backend="vectorized")
            assert vectorized.result == classic.result
            assert vectorized.max_intermediate_size == classic.max_intermediate_size

    def test_identity_mode_pinned_then_strays_arrive(self):
        """A plan that ran pure-int states first must still join later
        states carrying equal floats, bools, and unrelated strings."""
        schema = DatabaseSchema([RelationSchema("ab"), RelationSchema("bc")])
        target = RelationSchema("ac")
        prepared = analyze(schema).prepare(target)
        first = DatabaseState(
            schema,
            [
                Relation(schema[0], [(5, 1)]),
                Relation(schema[1], [(1, 9)]),
            ],
        )
        prepared.execute(first)
        mixed = DatabaseState(
            schema,
            [
                Relation(schema[0], [(5.0, True), ("s", 1)]),
                Relation(schema[1], [(1.0, 9)]),
            ],
        )
        classic = prepared.execute(mixed, backend="classic")
        compiled = prepared.execute(mixed, backend="compiled")
        _assert_runs_agree(classic, compiled)

    def test_empty_relations_and_empty_target(self):
        schema = chain_schema(3)
        state = DatabaseState(
            schema, [Relation(relation, []) for relation in schema.relations]
        )
        prepared = analyze(schema).prepare(RelationSchema(()))
        classic = prepared.execute(state, backend="classic")
        compiled = prepared.execute(state, backend="compiled")
        _assert_runs_agree(classic, compiled)
        assert len(compiled.result) == 0

    def test_nullary_relation_slot(self):
        """A relation schema over no attributes exercises the empty-shared
        semijoin and join paths."""
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
            compiled = prepared.execute(state, backend="compiled")
            _assert_runs_agree(classic, compiled)

    def test_dangling_tuples_random_states(self):
        rng = random.Random(20260729)
        for _ in range(25):
            schema = _build_schema(
                rng.choice(["chain", "star", "random-tree"]),
                rng.randint(2, 5),
                rng.randint(0, 10**6),
            )
            attrs = schema.attributes.sorted_attributes()
            target = RelationSchema(rng.sample(attrs, min(2, len(attrs))))
            relations = [
                Relation(
                    relation_schema,
                    [
                        tuple(
                            rng.randrange(4)
                            for _ in relation_schema.sorted_attributes()
                        )
                        for _ in range(rng.randrange(0, 12))
                    ],
                )
                for relation_schema in schema.relations
            ]
            state = DatabaseState(schema, relations)
            prepared = analyze(schema).prepare(target)
            classic = prepared.execute(state, backend="classic")
            compiled = prepared.execute(state, backend="compiled")
            _assert_runs_agree(classic, compiled)


class TestCompiledStateApi:
    def test_from_state_executes_repeatedly(self):
        schema = chain_schema(3)
        target = RelationSchema({"x0", "x3"})
        prepared = analyze(schema).prepare(target)
        plan = prepared.compiled
        state = DatabaseState(
            schema,
            [
                Relation(relation, [(i, i + 1) for i in range(4)])
                for relation in schema.relations
            ],
        )
        compiled_state = plan.encode_state(state)
        first = plan.execute(compiled_state)
        second = plan.execute(compiled_state)
        assert first.result == second.result
        assert first.result == prepared.execute(state, backend="classic").result

    def test_wrong_schema_rejected(self):
        import pytest

        from repro.exceptions import SchemaError

        schema = chain_schema(3)
        other = chain_schema(4)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        state = DatabaseState(
            other, [Relation(relation, []) for relation in other.relations]
        )
        with pytest.raises(SchemaError):
            prepared.compiled.encode_state(state)

    def test_empty_schema_direct_plan_api(self):
        from repro.engine import PreparedQuery
        from repro.hypergraph import parse_schema

        schema = parse_schema("")
        prepared = PreparedQuery(schema, RelationSchema(()))
        plan = prepared.compiled
        run = plan.execute(plan.encode_state(DatabaseState(schema, [])))
        assert run.backend == "compiled"
        assert len(run.result) == 1  # nullary true
        assert run.max_intermediate_size == 1
