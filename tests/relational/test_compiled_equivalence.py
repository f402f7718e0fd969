"""Pinned value-semantics and plan-API tests of the compiled row-program
backend.

The random equivalence checks — every entry point on every backend against
``naive_join_project`` — live in the oracle matrix
(``tests/test_oracle_matrix.py``).  What stays here are the hand-built
cases that pin *why* the kernel answers as it does: batch dedupe by state
object, nullary relation slots, and the plan's direct API.  (The matrix's
pinned ``own-values`` case holds each answer to its own state's values.)
"""

from __future__ import annotations

import pytest

from repro.engine import analyze
from repro.hypergraph import (
    DatabaseSchema,
    RelationSchema,
    chain_schema,
    parse_schema,
)
from repro.relational import DatabaseState, Relation


def _assert_runs_agree(classic, compiled) -> None:
    assert compiled.result == classic.result
    assert compiled.semijoin_count == classic.semijoin_count
    assert compiled.join_count == classic.join_count
    assert compiled.max_intermediate_size == classic.max_intermediate_size
    assert classic.backend == "classic"
    assert compiled.backend == "compiled"


class TestEncodeDecodeRoundTrip:
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
