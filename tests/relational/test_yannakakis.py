"""Unit tests for full reducers and Yannakakis' algorithm."""

from __future__ import annotations

import pytest

from repro.engine import analyze
from repro.exceptions import NotATreeSchemaError, SchemaError
from repro.hypergraph import RelationSchema, chain_schema, parse_schema, random_tree_schema
from repro.relational import (
    NaturalJoinQuery,
    full_reduce,
    full_reducer_semijoins,
    naive_join_project,
    random_database_state,
    random_ur_database,
    yannakakis,
)


class TestFullReducer:
    def test_semijoin_count_is_two_n_minus_two(self, chain4):
        steps = full_reducer_semijoins(chain4)
        assert len(steps) == 2 * (len(chain4) - 1)

    def test_cyclic_schema_rejected(self, triangle):
        with pytest.raises(NotATreeSchemaError):
            full_reducer_semijoins(triangle)

    def test_full_reduction_gives_global_consistency(self, chain4):
        state = random_database_state(chain4, tuple_count=25, domain_size=3, rng=7)
        reduced = full_reduce(state)
        joined = reduced.join()
        for relation_schema, relation in zip(reduced.schema, reduced.relations):
            assert relation == joined.project(relation_schema)

    def test_full_reduction_is_idempotent(self, chain4):
        state = random_database_state(chain4, tuple_count=25, domain_size=3, rng=8)
        once = full_reduce(state)
        assert full_reduce(once) == once

    def test_steps_describe_semijoins(self, chain4):
        steps = full_reducer_semijoins(chain4)
        assert all("⋉" in step.describe() for step in steps)


class TestYannakakis:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_on_ur_states(self, seed):
        schema = chain_schema(5)
        target = RelationSchema({"x0", "x5"})
        state = random_ur_database(schema, tuple_count=40, domain_size=4, rng=seed)
        run = yannakakis(schema, target, state)
        baseline, _ = naive_join_project(schema, target, state)
        assert run.result == baseline

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_on_arbitrary_states(self, seed):
        schema = random_tree_schema(6, rng=seed)
        attrs = schema.attributes.sorted_attributes()
        target = RelationSchema({attrs[0], attrs[-1]})
        state = random_database_state(schema, tuple_count=20, domain_size=3, rng=seed)
        run = yannakakis(schema, target, state)
        baseline, _ = naive_join_project(schema, target, state)
        assert run.result == baseline

    def test_intermediate_sizes_never_exceed_naive(self):
        schema = chain_schema(6)
        target = RelationSchema({"x0", "x6"})
        state = random_ur_database(schema, tuple_count=150, domain_size=8, rng=11)
        run = yannakakis(schema, target, state)
        _, naive_max = naive_join_project(schema, target, state)
        assert run.max_intermediate_size <= naive_max

    def test_semijoin_and_join_counts(self):
        schema = chain_schema(4)
        state = random_ur_database(schema, rng=0)
        target = RelationSchema({"x0"})
        run = yannakakis(schema, target, state)
        prepared = analyze(schema).prepare(target)
        # Every join of a chain rooted at x0 is an identity: only the
        # leaf-to-root pass runs.
        assert run.semijoin_count == len(prepared.semijoin_steps) == 3
        assert run.join_count == len(prepared.join_steps) == 0
        assert run.result == naive_join_project(schema, target, state)[0]

    def test_cyclic_schema_rejected(self, triangle):
        state = random_ur_database(triangle, rng=0)
        with pytest.raises(NotATreeSchemaError):
            yannakakis(triangle, RelationSchema("ab"), state)

    def test_target_must_be_in_universe(self, chain4):
        state = random_ur_database(chain4, rng=0)
        with pytest.raises(SchemaError):
            yannakakis(chain4, RelationSchema("az"), state)

    def test_single_relation_schema(self):
        schema = parse_schema("ab")
        state = random_ur_database(schema, tuple_count=5, rng=2)
        run = yannakakis(schema, RelationSchema("a"), state)
        assert run.result == state[0].project("a")

    def test_agrees_with_query_evaluation(self, figure1_tree):
        state = random_ur_database(figure1_tree, tuple_count=30, domain_size=3, rng=4)
        target = RelationSchema("bf")
        run = yannakakis(figure1_tree, target, state)
        query_answer = NaturalJoinQuery(figure1_tree, target).evaluate(state)
        assert run.result == query_answer
