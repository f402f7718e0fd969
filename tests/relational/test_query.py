"""Unit tests for natural-join queries and empirical weak containment."""

from __future__ import annotations

import pytest

from repro.exceptions import SchemaError
from repro.hypergraph import RelationSchema, parse_schema
from repro.relational import (
    NaturalJoinQuery,
    Relation,
    random_ur_database,
    weakly_contained_empirically,
    weakly_equivalent_empirically,
)


class TestEvaluation:
    def test_evaluate_matches_manual_join(self, chain4):
        state = random_ur_database(chain4, tuple_count=20, domain_size=3, rng=3)
        query = NaturalJoinQuery(chain4, RelationSchema("ad"))
        manual = (
            state[0].natural_join(state[1]).natural_join(state[2]).project("ad")
        )
        assert query.evaluate(state) == manual
        assert query.evaluate(state, naive=True) == manual

    def test_evaluate_on_universal(self, triangle):
        universal = Relation("abc", [(0, 0, 0), (1, 1, 1)])
        query = NaturalJoinQuery(triangle, RelationSchema("ab"))
        assert query.evaluate_on_universal(universal) == universal.project("ab")

    def test_state_schema_mismatch_rejected(self, chain4, triangle):
        state = random_ur_database(triangle, rng=1)
        with pytest.raises(SchemaError):
            NaturalJoinQuery(chain4, RelationSchema("a")).evaluate(state)

    def test_validate_target(self, chain4):
        NaturalJoinQuery(chain4, RelationSchema("ab")).validate()
        with pytest.raises(SchemaError):
            NaturalJoinQuery(chain4, RelationSchema("az")).validate()


class TestEmpiricalContainment:
    def test_smaller_join_contains_full_join(self):
        schema = parse_schema("ab,bc,ac")
        sub = parse_schema("ab,bc")
        full = NaturalJoinQuery(schema, RelationSchema("ac"))
        partial = NaturalJoinQuery(sub, RelationSchema("ac"))
        # The full query is contained in the partial one on UR databases ...
        assert weakly_contained_empirically(full, partial, rng=0) is None
        # ... but not conversely: sampling finds a counterexample.
        assert weakly_contained_empirically(partial, full, rng=0) is not None

    def test_equivalence_of_redundant_subset_relation(self):
        first = NaturalJoinQuery(parse_schema("ab,bc"), RelationSchema("ac"))
        second = NaturalJoinQuery(parse_schema("ab,bc,b"), RelationSchema("ac"))
        assert weakly_equivalent_empirically(first, second, rng=1) is None

    def test_target_mismatch_rejected(self):
        first = NaturalJoinQuery(parse_schema("ab"), RelationSchema("a"))
        second = NaturalJoinQuery(parse_schema("ab"), RelationSchema("b"))
        with pytest.raises(SchemaError):
            weakly_contained_empirically(first, second)

    def test_counterexample_is_a_real_witness(self):
        schema = parse_schema("ab,bc,ac")
        sub = parse_schema("ab,bc")
        full = NaturalJoinQuery(schema, RelationSchema("ac"))
        partial = NaturalJoinQuery(sub, RelationSchema("ac"))
        witness = weakly_contained_empirically(partial, full, rng=0)
        assert witness is not None
        assert not partial.evaluate_on_universal(witness).issubset(
            full.evaluate_on_universal(witness)
        )
