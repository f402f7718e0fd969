"""Unit tests for the Section 5.1 lossless-join criteria."""

from __future__ import annotations

import pytest

from repro.core import (
    jd_implies,
    lossless_for_tree_schema,
    lossless_subschemas,
    minimum_equivalent_subschema_is_lossless,
)
from repro.exceptions import NotASubSchemaError, NotATreeSchemaError
from repro.figures import SECTION_5_1_SCHEMA, SECTION_5_1_SUBSCHEMA
from repro.hypergraph import aring, parse_schema
from repro.relational import satisfies_join_dependency, search_implication_counterexample
from repro.tableau import canonical_connection


class TestJdImplies:
    def test_paper_counterexample(self):
        assert not jd_implies(SECTION_5_1_SCHEMA, SECTION_5_1_SUBSCHEMA)

    def test_subtree_of_chain_is_implied(self):
        chain = parse_schema("ab,bc,cd")
        assert jd_implies(chain, parse_schema("ab,bc"))
        assert jd_implies(chain, parse_schema("bc,cd"))
        assert not jd_implies(chain, parse_schema("ab,cd"))

    def test_whole_schema_is_always_implied(self, chain4, triangle):
        for schema in (chain4, triangle):
            assert jd_implies(schema, schema)

    def test_single_relations_are_always_implied(self, triangle):
        for relation in triangle.relations:
            assert jd_implies(triangle, parse_schema(relation.to_notation()))

    def test_ring_does_not_imply_its_path(self):
        ring = aring(4)
        path = ring.sub_schema([0, 1, 2])
        assert not jd_implies(ring, path)

    def test_requires_subordinate(self, chain4):
        with pytest.raises(NotASubSchemaError):
            jd_implies(chain4, parse_schema("xy"))

    def test_syntactic_criterion_agrees_with_semantic_search(self):
        """Cross-validate Theorem 5.1 against randomized counterexample search."""
        cases = [
            (SECTION_5_1_SCHEMA, SECTION_5_1_SUBSCHEMA),
            (parse_schema("ab,bc,cd"), parse_schema("ab,bc")),
            (parse_schema("ab,bc,cd"), parse_schema("ab,cd")),
            (aring(4), aring(4).sub_schema([0, 1])),
            (aring(4), aring(4).sub_schema([0, 1, 2])),
        ]
        for schema, sub in cases:
            implied = jd_implies(schema, sub)
            witness = search_implication_counterexample(schema, sub, trials=40, rng=0)
            if implied:
                assert witness is None, (schema, sub)
            else:
                assert witness is not None, (schema, sub)
                assert satisfies_join_dependency(witness, schema)
                assert not satisfies_join_dependency(witness, sub)


class TestCorollary52:
    def test_tree_schema_lossless_iff_subtree(self, chain4):
        assert lossless_for_tree_schema(chain4, parse_schema("ab,bc"))
        assert not lossless_for_tree_schema(chain4, parse_schema("ab,cd"))

    def test_paper_counterexample_is_not_a_subtree(self):
        assert not lossless_for_tree_schema(SECTION_5_1_SCHEMA, SECTION_5_1_SUBSCHEMA)

    def test_cyclic_schema_rejected(self, triangle):
        with pytest.raises(NotATreeSchemaError):
            lossless_for_tree_schema(triangle, parse_schema("ab"))

    def test_agreement_with_jd_implies_on_trees(self, small_tree_schemas):
        for schema in small_tree_schemas:
            if len(schema) > 5:
                continue
            for sub in schema.iter_sub_schemas():
                assert lossless_for_tree_schema(schema, sub) == jd_implies(schema, sub)


class TestEnumerationAndMinimality:
    def test_lossless_subschemas_of_chain(self):
        chain = parse_schema("ab,bc,cd")
        winners = set(lossless_subschemas(chain, connected_only=True))
        assert parse_schema("ab,bc") in winners
        assert parse_schema("ab,bc,cd") in winners

    def test_minimum_equivalent_subschema_is_lossless(self):
        schema = parse_schema("abg,bcg,acf,ad,de,ea")
        cc = canonical_connection(schema, "abc")
        assert minimum_equivalent_subschema_is_lossless(schema, cc, "abc")

    def test_non_equivalent_subschema_reports_false(self):
        schema = parse_schema("abg,bcg,acf,ad,de,ea")
        assert not minimum_equivalent_subschema_is_lossless(
            schema, parse_schema("abg,bcg"), "abc"
        )
