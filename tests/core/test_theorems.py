"""The theorem checkers evaluated on the paper's instances and small families."""

from __future__ import annotations

import pytest

from repro.core import (
    check_corollary_3_1,
    check_corollary_3_2,
    check_corollary_5_2,
    check_corollary_5_3_gamma,
    check_lemma_3_1,
    check_lemma_3_2,
    check_lemma_3_5,
    check_theorem_3_1_subtree,
    check_theorem_3_2,
    check_theorem_3_3,
    check_theorem_4_1,
    check_theorem_5_1,
    check_theorem_5_2,
    check_theorem_5_3,
)
from repro.figures import (
    FIGURE_1_CASES,
    SECTION_5_1_SCHEMA,
    SECTION_6_EXPECTED_CC,
    SECTION_6_SCHEMA,
    SECTION_6_TARGET,
)
from repro.hypergraph import RelationSchema, aclique, aring, parse_schema, random_tree_schema
from repro.relational import random_ur_database


ALL_SMALL_SCHEMAS = [schema for schema, _ in FIGURE_1_CASES] + [
    aring(4),
    aclique(4),
    SECTION_5_1_SCHEMA,
    parse_schema("ab,bc,cd,da,ac"),
    parse_schema("abc,abd,acd"),
]


class TestSection3Checkers:
    @pytest.mark.parametrize("schema", ALL_SMALL_SCHEMAS, ids=str)
    def test_lemma_3_1(self, schema):
        assert check_lemma_3_1(schema)

    @pytest.mark.parametrize("schema", ALL_SMALL_SCHEMAS, ids=str)
    def test_corollary_3_1(self, schema):
        assert check_corollary_3_1(schema)

    @pytest.mark.parametrize("schema", ALL_SMALL_SCHEMAS, ids=str)
    def test_theorem_3_2(self, schema):
        assert check_theorem_3_2(schema)
        assert check_theorem_3_2(schema, extra=schema.attributes)
        assert check_theorem_3_2(schema, extra=schema.attributes.sorted_attributes()[:2])

    @pytest.mark.parametrize(
        "schema", [aring(4), aclique(3), parse_schema("ab,bc,ac,cd")], ids=str
    )
    def test_corollary_3_2(self, schema):
        assert check_corollary_3_2(schema)

    @pytest.mark.parametrize("schema", ALL_SMALL_SCHEMAS, ids=str)
    def test_theorem_3_3(self, schema):
        for size in (1, 2, len(schema.attributes)):
            target = schema.attributes.sorted_attributes()[:size]
            assert check_theorem_3_3(schema, target), (schema, target)

    def test_theorem_3_1_subtree_characterization(self, figure1_tree, chain4):
        for schema in (figure1_tree, chain4, SECTION_5_1_SCHEMA):
            for sub in schema.iter_sub_schemas():
                assert check_theorem_3_1_subtree(schema, sub)

    def test_lemma_3_2_and_3_5(self):
        pairs = [
            (SECTION_6_SCHEMA, SECTION_6_EXPECTED_CC, SECTION_6_TARGET),
            (parse_schema("ab,bc,ac"), parse_schema("ab,bc"), RelationSchema("ac")),
            (parse_schema("ab,bc"), parse_schema("ab,bc,b"), RelationSchema("ac")),
        ]
        for first, second, target in pairs:
            assert check_lemma_3_2(first, second, target)
            assert check_lemma_3_5(first, second, target)


class TestSection4And5Checkers:
    def test_theorem_4_1_on_section6(self):
        state = random_ur_database(SECTION_6_SCHEMA, tuple_count=20, domain_size=3, rng=0)
        assert check_theorem_4_1(
            SECTION_6_SCHEMA, SECTION_6_EXPECTED_CC, SECTION_6_TARGET, state
        )
        assert check_theorem_4_1(
            SECTION_6_SCHEMA, parse_schema("abg,bcg"), SECTION_6_TARGET, state
        )

    def test_theorem_4_1_on_random_subschemas(self, chain4, triangle):
        for schema in (chain4, triangle):
            state = random_ur_database(schema, tuple_count=15, domain_size=3, rng=1)
            for sub in schema.iter_sub_schemas():
                assert check_theorem_4_1(schema, sub, schema.attributes, state)

    def test_theorem_5_1(self, chain4, triangle):
        for schema in (chain4, triangle, SECTION_5_1_SCHEMA):
            state = random_ur_database(schema, tuple_count=15, domain_size=3, rng=2)
            for sub in schema.iter_sub_schemas():
                assert check_theorem_5_1(schema, sub, state)

    def test_corollary_5_2(self, small_tree_schemas):
        for schema in small_tree_schemas:
            if len(schema) > 5:
                continue
            for sub in schema.iter_sub_schemas():
                assert check_corollary_5_2(schema, sub)

    def test_theorem_5_2(self):
        for schema in ALL_SMALL_SCHEMAS:
            for size in (1, 2):
                target = schema.attributes.sorted_attributes()[:size]
                assert check_theorem_5_2(schema, target)

    @pytest.mark.parametrize("schema", ALL_SMALL_SCHEMAS, ids=str)
    def test_theorem_5_3(self, schema):
        assert check_theorem_5_3(schema)

    @pytest.mark.parametrize(
        "schema",
        [parse_schema("ab,bc"), parse_schema("abc,ab,bc"), aring(4), aclique(3)],
        ids=str,
    )
    def test_corollary_5_3_gamma(self, schema):
        assert check_corollary_5_3_gamma(schema)


class TestCheckersOnRandomTrees:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tree_schema_passes_all_section3_checkers(self, seed):
        schema = random_tree_schema(5, rng=seed)
        assert check_lemma_3_1(schema)
        assert check_corollary_3_1(schema)
        assert check_theorem_3_2(schema)
        target = schema.attributes.sorted_attributes()[:2]
        assert check_theorem_3_3(schema, target)
        assert check_theorem_5_2(schema, target)
