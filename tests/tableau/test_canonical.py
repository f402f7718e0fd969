"""Unit tests for canonical schemas and canonical connections (CS / CC)."""

from __future__ import annotations


from repro.hypergraph import (
    aring,
    chain_schema,
    gyo_reduction,
    parse_schema,
    random_tree_schema,
)
from repro.tableau import (
    canonical_connection,
    canonical_connection_result,
    canonical_schema,
    standard_tableau,
)


class TestCanonicalSchema:
    def test_standard_tableau_of_reduced_schema_reads_back(self, chain4):
        # For a reduced schema with X = U(D), CS(Tab) is the schema itself.
        tab = standard_tableau(chain4, chain4.attributes)
        assert canonical_schema(tab) == chain4

    def test_unique_columns_are_dropped(self):
        tab = standard_tableau(parse_schema("abg,bcg,acf"), "abc").subtableau([0, 1, 2])
        schema = canonical_schema(tab)
        # f occurs in a single row and is not distinguished, so it disappears.
        assert schema == parse_schema("abg,bcg,ac")


class TestCanonicalConnection:
    def test_section6_example(self):
        schema = parse_schema("abg,bcg,acf,ad,de,ea")
        assert canonical_connection(schema, "abc") == parse_schema("abg,bcg,ac")

    def test_result_object_exposes_derivation(self):
        schema = parse_schema("abg,bcg,acf,ad,de,ea")
        result = canonical_connection_result(schema, "abc")
        assert len(result.standard) == 6
        assert len(result.minimal_tableau) == 3
        assert result.connection == parse_schema("abg,bcg,ac")
        assert result.target.to_notation() == "abc"

    def test_tree_schema_cc_equals_gr(self, small_tree_schemas):
        """Theorem 3.3(ii) on concrete tree schemas and several targets."""
        for schema in small_tree_schemas:
            universe = schema.attributes.sorted_attributes()
            targets = [universe[:1], universe[:2], universe]
            for target in targets:
                cc = canonical_connection(schema, target)
                gr = gyo_reduction(schema, target).reduction()
                assert cc == gr, (schema, target)

    def test_cc_covered_by_gr_in_general(self, small_cyclic_schemas):
        """Theorem 3.3(i) on cyclic schemas."""
        for schema in small_cyclic_schemas:
            target = schema.attributes.sorted_attributes()[:2]
            cc = canonical_connection(schema, target)
            gr = gyo_reduction(schema, target)
            assert gr.covers(cc), (schema, target)

    def test_cc_with_full_target_on_ring_is_the_ring(self, aring4):
        assert canonical_connection(aring4, aring4.attributes) == aring4

    def test_cc_of_single_relation_target(self, triangle):
        # X equal to one relation of the triangle: only that relation matters.
        assert canonical_connection(triangle, "ab") == parse_schema("ab")

    def test_cc_is_reduced(self):
        for schema in (parse_schema("abc,ab,bc"), parse_schema("abg,bcg,acf,ad,de,ea")):
            cc = canonical_connection(schema, "ab")
            assert cc.is_reduced()

    def test_cc_relations_are_covered_by_schema(self, small_tree_schemas, small_cyclic_schemas):
        for schema in small_tree_schemas + small_cyclic_schemas:
            target = schema.attributes.sorted_attributes()[:2]
            cc = canonical_connection(schema, target)
            assert schema.covers(cc)

    def test_cc_idempotence(self):
        """CC(CC(D, X), X) = CC(D, X) — the canonical connection is a fixpoint."""
        schema = parse_schema("abg,bcg,acf,ad,de,ea")
        cc = canonical_connection(schema, "abc")
        assert canonical_connection(cc, "abc", universe=schema.attributes) == cc

    def test_cc_contains_target_attributes(self):
        for schema in (chain_schema(4), aring(4), parse_schema("abc,ab,bc")):
            target = schema.attributes.sorted_attributes()[:2]
            cc = canonical_connection(schema, target)
            assert set(target) <= set(cc.attributes.attributes)

    def test_padding_universe_does_not_change_cc(self):
        schema = parse_schema("ab,bc")
        assert canonical_connection(schema, "ac") == canonical_connection(
            schema, "ac", universe="abcxyz"
        )

    def test_random_tree_schemas_agree_with_gr(self):
        for seed in range(5):
            schema = random_tree_schema(5, rng=seed)
            target = schema.attributes.sorted_attributes()[:2]
            assert canonical_connection(schema, target) == gyo_reduction(
                schema, target
            ).reduction()
