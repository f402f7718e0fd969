"""Unit tests for single-relation treefication (Corollary 3.2)."""

from __future__ import annotations

from repro.hypergraph import (
    aclique,
    aring,
    grid_schema,
    gyo_reduction,
    is_tree_schema,
    parse_schema,
)
from repro.treefication import (
    is_treefying_relation,
    minimum_treefying_relations_bruteforce,
    single_relation_treefication,
    treefying_relation,
)


class TestTreefyingRelation:
    def test_tree_schemas_need_nothing(self, small_tree_schemas):
        for schema in small_tree_schemas:
            assert len(treefying_relation(schema)) == 0
            result = single_relation_treefication(schema)
            assert result.was_already_tree
            assert result.treefied == schema

    def test_aring_needs_all_its_attributes(self, aring4):
        assert treefying_relation(aring4) == aring4.attributes

    def test_treefied_schema_is_a_tree(self, small_cyclic_schemas):
        for schema in small_cyclic_schemas:
            result = single_relation_treefication(schema)
            assert is_tree_schema(result.treefied), schema
            assert result.added_relation == gyo_reduction(schema).attributes

    def test_is_treefying_relation_checks(self, aring4):
        assert is_treefying_relation(aring4, "abcd")
        assert not is_treefying_relation(aring4, "abc")
        assert is_treefying_relation(aring4, "abcdz")  # supersets also work

    def test_grid_treefication(self):
        grid = grid_schema(2, 3)
        result = single_relation_treefication(grid)
        assert is_tree_schema(result.treefied)

    def test_partially_reducible_cyclic_schema(self):
        # A triangle with a pendant chain: the chain reduces away, so only the
        # triangle's attributes are needed.
        schema = parse_schema("ab,bc,ac,cd,de")
        assert treefying_relation(schema) == parse_schema("abc")[0]


class TestMinimality:
    def test_bruteforce_agrees_with_corollary_3_2(self):
        for schema in (aring(4), aclique(3), parse_schema("ab,bc,ac,cd")):
            best = treefying_relation(schema)
            winners = minimum_treefying_relations_bruteforce(schema)
            assert winners
            assert len(winners[0]) == len(best)
            assert best in winners

    def test_every_treefying_relation_contains_the_core(self, aring4):
        """Theorem 3.2(iii): S treefies D ⇒ S ⊇ U(GR(D))."""
        core = treefying_relation(aring4)
        for winner in minimum_treefying_relations_bruteforce(aring4):
            assert core <= winner
