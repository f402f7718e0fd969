"""Unit tests for tableau minimization (minimal tableaux / cores)."""

from __future__ import annotations

from repro.hypergraph import aring, chain_schema, parse_schema
from repro.tableau import (
    is_minimal_tableau,
    minimize_tableau,
    standard_tableau,
    tableaux_equivalent,
    tableaux_isomorphic,
)


class TestMinimization:
    def test_minimal_result_is_equivalent_subtableau(self, chain4):
        tab = standard_tableau(chain4, "ad")
        result = minimize_tableau(tab)
        assert result.minimal.is_subtableau_of(tab)
        assert tableaux_equivalent(tab, result.minimal)
        assert is_minimal_tableau(result.minimal)

    def test_chain_with_endpoint_target_is_already_minimal(self, chain4):
        tab = standard_tableau(chain4, "ad")
        result = minimize_tableau(tab)
        assert result.removed_count == 0
        assert result.kept_rows == (0, 1, 2)
        # Longer chains, where every row-removal attempt must be refuted.
        for size in (10, 12, 14):
            tab = standard_tableau(chain_schema(size), {"x0", f"x{size}"})
            assert minimize_tableau(tab).removed_count == 0

    def test_chain_with_single_endpoint_target_collapses(self):
        # With X = {a} only the relation containing a matters.
        tab = standard_tableau(parse_schema("ab,bc,cd"), "a")
        result = minimize_tableau(tab)
        assert len(result.minimal) == 1
        assert result.kept_rows == (0,)

    def test_section6_example_keeps_three_rows(self):
        schema = parse_schema("abg,bcg,acf,ad,de,ea")
        tab = standard_tableau(schema, "abc")
        result = minimize_tableau(tab)
        assert len(result.minimal) == 3
        assert set(result.kept_rows) == {0, 1, 2}
        assert set(result.removed_rows) == {3, 4, 5}

    def test_rings_do_not_minimize(self):
        for size in (3, 4, 5):
            ring = aring(size)
            tab = standard_tableau(ring, ring.attributes)
            result = minimize_tableau(tab)
            assert result.removed_count == 0

    def test_subset_relations_are_folded_away(self):
        tab = standard_tableau(parse_schema("abc,ab,bc"), "abc")
        result = minimize_tableau(tab)
        assert len(result.minimal) == 1
        assert result.minimal.rows[0].origin == 0

    def test_two_minimal_tableaux_are_isomorphic(self):
        """Lemma 3.4: minimal tableaux for the same query are isomorphic."""
        schema = parse_schema("abg,bcg,acf,ad,de,ea")
        # Present the same query with relations listed in a different order.
        permuted = parse_schema("ea,de,ad,acf,bcg,abg")
        first = minimize_tableau(standard_tableau(schema, "abc")).minimal
        second = minimize_tableau(standard_tableau(permuted, "abc")).minimal
        assert tableaux_isomorphic(first, second)

    def test_duplicate_relations_minimize_to_one_row(self):
        tab = standard_tableau(parse_schema("ab,ab,ab"), "ab")
        result = minimize_tableau(tab)
        assert len(result.minimal) == 1

    def test_longer_chain_interior_target(self):
        schema = chain_schema(6)
        tab = standard_tableau(schema, {"x2", "x3"})
        result = minimize_tableau(tab)
        # Only the relation {x2, x3} is needed.
        assert len(result.minimal) == 1

    def test_is_minimal_tableau_detects_redundancy(self, chain4):
        tab = standard_tableau(parse_schema("abc,ab"), "abc")
        assert not is_minimal_tableau(tab)
