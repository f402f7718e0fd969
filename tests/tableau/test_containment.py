"""Unit tests for containment mappings, equivalence and isomorphism."""

from __future__ import annotations

import pytest

from repro.exceptions import TableauError
from repro.hypergraph import aring, parse_schema
from repro.tableau import (
    find_containment_mapping,
    find_isomorphism,
    has_containment_mapping,
    standard_tableau,
    tableaux_equivalent,
    tableaux_isomorphic,
)


class TestContainmentMappings:
    def test_identity_mapping_always_exists(self, chain4):
        tab = standard_tableau(chain4, "ad")
        mapping = find_containment_mapping(tab, tab)
        assert mapping is not None
        assert mapping.row_mapping == (0, 1, 2)

    def test_subtableau_maps_into_full_tableau(self, chain4):
        tab = standard_tableau(chain4, "ad")
        sub = tab.subtableau([0, 2])
        assert has_containment_mapping(sub, tab)

    def test_distinguished_variables_must_be_preserved(self):
        # (ab) with target ab vs (ab) with target a: the first tableau's
        # distinguished b cannot map to a nondistinguished symbol.
        first = standard_tableau(parse_schema("ab"), "ab")
        second = standard_tableau(parse_schema("ab"), "a", universe="ab")
        assert not has_containment_mapping(first, second)
        assert has_containment_mapping(second, first)

    def test_section6_rows_fold_onto_the_core(self):
        # D = (abg, bcg, acf, ad, de, ea), X = abc: the rows for ad, de, ea
        # all fold onto the abg row (see Section 6 of the paper).
        schema = parse_schema("abg,bcg,acf,ad,de,ea")
        tab = standard_tableau(schema, "abc")
        core = tab.subtableau([0, 1, 2])
        mapping = find_containment_mapping(tab, core)
        assert mapping is not None
        assert set(mapping.row_mapping[:3]) == {0, 1, 2}

    def test_no_mapping_between_unrelated_queries(self):
        first = standard_tableau(parse_schema("ab,bc"), "ac")
        second = standard_tableau(parse_schema("ab"), "ac", universe="abc")
        # (ab,bc) produces tuples only when a path a-b-c exists; (ab) cannot
        # simulate it: no containment mapping from second to first... but the
        # interesting direction is first -> second which must also fail since
        # second has no row with a distinguished c.
        assert not has_containment_mapping(first, second)

    def test_column_mismatch_is_rejected(self, chain4):
        first = standard_tableau(chain4, "ad")
        second = standard_tableau(parse_schema("ab"), "a")
        with pytest.raises(TableauError):
            find_containment_mapping(first, second)

    def test_empty_tableaux(self, chain4):
        tab = standard_tableau(chain4, "ad")
        empty = tab.subtableau([])
        assert has_containment_mapping(empty, tab)
        assert not has_containment_mapping(tab, empty)

    def test_symbol_mapping_is_consistent(self, chain4):
        tab = standard_tableau(chain4, "ad")
        sub = tab.without_row(0)
        mapping = find_containment_mapping(sub, tab)
        assert mapping is not None
        for row_index, row in enumerate(sub.rows):
            image = tab.rows[mapping.row_mapping[row_index]]
            for column_index, symbol in enumerate(row.cells):
                assert mapping.symbol_mapping[symbol] == image.cells[column_index]


class TestEquivalenceAndIsomorphism:
    def test_equivalence_is_reflexive_and_symmetric(self, chain4, triangle):
        for schema in (chain4, triangle):
            tab = standard_tableau(schema, "ab")
            assert tableaux_equivalent(tab, tab)

    def test_redundant_relation_gives_equivalent_tableau(self):
        # (ab, bc) and (ab, bc, b) are weakly equivalent queries: the extra
        # row for (b) folds onto either existing row.
        first = standard_tableau(parse_schema("ab,bc"), "ac")
        second = standard_tableau(parse_schema("ab,bc,b"), "ac", universe="abc")
        first = standard_tableau(parse_schema("ab,bc"), "ac", universe="abc")
        assert tableaux_equivalent(first, second)

    def test_ring_not_equivalent_to_chain(self):
        ring = standard_tableau(aring(3), "ac", universe="abc")
        chain = standard_tableau(parse_schema("ab,bc"), "ac", universe="abc")
        assert has_containment_mapping(chain, ring)
        assert not has_containment_mapping(ring, chain)
        assert not tableaux_equivalent(ring, chain)

    def test_isomorphism_requires_equal_row_counts(self, chain4):
        tab = standard_tableau(chain4, "ad")
        assert not tableaux_isomorphic(tab, tab.without_row(0))

    def test_isomorphic_to_itself(self, figure1_tree):
        tab = standard_tableau(figure1_tree, "af")
        iso = find_isomorphism(tab, tab)
        assert iso is not None
        assert sorted(iso.row_mapping) == list(range(len(tab)))

    def test_isomorphism_between_renumbered_schemas(self):
        # The same schema listed in a different relation order yields an
        # isomorphic (not merely equivalent) standard tableau.
        first = standard_tableau(parse_schema("ab,bc,cd"), "ad")
        second = standard_tableau(parse_schema("cd,bc,ab"), "ad")
        assert tableaux_isomorphic(first, second)

    def test_equivalent_but_not_isomorphic(self):
        first = standard_tableau(parse_schema("ab,bc"), "ac", universe="abc")
        second = standard_tableau(parse_schema("ab,bc,b"), "ac", universe="abc")
        assert tableaux_equivalent(first, second)
        assert not tableaux_isomorphic(first, second)
