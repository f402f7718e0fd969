"""Unit tests for the interned-symbol tableau kernel."""

from __future__ import annotations

import pytest

import repro.tableau.containment as containment_module
from repro.hypergraph import DatabaseSchema, chain_schema, parse_schema
from repro.tableau import (
    find_isomorphism,
    standard_tableau,
)
from repro.tableau.kernel import CompiledTableau, find_row_mapping, iter_bits


class TestCompiledTableau:
    def test_compiled_is_cached_on_the_tableau(self, chain4):
        tab = standard_tableau(chain4, "ad")
        assert tab.compiled() is tab.compiled()

    def test_distinguished_codes_occupy_the_low_range(self, chain4):
        tab = standard_tableau(chain4, "ad")
        compiled = tab.compiled()
        assert isinstance(compiled, CompiledTableau)
        for code, symbol in enumerate(compiled.symbols):
            assert symbol.is_distinguished == (code < compiled.n_distinguished)
            assert compiled.code_of[symbol] == code
        # chain4 = (ab, bc, cd), target ad: distinguished a and d.
        assert compiled.n_distinguished == 2

    def test_row_and_column_codes_agree(self, chain4):
        tab = standard_tableau(chain4, "ad")
        compiled = tab.compiled()
        for row_index in range(compiled.n_rows):
            for position in range(compiled.n_columns):
                assert (
                    compiled.row_codes[row_index][position]
                    == compiled.column_codes[position][row_index]
                )
                symbol = compiled.symbols[compiled.row_codes[row_index][position]]
                assert symbol == tab.rows[row_index].cells[position]

    def test_occurrence_masks_index_rows_by_code(self, chain4):
        tab = standard_tableau(chain4, "ad")
        compiled = tab.compiled()
        for position in range(compiled.n_columns):
            union = 0
            for code, mask in compiled.occurrence_masks[position].items():
                union |= mask
                for row_index in iter_bits(mask):
                    assert compiled.row_codes[row_index][position] == code
            assert union == compiled.all_rows_mask

    def test_column_profiles_are_isomorphism_invariant(self):
        schema = chain_schema(4)
        permuted = DatabaseSchema(tuple(reversed(schema.relations)))
        first = standard_tableau(schema, {"x0", "x4"}).compiled()
        second = standard_tableau(permuted, {"x0", "x4"}).compiled()
        assert first.column_profiles() == second.column_profiles()


class TestRowMappingMasks:
    """``find_row_mapping`` over row bitmasks is minimization's substrate."""

    def test_full_masks_find_the_identity(self, chain4):
        compiled = standard_tableau(chain4, "ad").compiled()
        found = find_row_mapping(compiled, compiled)
        assert found is not None
        row_image, _ = found
        assert row_image == {0: 0, 1: 1, 2: 2}

    def test_restricting_the_target_detects_redundancy(self):
        tab = standard_tableau(parse_schema("abc,ab,bc"), "abc")
        compiled = tab.compiled()
        full = compiled.all_rows_mask
        # Rows 1 (ab) and 2 (bc) fold onto row 0 (abc): dropping either
        # still leaves a containment mapping from the full tableau.
        for dropped in (1, 2):
            found = find_row_mapping(
                compiled, compiled, source_rows=full, target_rows=full & ~(1 << dropped)
            )
            assert found is not None
            row_image, _ = found
            assert row_image[dropped] != dropped
        # Dropping row 0 is impossible: only it carries all three
        # distinguished variables, and rows 1/2 cannot cover for it.
        assert (
            find_row_mapping(
                compiled, compiled, source_rows=full, target_rows=full & ~1
            )
            is None
        )

    def test_empty_source_mask_succeeds_trivially(self, chain4):
        compiled = standard_tableau(chain4, "ad").compiled()
        found = find_row_mapping(compiled, compiled, source_rows=0)
        assert found is not None
        assert found[0] == {}


class TestIsomorphismShortCircuits:
    def test_row_count_mismatch_skips_backtracking(self, chain4, monkeypatch):
        tab = standard_tableau(chain4, "ad")
        monkeypatch.setattr(
            containment_module,
            "find_isomorphism_mapping",
            lambda *args: (_ for _ in ()).throw(AssertionError("backtracking entered")),
        )
        assert find_isomorphism(tab, tab.without_row(0)) is None

    def test_column_profile_mismatch_skips_backtracking(self, monkeypatch):
        # Same row count, same columns, but e.g. column a of the first holds
        # one distinguished and one unique symbol while the second holds two
        # distinguished ones.
        first = standard_tableau(parse_schema("ab,bc"), "ac", universe="abc")
        second = standard_tableau(parse_schema("ab,ab"), "ac", universe="abc")
        monkeypatch.setattr(
            containment_module,
            "find_isomorphism_mapping",
            lambda *args: (_ for _ in ()).throw(AssertionError("backtracking entered")),
        )
        assert find_isomorphism(first, second) is None

    @pytest.mark.parametrize("size", [4, 12, 16])
    def test_profiles_equal_still_requires_search(self, size):
        # Permuted relation order: profiles agree and the search succeeds.
        schema = chain_schema(size)
        permuted = DatabaseSchema(tuple(reversed(schema.relations)))
        first = standard_tableau(schema, {"x0", f"x{size}"})
        second = standard_tableau(permuted, {"x0", f"x{size}"})
        mapping = find_isomorphism(first, second)
        assert mapping is not None
        assert sorted(mapping.row_mapping) == list(range(len(first)))
