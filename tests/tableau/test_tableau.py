"""Unit tests for tableaux and the standard tableau ``Tab(D, X)``."""

from __future__ import annotations

import pytest

from repro.exceptions import TableauError
from repro.tableau import (
    Tableau,
    VariableKind,
    distinguished,
    shared,
    standard_tableau,
    unique,
)


class TestVariables:
    def test_kinds(self):
        assert distinguished("a").is_distinguished
        assert not shared("a").is_distinguished
        assert unique("a", 3).is_nondistinguished

    def test_equality_and_rendering(self):
        assert distinguished("a") == distinguished("a")
        assert shared("a") != distinguished("a")
        assert unique("a", 1) != unique("a", 2)
        assert distinguished("a").render() == "a"
        assert shared("a").render() == "a'"
        assert unique("a", 3).render() == "a''3"


class TestStandardTableau:
    def test_row_per_relation_and_summary(self, chain4):
        tab = standard_tableau(chain4, "ad")
        assert len(tab) == 3
        assert tab.columns == ("a", "b", "c", "d")
        assert tab.summary == frozenset({"a", "d"})

    def test_cell_kinds_follow_the_definition(self, chain4):
        tab = standard_tableau(chain4, "ad")
        # Row 0 is for {a, b}: a is distinguished (in X), b is the shared
        # nondistinguished variable, c and d are unique.
        assert tab.cell(0, "a") == distinguished("a")
        assert tab.cell(0, "b") == shared("b")
        assert tab.cell(0, "c").kind is VariableKind.UNIQUE
        assert tab.cell(0, "d").kind is VariableKind.UNIQUE
        # Row 2 is for {c, d}: d distinguished, c shared.
        assert tab.cell(2, "d") == distinguished("d")
        assert tab.cell(2, "c") == shared("c")

    def test_shared_variables_are_shared_across_rows(self, chain4):
        tab = standard_tableau(chain4, "ad")
        assert tab.cell(0, "b") == tab.cell(1, "b")
        assert tab.cell(1, "c") == tab.cell(2, "c")

    def test_unique_variables_are_unique(self, chain4):
        tab = standard_tableau(chain4, "ad")
        occurrences = tab.symbol_occurrences()
        for symbol, positions in occurrences.items():
            if symbol.kind is VariableKind.UNIQUE:
                assert len(positions) == 1

    def test_rows_record_their_origin(self, chain4):
        tab = standard_tableau(chain4, "ad")
        assert [row.origin for row in tab.rows] == [0, 1, 2]

    def test_explicit_universe_pads_columns(self, chain4):
        tab = standard_tableau(chain4, "a", universe="abcdz")
        assert "z" in tab.columns
        assert all(tab.cell(i, "z").kind is VariableKind.UNIQUE for i in range(3))

    def test_universe_must_cover_schema_and_target(self, chain4):
        with pytest.raises(TableauError):
            standard_tableau(chain4, "a", universe="ab")

    def test_repeated_symbols(self, chain4):
        tab = standard_tableau(chain4, "ad")
        repeated = tab.repeated_symbols()
        assert shared("b") in repeated
        assert shared("c") in repeated
        assert distinguished("a") not in repeated  # appears in one row only

    def test_render_mentions_summary(self, chain4):
        text = standard_tableau(chain4, "ad").render()
        assert "summary" in text
        assert "a''" in text or "b'" in text


class TestTableauStructure:
    def test_row_length_validation(self):
        with pytest.raises(TableauError):
            Tableau(columns=("a", "b"), rows=[(distinguished("a"),)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableauError):
            Tableau(columns=("a", "a"), rows=[])

    def test_summary_must_be_a_column(self):
        with pytest.raises(TableauError):
            Tableau(columns=("a",), rows=[], summary=("z",))

    def test_subtableau_and_without_row(self, chain4):
        tab = standard_tableau(chain4, "ad")
        sub = tab.subtableau([0, 2])
        assert len(sub) == 2
        assert sub.is_subtableau_of(tab)
        assert tab.without_row(1) == sub
        with pytest.raises(TableauError):
            tab.without_row(9)

    def test_equality_is_syntactic(self, chain4):
        assert standard_tableau(chain4, "ad") == standard_tableau(chain4, "ad")
        assert standard_tableau(chain4, "ad") != standard_tableau(chain4, "a")

    def test_column_position_lookup(self, chain4):
        tab = standard_tableau(chain4, "ad")
        assert tab.column_position("c") == 2
        with pytest.raises(TableauError):
            tab.column_position("z")
