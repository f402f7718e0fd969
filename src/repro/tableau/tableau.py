"""Tableaux and the standard tableau ``Tab(D, X)`` (Section 3.4).

A tableau is a matrix of symbols over a fixed set of attribute columns plus a
summary row.  ``Tab(D, X)`` — the standard tableau for the natural-join query
``(D, X)`` — has one row per relation schema ``R_i ∈ D``:

(i)   column ``A`` of row ``r_i`` holds the distinguished variable ``a`` iff
      ``A ∈ R_i ∩ X``;
(ii)  column ``A`` of row ``r_i`` holds the (per-attribute) nondistinguished
      variable ``a'`` iff ``A ∈ R_i - X``;
(iii) every other entry is a unique nondistinguished variable;
(iv)  the summary holds ``a`` for ``A ∈ X`` and is blank otherwise.

The row order mirrors the schema's relation order, and each row records the
index of the relation schema it came from so canonical-connection
construction and Theorem 5.2-style arguments can relate rows back to relation
schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import TableauError
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema
from .variables import Variable, distinguished, shared, unique

__all__ = ["TableauRow", "Tableau", "standard_tableau"]


@dataclass(frozen=True)
class TableauRow:
    """A single tableau row: a symbol per column plus its origin.

    ``origin`` is the index of the relation schema this row was generated
    from (``None`` for rows built by hand or produced by transformations that
    lose provenance).
    """

    cells: Tuple[Variable, ...]
    origin: Optional[int] = None

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __getitem__(self, position: int) -> Variable:
        return self.cells[position]


class Tableau:
    """An immutable tableau over a fixed tuple of attribute columns."""

    def __init__(
        self,
        columns: Sequence[Attribute],
        rows: Iterable[Union[TableauRow, Sequence[Variable]]],
        summary: Iterable[Attribute] = (),
    ) -> None:
        self._columns: Tuple[Attribute, ...] = tuple(columns)
        if len(set(self._columns)) != len(self._columns):
            raise TableauError("tableau columns must be distinct")
        normalized_rows: List[TableauRow] = []
        for row in rows:
            if isinstance(row, TableauRow):
                cells = row.cells
                origin = row.origin
            else:
                cells = tuple(row)
                origin = None
            if len(cells) != len(self._columns):
                raise TableauError(
                    f"row has {len(cells)} cells but the tableau has "
                    f"{len(self._columns)} columns"
                )
            normalized_rows.append(TableauRow(cells=cells, origin=origin))
        self._rows: Tuple[TableauRow, ...] = tuple(normalized_rows)
        summary_set = frozenset(summary)
        unknown = summary_set - set(self._columns)
        if unknown:
            raise TableauError(
                f"summary attributes {sorted(unknown)} are not tableau columns"
            )
        self._summary: FrozenSet[Attribute] = summary_set
        self._column_index: Dict[Attribute, int] = {
            attribute: position for position, attribute in enumerate(self._columns)
        }
        # Lazily-built interned-symbol form (see repro.tableau.kernel); safe
        # to cache because tableaux are immutable.
        self._compiled = None

    def __getstate__(self):
        # The compiled form is a per-process cache (occurrence bitmasks,
        # interning tables) that every consumer can rebuild lazily; shipping
        # it with the tableau would bloat cross-process pickles for no
        # benefit.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    # -- basic accessors -----------------------------------------------------------

    @property
    def columns(self) -> Tuple[Attribute, ...]:
        """The attribute columns, in order."""
        return self._columns

    @property
    def rows(self) -> Tuple[TableauRow, ...]:
        """The rows, in order."""
        return self._rows

    @property
    def summary(self) -> FrozenSet[Attribute]:
        """The attributes whose summary entry is the distinguished variable."""
        return self._summary

    def __len__(self) -> int:
        return len(self._rows)

    def column_position(self, attribute: Attribute) -> int:
        """The position of a column, raising :class:`TableauError` if absent."""
        try:
            return self._column_index[attribute]
        except KeyError:
            raise TableauError(f"unknown tableau column {attribute!r}") from None

    def cell(self, row_index: int, attribute: Attribute) -> Variable:
        """The symbol in the given row and column."""
        return self._rows[row_index].cells[self.column_position(attribute)]

    def compiled(self):
        """The interned-symbol compiled form of this tableau, built once.

        Returns a :class:`repro.tableau.kernel.CompiledTableau`: every symbol
        interned to an integer code (distinguished variables in the reserved
        low range), column-major code tuples, and per-column occurrence
        bitmask indexes.  Containment search, minimization and canonical
        schema read-off all run on this form; it is cached on the instance,
        so the cost is paid once per tableau however many operations consume
        it.
        """
        compiled = self._compiled
        if compiled is None:
            from .kernel import CompiledTableau  # deferred: kernel imports us for typing

            compiled = CompiledTableau(self)
            self._compiled = compiled
        return compiled

    def symbols(self) -> FrozenSet[Variable]:
        """Every symbol occurring in the tableau."""
        result = set()
        for row in self._rows:
            result.update(row.cells)
        return frozenset(result)

    def distinguished_symbols(self) -> FrozenSet[Variable]:
        """The distinguished variables occurring in the tableau."""
        return frozenset(symbol for symbol in self.symbols() if symbol.is_distinguished)

    def symbol_occurrences(self) -> Dict[Variable, Tuple[Tuple[int, int], ...]]:
        """Map each symbol to the ``(row, column)`` positions where it occurs."""
        occurrences: Dict[Variable, List[Tuple[int, int]]] = {}
        for row_index, row in enumerate(self._rows):
            for column_index, symbol in enumerate(row.cells):
                occurrences.setdefault(symbol, []).append((row_index, column_index))
        return {symbol: tuple(positions) for symbol, positions in occurrences.items()}

    def repeated_symbols(self) -> FrozenSet[Variable]:
        """Symbols occurring in more than one row."""
        repeated = set()
        for symbol, positions in self.symbol_occurrences().items():
            rows_seen = {row_index for row_index, _ in positions}
            if len(rows_seen) > 1:
                repeated.add(symbol)
        return frozenset(repeated)

    # -- subtableaux -----------------------------------------------------------------

    def subtableau(self, row_indices: Iterable[int]) -> "Tableau":
        """The subtableau consisting of the given rows (summary unchanged)."""
        indices = list(row_indices)
        for index in indices:
            if not 0 <= index < len(self._rows):
                raise TableauError(f"row index {index} out of range")
        return Tableau(
            columns=self._columns,
            rows=[self._rows[index] for index in indices],
            summary=self._summary,
        )

    def without_row(self, row_index: int) -> "Tableau":
        """The subtableau obtained by dropping one row."""
        if not 0 <= row_index < len(self._rows):
            raise TableauError(f"row index {row_index} out of range")
        return self.subtableau(
            index for index in range(len(self._rows)) if index != row_index
        )

    def is_subtableau_of(self, other: "Tableau") -> bool:
        """True when this tableau's rows all appear (as symbol tuples) in ``other``
        and both tableaux have the same columns and summary."""
        if self._columns != other._columns or self._summary != other._summary:
            return False
        other_rows = {row.cells for row in other._rows}
        return all(row.cells in other_rows for row in self._rows)

    # -- rendering --------------------------------------------------------------------

    def render(self) -> str:
        """A fixed-width textual rendering (columns, rows, then the summary)."""
        header = ["row"] + list(self._columns)
        body: List[List[str]] = []
        for index, row in enumerate(self._rows):
            label = f"r{index}" if row.origin is None else f"r{index}(R{row.origin})"
            body.append([label] + [symbol.render() for symbol in row.cells])
        summary_row = ["summary"] + [
            column if column in self._summary else "" for column in self._columns
        ]
        body.append(summary_row)
        widths = [
            max(len(header[position]), *(len(line[position]) for line in body))
            for position in range(len(header))
        ]
        lines = ["  ".join(value.ljust(widths[i]) for i, value in enumerate(header))]
        for line in body:
            lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(line)))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Tableau(columns={len(self._columns)}, rows={len(self._rows)}, "
            f"summary={sorted(self._summary)})"
        )

    def __eq__(self, other: object) -> bool:
        """Syntactic equality: same columns, same summary, same rows in order."""
        if not isinstance(other, Tableau):
            return NotImplemented
        return (
            self._columns == other._columns
            and self._summary == other._summary
            and tuple(row.cells for row in self._rows)
            == tuple(row.cells for row in other._rows)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._columns,
                self._summary,
                tuple(row.cells for row in self._rows),
            )
        )


def standard_tableau(
    schema: DatabaseSchema,
    target: Union[RelationSchema, Iterable[Attribute]],
    universe: Optional[Union[RelationSchema, Iterable[Attribute]]] = None,
) -> Tableau:
    """Construct the standard tableau ``Tab(D, X)`` for the query ``(D, X)``.

    ``universe`` defaults to ``U(D) ∪ X`` and determines the tableau columns.
    Supplying a larger universe (for example ``U(D)`` of a bigger schema) pads
    every row with unique nondistinguished variables in the extra columns,
    which is how tableaux over different sub-schemas of the same database are
    compared.
    """
    target_schema = (
        target if isinstance(target, RelationSchema) else RelationSchema(target)
    )
    if universe is None:
        universe_schema = schema.attributes.union(target_schema)
    else:
        universe_schema = (
            universe
            if isinstance(universe, RelationSchema)
            else RelationSchema(universe)
        )
        if not schema.attributes.union(target_schema) <= universe_schema:
            raise TableauError(
                "the tableau universe must contain every attribute of the schema "
                "and of the target"
            )
    columns = universe_schema.sorted_attributes()

    rows: List[TableauRow] = []
    unique_counter = 0
    for index, relation in enumerate(schema.relations):
        cells: List[Variable] = []
        for attribute in columns:
            if attribute in relation and attribute in target_schema:
                cells.append(distinguished(attribute))
            elif attribute in relation:
                cells.append(shared(attribute))
            else:
                unique_counter += 1
                cells.append(unique(attribute, unique_counter))
        rows.append(TableauRow(cells=tuple(cells), origin=index))
    return Tableau(columns=columns, rows=rows, summary=target_schema.attributes)
