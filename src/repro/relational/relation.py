"""In-memory relations (relation states) and the core relational operators.

A :class:`Relation` is a set of tuples over a fixed relation schema
(attribute set).  The operators the paper uses — natural join ``⋈``,
projection ``π_X`` and natural semijoin ``⋉`` (``R ⋉ S = π_R(R ⋈ S)``) — are
methods; a handful of extra operators (selection, rename, union,
intersection, difference) round out the substrate so examples can build
realistic database states.

Tuples are stored internally in a canonical column order (sorted attribute
names), so two relations over the same attributes with the same rows are
equal regardless of how they were constructed.  Values may be any hashable
Python objects.

Performance notes
-----------------
The operators rely on two internal invariants (see ``docs/performance.md``):

* **Trusted constructor.**  ``Relation._from_trusted(schema, columns, rows)``
  builds a relation without re-validating or re-tupling rows.  Callers must
  pass ``columns == schema.sorted_attributes()`` and ``rows`` as a
  ``frozenset`` of tuples already aligned with that column order.  Every
  operator output satisfies this by construction; the public
  ``Relation(attributes, rows)`` constructor keeps validating.
* **Cached indexes.**  Column→position maps and the hash indexes returned by
  :meth:`Relation.key_index` are cached per instance.  They are safe to cache
  because relations are immutable; any new operator must preserve that
  immutability (never mutate ``_rows``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..exceptions import RelationError
from ..hypergraph.schema import Attribute, RelationSchema

__all__ = ["Row", "Relation"]

#: A row is exposed to callers as an attribute -> value mapping.
Row = Mapping[Attribute, Any]

_AttributesLike = Union[RelationSchema, Iterable[Attribute]]


def _coerce_schema(attributes: _AttributesLike) -> RelationSchema:
    if isinstance(attributes, RelationSchema):
        return attributes
    return RelationSchema(attributes)


def _tuple_getter(positions: Sequence[int]) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """A callable extracting ``positions`` from a row as a tuple.

    ``operator.itemgetter`` runs the extraction loop in C but returns a bare
    value (not a 1-tuple) for a single index, so the small arities get
    explicit wrappers.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


def semijoin_key_layout(
    left: RelationSchema, right: RelationSchema
) -> Tuple[Tuple[Attribute, ...], Any, Any]:
    """Precompute the ``(shared_columns, left_getter, right_getter)`` triple
    :meth:`Relation.semijoin_many` needs for a fixed schema pair.

    A frozen plan semijoins the same node/guard schema pair on every state;
    hoisting the shared-column scan and getter construction out of the
    per-state path leaves only the data-dependent work (key-set build and
    row filter) at execution time.
    """
    left_columns = left.sorted_attributes()
    left_positions = {column: i for i, column in enumerate(left_columns)}
    right_columns = right.sorted_attributes()
    shared_columns = tuple(
        column for column in right_columns if column in left_positions
    )
    left_getter = _tuple_getter([left_positions[column] for column in shared_columns])
    right_getter = _tuple_getter(
        [right_columns.index(column) for column in shared_columns]
    )
    return shared_columns, left_getter, right_getter


def _stable_row_key(row: Tuple[Any, ...]) -> Tuple[Tuple[str, Any], ...]:
    """Deterministic sort key for mixed-type rows: ``(type name, value)`` per cell."""
    return tuple((type(value).__name__, value) for value in row)


def _repr_row_key(row: Tuple[Any, ...]) -> Tuple[Tuple[str, str], ...]:
    return tuple((type(value).__name__, repr(value)) for value in row)


def _sorted_rows(rows: Iterable[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """Rows in a deterministic order, robust to mixed-type values.

    Cells are compared first by type name, then by value; when values of the
    same type name are unorderable (e.g. ``None``), their ``repr`` is used as
    a tie-breaker instead.
    """
    try:
        return sorted(rows, key=_stable_row_key)
    except TypeError:
        return sorted(rows, key=_repr_row_key)


class Relation:
    """An immutable relation state over a relation schema.

    Examples
    --------
    >>> r = Relation.from_dicts("ab", [{"a": 1, "b": 2}, {"a": 1, "b": 3}])
    >>> len(r)
    2
    >>> s = Relation.from_dicts("bc", [{"b": 2, "c": 9}])
    >>> sorted((r.natural_join(s)).to_dicts(), key=lambda row: row["b"])
    [{'a': 1, 'b': 2, 'c': 9}]
    """

    # ``__weakref__`` lets a kernel plan's encode cache hold relations weakly.
    __slots__ = ("_schema", "_columns", "_rows", "_positions", "_indexes", "__weakref__")

    def __init__(
        self,
        attributes: _AttributesLike,
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        schema = _coerce_schema(attributes)
        columns = schema.sorted_attributes()
        width = len(columns)
        normalized = set()
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != width:
                raise RelationError(
                    f"row {row_tuple!r} has {len(row_tuple)} values but the relation "
                    f"has {width} attributes {columns}"
                )
            normalized.add(row_tuple)
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_rows", frozenset(normalized))
        object.__setattr__(
            self, "_positions", {column: index for index, column in enumerate(columns)}
        )
        object.__setattr__(self, "_indexes", {})

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Relation is immutable")

    def __reduce__(self):
        """Pickle via the trusted restore path.

        Rows are already canonical tuples, so unpickling skips validation;
        cached key indexes are deliberately *not* pickled — they are cheap to
        rebuild and would bloat cross-process shard payloads.
        """
        return (Relation._restore, (self._schema, tuple(self._rows)))

    @classmethod
    def _restore(cls, schema: RelationSchema, rows: Tuple[Tuple[Any, ...], ...]) -> "Relation":
        """Unpickling counterpart of :meth:`__reduce__`."""
        return cls._from_trusted(schema, schema.sorted_attributes(), frozenset(rows))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def _from_trusted(
        cls,
        schema: RelationSchema,
        columns: Tuple[Attribute, ...],
        rows: FrozenSet[Tuple[Any, ...]],
    ) -> "Relation":
        """Internal constructor bypassing validation (see the module notes).

        ``columns`` must equal ``schema.sorted_attributes()`` and ``rows``
        must be a ``frozenset`` of tuples already aligned with ``columns``.
        Operators use this to avoid re-validating and re-tupling every row.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(
            self, "_positions", {column: index for index, column in enumerate(columns)}
        )
        object.__setattr__(self, "_indexes", {})
        return self

    @classmethod
    def from_dicts(
        cls, attributes: _AttributesLike, rows: Iterable[Row]
    ) -> "Relation":
        """Build a relation from attribute -> value mappings."""
        schema = _coerce_schema(attributes)
        columns = schema.sorted_attributes()
        materialized = []
        for row in rows:
            missing = set(columns) - set(row)
            if missing:
                raise RelationError(f"row {dict(row)!r} is missing attributes {sorted(missing)}")
            materialized.append(tuple(row[column] for column in columns))
        return cls(schema, materialized)

    @classmethod
    def empty(cls, attributes: _AttributesLike) -> "Relation":
        """The empty relation over the given attributes."""
        return cls(attributes, ())

    @classmethod
    def nullary_true(cls) -> "Relation":
        """The relation over no attributes containing the empty tuple.

        This is the neutral element of natural join.
        """
        return cls((), [()])

    # -- basic accessors -----------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The relation schema (attribute set)."""
        return self._schema

    @property
    def attributes(self) -> FrozenSet[Attribute]:
        """The attributes as a frozen set."""
        return self._schema.attributes

    @property
    def columns(self) -> Tuple[Attribute, ...]:
        """The canonical (sorted) column order used for stored tuples."""
        return self._columns

    @property
    def rows(self) -> FrozenSet[Tuple[Any, ...]]:
        """The stored tuples, aligned with :attr:`columns`."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __iter__(self) -> Iterator[Dict[Attribute, Any]]:
        return iter(self.to_dicts())

    def __contains__(self, row: object) -> bool:
        if isinstance(row, Mapping):
            try:
                candidate = tuple(row[column] for column in self._columns)
            except KeyError:
                return False
            return candidate in self._rows
        if isinstance(row, tuple):
            return row in self._rows
        return False

    def to_dicts(self) -> List[Dict[Attribute, Any]]:
        """The rows as dictionaries (deterministically ordered)."""
        return [dict(zip(self._columns, row)) for row in _sorted_rows(self._rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._schema, self._rows))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Relation({self._schema.to_notation()!r}, {len(self._rows)} rows)"

    # -- indexes ----------------------------------------------------------------------

    def key_index(
        self, attributes: _AttributesLike
    ) -> Dict[Tuple[Any, ...], Tuple[Tuple[Any, ...], ...]]:
        """A hash index grouping the rows by their key on ``attributes``.

        Returns a mapping from key tuples (values of ``attributes`` in sorted
        attribute order) to the tuple of rows carrying that key.  The index is
        built once per distinct attribute set and cached on the instance —
        relations are immutable, so repeated semijoins/joins on the same key
        (as in the two passes of a full reducer) reuse it for free.
        """
        if isinstance(attributes, RelationSchema):
            key_columns = attributes.sorted_attributes()
        else:
            key_columns = tuple(sorted(attributes))
        cached = self._indexes.get(key_columns)
        if cached is not None:
            return cached
        try:
            positions = [self._positions[column] for column in key_columns]
        except KeyError as error:
            raise RelationError(
                f"cannot index {self._schema.to_notation()} on unknown attribute "
                f"{error.args[0]!r}"
            ) from None
        getter = _tuple_getter(positions)
        grouped: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        setdefault = grouped.setdefault
        for row in self._rows:
            setdefault(getter(row), []).append(row)
        index = {key: tuple(rows) for key, rows in grouped.items()}
        self._indexes[key_columns] = index
        return index

    # -- relational operators ---------------------------------------------------------

    def project(self, attributes: _AttributesLike) -> "Relation":
        """``π_X(R)`` — projection onto ``X ⊆ R``."""
        target = _coerce_schema(attributes)
        if not target <= self._schema:
            raise RelationError(
                f"cannot project {self._schema.to_notation()} onto "
                f"{target.to_notation()}: not a subset"
            )
        if target == self._schema:
            return self
        columns = target.sorted_attributes()
        getter = _tuple_getter([self._positions[column] for column in columns])
        return Relation._from_trusted(target, columns, frozenset(map(getter, self._rows)))

    def natural_join(self, other: "Relation") -> "Relation":
        """``R ⋈ S`` — natural join on the shared attributes (hash join)."""
        shared = self._schema.attributes & other._schema.attributes
        # When one side's attributes contain the other's, the join degenerates
        # to a semijoin of the wider side — no tuples need to be combined.
        if len(shared) == len(other._columns):
            return self.semijoin(other)
        if len(shared) == len(self._columns):
            return other.semijoin(self)

        result_schema = self._schema.union(other._schema)
        result_columns = result_schema.sorted_attributes()
        shared_columns = tuple(sorted(shared))
        left_key = _tuple_getter([self._positions[column] for column in shared_columns])
        buckets = other.key_index(shared_columns)

        # Each output tuple is extracted from the concatenation of a matching
        # (left row, right row) pair in one C-level itemgetter call.
        width = len(self._columns)
        combine = _tuple_getter(
            [
                self._positions[column]
                if column in self._positions
                else width + other._positions[column]
                for column in result_columns
            ]
        )
        combined_rows: set = set()
        add = combined_rows.add
        get_bucket = buckets.get
        for left_row in self._rows:
            bucket = get_bucket(left_key(left_row))
            if bucket:
                for right_row in bucket:
                    add(combine(left_row + right_row))
        return Relation._from_trusted(result_schema, result_columns, frozenset(combined_rows))

    def semijoin(self, other: "Relation") -> "Relation":
        """``R ⋉ S = π_R(R ⋈ S)`` — keep rows of ``R`` that join with ``S``.

        The filtered result inherits this relation's hash indexes instead of
        rebuilding them on first use: the semijoin-key index is exactly the
        matched buckets, and every other cached index is filtered to the
        surviving rows.  A full-reducer program therefore builds each
        relation's index once per (relation, key) pair per database state —
        the root-to-leaf pass and the bottom-up join reuse the leaf-to-root
        pass's indexes even when rows were dropped in between.  One-shot
        conjunctive filters that would never reuse the indexes (the cyclic
        prologue's guard semijoins) go through :meth:`semijoin_many`
        instead, which skips them.
        """
        shared = self._schema.attributes & other._schema.attributes
        if not shared:
            # With no shared attributes the semijoin keeps everything iff the
            # other relation is non-empty.
            if other._rows:
                return self
            return Relation._from_trusted(self._schema, self._columns, frozenset())
        shared_columns = tuple(sorted(shared))
        left_index = self.key_index(shared_columns)
        right_index = other.key_index(shared_columns)
        # The buckets partition the rows, so the semijoin is the identity
        # exactly when every key has a join partner; on globally consistent
        # states (e.g. the root-to-leaf pass after a no-drop leaf-to-root
        # pass) this returns without materializing anything.
        if all(key in right_index for key in left_index):
            return self
        matched = {
            key: bucket for key, bucket in left_index.items() if key in right_index
        }
        kept = frozenset(row for bucket in matched.values() for row in bucket)
        result = Relation._from_trusted(self._schema, self._columns, kept)
        derived = result._indexes
        derived[shared_columns] = matched
        # Each inherited index is filtered in O(|self|); a relation carries at
        # most one cached index per distinct join key it participates in
        # (bounded by its arity), so a full-reducer pass stays linear per
        # step.  Rebuilding lazily instead would be no cheaper and would
        # re-scan once per key after every filtering step.
        for key_columns, index in self._indexes.items():
            if key_columns in derived:
                continue
            filtered = {}
            for key, bucket in index.items():
                survivors = tuple(row for row in bucket if row in kept)
                if survivors:
                    filtered[key] = survivors
            derived[key_columns] = filtered
        return result

    def semijoin_many(
        self,
        others: Sequence["Relation"],
        *,
        layouts: Optional[Sequence[Tuple[Tuple[Attribute, ...], Any, Any]]] = None,
    ) -> "Relation":
        """``R ⋉ S₁ ⋉ … ⋉ Sₖ`` — fold of :meth:`semijoin`, in one pass.

        Semijoins are filters, so a chain of them is a single conjunctive
        filter: each row survives iff its key joins every ``Sᵢ``.  Fusing
        the chain skips the k−1 intermediate relations (row sets, index
        inheritance) the fold would materialize — the cyclic prologue's
        guard semijoins run through here, where a wide node value may be
        guarded by many base relations per state.

        ``layouts`` (from :func:`semijoin_key_layout`, aligned with
        ``others``) supplies precomputed shared columns and key getters for
        callers that repeat the same schema pair on every state — a frozen
        plan's guards — so per-call setup reduces to building the key sets.
        """
        positions = self._positions
        filters = []
        for index, other in enumerate(others):
            if layouts is not None:
                shared_columns, left_getter, right_getter = layouts[index]
            else:
                # Column tuples are canonically sorted, so filtering one by
                # membership in the other yields the sorted shared columns
                # without a set intersection + sort round-trip.
                shared_columns = tuple(
                    column for column in other._columns if column in positions
                )
                left_getter = right_getter = None
            if not shared_columns:
                if not other._rows:
                    return Relation._from_trusted(
                        self._schema, self._columns, frozenset()
                    )
                continue
            cached = other._indexes.get(shared_columns)
            if cached is None:
                if right_getter is None:
                    right_getter = _tuple_getter(
                        [other._positions[column] for column in shared_columns]
                    )
                keys = {right_getter(row) for row in other._rows}
            else:
                keys = cached
            if left_getter is None:
                left_getter = _tuple_getter(
                    [positions[column] for column in shared_columns]
                )
            filters.append((left_getter, keys))
        if not filters:
            return self
        # Cascade of list comprehensions: each pass shrinks the row set, and
        # the C-level comprehension beats a per-row ``all(...)`` generator.
        rows: Any = self._rows
        for getter, keys in filters:
            rows = [row for row in rows if getter(row) in keys]
        kept = frozenset(rows)
        if len(kept) == len(self._rows):
            return self
        return Relation._from_trusted(self._schema, self._columns, kept)

    def select(self, predicate: Callable[[Dict[Attribute, Any]], bool]) -> "Relation":
        """``σ_p(R)`` — keep rows satisfying ``predicate`` (given as dicts)."""
        columns = self._columns
        kept = frozenset(
            row for row in self._rows if predicate(dict(zip(columns, row)))
        )
        return Relation._from_trusted(self._schema, self._columns, kept)

    def select_equal(self, **bindings: Any) -> "Relation":
        """Selection by attribute equality, e.g. ``relation.select_equal(a=1)``."""
        unknown = set(bindings) - set(self._columns)
        if unknown:
            raise RelationError(f"unknown attributes in selection: {sorted(unknown)}")
        tests = [(self._positions[attribute], value) for attribute, value in bindings.items()]
        if len(tests) == 1:
            position, value = tests[0]
            kept = frozenset(row for row in self._rows if row[position] == value)
        else:
            kept = frozenset(
                row
                for row in self._rows
                if all(row[position] == value for position, value in tests)
            )
        return Relation._from_trusted(self._schema, self._columns, kept)

    def rename(self, mapping: Mapping[Attribute, Attribute]) -> "Relation":
        """``ρ`` — rename attributes according to ``mapping``."""
        unknown = set(mapping) - set(self._columns)
        if unknown:
            raise RelationError(f"cannot rename unknown attributes {sorted(unknown)}")
        new_names = [mapping.get(column, column) for column in self._columns]
        if len(set(new_names)) != len(new_names):
            raise RelationError("renaming would merge two attributes")
        new_schema = RelationSchema(new_names)
        new_columns = new_schema.sorted_attributes()
        reorder = _tuple_getter([new_names.index(column) for column in new_columns])
        rows = frozenset(map(reorder, self._rows))
        return Relation._from_trusted(new_schema, new_columns, rows)

    # -- set operations (same schema required) ---------------------------------------

    def _require_same_schema(self, other: "Relation", operation: str) -> None:
        if self._schema != other._schema:
            raise RelationError(
                f"{operation} requires identical schemas "
                f"({self._schema.to_notation()} vs {other._schema.to_notation()})"
            )

    def union(self, other: "Relation") -> "Relation":
        """Set union of two relations over the same schema."""
        self._require_same_schema(other, "union")
        return Relation._from_trusted(
            self._schema, self._columns, self._rows | other._rows
        )

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection of two relations over the same schema."""
        self._require_same_schema(other, "intersection")
        return Relation._from_trusted(
            self._schema, self._columns, self._rows & other._rows
        )

    def difference(self, other: "Relation") -> "Relation":
        """Set difference of two relations over the same schema."""
        self._require_same_schema(other, "difference")
        return Relation._from_trusted(
            self._schema, self._columns, self._rows - other._rows
        )

    def issubset(self, other: "Relation") -> bool:
        """True when every row of this relation appears in ``other``."""
        self._require_same_schema(other, "issubset")
        return self._rows <= other._rows

    # -- convenience -------------------------------------------------------------------

    def render(self, max_rows: int = 20) -> str:
        """A fixed-width textual rendering (for examples and debugging)."""
        header = list(self._columns) or ["(no attributes)"]
        body = [
            [str(value) for value in row]
            for row in _sorted_rows(self._rows)[:max_rows]
        ]
        if not self._columns:
            body = [["()"] for _ in range(min(len(self._rows), max_rows))]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(header[i].ljust(widths[i]) for i in range(len(header)))]
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        omitted = len(self._rows) - len(body)
        if omitted > 0:
            lines.append(f"... ({omitted} more rows)")
        return "\n".join(lines)
