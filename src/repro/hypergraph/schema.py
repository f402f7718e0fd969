"""Relation schemas and database schemas (hypergraphs).

Terminology follows Section 2 of Goodman, Shmueli & Tay (JCSS 1984):

* A *relation schema* is a finite set of attributes.
* A *database schema* is a finite **multiset** of relation schemas.
* ``U(D)`` denotes the set of all attributes appearing in ``D``.
* ``D' <= D`` holds when every relation schema of ``D'`` is contained in some
  relation schema of ``D``.
* ``D`` is *reduced* if no relation schema in ``D`` is a subset of another
  relation schema in ``D``; the *reduction* of ``D`` removes such subsets
  (including duplicates).

A database schema is exactly a hypergraph whose vertices are attributes and
whose hyperedges are the relation schemas, so this module doubles as the
hypergraph substrate used by every other part of the library.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..exceptions import SchemaError

__all__ = [
    "Attribute",
    "RelationSchema",
    "DatabaseSchema",
    "attributes_of",
]

#: Attributes are plain strings.  Single-character attributes allow the
#: paper's compact ``ab, bc, cd`` notation but nothing depends on that.
Attribute = str

AttributesLike = Union["RelationSchema", Iterable[Attribute]]


def _coerce_attributes(attributes: AttributesLike) -> FrozenSet[Attribute]:
    """Normalize any iterable of attribute names into a ``frozenset``."""
    if isinstance(attributes, RelationSchema):
        return attributes.attributes
    if isinstance(attributes, str):
        # A bare string is treated as an iterable of single-character
        # attributes, matching the paper's notation ("abc" == {a, b, c}).
        return frozenset(attributes)
    attrs = frozenset(attributes)
    for attribute in attrs:
        if not isinstance(attribute, str):
            raise SchemaError(
                f"attributes must be strings, got {attribute!r} of type "
                f"{type(attribute).__name__}"
            )
        if not attribute:
            raise SchemaError("attributes must be non-empty strings")
    return attrs


class RelationSchema:
    """An immutable set of attributes.

    ``RelationSchema`` behaves like a ``frozenset`` of attribute names with a
    reading-friendly representation: when every attribute is a single
    character the schema prints in the paper's concatenated notation
    (``ab`` for ``{a, b}``); otherwise attributes are joined with commas.

    Examples
    --------
    >>> RelationSchema("abc")
    RelationSchema('abc')
    >>> RelationSchema(["emp_id", "dept"]).attributes == frozenset({"emp_id", "dept"})
    True
    >>> RelationSchema("ab") <= RelationSchema("abc")
    True
    """

    __slots__ = ("_attributes", "_hash")

    def __init__(self, attributes: AttributesLike = ()) -> None:
        object.__setattr__(self, "_attributes", _coerce_attributes(attributes))
        object.__setattr__(self, "_hash", hash(self._attributes))

    # -- basic protocol -----------------------------------------------------

    @property
    def attributes(self) -> FrozenSet[Attribute]:
        """The underlying frozen set of attribute names."""
        return self._attributes

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._attributes

    def __iter__(self) -> Iterator[Attribute]:
        return iter(sorted(self._attributes))

    def __len__(self) -> int:
        return len(self._attributes)

    def __bool__(self) -> bool:
        return bool(self._attributes)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RelationSchema):
            return self._attributes == other._attributes
        if isinstance(other, (frozenset, set)):
            return self._attributes == other
        return NotImplemented

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RelationSchema is immutable")

    def __reduce__(self):
        # The raising __setattr__ breaks pickle's default slot-state restore,
        # so pickling round-trips through the constructor.  Needed by the
        # multi-process executor (PlanSpec / shard payloads cross processes).
        return (RelationSchema, (self.sorted_attributes(),))

    # -- ordering (subset relations) ----------------------------------------

    def issubset(self, other: AttributesLike) -> bool:
        """True when every attribute of ``self`` appears in ``other``."""
        return self._attributes <= _coerce_attributes(other)

    def issuperset(self, other: AttributesLike) -> bool:
        """True when every attribute of ``other`` appears in ``self``."""
        return self._attributes >= _coerce_attributes(other)

    def __le__(self, other: AttributesLike) -> bool:
        return self.issubset(other)

    def __lt__(self, other: AttributesLike) -> bool:
        other_attrs = _coerce_attributes(other)
        return self._attributes < other_attrs

    def __ge__(self, other: AttributesLike) -> bool:
        return self.issuperset(other)

    def __gt__(self, other: AttributesLike) -> bool:
        other_attrs = _coerce_attributes(other)
        return self._attributes > other_attrs

    # -- set algebra ----------------------------------------------------------

    def union(self, *others: AttributesLike) -> "RelationSchema":
        """Union of this schema with any number of attribute collections."""
        attrs = set(self._attributes)
        for other in others:
            attrs |= _coerce_attributes(other)
        return RelationSchema(attrs)

    def intersection(self, *others: AttributesLike) -> "RelationSchema":
        """Intersection of this schema with any number of attribute collections."""
        attrs = set(self._attributes)
        for other in others:
            attrs &= _coerce_attributes(other)
        return RelationSchema(attrs)

    def difference(self, *others: AttributesLike) -> "RelationSchema":
        """Attributes of this schema that appear in none of ``others``."""
        attrs = set(self._attributes)
        for other in others:
            attrs -= _coerce_attributes(other)
        return RelationSchema(attrs)

    def symmetric_difference(self, other: AttributesLike) -> "RelationSchema":
        """Attributes in exactly one of the two schemas."""
        return RelationSchema(self._attributes ^ _coerce_attributes(other))

    def isdisjoint(self, other: AttributesLike) -> bool:
        """True when the two schemas share no attribute."""
        return self._attributes.isdisjoint(_coerce_attributes(other))

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference

    def restrict(self, attributes: AttributesLike) -> "RelationSchema":
        """Alias of :meth:`intersection` used when projecting onto ``attributes``."""
        return self.intersection(attributes)

    def without(self, attributes: AttributesLike) -> "RelationSchema":
        """Alias of :meth:`difference` used for attribute deletion ``R - X``."""
        return self.difference(attributes)

    # -- rendering ------------------------------------------------------------

    def sorted_attributes(self) -> Tuple[Attribute, ...]:
        """The attributes in deterministic (sorted) order."""
        return tuple(sorted(self._attributes))

    def to_notation(self, attribute_separator: Optional[str] = None) -> str:
        """Render in the paper's notation.

        When every attribute is a single character and no separator is given,
        attributes are concatenated (``"abc"``); otherwise they are joined by
        ``attribute_separator`` (default ``","``).
        """
        attrs = self.sorted_attributes()
        if not attrs:
            return "{}"
        if attribute_separator is None:
            if all(len(a) == 1 for a in attrs):
                return "".join(attrs)
            attribute_separator = ","
        return attribute_separator.join(attrs)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RelationSchema({self.to_notation()!r})"

    def __str__(self) -> str:
        return self.to_notation()


RelationLike = Union[RelationSchema, Iterable[Attribute]]


def attributes_of(relations: Iterable[RelationLike]) -> RelationSchema:
    """Return ``U(D)``: the union of the attributes of all given relation schemas."""
    result: Set[Attribute] = set()
    for relation in relations:
        result |= _coerce_attributes(relation)
    return RelationSchema(result)


class DatabaseSchema:
    """An immutable **multiset** of relation schemas (equivalently a hypergraph).

    The order of relation schemas is preserved (it is meaningful for traces
    and tableau row numbering) but equality is multiset equality:
    two database schemas are equal when they contain the same relation schemas
    with the same multiplicities, regardless of order.

    Examples
    --------
    >>> d = DatabaseSchema(["ab", "bc", "cd"])
    >>> d.attributes
    RelationSchema('abcd')
    >>> d.is_reduced()
    True
    >>> DatabaseSchema(["ab", "abc"]).reduction()
    DatabaseSchema('abc')
    """

    __slots__ = ("_relations", "_hash")

    def __init__(self, relations: Iterable[RelationLike] = ()) -> None:
        rels = tuple(
            rel if isinstance(rel, RelationSchema) else RelationSchema(rel)
            for rel in relations
        )
        object.__setattr__(self, "_relations", rels)
        object.__setattr__(
            self, "_hash", hash(frozenset(Counter(rels).items()))
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DatabaseSchema is immutable")

    def __reduce__(self):
        # Reconstructs through the constructor (see RelationSchema.__reduce__);
        # the relation *order* is part of the pickled value — plans and traces
        # are positional.
        return (DatabaseSchema, (self._relations,))

    # -- basic protocol -------------------------------------------------------

    @property
    def relations(self) -> Tuple[RelationSchema, ...]:
        """The relation schemas in their original order (with duplicates)."""
        return self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def __bool__(self) -> bool:
        return bool(self._relations)

    def __getitem__(self, index: int) -> RelationSchema:
        return self._relations[index]

    def __contains__(self, relation: object) -> bool:
        if isinstance(relation, (RelationSchema, frozenset, set, str)):
            target = RelationSchema(relation)  # type: ignore[arg-type]
            return target in self._relations
        return False

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DatabaseSchema):
            return Counter(self._relations) == Counter(other._relations)
        return NotImplemented

    def multiset(self) -> Counter:
        """The multiset of relation schemas as a :class:`collections.Counter`."""
        return Counter(self._relations)

    # -- attributes -----------------------------------------------------------

    @property
    def attributes(self) -> RelationSchema:
        """``U(D)``: every attribute appearing in some relation schema."""
        return attributes_of(self._relations)

    def attribute_occurrences(self) -> Dict[Attribute, Tuple[int, ...]]:
        """Map each attribute to the (sorted) indices of relations containing it."""
        occurrences: Dict[Attribute, List[int]] = defaultdict(list)
        for index, relation in enumerate(self._relations):
            for attribute in relation.attributes:
                occurrences[attribute].append(index)
        return {attr: tuple(indices) for attr, indices in occurrences.items()}

    def attribute_multiplicity(self, attribute: Attribute) -> int:
        """Number of relation schemas containing ``attribute``."""
        return sum(1 for relation in self._relations if attribute in relation)

    def relations_containing(self, attributes: AttributesLike) -> Tuple[int, ...]:
        """Indices of relation schemas containing every attribute in ``attributes``."""
        target = _coerce_attributes(attributes)
        return tuple(
            index
            for index, relation in enumerate(self._relations)
            if target <= relation.attributes
        )

    # -- the <= ordering on database schemas ----------------------------------

    def covers(self, other: "DatabaseSchema") -> bool:
        """True when ``other <= self``: each relation of ``other`` is contained
        in some relation of ``self``."""
        return all(
            any(small <= big for big in self._relations)
            for small in other.relations
        )

    def is_covered_by(self, other: "DatabaseSchema") -> bool:
        """True when ``self <= other`` in the paper's ordering."""
        return other.covers(self)

    def __le__(self, other: "DatabaseSchema") -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self.is_covered_by(other)

    def __ge__(self, other: "DatabaseSchema") -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self.covers(other)

    def is_sub_multiset_of(self, other: "DatabaseSchema") -> bool:
        """True when ``self`` is contained in ``other`` *as a multiset*
        (written ``D' ⊆ D`` in the paper)."""
        return not Counter(self._relations) - Counter(other._relations)

    def contains_all_relations_of(self, other: "DatabaseSchema") -> bool:
        """True when ``other`` is a sub-multiset of ``self``."""
        return other.is_sub_multiset_of(self)

    # -- reduction -------------------------------------------------------------

    def is_reduced(self) -> bool:
        """True when no relation schema is a subset of another one.

        Duplicates make a schema non-reduced because each copy is a subset of
        the other copy.
        """
        rels = self._relations
        for i, small in enumerate(rels):
            for j, big in enumerate(rels):
                if i != j and small <= big:
                    return False
        return True

    def reduction(self) -> "DatabaseSchema":
        """The reduction of ``D``: drop relation schemas contained in others.

        One representative of each maximal relation schema is kept; the
        relative order of the survivors is preserved.
        """
        survivors: List[RelationSchema] = []
        kept: List[bool] = [True] * len(self._relations)
        rels = self._relations
        for i, small in enumerate(rels):
            for j, big in enumerate(rels):
                if i == j or not kept[j]:
                    continue
                if small < big or (small == big and j < i):
                    kept[i] = False
                    break
        for index, relation in enumerate(rels):
            if kept[index]:
                survivors.append(relation)
        return DatabaseSchema(survivors)

    # -- schema surgery ----------------------------------------------------------

    def delete_attributes(self, attributes: AttributesLike) -> "DatabaseSchema":
        """``D - X``: remove the given attributes from every relation schema.

        The result is *not* reduced automatically; call :meth:`reduction` when
        the paper asks for subset/duplicate elimination as well (Lemma 3.1).
        """
        doomed = _coerce_attributes(attributes)
        return DatabaseSchema(rel.difference(doomed) for rel in self._relations)

    def restrict_attributes(self, attributes: AttributesLike) -> "DatabaseSchema":
        """Keep only the given attributes in every relation schema."""
        keep = _coerce_attributes(attributes)
        return DatabaseSchema(rel.intersection(keep) for rel in self._relations)

    def add_relation(self, relation: RelationLike) -> "DatabaseSchema":
        """``D ∪ (R)``: append one relation schema (multiset union)."""
        return DatabaseSchema(self._relations + (RelationSchema(relation),))

    def add_relations(self, relations: Iterable[RelationLike]) -> "DatabaseSchema":
        """Append several relation schemas (multiset union)."""
        extra = tuple(RelationSchema(rel) for rel in relations)
        return DatabaseSchema(self._relations + extra)

    def remove_relation_at(self, index: int) -> "DatabaseSchema":
        """Drop the relation schema at position ``index``."""
        if not 0 <= index < len(self._relations):
            raise SchemaError(f"relation index {index} out of range")
        rels = self._relations[:index] + self._relations[index + 1 :]
        return DatabaseSchema(rels)

    def remove_relation(self, relation: RelationLike) -> "DatabaseSchema":
        """Drop one occurrence of the given relation schema."""
        target = RelationSchema(relation)
        for index, rel in enumerate(self._relations):
            if rel == target:
                return self.remove_relation_at(index)
        raise SchemaError(f"relation schema {target} not present in schema")

    def replace_relation_at(
        self, index: int, relation: RelationLike
    ) -> "DatabaseSchema":
        """Replace the relation schema at position ``index``."""
        if not 0 <= index < len(self._relations):
            raise SchemaError(f"relation index {index} out of range")
        rels = list(self._relations)
        rels[index] = RelationSchema(relation)
        return DatabaseSchema(rels)

    def without_empty_relations(self) -> "DatabaseSchema":
        """Drop every relation schema that has no attributes."""
        return DatabaseSchema(rel for rel in self._relations if rel)

    def deduplicate(self) -> "DatabaseSchema":
        """Keep a single copy of each distinct relation schema (order preserved)."""
        seen: Set[RelationSchema] = set()
        unique: List[RelationSchema] = []
        for relation in self._relations:
            if relation not in seen:
                seen.add(relation)
                unique.append(relation)
        return DatabaseSchema(unique)

    # -- connectivity -----------------------------------------------------------

    def adjacency(self) -> Dict[int, Set[int]]:
        """Adjacency between relation indices: ``i ~ j`` iff they share an attribute."""
        adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(self))}
        occurrences = self.attribute_occurrences()
        for indices in occurrences.values():
            for a in indices:
                for b in indices:
                    if a != b:
                        adjacency[a].add(b)
        return adjacency

    def connected_components(self) -> List[Tuple[int, ...]]:
        """Connected components of the intersection graph, as index tuples.

        Two relation schemas are adjacent when they share at least one
        attribute.  Relation schemas with no attributes are isolated nodes.
        """
        adjacency = self.adjacency()
        seen: Set[int] = set()
        components: List[Tuple[int, ...]] = []
        for start in range(len(self)):
            if start in seen:
                continue
            queue = deque([start])
            component: List[int] = []
            seen.add(start)
            while queue:
                node = queue.popleft()
                component.append(node)
                for neighbour in adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        queue.append(neighbour)
            components.append(tuple(sorted(component)))
        return components

    def is_connected(self) -> bool:
        """True when every pair of relation schemas is linked by a path of
        relation schemas sharing at least one attribute (Section 5.2)."""
        if len(self) <= 1:
            return True
        return len(self.connected_components()) == 1

    def sub_schema(self, indices: Iterable[int]) -> "DatabaseSchema":
        """The database schema induced by the given relation indices."""
        index_list = list(indices)
        for index in index_list:
            if not 0 <= index < len(self._relations):
                raise SchemaError(f"relation index {index} out of range")
        return DatabaseSchema(self._relations[index] for index in index_list)

    def iter_sub_schemas(
        self, *, min_size: int = 1, connected_only: bool = False
    ) -> Iterator["DatabaseSchema"]:
        """Yield every sub-multiset ``D' ⊆ D`` with at least ``min_size`` relations.

        This is exponential in ``len(D)`` and intended for verification of the
        paper's "for all connected ``D' ⊆ D``" statements on small instances.
        """
        n = len(self._relations)
        for mask in range(1, 1 << n):
            indices = [i for i in range(n) if mask >> i & 1]
            if len(indices) < min_size:
                continue
            candidate = self.sub_schema(indices)
            if connected_only and not candidate.is_connected():
                continue
            yield candidate

    # -- rendering ------------------------------------------------------------

    def to_notation(
        self,
        relation_separator: str = ",",
        attribute_separator: Optional[str] = None,
    ) -> str:
        """Render in the paper's ``(ab,bc,cd)`` notation."""
        return relation_separator.join(
            rel.to_notation(attribute_separator) for rel in self._relations
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DatabaseSchema({self.to_notation()!r})"

    def __str__(self) -> str:
        return "(" + self.to_notation(relation_separator=", ") + ")"

    # -- convenience constructors ----------------------------------------------

    @classmethod
    def from_relations(cls, *relations: RelationLike) -> "DatabaseSchema":
        """Build a schema from relation schemas given as positional arguments."""
        return cls(relations)

    def sorted(self) -> "DatabaseSchema":
        """A copy with relations sorted deterministically (by size then name).

        Useful to obtain canonical orderings in tests and benchmarks; the
        multiset (and hence equality) is unchanged.
        """
        ordered = sorted(
            self._relations, key=lambda rel: (len(rel), rel.sorted_attributes())
        )
        return DatabaseSchema(ordered)
