"""Database states and universal-relation (UR) databases (Section 2).

A *database state* for schema ``D = (R_1, ..., R_n)`` assigns a relation
state to every relation schema, positionally.  A *universal-relation
database* is a state of the form ``D = { π_R(I) | R ∈ D }`` for a single
universal relation ``I`` over (at least) ``U(D)`` — the only kind of database
the paper's results quantify over.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import RelationError, SchemaError
from ..hypergraph.schema import DatabaseSchema
from .algebra import join_all
from .relation import Relation

__all__ = [
    "DatabaseState",
    "dedupe_states",
    "universal_database",
    "is_universal_database",
]


class DatabaseState:
    """A positional assignment of relation states to the relation schemas of ``D``."""

    __slots__ = ("_schema", "_relations")

    def __init__(self, schema: DatabaseSchema, relations: Sequence[Relation]) -> None:
        if len(schema) != len(relations):
            raise RelationError(
                f"schema has {len(schema)} relation schemas but "
                f"{len(relations)} relation states were given"
            )
        for index, (relation_schema, relation) in enumerate(zip(schema, relations)):
            if relation.schema != relation_schema:
                raise RelationError(
                    f"relation state #{index} is over {relation.schema.to_notation()} "
                    f"but the schema expects {relation_schema.to_notation()}"
                )
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_relations", tuple(relations))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DatabaseState is immutable")

    def __reduce__(self):
        # Round-trips through the constructor (per-slot schema validation is
        # one frozenset comparison per relation); required so states can be
        # shipped to the sharded multi-process executor.
        return (DatabaseState, (self._schema, self._relations))

    # -- accessors -------------------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        """The database schema this state instantiates."""
        return self._schema

    @property
    def relations(self) -> Tuple[Relation, ...]:
        """The relation states, aligned with ``schema.relations``."""
        return self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __getitem__(self, index: int) -> Relation:
        return self._relations[index]

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseState):
            return NotImplemented
        return self._schema == other._schema and self._relations == other._relations

    def __hash__(self) -> int:
        return hash((self._schema, self._relations))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        sizes = ", ".join(str(len(relation)) for relation in self._relations)
        return f"DatabaseState({self._schema.to_notation()!r}, sizes=[{sizes}])"

    def total_rows(self) -> int:
        """Total number of stored tuples across all relation states."""
        return sum(len(relation) for relation in self._relations)

    # -- derived states -----------------------------------------------------------

    def join(self) -> Relation:
        """``⋈_{R ∈ D} R`` — the natural join of every relation state."""
        return join_all(self._relations)

    def sub_state(self, indices: Iterable[int]) -> "DatabaseState":
        """The state restricted to the relation schemas at the given indices."""
        index_list = list(indices)
        sub_schema = self._schema.sub_schema(index_list)
        return DatabaseState(sub_schema, [self._relations[index] for index in index_list])

    def state_for(self, sub_schema: DatabaseSchema) -> "DatabaseState":
        """Derive a state for ``sub_schema <= schema`` by projection.

        Every relation schema of ``sub_schema`` must be contained in some
        relation schema of this state's schema; its state is obtained by
        projecting a containing relation's state.  For UR databases this is
        exactly the sub-database the paper associates with ``D' <= D``.
        """
        derived: List[Relation] = []
        for target in sub_schema.relations:
            source_index: Optional[int] = None
            for index, relation_schema in enumerate(self._schema.relations):
                if target <= relation_schema:
                    source_index = index
                    break
            if source_index is None:
                raise SchemaError(
                    f"relation schema {target.to_notation()} is not contained in any "
                    "relation schema of the state"
                )
            derived.append(self._relations[source_index].project(target))
        return DatabaseState(sub_schema, derived)


def dedupe_states(
    states: Iterable[DatabaseState],
) -> Tuple[List[DatabaseState], List[int]]:
    """Collapse a batch's repeated state *objects*: ``(unique, positions)``.

    ``unique`` lists each distinct state object once, in first-seen order,
    and ``positions[i]`` is the index into ``unique`` of the batch's
    ``i``-th state.  Only the very same object dedupes: equal states of
    different representations (``1`` and ``1.0``) stay apart, because a
    shared run would answer one with the other's cell values.  ``unique``
    holds every state of the batch, so none can die — and free its ``id``
    for the next state a generator yields — while the batch runs.
    """
    unique: List[DatabaseState] = []
    index_of: Dict[int, int] = {}
    positions: List[int] = []
    for state in states:
        index = index_of.setdefault(id(state), len(unique))
        if index == len(unique):
            unique.append(state)
        positions.append(index)
    return unique, positions


def universal_database(schema: DatabaseSchema, universal: Relation) -> DatabaseState:
    """Build the UR database ``{ π_R(I) | R ∈ D }`` from a universal relation ``I``."""
    if not schema.attributes <= universal.schema:
        raise SchemaError(
            "the universal relation must contain every attribute of the schema "
            f"(missing {schema.attributes.difference(universal.schema).to_notation()})"
        )
    relations = [universal.project(relation_schema) for relation_schema in schema.relations]
    return DatabaseState(schema, relations)


def is_universal_database(state: DatabaseState) -> bool:
    """Check whether a state is a UR database *witnessed by its own join*.

    A state is universal iff there exists some universal relation whose
    projections give the state.  The join of the state is always such a
    witness when one exists, so the check is: for every relation schema ``R``,
    ``π_R(⋈ state) = state[R]``.
    """
    joined = state.join()
    for relation_schema, relation in zip(state.schema, state.relations):
        if joined.project(relation_schema) != relation:
            return False
    return True
