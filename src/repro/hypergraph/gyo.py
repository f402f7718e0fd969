"""GYO (Graham–Yu–Ozsoyoglu) reductions.

Section 3.3 of the paper defines two operations on a database schema ``D``
with respect to a set ``X`` of *sacred* attributes:

1. **Isolated attribute deletion** — delete an attribute ``A ∉ X`` that
   belongs to exactly one relation schema of ``D``.
2. **Subset elimination** — delete a relation schema contained in another
   relation schema of ``D``.

``D' ∈ pGR(D, X)`` (a *partial GYO reduction*) when ``D'`` is obtained from
``D`` by zero or more such operations, and ``D' = GR(D, X)`` (*the* GYO
reduction) when neither operation applies to ``D'`` any more.  Maier and
Ullman proved that ``GR(D, X)`` is unique and reduced, which is why the
fixpoint computed here does not depend on the order in which operations are
applied.

Corollary 3.1: ``D`` is a tree schema iff ``GR(D) = ∅`` — with the operations
above the reduction of a tree schema ends with (at most) a single relation
schema whose attribute set is empty, so the test implemented by
:func:`is_tree_schema` is ``U(GR(D)) = ∅``.

The module exposes three layers:

* :class:`GYOReduction` — an interactive, step-by-step reducer that validates
  each operation (used to realize *partial* reductions and the constructions
  in the proofs of Theorems 3.1 and 3.2);
* :func:`gyo_reduce` — run the reduction to completion and return a full
  :class:`GYOTrace` (operations, survivor map, result);
* :func:`gyo_reduction`, :func:`is_tree_schema`, :func:`is_cyclic_schema` —
  convenience wrappers returning only the final schema / classification.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from ..exceptions import GYOError, SearchBudgetExceeded
from .schema import Attribute, DatabaseSchema, RelationSchema

__all__ = [
    "AttributeDeletion",
    "SubsetElimination",
    "GYOStep",
    "GYOTrace",
    "GYOReduction",
    "gyo_reduce",
    "gyo_reduction",
    "is_tree_schema",
    "is_cyclic_schema",
    "is_partial_gyo_reduction",
]


@dataclass(frozen=True)
class AttributeDeletion:
    """Operation (1): delete isolated attribute ``attribute`` from relation
    ``relation_index`` (an index into the *original* schema)."""

    relation_index: int
    attribute: Attribute

    def describe(self) -> str:
        """Human readable description of the step."""
        return f"delete attribute {self.attribute!r} from relation #{self.relation_index}"


@dataclass(frozen=True)
class SubsetElimination:
    """Operation (2): eliminate relation ``removed_index`` because its current
    attribute set is contained in that of relation ``witness_index``."""

    removed_index: int
    witness_index: int

    def describe(self) -> str:
        """Human readable description of the step."""
        return (
            f"eliminate relation #{self.removed_index} "
            f"(subset of relation #{self.witness_index})"
        )


GYOStep = Union[AttributeDeletion, SubsetElimination]


@dataclass(frozen=True)
class GYOTrace:
    """The complete record of a GYO reduction.

    Attributes
    ----------
    original:
        The schema the reduction started from.
    sacred:
        The attribute set ``X`` that may never be deleted.
    steps:
        The operations applied, in order.
    result:
        ``GR(original, sacred)`` — the schema formed by the surviving
        relations with their remaining attributes.
    survivors:
        Original indices of the surviving relations, aligned with
        ``result.relations``.
    parents:
        ``parents[i] = j`` when relation ``i`` was subset-eliminated with
        witness ``j``; survivors are absent from the mapping.  For a tree
        schema this parent relation is a qual tree (see
        :mod:`repro.hypergraph.join_tree`).
    """

    original: DatabaseSchema
    sacred: RelationSchema
    steps: Tuple[GYOStep, ...]
    result: DatabaseSchema
    survivors: Tuple[int, ...]
    parents: Dict[int, int] = field(default_factory=dict)

    @property
    def is_fully_reduced_to_empty(self) -> bool:
        """True when no attribute survives, i.e. ``U(GR(D, X)) ⊆ X`` with X=∅
        meaning the schema is a tree schema (Corollary 3.1)."""
        return not self.result.attributes.difference(self.sacred)

    def eliminated_indices(self) -> Tuple[int, ...]:
        """Original indices of relations removed by subset elimination."""
        return tuple(sorted(self.parents))

    def elimination_order(self) -> Tuple[Tuple[int, int], ...]:
        """The subset eliminations as ``(removed, witness)`` pairs in order."""
        return tuple(
            (step.removed_index, step.witness_index)
            for step in self.steps
            if isinstance(step, SubsetElimination)
        )


class GYOReduction:
    """A mutable, validating GYO reducer supporting partial reductions.

    The reducer keeps the *original* index of every relation schema as its
    identity, so traces and join trees can always be related back to the input
    schema even though attribute deletions change the relation contents.

    Examples
    --------
    >>> from repro.hypergraph.parsing import parse_schema
    >>> reducer = GYOReduction(parse_schema("ab,bc,cd"))
    >>> reducer.run_to_completion().result().attributes
    RelationSchema('{}')
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        sacred: Union[RelationSchema, Iterable[Attribute]] = (),
    ) -> None:
        if not isinstance(schema, DatabaseSchema):
            schema = DatabaseSchema(schema)
        self._original = schema
        self._sacred = (
            sacred if isinstance(sacred, RelationSchema) else RelationSchema(sacred)
        )
        self._current: Dict[int, Set[Attribute]] = {
            index: set(relation.attributes)
            for index, relation in enumerate(schema.relations)
        }
        self._steps: List[GYOStep] = []
        self._parents: Dict[int, int] = {}
        # Relations whose attribute set shrank (operation 1).  Survivors not
        # in this set still equal their original schema object, which
        # ``current_schema`` reuses instead of rebuilding — sacred-set
        # reductions (GR(D, X)) typically leave most relations untouched, so
        # packaging their result used to dominate the whole reduction.
        self._modified: Set[int] = set()

    # -- inspection -----------------------------------------------------------

    @property
    def original(self) -> DatabaseSchema:
        """The schema the reduction started from."""
        return self._original

    @property
    def sacred(self) -> RelationSchema:
        """The sacred attribute set ``X``."""
        return self._sacred

    @property
    def steps(self) -> Tuple[GYOStep, ...]:
        """The operations applied so far."""
        return tuple(self._steps)

    def alive_indices(self) -> Tuple[int, ...]:
        """Original indices of the relations not yet eliminated."""
        return tuple(sorted(self._current))

    def current_attributes(self, index: int) -> RelationSchema:
        """The current (possibly attribute-deleted) content of relation ``index``."""
        self._require_alive(index)
        if index not in self._modified:
            return self._original[index]
        return RelationSchema(self._current[index])

    def current_schema(self) -> DatabaseSchema:
        """The current partially reduced schema, in original index order.

        Survivors untouched by attribute deletions contribute their original
        :class:`RelationSchema` objects verbatim; when no operation applied
        at all the original schema itself is returned.  This keeps the trace
        packaging of no-op and sacred-set reductions near-free instead of
        rebuilding every relation schema.
        """
        if not self._steps:
            return self._original
        originals = self._original.relations
        modified = self._modified
        current = self._current
        return DatabaseSchema(
            RelationSchema(current[index]) if index in modified else originals[index]
            for index in sorted(current)
        )

    def result(self) -> DatabaseSchema:
        """Alias of :meth:`current_schema` (meaningful once complete)."""
        return self.current_schema()

    def _require_alive(self, index: int) -> None:
        if index not in self._current:
            raise GYOError(f"relation #{index} has already been eliminated")

    # -- operation validation ----------------------------------------------------

    def attribute_occurrence_count(self, attribute: Attribute) -> int:
        """Number of currently alive relations containing ``attribute``."""
        return sum(1 for attrs in self._current.values() if attribute in attrs)

    def can_delete_attribute(self, index: int, attribute: Attribute) -> bool:
        """True when operation (1) applies to ``attribute`` in relation ``index``."""
        if index not in self._current:
            return False
        if attribute in self._sacred:
            return False
        if attribute not in self._current[index]:
            return False
        return self.attribute_occurrence_count(attribute) == 1

    def can_eliminate_subset(self, removed: int, witness: int) -> bool:
        """True when operation (2) applies: current content of ``removed`` is a
        subset of the current content of ``witness``."""
        if removed == witness:
            return False
        if removed not in self._current or witness not in self._current:
            return False
        return self._current[removed] <= self._current[witness]

    # -- operations ----------------------------------------------------------------

    def delete_attribute(self, index: int, attribute: Attribute) -> AttributeDeletion:
        """Apply operation (1), recording and returning the step."""
        self._require_alive(index)
        if attribute in self._sacred:
            raise GYOError(f"attribute {attribute!r} is sacred and cannot be deleted")
        if attribute not in self._current[index]:
            raise GYOError(
                f"attribute {attribute!r} does not occur in relation #{index}"
            )
        if self.attribute_occurrence_count(attribute) != 1:
            raise GYOError(
                f"attribute {attribute!r} occurs in more than one relation; "
                "isolated attribute deletion does not apply"
            )
        self._current[index].discard(attribute)
        self._modified.add(index)
        step = AttributeDeletion(relation_index=index, attribute=attribute)
        self._steps.append(step)
        return step

    def eliminate_subset(self, removed: int, witness: int) -> SubsetElimination:
        """Apply operation (2), recording and returning the step."""
        self._require_alive(removed)
        self._require_alive(witness)
        if removed == witness:
            raise GYOError("a relation cannot be eliminated using itself as witness")
        if not self._current[removed] <= self._current[witness]:
            raise GYOError(
                f"relation #{removed} is not a subset of relation #{witness}"
            )
        del self._current[removed]
        self._parents[removed] = witness
        step = SubsetElimination(removed_index=removed, witness_index=witness)
        self._steps.append(step)
        return step

    def apply(self, step: GYOStep) -> GYOStep:
        """Apply a pre-built step (useful for replaying recorded traces)."""
        if isinstance(step, AttributeDeletion):
            return self.delete_attribute(step.relation_index, step.attribute)
        if isinstance(step, SubsetElimination):
            return self.eliminate_subset(step.removed_index, step.witness_index)
        raise GYOError(f"unknown GYO step type: {type(step).__name__}")

    # -- search for applicable operations ---------------------------------------------

    def applicable_attribute_deletions(self) -> List[AttributeDeletion]:
        """All currently applicable isolated-attribute deletions."""
        occurrence: Dict[Attribute, List[int]] = {}
        for index in sorted(self._current):
            for attribute in self._current[index]:
                occurrence.setdefault(attribute, []).append(index)
        deletions = []
        for attribute in sorted(occurrence):
            indices = occurrence[attribute]
            if len(indices) == 1 and attribute not in self._sacred:
                deletions.append(
                    AttributeDeletion(relation_index=indices[0], attribute=attribute)
                )
        return deletions

    def applicable_subset_eliminations(self) -> List[SubsetElimination]:
        """All currently applicable subset eliminations (quadratic scan)."""
        eliminations = []
        alive = sorted(self._current)
        for removed in alive:
            for witness in alive:
                if removed != witness and self.can_eliminate_subset(removed, witness):
                    eliminations.append(
                        SubsetElimination(removed_index=removed, witness_index=witness)
                    )
        return eliminations

    def applicable_operations(self) -> List[GYOStep]:
        """Every operation applicable right now (deletions first)."""
        ops: List[GYOStep] = []
        ops.extend(self.applicable_attribute_deletions())
        ops.extend(self.applicable_subset_eliminations())
        return ops

    def is_complete(self) -> bool:
        """True when no operation applies, i.e. the current schema is
        ``GR(original, sacred)``.

        Runs one occurrence-count pass for isolated attributes, then a
        subset scan restricted to relations sharing each candidate's rarest
        attribute, so completeness checks stay near-linear on the workload
        families instead of scanning every relation pair.
        """
        occurrence: Dict[Attribute, List[int]] = {}
        for index, attrs in self._current.items():
            for attribute in attrs:
                occurrence.setdefault(attribute, []).append(index)
        for attribute, holders in occurrence.items():
            if len(holders) == 1 and attribute not in self._sacred:
                return False
        alive_count = len(self._current)
        for index, attrs in self._current.items():
            if not attrs:
                # An attribute-free relation is a subset of any other relation.
                if alive_count > 1:
                    return False
                continue
            pivot = min(attrs, key=lambda a: len(occurrence[a]))
            for witness in occurrence[pivot]:
                if witness != index and attrs <= self._current[witness]:
                    return False
        return True

    # -- running to completion ------------------------------------------------------

    def run_to_completion(self) -> "GYOReduction":
        """Apply operations until the fixpoint ``GR(original, sacred)``.

        The implementation is worklist-driven and near-linear in the total
        schema size: attribute occurrence sets are maintained incrementally,
        a queue of isolated attributes drives operation (1), and a queue of
        "dirty" (shrunk) relations drives operation (2).  Relations can only
        *lose* attributes, so a relation needs a new subset check exactly when
        it shrinks, and an attribute needs an isolation check exactly when its
        occurrence count drops to one — no full rescans between rounds.  The
        resulting fixpoint is unique (Maier & Ullman), so the operation order
        chosen here does not affect the result.
        """
        current = self._current
        sacred = self._sacred
        occurrence: Dict[Attribute, Set[int]] = {}
        for index, attrs in current.items():
            for attribute in attrs:
                occurrence.setdefault(attribute, set()).add(index)

        isolated: deque = deque(
            sorted(
                attribute
                for attribute, holders in occurrence.items()
                if len(holders) == 1 and attribute not in sacred
            )
        )
        queued_attributes = set(isolated)
        dirty: deque = deque(sorted(current))
        queued_relations = set(dirty)

        def mark_dirty(index: int) -> None:
            if index not in queued_relations:
                queued_relations.add(index)
                dirty.append(index)

        def mark_isolated(attribute: Attribute) -> None:
            if attribute not in queued_attributes and attribute not in sacred:
                queued_attributes.add(attribute)
                isolated.append(attribute)

        while isolated or dirty:
            # Drain isolated-attribute deletions first: they are the cheap
            # operation and each one can unlock a subset elimination.
            while isolated:
                attribute = isolated.popleft()
                queued_attributes.discard(attribute)
                holders = occurrence.get(attribute)
                if holders is None or len(holders) != 1:
                    continue
                (index,) = holders
                current[index].discard(attribute)
                self._modified.add(index)
                del occurrence[attribute]
                self._steps.append(
                    AttributeDeletion(relation_index=index, attribute=attribute)
                )
                mark_dirty(index)
            if not dirty:
                break
            index = dirty.popleft()
            queued_relations.discard(index)
            if index not in current:
                continue
            attrs = current[index]
            if attrs:
                # Only relations sharing the rarest attribute can be
                # supersets.  Open-coded min: this runs once per dirty
                # relation even on no-op (sacred-set) reductions, and a
                # keyed ``min`` pays a lambda frame per attribute.
                candidates: Optional[Iterable[int]] = None
                best = -1
                for attribute in attrs:
                    holders = occurrence[attribute]
                    count = len(holders)
                    if candidates is None or count < best:
                        candidates = holders
                        best = count
            else:
                candidates = current
            # First match wins (any witness yields the same unique fixpoint);
            # iteration order over int indices is deterministic, and not
            # copying/sorting the candidate set keeps stars near-linear.
            witness: Optional[int] = None
            for candidate in candidates:
                if candidate != index and attrs <= current[candidate]:
                    witness = candidate
                    break
            if witness is None:
                continue
            for attribute in sorted(attrs):
                holders = occurrence[attribute]
                holders.discard(index)
                if len(holders) == 1:
                    mark_isolated(attribute)
            del current[index]
            self._parents[index] = witness
            self._steps.append(
                SubsetElimination(removed_index=index, witness_index=witness)
            )
        return self

    def trace(self) -> GYOTrace:
        """Package the reduction performed so far as an immutable trace."""
        survivors = self.alive_indices()
        return GYOTrace(
            original=self._original,
            sacred=self._sacred,
            steps=tuple(self._steps),
            result=self.current_schema(),
            survivors=survivors,
            parents=dict(self._parents),
        )


def gyo_reduce(
    schema: DatabaseSchema,
    sacred: Union[RelationSchema, Iterable[Attribute]] = (),
) -> GYOTrace:
    """Compute ``GR(schema, sacred)`` and return the full trace.

    Consults the engine façade's cache (:func:`repro.engine.analyze`): when
    the schema has an :class:`~repro.engine.AnalyzedSchema`, its memoized
    trace is reused.  On a miss the reduction runs directly *without*
    creating a cache entry — this function is the inner loop of brute-force
    searches over thousands of candidate schemas (treefication,
    tree projections), which must not flood the analysis LRU.
    """
    from ..engine.analysis import peek_analysis  # deferred: the engine sits above us

    analysis = peek_analysis(schema)
    if analysis is not None:
        return analysis.gyo_trace(sacred)
    reducer = GYOReduction(schema, sacred)
    reducer.run_to_completion()
    return reducer.trace()


def gyo_reduction(
    schema: DatabaseSchema,
    sacred: Union[RelationSchema, Iterable[Attribute]] = (),
) -> DatabaseSchema:
    """Compute ``GR(schema, sacred)`` and return only the resulting schema."""
    return gyo_reduce(schema, sacred).result


def is_tree_schema(schema: DatabaseSchema) -> bool:
    """Corollary 3.1: ``D`` is a tree schema iff its GYO reduction deletes
    every attribute (equivalently, in the literature, iff ``D`` is α-acyclic)."""
    return gyo_reduce(schema).is_fully_reduced_to_empty


def is_cyclic_schema(schema: DatabaseSchema) -> bool:
    """``D`` is cyclic iff it is not a tree schema."""
    return not is_tree_schema(schema)


def is_partial_gyo_reduction(
    schema: DatabaseSchema,
    sacred: Union[RelationSchema, Iterable[Attribute]],
    candidate: DatabaseSchema,
    *,
    budget: int = 200_000,
) -> bool:
    """Decide whether ``candidate ∈ pGR(schema, sacred)``.

    This performs a breadth-first search over the schemas reachable by GYO
    operations.  The state space can be exponential, so the search carries an
    explicit ``budget`` on the number of visited states and raises
    :class:`~repro.exceptions.SearchBudgetExceeded` when it is exhausted.
    Intended for verifying the paper's pGR-based statements on small schemas;
    the practical characterizations (Theorem 3.1) avoid pGR entirely.
    """
    sacred_schema = (
        sacred if isinstance(sacred, RelationSchema) else RelationSchema(sacred)
    )

    def canonical(state: Tuple[Tuple[int, FrozenSet[Attribute]], ...]):
        return state

    start = tuple(
        (index, relation.attributes)
        for index, relation in enumerate(schema.relations)
    )
    target = sorted(
        (relation.attributes for relation in candidate.relations),
        key=lambda attrs: (len(attrs), tuple(sorted(attrs))),
    )

    def matches(state) -> bool:
        contents = sorted(
            (attrs for _, attrs in state),
            key=lambda attrs: (len(attrs), tuple(sorted(attrs))),
        )
        return contents == target

    seen = {canonical(start)}
    frontier = [start]
    visited = 0
    while frontier:
        state = frontier.pop()
        visited += 1
        if visited > budget:
            raise SearchBudgetExceeded(
                f"pGR membership search exceeded budget of {budget} states"
            )
        if matches(state):
            return True
        alive = dict(state)
        occurrence: Dict[Attribute, List[int]] = {}
        for index, attrs in alive.items():
            for attribute in attrs:
                occurrence.setdefault(attribute, []).append(index)
        # Attribute deletions.
        for attribute, holders in occurrence.items():
            if len(holders) == 1 and attribute not in sacred_schema:
                index = holders[0]
                next_alive = dict(alive)
                next_alive[index] = frozenset(next_alive[index] - {attribute})
                next_state = tuple(sorted(next_alive.items()))
                if next_state not in seen:
                    seen.add(next_state)
                    frontier.append(next_state)
        # Subset eliminations.
        for removed, attrs in alive.items():
            for witness, other in alive.items():
                if removed != witness and attrs <= other:
                    next_alive = dict(alive)
                    del next_alive[removed]
                    next_state = tuple(sorted(next_alive.items()))
                    if next_state not in seen:
                        seen.add(next_state)
                        frontier.append(next_state)
    return False
