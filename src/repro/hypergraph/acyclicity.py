"""Degrees of acyclicity: α (tree schemas), γ (Fagin / Section 5.2), and β.

* **α-acyclicity** is the paper's *tree schema* property, decided by the GYO
  reduction (Corollary 3.1).
* **γ-acyclicity** is characterized three ways by Theorem 5.3:

  (i)   ``D`` contains no *weak γ-cycle*;
  (ii)  for all ``R1, R2 ∈ D`` with ``R1 ∩ R2 ≠ ∅``, deleting the attributes
        ``R1 ∩ R2`` from ``D`` leaves ``R1 - (R1 ∩ R2)`` and
        ``R2 - (R1 ∩ R2)`` disconnected;
  (iii) ``D`` is a tree schema and every connected ``D' ⊆ D`` is a subtree of
        ``D``.

  Characterization (ii) is polynomial and is the default test; (i) and (iii)
  are implemented as witness searches / exhaustive checks for validation.
* **β-acyclicity** (every sub-multiset of edges is α-acyclic) is included as a
  natural extension sitting strictly between γ and α; it is decided by
  iterated *nest-point* elimination, with a brute-force cross-check for small
  schemas.

The implication chain γ-acyclic ⇒ β-acyclic ⇒ α-acyclic is exercised by the
property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from ..exceptions import SearchBudgetExceeded
from .gyo import is_tree_schema
from .schema import Attribute, DatabaseSchema

__all__ = [
    "is_alpha_acyclic",
    "WeakGammaCycle",
    "find_weak_gamma_cycle",
    "violating_pair",
    "is_gamma_acyclic",
    "is_gamma_acyclic_via_subtrees",
    "is_beta_acyclic",
    "is_beta_acyclic_bruteforce",
]


def is_alpha_acyclic(schema: DatabaseSchema) -> bool:
    """α-acyclicity = the paper's tree-schema property (Corollary 3.1)."""
    return is_tree_schema(schema)


# ---------------------------------------------------------------------------
# Weak gamma-cycles (Theorem 5.3(i))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakGammaCycle:
    """A weak γ-cycle ``(R_1, A_1, R_2, ..., R_m, A_m, R_1)``.

    ``relation_indices`` holds the indices of ``R_1 ... R_m`` in the schema and
    ``attributes`` the connecting attributes ``A_1 ... A_m`` (``A_i ∈ R_i ∩
    R_{i+1}`` cyclically).  ``m >= 3``, the relations are distinct, the
    attributes are distinct, ``A_1`` occurs in no relation of the cycle other
    than ``R_1`` and ``R_2``, and ``A_2`` in none other than ``R_2`` and
    ``R_3`` (the exclusivity is with respect to the cycle, as in Fagin's
    definition; this is the reading under which Theorem 5.3's three
    characterizations coincide).
    """

    relation_indices: Tuple[int, ...]
    attributes: Tuple[Attribute, ...]

    def __len__(self) -> int:
        return len(self.relation_indices)

    def describe(self, schema: DatabaseSchema) -> str:
        """Render the cycle with the schema's relation notation."""
        parts = []
        m = len(self.relation_indices)
        for position in range(m):
            index = self.relation_indices[position]
            parts.append(schema[index].to_notation())
            parts.append(self.attributes[position])
        parts.append(schema[self.relation_indices[0]].to_notation())
        return " - ".join(parts)


def find_weak_gamma_cycle(
    schema: DatabaseSchema, *, budget: int = 2_000_000
) -> Optional[WeakGammaCycle]:
    """Search for a weak γ-cycle in ``schema``.

    The search enumerates candidate starts ``(R_1, A_1, R_2, A_2, R_3)`` and
    then extends the path by depth-first search over relations, keeping
    relations and attributes distinct and never revisiting ``A_1`` or ``A_2``
    in a later relation (which enforces the within-cycle exclusivity of the
    definition), until it can close back to ``R_1``.  Worst-case exponential;
    the ``budget`` bounds the number of extension steps.
    """
    n = len(schema)
    steps = 0

    def extend(
        path_relations: List[int],
        path_attributes: List[Attribute],
        used_relations: Set[int],
        used_attributes: Set[Attribute],
        start: int,
        forbidden: Tuple[Attribute, Attribute],
    ) -> Optional[WeakGammaCycle]:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise SearchBudgetExceeded(
                f"weak gamma-cycle search exceeded budget of {budget} steps"
            )
        current = path_relations[-1]
        # Try to close the cycle (m >= 3 is guaranteed by construction).
        if len(path_relations) >= 3:
            closing = schema[current].intersection(schema[start])
            for attribute in sorted(closing.attributes):
                if attribute not in used_attributes:
                    return WeakGammaCycle(
                        relation_indices=tuple(path_relations),
                        attributes=tuple(path_attributes + [attribute]),
                    )
        # Extend the path with a relation that avoids A_1 and A_2 entirely.
        for nxt in range(n):
            if nxt in used_relations or nxt == start:
                continue
            if forbidden[0] in schema[nxt] or forbidden[1] in schema[nxt]:
                continue
            shared = schema[current].intersection(schema[nxt])
            for attribute in sorted(shared.attributes):
                if attribute in used_attributes:
                    continue
                found = extend(
                    path_relations + [nxt],
                    path_attributes + [attribute],
                    used_relations | {nxt},
                    used_attributes | {attribute},
                    start,
                    forbidden,
                )
                if found is not None:
                    return found
        return None

    for r1 in range(n):
        for r2 in range(n):
            if r1 == r2:
                continue
            shared12 = schema[r1].intersection(schema[r2])
            for a1 in sorted(shared12.attributes):
                for r3 in range(n):
                    if r3 in (r1, r2):
                        continue
                    if a1 in schema[r3]:
                        # A_1 may occur only in R_1 and R_2 within the cycle.
                        continue
                    shared23 = schema[r2].intersection(schema[r3])
                    for a2 in sorted(shared23.attributes):
                        if a2 == a1 or a2 in schema[r1]:
                            # A_2 may occur only in R_2 and R_3 within the cycle.
                            continue
                        found = extend(
                            [r1, r2, r3],
                            [a1, a2],
                            {r1, r2, r3},
                            {a1, a2},
                            r1,
                            (a1, a2),
                        )
                        if found is not None:
                            return found
    return None


# ---------------------------------------------------------------------------
# Pair-disconnection characterization (Theorem 5.3(ii)) — the polynomial test
# ---------------------------------------------------------------------------


def _connected_between(
    schema: DatabaseSchema, source: int, target: int
) -> bool:
    """Whether relations ``source`` and ``target`` are connected in ``schema``
    via a path of relations sharing at least one attribute."""
    if source == target:
        return True
    adjacency = schema.adjacency()
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for neighbour in adjacency[node]:
            if neighbour == target:
                return True
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return False


def violating_pair(schema: DatabaseSchema) -> Optional[Tuple[int, int]]:
    """Find relation indices ``(i, j)`` violating Theorem 5.3(ii), if any.

    A pair violates the condition when ``R_i ∩ R_j ≠ ∅`` and, after deleting
    the attributes ``R_i ∩ R_j`` from the whole schema, ``R_i`` and ``R_j``
    remain connected.  ``None`` means the schema is γ-acyclic.
    """
    n = len(schema)
    for i in range(n):
        for j in range(i + 1, n):
            shared = schema[i].intersection(schema[j])
            if not shared:
                continue
            restricted = schema.delete_attributes(shared)
            if not restricted[i] or not restricted[j]:
                # An empty relation schema shares no attribute with anything,
                # hence cannot be connected to the other one.
                continue
            if _connected_between(restricted, i, j):
                return (i, j)
    return None


def is_gamma_acyclic(schema: DatabaseSchema, method: str = "pair-disconnection") -> bool:
    """Decide γ-acyclicity.

    ``method`` selects the characterization of Theorem 5.3 used:

    * ``"pair-disconnection"`` (default) — polynomial, characterization (ii);
    * ``"gamma-cycle"`` — search for a weak γ-cycle, characterization (i);
    * ``"subtrees"`` — exhaustive characterization (iii), small schemas only.
    """
    if method == "pair-disconnection":
        return violating_pair(schema) is None
    if method == "gamma-cycle":
        return find_weak_gamma_cycle(schema) is None
    if method == "subtrees":
        return is_gamma_acyclic_via_subtrees(schema)
    raise ValueError(f"unknown gamma-acyclicity method: {method!r}")


def is_gamma_acyclic_via_subtrees(
    schema: DatabaseSchema, *, budget: int = 1_000_000
) -> bool:
    """Theorem 5.3(iii): tree schema + every connected sub-multiset is a subtree.

    Exponential in the number of relations; guarded by ``budget`` on the
    number of sub-multisets examined.
    """
    from .join_tree import is_subtree  # local import to avoid a cycle

    if not is_tree_schema(schema):
        return False
    examined = 0
    for sub in schema.iter_sub_schemas(connected_only=True):
        examined += 1
        if examined > budget:
            raise SearchBudgetExceeded(
                f"subtree-based gamma test exceeded budget of {budget} subsets"
            )
        if not is_subtree(schema, sub):
            return False
    return True


# ---------------------------------------------------------------------------
# Beta-acyclicity (extension)
# ---------------------------------------------------------------------------


def is_beta_acyclic(schema: DatabaseSchema) -> bool:
    """β-acyclicity via iterated nest-point elimination (polynomial).

    An attribute is a *nest point* when the relation schemas containing it are
    totally ordered by inclusion.  A hypergraph is β-acyclic iff repeatedly
    deleting nest points (and dropping emptied/duplicate edges) removes every
    attribute.
    """
    edges: List[FrozenSet[Attribute]] = [
        relation.attributes for relation in schema.relations if relation
    ]
    attributes: Set[Attribute] = set()
    for edge in edges:
        attributes |= edge

    def containing(attribute: Attribute) -> List[FrozenSet[Attribute]]:
        return [edge for edge in edges if attribute in edge]

    def is_nest_point(attribute: Attribute) -> bool:
        holders = sorted(containing(attribute), key=len)
        for first, second in zip(holders, holders[1:]):
            if not first <= second:
                return False
        return True

    while attributes:
        nest_points = [attribute for attribute in sorted(attributes) if is_nest_point(attribute)]
        if not nest_points:
            return False
        doomed = set(nest_points)
        attributes -= doomed
        new_edges: List[FrozenSet[Attribute]] = []
        seen: Set[FrozenSet[Attribute]] = set()
        for edge in edges:
            trimmed = frozenset(edge - doomed)
            if trimmed and trimmed not in seen:
                seen.add(trimmed)
                new_edges.append(trimmed)
        edges = new_edges
    return True


def is_beta_acyclic_bruteforce(
    schema: DatabaseSchema, *, budget: int = 1_000_000
) -> bool:
    """β-acyclicity by definition: every sub-multiset of relations is α-acyclic.

    Exponential; used to cross-validate :func:`is_beta_acyclic` on small
    schemas.
    """
    examined = 0
    for sub in schema.iter_sub_schemas():
        examined += 1
        if examined > budget:
            raise SearchBudgetExceeded(
                f"brute-force beta test exceeded budget of {budget} subsets"
            )
        if not is_alpha_acyclic(sub):
            return False
    return True
