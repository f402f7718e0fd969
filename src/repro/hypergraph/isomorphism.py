"""Schema isomorphism under attribute renaming.

Two database schemas are *isomorphic* when some bijection between their
attribute sets maps one multiset of relation schemas onto the other.  The
paper uses this notion implicitly ("any schema isomorphic to an Aring or an
Aclique is an Aring or Aclique"); the library uses it in tests and in the
random-schema generators to check structural equality independent of attribute
names.

The search is a straightforward backtracking over attribute bijections with
invariant-based pruning (attribute occurrence profiles and relation size
multisets), which is more than fast enough for the schema sizes the paper
works with.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

from .schema import Attribute, DatabaseSchema

__all__ = [
    "attribute_profile",
    "find_isomorphism",
    "are_isomorphic",
]


def attribute_profile(schema: DatabaseSchema, attribute: Attribute) -> Tuple:
    """An isomorphism-invariant fingerprint of an attribute.

    The profile records, for every relation containing the attribute, the
    relation's size — two attributes can only correspond under an isomorphism
    if their profiles match.
    """
    sizes = sorted(
        len(schema[index]) for index in schema.attribute_occurrences().get(attribute, ())
    )
    return (len(sizes), tuple(sizes))


def _schema_signature(schema: DatabaseSchema) -> Tuple:
    sizes = sorted(len(relation) for relation in schema.relations)
    profiles = sorted(
        attribute_profile(schema, attribute)
        for attribute in schema.attributes.attributes
    )
    return (len(schema), tuple(sizes), tuple(profiles))


def find_isomorphism(
    first: DatabaseSchema, second: DatabaseSchema
) -> Optional[Dict[Attribute, Attribute]]:
    """Find an attribute bijection mapping ``first`` onto ``second``.

    Returns the mapping, or ``None`` when the schemas are not isomorphic.
    """
    if _schema_signature(first) != _schema_signature(second):
        return None

    first_attrs = sorted(first.attributes.attributes)
    second_attrs = sorted(second.attributes.attributes)
    if len(first_attrs) != len(second_attrs):
        return None

    second_multiset = Counter(relation.attributes for relation in second.relations)

    # Group target attributes by profile for candidate generation.
    second_by_profile: Dict[Tuple, List[Attribute]] = defaultdict(list)
    for attribute in second_attrs:
        second_by_profile[attribute_profile(second, attribute)].append(attribute)

    # Order source attributes by ascending candidate-set size (most constrained first).
    ordered = sorted(
        first_attrs,
        key=lambda attribute: len(
            second_by_profile.get(attribute_profile(first, attribute), ())
        ),
    )

    mapping: Dict[Attribute, Attribute] = {}
    used: set = set()

    first_edges = [relation.attributes for relation in first.relations]

    def consistent() -> bool:
        """Partial consistency: fully mapped edges must exist in the target."""
        remaining = Counter(second_multiset)
        for edge in first_edges:
            if all(attribute in mapping for attribute in edge):
                image = frozenset(mapping[attribute] for attribute in edge)
                if remaining[image] <= 0:
                    return False
                remaining[image] -= 1
        return True

    def backtrack(position: int) -> bool:
        if position == len(ordered):
            # Full mapping found; verify the multisets of edges coincide.
            image = Counter(
                frozenset(mapping[attribute] for attribute in edge)
                for edge in first_edges
            )
            return image == second_multiset
        attribute = ordered[position]
        profile = attribute_profile(first, attribute)
        for candidate in second_by_profile.get(profile, ()):
            if candidate in used:
                continue
            mapping[attribute] = candidate
            used.add(candidate)
            if consistent() and backtrack(position + 1):
                return True
            del mapping[attribute]
            used.discard(candidate)
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def are_isomorphic(first: DatabaseSchema, second: DatabaseSchema) -> bool:
    """True when the two schemas are equal up to renaming of attributes."""
    return find_isomorphism(first, second) is not None
