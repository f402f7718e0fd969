"""Deterministic and random schema generators.

These are the workload generators used by the test suite and by every
benchmark.  Deterministic families (chains, stars, Arings, Acliques, grids)
provide predictable scaling shapes; the random families produce tree schemas
(guaranteed α-acyclic by construction) and cyclic schemas (guaranteed cyclic
by embedding an Aring) for property-based testing of the paper's theorems.

All random generators take an explicit :class:`random.Random` instance or an
integer seed, never the global RNG, so every experiment is reproducible.
"""

from __future__ import annotations

import random
from typing import List, Set, Union

from ..exceptions import SchemaError
from .cycles import aclique, aring
from .schema import Attribute, DatabaseSchema, RelationSchema

__all__ = [
    "aring",
    "aclique",
    "chain_schema",
    "star_schema",
    "fan_schema",
    "grid_schema",
    "clique_of_rings",
    "random_tree_schema",
    "random_cyclic_schema",
    "random_schema",
    "ResolvableRandom",
    "resolve_rng",
]

ResolvableRandom = Union[None, int, random.Random]


def resolve_rng(rng: ResolvableRandom) -> random.Random:
    """Turn ``None`` / an int seed / a Random instance into a Random instance."""
    if rng is None:
        return random.Random(0)
    if isinstance(rng, int):
        return random.Random(rng)
    return rng


def _numbered_attributes(prefix: str, count: int) -> List[Attribute]:
    return [f"{prefix}{index}" for index in range(count)]


def chain_schema(length: int, attribute_prefix: str = "x") -> DatabaseSchema:
    """A chain (path) schema ``{x0 x1}, {x1 x2}, ..., {x_{n-1} x_n}``.

    Chains are tree schemas and also γ-acyclic; they are the canonical
    "easy" workload for the scaling benchmarks.
    """
    if length < 1:
        raise SchemaError("chain length must be at least 1")
    attrs = _numbered_attributes(attribute_prefix, length + 1)
    return DatabaseSchema(
        RelationSchema({attrs[i], attrs[i + 1]}) for i in range(length)
    )


def star_schema(points: int, attribute_prefix: str = "x") -> DatabaseSchema:
    """A star schema: a hub attribute shared by ``points`` binary relations.

    ``{hub, x0}, {hub, x1}, ...`` — a tree schema whose qual tree is a star.
    """
    if points < 1:
        raise SchemaError("a star needs at least one point")
    hub = f"{attribute_prefix}_hub"
    return DatabaseSchema(
        RelationSchema({hub, f"{attribute_prefix}{index}"}) for index in range(points)
    )


def fan_schema(width: int, attribute_prefix: str = "x") -> DatabaseSchema:
    """A "fan": one big relation covering everything plus ``width`` binary spokes.

    ``{x0..x_width}, {x0 x1}, {x1 x2}, ...`` — a tree schema in which the big
    relation witnesses every subset elimination; used to exercise GYO traces
    with large witnesses.
    """
    if width < 2:
        raise SchemaError("a fan needs width at least 2")
    attrs = _numbered_attributes(attribute_prefix, width + 1)
    relations: List[RelationSchema] = [RelationSchema(attrs)]
    relations.extend(
        RelationSchema({attrs[i], attrs[i + 1]}) for i in range(width)
    )
    return DatabaseSchema(relations)


def grid_schema(rows: int, columns: int, attribute_prefix: str = "g") -> DatabaseSchema:
    """A grid of binary relations over a ``rows × columns`` lattice of attributes.

    Attributes are lattice points; relations connect horizontal and vertical
    neighbours.  Any grid with ``rows >= 2`` and ``columns >= 2`` is cyclic
    (it contains squares, i.e. Arings of size 4 after attribute deletion).
    """
    if rows < 1 or columns < 1:
        raise SchemaError("grid dimensions must be positive")
    relations: List[RelationSchema] = []

    def name(row: int, column: int) -> Attribute:
        return f"{attribute_prefix}_{row}_{column}"

    for row in range(rows):
        for column in range(columns):
            if column + 1 < columns:
                relations.append(RelationSchema({name(row, column), name(row, column + 1)}))
            if row + 1 < rows:
                relations.append(RelationSchema({name(row, column), name(row + 1, column)}))
    return DatabaseSchema(relations)


def clique_of_rings(ring_count: int, ring_size: int = 4) -> DatabaseSchema:
    """Several attribute-disjoint Arings side by side (a disconnected cyclic schema).

    This is the shape of the schemas built by the Theorem 4.2 reduction from
    Bin Packing, where each item becomes an Aclique over fresh attributes.
    """
    if ring_count < 1:
        raise SchemaError("need at least one ring")
    relations: List[RelationSchema] = []
    for ring_index in range(ring_count):
        attrs = [f"r{ring_index}_{k}" for k in range(ring_size)]
        relations.extend(aring(ring_size, attrs).relations)
    return DatabaseSchema(relations)


def random_tree_schema(
    relation_count: int,
    *,
    max_shared: int = 3,
    max_private: int = 3,
    rng: ResolvableRandom = None,
    attribute_prefix: str = "t",
) -> DatabaseSchema:
    """A random tree schema with ``relation_count`` relations.

    The construction picks a random tree over the relations, gives each tree
    edge a fresh set of 1..``max_shared`` shared attributes and each relation
    0..``max_private`` private attributes, and sets each relation schema to
    the union of the attribute sets of its incident edges plus its private
    attributes.  The qual graph of the construction is the chosen tree, so the
    result is always a tree schema.
    """
    if relation_count < 1:
        raise SchemaError("need at least one relation")
    generator = resolve_rng(rng)
    counter = 0

    def fresh(count: int) -> List[Attribute]:
        nonlocal counter
        names = [f"{attribute_prefix}{counter + offset}" for offset in range(count)]
        counter += count
        return names

    contents: List[Set[Attribute]] = [set() for _ in range(relation_count)]
    for node in range(relation_count):
        contents[node].update(fresh(generator.randint(0, max_private)))
    for node in range(1, relation_count):
        parent = generator.randrange(node)
        shared = fresh(generator.randint(1, max_shared))
        contents[node].update(shared)
        contents[parent].update(shared)
    # Guarantee non-empty relation schemas.
    for node in range(relation_count):
        if not contents[node]:
            contents[node].update(fresh(1))
    return DatabaseSchema(RelationSchema(attrs) for attrs in contents)


def random_cyclic_schema(
    relation_count: int,
    *,
    ring_size: int = 3,
    rng: ResolvableRandom = None,
    attribute_prefix: str = "c",
) -> DatabaseSchema:
    """A random cyclic schema: a random tree schema with an embedded Aring.

    The embedded ring attributes are kept disjoint from the tree part except
    for one shared attachment attribute, so the schema is connected yet
    guaranteed cyclic (deleting everything but the ring attributes leaves an
    Aring, per Lemma 3.1).
    """
    if relation_count < ring_size:
        raise SchemaError("relation_count must be at least ring_size")
    generator = resolve_rng(rng)
    tree_part = random_tree_schema(
        relation_count - ring_size,
        rng=generator,
        attribute_prefix=attribute_prefix + "t",
    ) if relation_count > ring_size else DatabaseSchema()
    ring_attrs = [f"{attribute_prefix}r{k}" for k in range(ring_size)]
    ring_part = aring(ring_size, ring_attrs)
    relations = list(tree_part.relations)
    ring_relations = list(ring_part.relations)
    if relations:
        # Attach the ring to a random tree relation through a shared attribute.
        anchor_index = generator.randrange(len(relations))
        anchor_attr = f"{attribute_prefix}_anchor"
        relations[anchor_index] = relations[anchor_index].union({anchor_attr})
        ring_relations[0] = ring_relations[0].union({anchor_attr})
    return DatabaseSchema(relations + ring_relations)


def random_schema(
    relation_count: int,
    attribute_count: int,
    *,
    min_arity: int = 1,
    max_arity: int = 4,
    rng: ResolvableRandom = None,
    attribute_prefix: str = "a",
) -> DatabaseSchema:
    """A uniformly random schema (may be a tree or cyclic).

    Each relation schema is a random subset of the attribute universe with an
    arity drawn uniformly from ``[min_arity, max_arity]``.  Useful for
    unbiased property tests where the tree/cyclic split itself is under test.
    """
    if relation_count < 1 or attribute_count < 1:
        raise SchemaError("counts must be positive")
    if not 1 <= min_arity <= max_arity:
        raise SchemaError("need 1 <= min_arity <= max_arity")
    generator = resolve_rng(rng)
    universe = _numbered_attributes(attribute_prefix, attribute_count)
    relations = []
    for _ in range(relation_count):
        arity = generator.randint(min_arity, min(max_arity, attribute_count))
        relations.append(RelationSchema(generator.sample(universe, arity)))
    return DatabaseSchema(relations)
