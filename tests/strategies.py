"""The shared Hypothesis generators of the property-based suites.

One module defines what a random query looks like; ``tests/conftest.py``
puts this directory on ``sys.path``, so suites import it as ``strategies``.

* Schema families.  Tree: chain, star, random tree, and a random tree with
  a nested (contained) or a duplicated relation schema inserted.  Cyclic:
  aring, aclique, ``random_cyclic_schema``, a chorded tree (sometimes still
  a tree), a chorded tree with a nested or duplicated relation schema
  inserted, and the two pinned schemas (with their targets) on which the
  union-search layer wins the tree-projection ranking.
* State shapes.  ``independent`` fills each relation on its own (empty
  relations, dangling tuples); ``universal`` is a UR database; ``emptied``
  is a UR database with one relation emptied.  Cells are dense small ints
  or the mixed pool :data:`VALUES`.  A batch holds 1 to ``max_states``
  states and may repeat a state object.
* Targets and roots.  A target is up to three attributes (possibly none) or
  the whole universe; a root is ``None`` or any relation index of a tree
  schema, or, on a cyclic schema, a number that :meth:`Instance.prepare`
  reduces modulo the tree projection's node count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from hypothesis import strategies as st

from repro.engine import analyze
from repro.hypergraph import (
    DatabaseSchema,
    RelationSchema,
    aclique,
    aring,
    chain_schema,
    parse_schema,
    random_cyclic_schema,
    random_tree_schema,
    star_schema,
)
from repro.relational import DatabaseState, Relation
from repro.relational.universal import random_ur_database

#: The numeric tower (``1 == 1.0 == True``), strings, ``None``, an int past
#: int64 and a tuple: equal values of different types meet in keys and
#: joins, and the vectorized kernel's identity→dictionary promotion runs.
VALUES = st.one_of(
    st.integers(-3, 6),
    st.sampled_from(
        [1.0, 2.5, -1.0, True, False, "a", "b", "v1", None, 1 << 70, (1, 2)]
    ),
)

TREE_FAMILIES = ("chain", "star", "random-tree", "nested-tree", "duplicated-tree")
CYCLIC_FAMILIES = (
    "aring", "aclique", "random-cyclic", "chorded-tree", "nested", "duplicated", "union-search"
)

#: Schemas and targets on which ``tp-union-search`` wins the ranking.
UNION_SEARCH = (
    ("cf,af,dfh,cg,aefh,ab,abe,cdg", "ed"),
    ("afh,dfgi,agi,abc,bf,efi", "ae"),
)


@dataclass(frozen=True)
class Instance:
    """One drawn query.  ``fresh`` asks for a plan from a cleared analysis
    cache (the cold path)."""

    family: str
    schema: DatabaseSchema
    target: RelationSchema
    root: Optional[int]
    states: Tuple[DatabaseState, ...]
    fresh: bool = False

    @property
    def cyclic(self) -> bool:
        return self.family in CYCLIC_FAMILIES

    def prepare(self):
        """``prepare`` for a tree family, ``prepare_cyclic`` for a cyclic one."""
        analysis = analyze(self.schema)
        if self.cyclic:
            root = self.root
            if root is not None:
                root %= max(len(analysis.cyclic_projection(self.target).projection), 1)
            return analysis.prepare_cyclic(self.target, root=root)
        return analysis.prepare(self.target, root=self.root)


def chorded_tree(size: int, seed: int) -> DatabaseSchema:
    """A random tree schema plus one chord over sampled attributes; the chord
    may be covered by an existing relation, so the result is sometimes still
    a tree — the cyclic pipeline must accept those too."""
    rng = random.Random(seed)
    tree = random_tree_schema(size, rng=rng.randint(0, 10**6))
    attributes = tree.attributes.sorted_attributes()
    count = rng.randint(2, min(3, len(attributes)))
    return tree.add_relation(RelationSchema(rng.sample(attributes, count)))


def _seed(draw) -> int:
    return draw(st.integers(0, 10**6))


def _with_extra_relation(draw, schema: DatabaseSchema, nested: bool) -> DatabaseSchema:
    """``schema`` with a copy of one relation schema (a proper part of it
    when ``nested``) inserted at a drawn position."""
    relations = list(schema.relations)
    extra = relations[draw(st.integers(0, len(relations) - 1))]
    attributes = extra.sorted_attributes()
    if nested and len(attributes) > 1:
        extra = RelationSchema(
            draw(st.sets(st.sampled_from(attributes), min_size=1, max_size=len(attributes) - 1))
        )
    relations.insert(draw(st.integers(0, len(relations))), extra)
    return DatabaseSchema(relations)


def _schema(draw, family: str) -> DatabaseSchema:
    if family == "aring":
        return aring(draw(st.integers(3, 6)))
    if family == "aclique":
        return aclique(draw(st.integers(3, 5)))
    if family == "random-cyclic":
        return random_cyclic_schema(draw(st.integers(4, 6)), rng=_seed(draw))
    if family in ("chorded-tree", "nested", "duplicated"):
        schema = chorded_tree(draw(st.integers(3, 5)), _seed(draw))
    else:
        size = draw(st.integers(1, 5))
        if family == "chain":
            return chain_schema(size)
        if family == "star":
            return star_schema(max(size, 2))
        schema = random_tree_schema(size, rng=_seed(draw))
    if family in ("nested", "nested-tree"):
        return _with_extra_relation(draw, schema, nested=True)
    if family in ("duplicated", "duplicated-tree"):
        return _with_extra_relation(draw, schema, nested=False)
    return schema


@lru_cache(maxsize=None)
def _rows(width: int, mixed: bool, max_rows: int):
    """Rows of one relation; built once per shape, since building a
    strategy costs more than drawing from it."""
    values = VALUES if mixed else st.integers(0, 3)
    return st.lists(st.tuples(*[values] * width), max_size=max_rows)


def _state(draw, schema: DatabaseSchema, max_rows: int) -> DatabaseState:
    shape = draw(st.sampled_from(["independent", "universal", "emptied"]))
    mixed = draw(st.booleans())
    if shape == "independent":
        return DatabaseState(
            schema,
            [Relation(rs, draw(_rows(len(rs), mixed, max_rows))) for rs in schema.relations],
        )
    rows, domain = draw(st.integers(1, 8)), draw(st.integers(2, 4))
    state = random_ur_database(schema, tuple_count=rows, domain_size=domain, rng=_seed(draw))
    relations = list(state.relations)
    if mixed:
        # Rename the domain into drawn mixed values; equal values of
        # different types may merge rows, which is a state like any other.
        pool = draw(st.lists(VALUES, min_size=4, max_size=4))
        relations = [
            Relation(r.schema, [tuple(pool[v] for v in row) for row in r.rows])
            for r in relations
        ]
    if shape == "emptied":
        index = draw(st.integers(0, len(relations) - 1))
        relations[index] = Relation.empty(schema[index])
    return DatabaseState(schema, relations)


@st.composite
def instances(draw, shape: str = "tree", max_states: int = 4, family: str = "") -> Instance:
    """An :class:`Instance` of a tree (``shape="tree"``) or cyclic
    (``shape="cyclic"``) family, or of ``family`` alone when it is given,
    with 1 to ``max_states`` states."""
    families = CYCLIC_FAMILIES if shape == "cyclic" else TREE_FAMILIES
    family = family or draw(st.sampled_from(families))
    cyclic = family in CYCLIC_FAMILIES
    if family == "union-search":
        text, target = draw(st.sampled_from(UNION_SEARCH))
        schema, target = parse_schema(text), RelationSchema(target)
    else:
        schema = _schema(draw, family)
        attributes = schema.attributes.sorted_attributes()
        target = RelationSchema(
            draw(
                st.one_of(
                    st.sets(st.sampled_from(attributes), max_size=min(3, len(attributes))),
                    st.just(attributes),
                )
            )
        )
    # A cyclic root is bounded by ``prepare``: bounding it here would plan
    # the tree projection once more per example.
    top = 7 if cyclic else max(len(schema) - 1, 0)
    root = draw(st.one_of(st.none(), st.integers(0, top)))
    max_rows = 5 if cyclic else 6
    states = [_state(draw, schema, max_rows)]
    for _ in range(draw(st.integers(0, max_states - 1))):
        if draw(st.booleans()):
            # Repeat a state object: batch paths dedupe it and must still
            # answer every position.
            states.append(states[draw(st.integers(0, len(states) - 1))])
        else:
            states.append(_state(draw, schema, max_rows))
    fresh = draw(st.integers(0, 3)) == 0  # a cold plan on a quarter of the examples
    return Instance(family, schema, target, root, tuple(states), fresh)
