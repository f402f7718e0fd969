"""Generation of universal relations and UR database states.

The paper's results quantify over *universal relation databases*: states of
the form ``{ π_R(I) | R ∈ D }``.  The generators here produce the universal
relation ``I`` synthetically — random tuples over small integer domains, with
a configurable skew — and are used by the property tests (semantic checks of
Theorems 4.1, 5.1, 6.x) and by the query-evaluation benchmarks.

Small domains are deliberate: they maximize the chance of value collisions,
which is what makes joins, semijoins and lossless-join counterexamples
interesting at small scale.
"""

from __future__ import annotations

from typing import Iterable, List, Union

from ..hypergraph.generators import ResolvableRandom, resolve_rng
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema
from .database import DatabaseState, universal_database
from .relation import Relation

__all__ = [
    "random_universal_relation",
    "random_ur_database",
    "random_database_state",
    "chain_correlated_universal_relation",
]


def random_universal_relation(
    attributes: Union[RelationSchema, Iterable[Attribute]],
    *,
    tuple_count: int = 20,
    domain_size: int = 3,
    rng: ResolvableRandom = None,
) -> Relation:
    """A random universal relation over the given attributes.

    Each of the ``tuple_count`` tuples assigns every attribute an independent
    uniform value from ``range(domain_size)``.
    """
    schema = (
        attributes
        if isinstance(attributes, RelationSchema)
        else RelationSchema(attributes)
    )
    generator = resolve_rng(rng)
    columns = schema.sorted_attributes()
    rows = [
        tuple(generator.randrange(domain_size) for _ in columns)
        for _ in range(tuple_count)
    ]
    return Relation(schema, rows)


def chain_correlated_universal_relation(
    attributes: Union[RelationSchema, Iterable[Attribute]],
    *,
    tuple_count: int = 50,
    domain_size: int = 10,
    correlation: float = 0.5,
    rng: ResolvableRandom = None,
) -> Relation:
    """A universal relation with correlated adjacent attributes.

    Attributes are taken in sorted order; with probability ``correlation`` an
    attribute copies the value of its predecessor, otherwise it draws a fresh
    uniform value.  Correlation creates many-to-many join patterns that make
    the intermediate-size differences between naive joins and
    semijoin-reduced plans visible in the benchmarks.
    """
    schema = (
        attributes
        if isinstance(attributes, RelationSchema)
        else RelationSchema(attributes)
    )
    generator = resolve_rng(rng)
    columns = schema.sorted_attributes()
    rows = []
    for _ in range(tuple_count):
        row: List[int] = []
        for position, _ in enumerate(columns):
            if position > 0 and generator.random() < correlation:
                row.append(row[-1])
            else:
                row.append(generator.randrange(domain_size))
        rows.append(tuple(row))
    return Relation(schema, rows)


def random_ur_database(
    schema: DatabaseSchema,
    *,
    tuple_count: int = 20,
    domain_size: int = 3,
    rng: ResolvableRandom = None,
) -> DatabaseState:
    """A random UR database for ``schema`` (projections of a random universal relation)."""
    universal = random_universal_relation(
        schema.attributes,
        tuple_count=tuple_count,
        domain_size=domain_size,
        rng=rng,
    )
    return universal_database(schema, universal)


def random_database_state(
    schema: DatabaseSchema,
    *,
    tuple_count: int = 20,
    domain_size: int = 3,
    rng: ResolvableRandom = None,
) -> DatabaseState:
    """A random, generally **non**-UR database state for ``schema``.

    Each relation state is generated independently; useful for exercising the
    general-database statements of Section 6 and for showing where UR-only
    results fail on arbitrary states.
    """
    generator = resolve_rng(rng)
    relations = []
    for relation_schema in schema.relations:
        columns = relation_schema.sorted_attributes()
        rows = [
            tuple(generator.randrange(domain_size) for _ in columns)
            for _ in range(tuple_count)
        ]
        relations.append(Relation(relation_schema, rows))
    return DatabaseState(schema, relations)
