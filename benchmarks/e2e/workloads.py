"""Seeded input generators for the end-to-end benchmark.

Every generator takes an explicit :class:`random.Random`, so one seed fixes
every input of a run.  States are built as fresh objects on every call: the
engine's encode caches are keyed by relation *value* and CPython caches a
string's hash on the string object, so reusing state objects (or their
contents) across requests would let a run inherit warmth it did not earn.
Only the repeat pool of ``service-mixed`` is reused on purpose — cache hits
are what that workload measures.

The generators use the standard library only, so the benchmark also runs
where numpy is missing.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Tuple

from repro.hypergraph.generators import (
    aclique,
    aring,
    chain_schema,
    random_cyclic_schema,
    random_tree_schema,
    star_schema,
)
from repro.hypergraph.schema import DatabaseSchema, RelationSchema
from repro.relational import DatabaseState, Relation

#: serve-small: one 12-relation random tree (a fixed shape, as in the
#: ``msmall-tree-distinct`` serving case), 16 fresh states per batch.
SERVE_SMALL = {"relations": 12, "schema_seed": 3, "tuples": 12, "domain": 6, "states": 16}

#: serve-large: four analytic shapes, each batch sized to cost roughly the
#: same (~25 ms on a 2-CPU Xeon host at the commit that defined the
#: benchmark), served round-robin.
FLARGE_CHAIN = {"length": 6, "tuples": 400, "domain": 40, "states": 6}
FLARGE_STAR = {"points": 12, "tuples": 300, "domain": 24, "states": 20}
EXPLOSION_STAR = {"hubs": 80, "fanout": 16, "card": 23, "states": 1}
STRING_CHAIN = {"length": 3, "rows": 20000, "card": 800, "states": 1}

#: adhoc-plan: templates come from this fixed seed, so every run plans the
#: same 64 queries; ``--seed`` picks the query order and the states.  With
#: seed-drawn templates the one-off tree-projection searches (11-320 ms per
#: random cyclic schema) would move throughput by several percent between
#: seeds and drown the regressions the benchmark is meant to see.
ADHOC_TEMPLATE_SEED = 1983
ADHOC = {"restart_every": 50, "states": 5, "tuples": 6, "dangling": 2}

#: service-mixed: thin requests reuse a 20-state pool; heavy requests are
#: fresh and big enough for the router to send them to the process pool.
#: A thin request that overlaps a heavy batch runs 3-4x slower (the pool's
#: workers load both CPUs); at a 4% heavy share 6-9% of thin requests did,
#: which put the thin p90 on that knee, so it moved by 25-40% between
#: runs.  At 2% the p90 reads the thin path itself and heavy stalls show in
#: the p99 and the heavy requests' own latency.
SERVICE = {
    "length": 5,
    "pool_states": 20,
    "thin_states": 2,
    "thin_tuples": 15,
    "thin_domain": 6,
    "heavy_share": 0.02,
    "heavy_states": 64,
    "heavy_tuples": 40,
    "heavy_domain": 12,
}


def uniform_codes(rng: random.Random, count: int, domain: int) -> List[int]:
    """``count`` values from ``range(domain)``, drawn from one ``randbytes``
    call (several times cheaper than ``randrange`` per value; the modulo
    bias is below 1e-6 for the domains used here)."""
    codes = array("I")
    codes.frombytes(rng.randbytes(codes.itemsize * count))
    return [code % domain for code in codes]


def ur_state(
    schema: DatabaseSchema, rng: random.Random, tuples: int, domain: int
) -> DatabaseState:
    """A UR state: the projections of one random universal relation.

    The distribution of :func:`repro.relational.universal.random_ur_database`
    (uniform values from ``range(domain)``), drawn column by column so that
    input generation stays about as cheap as the work it feeds.
    """
    columns = {
        attribute: uniform_codes(rng, tuples, domain)
        for attribute in schema.attributes.sorted_attributes()
    }
    return DatabaseState(
        schema,
        [
            Relation(rs, zip(*[columns[a] for a in rs.sorted_attributes()]))
            for rs in schema.relations
        ],
    )


def disjoint_state(
    schema: DatabaseSchema, rng: random.Random, tuples: int, dangling: int
) -> DatabaseState:
    """Projections of a universal relation whose cells are all distinct,
    plus ``dangling`` rows of fresh values per relation.

    Every join key identifies the universal tuple it came from, so on a
    connected schema the join is exactly the universal relation and the
    naive join-then-project oracle stays cheap on 60-relation trees; the
    dangling rows give the full reducer something to remove.
    """
    attributes = schema.attributes.sorted_attributes()
    arities = [len(relation) for relation in schema.relations]
    rows_needed = tuples * len(attributes) + dangling * sum(arities)
    values = iter(rng.sample(range(1 << 40), rows_needed))
    columns = {attribute: [next(values) for _ in range(tuples)] for attribute in attributes}
    relations = []
    for relation_schema, arity in zip(schema.relations, arities):
        rows = list(zip(*[columns[a] for a in relation_schema.sorted_attributes()]))
        rows.extend(tuple(next(values) for _ in range(arity)) for _ in range(dangling))
        relations.append(Relation(relation_schema, rows))
    return DatabaseState(schema, relations)


def explosion_state(schema: DatabaseSchema, rng: random.Random) -> DatabaseState:
    """An output-explosion star: every hub value carries ``fanout`` of
    ``card + 1`` point values in every relation, so the join materializes
    ``hubs * fanout**3`` rows and the answer is nearly all
    ``(card + 1)**3 = 13824`` point triples."""
    hubs, fanout, card = (EXPLOSION_STAR[k] for k in ("hubs", "fanout", "card"))
    points = range(card + 1)
    relations = []
    for relation_schema in schema.relations:
        rows = [(value, hub) for hub in range(hubs) for value in rng.sample(points, fanout)]
        relations.append(Relation(relation_schema, rows))
    return DatabaseState(schema, relations)


def string_state(schema: DatabaseSchema, rng: random.Random) -> DatabaseState:
    """A chain of string-valued relations (dictionary-mode encoding).

    The value strings are built fresh for every state, so no string hash
    computed for an earlier request is reused.
    """
    rows, card = STRING_CHAIN["rows"], STRING_CHAIN["card"]
    relations = []
    for relation_schema in schema.relations:
        left = [f"cat_{i}" for i in range(card)]
        right = [f"cat_{i}" for i in range(card)]
        relations.append(
            Relation(
                relation_schema,
                zip(
                    map(left.__getitem__, uniform_codes(rng, rows, card)),
                    map(right.__getitem__, uniform_codes(rng, rows, card)),
                ),
            )
        )
    return DatabaseState(schema, relations)


# -- serve-small ----------------------------------------------------------------


def serve_small_query() -> Tuple[DatabaseSchema, RelationSchema]:
    schema = random_tree_schema(SERVE_SMALL["relations"], rng=SERVE_SMALL["schema_seed"])
    attributes = schema.attributes.sorted_attributes()
    return schema, RelationSchema({attributes[0], attributes[-1]})


def serve_small_batch(schema: DatabaseSchema, rng: random.Random) -> List[DatabaseState]:
    return [
        ur_state(schema, rng, SERVE_SMALL["tuples"], SERVE_SMALL["domain"])
        for _ in range(SERVE_SMALL["states"])
    ]


# -- serve-large ----------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """One serve-large shape: a query, its batch size and a state generator."""

    name: str
    schema: DatabaseSchema
    target: RelationSchema
    states: int
    make_state: Callable[[DatabaseSchema, random.Random], DatabaseState]

    def batch(self, rng: random.Random) -> List[DatabaseState]:
        return [self.make_state(self.schema, rng) for _ in range(self.states)]


def serve_large_shapes() -> List[Shape]:
    chain, star = FLARGE_CHAIN, FLARGE_STAR
    return [
        Shape(
            "flarge-chain",
            chain_schema(chain["length"]),
            RelationSchema({"x0", f"x{chain['length']}"}),
            chain["states"],
            partial(ur_state, tuples=chain["tuples"], domain=chain["domain"]),
        ),
        Shape(
            "flarge-star",
            star_schema(star["points"]),
            RelationSchema({"x_hub", "x0"}),
            star["states"],
            partial(ur_state, tuples=star["tuples"], domain=star["domain"]),
        ),
        Shape(
            "explosion-star",
            star_schema(3),
            RelationSchema({"x0", "x1", "x2"}),
            EXPLOSION_STAR["states"],
            explosion_state,
        ),
        Shape(
            "string-chain",
            chain_schema(STRING_CHAIN["length"]),
            RelationSchema({"x0"}),
            STRING_CHAIN["states"],
            string_state,
        ),
    ]


# -- adhoc-plan -----------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """One ad hoc query: a schema and a two-attribute target."""

    name: str
    schema: DatabaseSchema
    target: RelationSchema


def adhoc_templates() -> List[Template]:
    """The 64 query templates: 24 cyclic, 40 random trees of 10-60 relations."""
    rng = random.Random(ADHOC_TEMPLATE_SEED)

    def pick_target(schema: DatabaseSchema) -> RelationSchema:
        return RelationSchema(rng.sample(schema.attributes.sorted_attributes(), 2))

    templates = []
    for size in range(6, 13):
        schema = aring(size)
        templates.append(Template(f"aring-{size}", schema, pick_target(schema)))
    for size in range(4, 8):
        schema = aclique(size)
        templates.append(Template(f"aclique-{size}", schema, pick_target(schema)))
    for index in range(13):
        relations = rng.randint(8, 12)
        schema = random_cyclic_schema(
            relations, ring_size=rng.choice((3, 4)), rng=rng.randrange(1 << 30)
        )
        templates.append(Template(f"cyclic-{index}-{relations}", schema, pick_target(schema)))
    for index in range(40):
        relations = rng.randint(10, 60)
        schema = random_tree_schema(relations, rng=rng.randrange(1 << 30))
        templates.append(Template(f"tree-{index}-{relations}", schema, pick_target(schema)))
    return templates


def adhoc_template(templates: List[Template], seed: int) -> Template:
    """The template a query with this seed asks."""
    return templates[random.Random(seed).randrange(len(templates))]


def adhoc_state(template: Template, seed: int, slot: int) -> DatabaseState:
    """State ``slot`` of the query with this seed (each state has its own
    generator, so one can be rebuilt without the others)."""
    rng = random.Random(seed * ADHOC["states"] + slot + 1)
    return disjoint_state(template.schema, rng, ADHOC["tuples"], ADHOC["dangling"])


# -- service-mixed --------------------------------------------------------------


def service_query() -> Tuple[DatabaseSchema, RelationSchema]:
    length = SERVICE["length"]
    return chain_schema(length), RelationSchema({"x0", f"x{length}"})


def service_pool(schema: DatabaseSchema, rng: random.Random) -> List[DatabaseState]:
    return [
        ur_state(schema, rng, SERVICE["thin_tuples"], SERVICE["thin_domain"])
        for _ in range(SERVICE["pool_states"])
    ]


def service_heavy(schema: DatabaseSchema, rng: random.Random) -> List[DatabaseState]:
    return [
        ur_state(schema, rng, SERVICE["heavy_tuples"], SERVICE["heavy_domain"])
        for _ in range(SERVICE["heavy_states"])
    ]


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due, whether it is heavy, and the
    seed of its inputs (a thin request's pool picks, a heavy one's states)."""

    due: float
    heavy: bool
    seed: int


def service_schedule(rng: random.Random, rate: float, seconds: float) -> List[Arrival]:
    """Poisson arrivals at ``rate`` per second for ``seconds``, conditioned
    on their count: exactly ``rate * seconds`` requests, exactly the heavy
    share of them heavy.  Every seed then offers the same load, so the
    spread between seeds is the system's, not the count's."""
    count = max(1, round(rate * seconds))
    dues = sorted(rng.random() * seconds for _ in range(count))
    heavy = set(rng.sample(range(count), round(count * SERVICE["heavy_share"])))
    return [Arrival(due, index in heavy, rng.getrandbits(63)) for index, due in enumerate(dues)]


def use_smoke_sizes() -> None:
    """Shrink every input for the smoke check (same shapes, tiny sizes)."""
    SERVE_SMALL.update(states=4)
    FLARGE_CHAIN.update(tuples=40, states=2)
    FLARGE_STAR.update(tuples=30, states=2)
    EXPLOSION_STAR.update(hubs=4, fanout=4)
    STRING_CHAIN.update(rows=200)
    ADHOC.update(restart_every=5)
    SERVICE.update(heavy_share=0.25, heavy_states=8, heavy_tuples=8)
