"""Canonical-connection pruning: the plan joins only what the answer needs.

A join ``node → mother`` whose kept attributes lie inside ``schema[mother]``
is an identity after the leaf-to-root semijoin pass, so ``PreparedQuery``
drops it (and the root-to-leaf semijoin into its node).  The benchmark
checks answers against the classic executor of the *same* pruned plan,
which cannot catch a pruning bug, so these tests hold every serial backend
and ``execute_many`` to ``naive_join_project`` instead, over random tree,
chain and star schemas, empty/dangling/duplicate states, and default and
random roots.  They also check the plan's structural invariants.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import analyze, yannakakis
from repro.engine import PreparedQuery
from repro.engine.prepared import JoinStep, default_root
from repro.hypergraph import (
    DatabaseSchema,
    RelationSchema,
    aclique,
    aring,
    chain_schema,
    parse_schema,
    random_tree_schema,
    star_schema,
)
from repro.relational import DatabaseState, Relation, naive_join_project
from repro.relational.compiled import _JOIN_GENERAL, _JOIN_SEMI_CHILD, plan_layout
from repro.relational.yannakakis import rooted_orientation

SERIAL_BACKENDS = ("classic", "compiled", "vectorized")


def assert_pruned_plan(prepared: PreparedQuery) -> None:
    """The structural invariants of a pruned plan."""
    schema = prepared.schema
    if len(schema) == 0:
        return
    _, parent = rooted_orientation(prepared.tree, root=prepared.root)
    steps = prepared.semijoin_steps
    up = [s for s in steps if parent[s.source] == s.target]
    down = [s for s in steps if parent[s.target] == s.source]
    # Exactly |D|-1 leaf-to-root semijoins, all ahead of the root-to-leaf ones.
    assert len(up) == len(schema) - 1
    assert list(steps) == up + down

    carried = {node: set(schema[node].attributes) for node in range(len(schema))}
    joined = {prepared.root}
    for step in prepared.join_steps:
        assert step.mother == parent[step.node]
        keep = (
            set(step.projection.attributes)
            if step.projection is not None
            else carried[step.node]
        )
        # Every kept join does real work...
        assert not keep <= schema[step.mother].attributes
        carried[step.mother] |= keep
        joined.add(step.node)
    # ...and the kept joins form a subtree containing the root.
    for step in prepared.join_steps:
        assert step.mother in joined
    assert {s.target for s in down} == joined - {prepared.root}
    assert prepared.pruned_join_count == len(schema) - 1 - len(prepared.join_steps)

    # No layout has the mother-semijoin shape (plan_layout rejects it).
    layout = plan_layout(prepared)
    assert all(j.kind in (_JOIN_SEMI_CHILD, _JOIN_GENERAL) for j in layout.joins)


def _build_schema(family: str, size: int, seed: int) -> DatabaseSchema:
    if family == "chain":
        return chain_schema(size)
    if family == "star":
        return star_schema(size)
    return random_tree_schema(size, rng=seed)


@st.composite
def instances(draw):
    """A tree schema, a target, a root (``None`` = default) and 1-3 states
    mixing empty relations, dangling rows and repeated states."""
    family = draw(st.sampled_from(["chain", "star", "random-tree"]))
    schema = _build_schema(family, draw(st.integers(1, 6)), draw(st.integers(0, 10**6)))
    attrs = schema.attributes.sorted_attributes()
    target = RelationSchema(
        draw(st.sets(st.sampled_from(list(attrs)), max_size=min(3, len(attrs))))
    )
    root = draw(st.one_of(st.none(), st.integers(0, len(schema) - 1)))

    def draw_state() -> DatabaseState:
        relations = []
        for relation_schema in schema.relations:
            width = len(relation_schema)
            rows = draw(
                st.lists(
                    st.tuples(*([st.integers(0, 3)] * width)), min_size=0, max_size=6
                )
            )
            relations.append(Relation(relation_schema, rows))
        return DatabaseState(schema, relations)

    states = [draw_state()]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            states.append(states[draw(st.integers(0, len(states) - 1))])
        else:
            states.append(draw_state())
    return schema, target, root, states


class TestPrunedPlansMatchTheOracle:
    @settings(max_examples=120, deadline=None)
    @given(instances())
    def test_every_backend_matches_naive(self, instance):
        schema, target, root, states = instance
        prepared = analyze(schema).prepare(target, root=root)
        assert_pruned_plan(prepared)
        expected = [naive_join_project(schema, target, state)[0] for state in states]
        for backend in SERIAL_BACKENDS:
            for state, answer in zip(states, expected):
                run = prepared.execute(state, backend=backend)
                assert run.result == answer
                assert run.semijoin_count == len(prepared.semijoin_steps)
                assert run.join_count == len(prepared.join_steps)
            runs = prepared.execute_many(states, backend=backend)
            assert [run.result for run in runs] == expected

    @pytest.mark.parametrize(
        "schema", [aring(4), aring(5), aclique(4)], ids=["aring4", "aring5", "aclique4"]
    )
    def test_cyclic_inner_plans_are_pruned(self, schema):
        attrs = schema.attributes.sorted_attributes()
        for target in (RelationSchema(attrs[:1]), RelationSchema([attrs[0], attrs[-1]])):
            assert_pruned_plan(analyze(schema).prepare_cyclic(target).inner)


class TestPinnedCounts:
    """Serving shapes: (semijoins, joins) of the pruned plan."""

    def test_serve_small(self):
        schema = random_tree_schema(12, rng=3)
        attrs = schema.attributes.sorted_attributes()
        prepared = analyze(schema).prepare(RelationSchema({attrs[0], attrs[-1]}))
        assert (len(prepared.semijoin_steps), len(prepared.join_steps)) == (12, 1)
        assert prepared.pruned_join_count == 10

    def test_star(self):
        prepared = analyze(star_schema(12)).prepare(RelationSchema({"x_hub", "x0"}))
        assert (len(prepared.semijoin_steps), len(prepared.join_steps)) == (11, 0)

    def test_chain_is_unchanged(self):
        prepared = analyze(chain_schema(5)).prepare(RelationSchema({"x0", "x5"}))
        assert (len(prepared.semijoin_steps), len(prepared.join_steps)) == (8, 4)
        assert prepared.pruned_join_count == 0


class TestMotherSemijoinGuard:
    def test_plan_layout_rejects_an_unpruned_identity_join(self):
        class Unpruned:
            schema = parse_schema("ab,b")
            semijoin_steps = ()
            join_steps = (JoinStep(1, 0, None),)
            final_projection = RelationSchema("ab")
            root = 0

        with pytest.raises(AssertionError, match="pruned"):
            plan_layout(Unpruned())


class TestRoots:
    @pytest.mark.parametrize("root", [5, -1])
    def test_out_of_range_root_is_a_value_error(self, root):
        with pytest.raises(ValueError, match="root must index"):
            analyze(chain_schema(3)).prepare({"x0"}, root=root)
        with pytest.raises(ValueError, match="root must index"):
            PreparedQuery(chain_schema(3), {"x0"}, root=root)

    def test_default_root_covers_most_of_the_target(self):
        schema = parse_schema("ab,bc,cde")
        assert default_root(schema.relations, RelationSchema("de")) == 2
        assert default_root(schema.relations, RelationSchema("ce")) == 2
        # Ties go to the lowest index.
        assert default_root(schema.relations, RelationSchema("b")) == 0
        assert default_root(schema.relations, RelationSchema(())) == 0

    def test_default_and_explicit_root_share_one_plan(self):
        analysis = analyze(star_schema(4))
        target = RelationSchema({"x3"})
        prepared = analysis.prepare(target)
        assert prepared.root == 3
        assert analysis.prepare(target, root=3) is prepared

    def test_wrapper_uses_the_same_default_root(self):
        schema = star_schema(4)
        target = RelationSchema({"x3"})
        state = DatabaseState(
            schema,
            [Relation(r, [(i, i % 2) for i in range(4)]) for r in schema.relations],
        )
        run = yannakakis(schema, target, state, backend="classic")
        planned = analyze(schema).prepare(target).execute(state, backend="classic")
        assert run == planned
        assert run.result == naive_join_project(schema, target, state)[0]
