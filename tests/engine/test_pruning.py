"""Canonical-connection pruning: the plan joins only what the answer needs.

A join ``node → mother`` whose kept attributes lie inside ``schema[mother]``
is an identity after the leaf-to-root semijoin pass, so ``PreparedQuery``
drops it (and the root-to-leaf semijoin into its node).  The benchmark
checks answers against the classic executor of the *same* pruned plan,
which cannot catch a pruning bug, so the oracle matrix
(``tests/test_oracle_matrix.py``) holds every entry point and backend to
``naive_join_project`` over default and drawn roots, and asserts the plan's
structural invariants (``assert_pruned_plan``) on every tree plan and every
cyclic inner plan.  This suite pins the serving shapes' counts, the layout
guard and root handling.
"""

from __future__ import annotations

import pytest

from repro import analyze, yannakakis
from repro.engine import PreparedQuery
from repro.engine.prepared import JoinStep, default_root
from repro.hypergraph import (
    RelationSchema,
    chain_schema,
    parse_schema,
    random_tree_schema,
    star_schema,
)
from repro.relational import DatabaseState, Relation, naive_join_project
from repro.relational.compiled import plan_layout


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
