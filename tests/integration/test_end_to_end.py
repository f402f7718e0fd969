"""End-to-end integration tests combining several subsystems."""

from __future__ import annotations

import pytest

from repro.core import execute_join_plan, jd_implies, plan_join_query
from repro.hypergraph import (
    RelationSchema,
    aring,
    chain_schema,
    is_tree_schema,
    random_cyclic_schema,
    random_tree_schema,
)
from repro.relational import (
    NaturalJoinQuery,
    Program,
    naive_join_project,
    random_ur_database,
    yannakakis,
)
from repro.tableau import canonical_connection
from repro.treefication import single_relation_treefication
from repro.treeproj import augment_program_with_semijoins, find_tree_projection


class TestAcyclicPipeline:
    """Tree schema -> join tree -> Yannakakis -> same answer as the plan."""

    @pytest.mark.parametrize("seed", range(3))
    def test_planning_and_evaluation_agree(self, seed):
        schema = random_tree_schema(6, rng=seed)
        attrs = schema.attributes.sorted_attributes()
        target = RelationSchema({attrs[0], attrs[-1]})
        state = random_ur_database(schema, tuple_count=25, domain_size=3, rng=seed)

        plan = plan_join_query(schema, target)
        plan_answer = execute_join_plan(plan, state)
        yannakakis_answer = yannakakis(schema, target, state).result
        naive_answer, _ = naive_join_project(schema, target, state)
        query_answer = NaturalJoinQuery(schema, target).evaluate(state)

        assert plan_answer == yannakakis_answer == naive_answer == query_answer


class TestCyclicPipeline:
    """Cyclic schema -> treefication -> the treefied query solves the original."""

    @pytest.mark.parametrize("seed", range(3))
    def test_treefication_enables_yannakakis(self, seed):
        schema = random_cyclic_schema(5, rng=seed)
        treefied = single_relation_treefication(schema)
        assert is_tree_schema(treefied.treefied)

        attrs = schema.attributes.sorted_attributes()
        target = RelationSchema({attrs[0], attrs[-1]})
        state = random_ur_database(schema, tuple_count=20, domain_size=3, rng=seed)

        # Build the state for the treefied schema: the new relation's state is
        # the join of the relations it came from, projected onto it (this is
        # step (ii) of the paper's Section 4 strategy for cyclic schemas).
        joined = state.join()
        extended_state_relations = list(state.relations)
        if not treefied.was_already_tree:
            extended_state_relations.append(joined.project(treefied.added_relation))
        from repro.relational import DatabaseState

        extended_state = DatabaseState(treefied.treefied, extended_state_relations)
        run = yannakakis(treefied.treefied, target, extended_state)
        expected = NaturalJoinQuery(schema, target).evaluate(state)
        assert run.result == expected

    def test_ring_query_via_program_and_tree_projection(self):
        ring = aring(5)
        target = RelationSchema({"a", "c"})
        program = Program(ring)
        program.join("P1", "R0", "R1").join("P2", "P1", "R2")
        program.join("P3", "R3", "R4")
        augmented = augment_program_with_semijoins(program, target)
        state = random_ur_database(ring, tuple_count=25, domain_size=3, rng=7)
        assert augmented.run(state) == NaturalJoinQuery(ring, target).evaluate(state)


class TestCrossSubsystemConsistency:
    def test_cc_gr_lossless_and_projection_form_a_consistent_story(self):
        """For the chain: CC-based planning, GYO, lossless joins and tree
        projections all tell the same story."""
        chain = chain_schema(4)
        target = RelationSchema({"x0", "x4"})
        cc = canonical_connection(chain, target)
        assert chain.covers(cc)
        assert jd_implies(chain, chain.sub_schema([0, 1]))
        assert not jd_implies(chain, chain.sub_schema([0, 2]))
        search = find_tree_projection(chain, chain)
        assert search.found  # a tree schema is its own tree projection

    def test_section4_cyclic_strategy_on_the_triangle(self, triangle):
        """Section 4's strategy for cyclic schemas: add U(GR(D)), build its
        state with joins, then proceed as in the tree case."""
        treefied = single_relation_treefication(triangle)
        assert treefied.added_relation == triangle.attributes
        state = random_ur_database(triangle, tuple_count=20, domain_size=3, rng=5)
        from repro.relational import DatabaseState

        extended = DatabaseState(
            treefied.treefied,
            list(state.relations) + [state.join().project("abc")],
        )
        target = RelationSchema("ab")
        run = yannakakis(treefied.treefied, target, extended)
        assert run.result == NaturalJoinQuery(triangle, target).evaluate(state)
