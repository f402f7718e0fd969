"""Unit tests for the UJR property (Section 5.1 discussion of [11])."""

from __future__ import annotations

from repro.core import connected_node_subsets, find_ujr_violation, is_ujr, minimum_qual_graphs
from repro.hypergraph import aring, parse_schema
from repro.relational import Relation, random_ur_database, universal_database


class TestMinimumQualGraphs:
    def test_tree_schema_minimum_graphs_are_qual_trees(self, chain4):
        graphs = minimum_qual_graphs(chain4)
        assert graphs
        assert all(graph.is_qual_tree() for graph in graphs)

    def test_triangle_minimum_graph_is_the_triangle(self, triangle):
        graphs = minimum_qual_graphs(triangle)
        assert len(graphs) == 1
        assert len(graphs[0].edges) == 3

    def test_connected_subsets_enumeration(self, chain4):
        graphs = minimum_qual_graphs(chain4)
        subsets = connected_node_subsets(graphs[0])
        assert (0,) in subsets and (0, 1) in subsets
        assert (0, 2) not in subsets


class TestUJR:
    def test_tree_schema_ur_states_are_ujr(self):
        """Goodman–Shmueli: every UR database over a tree schema is UJR."""
        for seed in range(5):
            schema = parse_schema("ab,bc,cd")
            state = random_ur_database(schema, tuple_count=12, domain_size=2, rng=seed)
            assert is_ujr(state)

    def test_cyclic_schema_admits_a_non_ujr_ur_state(self, triangle):
        """Goodman–Shmueli: for every cyclic schema some UR database is not UJR."""
        universal = Relation("abc", [(0, 0, 0), (1, 0, 1)])
        state = universal_database(triangle, universal)
        violation = find_ujr_violation(state)
        assert violation is not None
        graph, subset = violation
        assert len(subset) >= 2

    def test_cyclic_schema_also_has_ujr_states(self, triangle):
        # A single-tuple universal relation is trivially consistent everywhere.
        universal = Relation("abc", [(0, 0, 0)])
        state = universal_database(triangle, universal)
        assert is_ujr(state)

    def test_aring4_counterexample(self):
        ring = aring(4)
        universal = Relation("abcd", [(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)])
        state = universal_database(ring, universal)
        # The specific instance may or may not violate UJR, but the check must
        # agree with a direct evaluation of the definition.
        violation = find_ujr_violation(state)
        assert (violation is None) == is_ujr(state)
