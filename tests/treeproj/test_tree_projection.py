"""Unit tests for tree projections (Section 3.2)."""

from __future__ import annotations

from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import NotASubSchemaError, SearchBudgetExceeded
from repro.figures import (
    SECTION_3_2_D,
    SECTION_3_2_D_DOUBLE_PRIME,
    SECTION_3_2_D_PRIME,
)
from repro.hypergraph import DatabaseSchema, aring, is_tree_schema, parse_schema
from repro.treeproj import tree_projection as tree_projection_module
from repro.treeproj import (
    find_tree_projection,
    greedy_cover_candidate,
    has_tree_projection,
    is_tree_projection,
)


class TestMembership:
    def test_paper_example(self):
        assert is_tree_projection(
            SECTION_3_2_D_DOUBLE_PRIME, SECTION_3_2_D_PRIME, SECTION_3_2_D
        )

    def test_membership_requires_sandwich(self):
        # D'' must be covered by D' and must cover D.
        assert not is_tree_projection(
            parse_schema("abcz"), SECTION_3_2_D_PRIME, SECTION_3_2_D
        )
        assert not is_tree_projection(
            parse_schema("ab"), SECTION_3_2_D_PRIME, SECTION_3_2_D
        )

    def test_membership_requires_tree(self):
        # D' itself covers D and is covered by itself but is cyclic.
        assert not is_tree_projection(
            SECTION_3_2_D_PRIME, SECTION_3_2_D_PRIME, SECTION_3_2_D
        )

    def test_acyclic_lower_schema_is_its_own_projection(self, chain4):
        assert is_tree_projection(chain4, chain4, chain4)


class TestSearch:
    def test_paper_example_is_found(self):
        result = find_tree_projection(SECTION_3_2_D_PRIME, SECTION_3_2_D)
        assert result.found
        assert is_tree_projection(result.projection, SECTION_3_2_D_PRIME, SECTION_3_2_D)

    def test_lower_tree_shortcut(self, chain4):
        result = find_tree_projection(parse_schema("abcd"), chain4)
        assert result.found and result.method == "lower"

    def test_upper_tree_shortcut(self, triangle):
        result = find_tree_projection(parse_schema("abc"), triangle)
        assert result.found and result.method == "upper"

    def test_no_projection_for_bare_triangle(self, triangle):
        # D' = D = the triangle: the only sandwich schemas are sub-multisets of
        # the triangle itself, all cyclic or non-covering.
        result = find_tree_projection(triangle, triangle, allow_subset_search=True)
        assert not result.found
        assert result.exhaustive
        assert not has_tree_projection(triangle, triangle, allow_subset_search=True)

    def test_triangle_with_abc_relation_has_projection(self, triangle):
        upper = triangle.add_relation("abc")
        result = find_tree_projection(upper, triangle)
        assert result.found
        assert is_tree_projection(result.projection, upper, triangle)

    def test_aring_with_covering_pairs(self):
        # An 8-ring under an upper schema of two "half" relations admits a
        # 2-node tree projection.
        lower = aring(8)
        attrs = lower.attributes.sorted_attributes()
        upper = parse_schema("")
        upper = upper.add_relation(attrs[:5]).add_relation(attrs[4:] + attrs[:1])
        result = find_tree_projection(upper, lower)
        assert result.found
        assert is_tree_projection(result.projection, upper, lower)

    def test_requires_coverage(self, chain4):
        with pytest.raises(NotASubSchemaError):
            find_tree_projection(parse_schema("xy"), chain4)

    def test_greedy_cover_candidate_properties(self):
        candidate = greedy_cover_candidate(SECTION_3_2_D_PRIME, SECTION_3_2_D)
        assert candidate.covers(SECTION_3_2_D)
        assert SECTION_3_2_D_PRIME.covers(candidate)


def _reference_search_over_candidates(candidate_pool, upper, lower, budget):
    """The plain form of the candidate search: build every subset's schema
    and test its coverage with ``covers()`` before the GYO test.  The oracle
    for the library's bitmask coverage test."""
    pool = list(dict.fromkeys(candidate_pool))
    count = 0
    for size in range(1, len(pool) + 1):
        for subset in combinations(range(len(pool)), size):
            count += 1
            if count > budget:
                raise SearchBudgetExceeded(
                    f"tree-projection candidate search exceeded budget of {budget}"
                )
            candidate = DatabaseSchema(pool[index] for index in subset)
            if candidate.covers(lower) and is_tree_schema(candidate):
                return candidate.reduction()
    return None


def _search_outcome(upper, lower, budget, allow_subset_search):
    try:
        search = find_tree_projection(
            upper, lower, budget=budget, allow_subset_search=allow_subset_search
        )
    except SearchBudgetExceeded:
        return "budget exceeded"
    projection = None if search.projection is None else search.projection.relations
    return search.method, projection, search.exhaustive


_ATTRIBUTES = "abcde"
_RELATIONS = st.frozensets(st.sampled_from(_ATTRIBUTES), max_size=4)


@st.composite
def sandwiches(draw):
    """A ``lower <= upper`` pair over at most five attributes.

    ``lower`` is seeded with a ring of 3-5 attributes so the search usually
    gets past the cheap certificates; it may repeat a relation or hold an
    empty one.
    ``upper`` widens every lower relation and adds a few unions of two, as
    the planner's upper bound does."""
    ring = draw(st.permutations(_ATTRIBUTES))[: draw(st.integers(3, 5))]
    lower = [{ring[i - 1], ring[i]} for i in range(len(ring))]
    lower += draw(st.lists(_RELATIONS, max_size=2))
    if draw(st.booleans()):
        lower.append(draw(st.sampled_from(lower)))
    if draw(st.booleans()):
        lower.append(set())
    lower = draw(st.permutations(lower))
    widen = st.frozensets(st.sampled_from(_ATTRIBUTES), max_size=1)
    upper = [relation | draw(widen) for relation in lower]
    pairs = st.tuples(st.sampled_from(lower), st.sampled_from(lower))
    upper += [left | right for left, right in draw(st.lists(pairs, max_size=3))]
    return DatabaseSchema(upper), DatabaseSchema(lower)


def _reference_outcome(upper, lower, budget, allow_subset_search):
    with patch.object(
        tree_projection_module,
        "_search_over_candidates",
        _reference_search_over_candidates,
    ):
        return _search_outcome(upper, lower, budget, allow_subset_search)


# The union search wins (at any budget from 50 on).
_UNION_WIN = (parse_schema("ab,bc,ac,d,abc,abd,acde"), parse_schema("ab,bc,ac,d"))
# Only the subset search finds one (at a budget between 1000 and 2000).
_SUBSET_WIN = (parse_schema("acd,abd,bcde,abe"), parse_schema("ac,abd,cde"))


class TestSearchDifferential:
    """The library search answers exactly as the reference loop does."""

    @settings(max_examples=150, deadline=None)
    @given(sandwiches(), st.sampled_from([3, 50, 400, 2000]), st.booleans())
    @example(_UNION_WIN, 50, False)
    @example(_SUBSET_WIN, 2000, True)
    @example(_SUBSET_WIN, 400, True)
    def test_matches_reference_loop(self, sandwich, budget, allow_subset_search):
        upper, lower = sandwich
        assert _search_outcome(
            upper, lower, budget, allow_subset_search
        ) == _reference_outcome(upper, lower, budget, allow_subset_search)

    @pytest.mark.parametrize(
        "sandwich, allow_subset_search",
        [(_UNION_WIN, False), (_UNION_WIN, True), (_SUBSET_WIN, True)],
        ids=["union-win", "union-win-subsets-allowed", "subset-win"],
    )
    def test_budget_is_exceeded_at_the_same_subset(self, sandwich, allow_subset_search):
        upper, lower = sandwich
        # The smallest budget the reference loop finishes within.
        low, high = 1, 4096
        while low < high:
            middle = (low + high) // 2
            if _reference_outcome(upper, lower, middle, allow_subset_search) == "budget exceeded":
                low = middle + 1
            else:
                high = middle
        assert _search_outcome(upper, lower, low - 1, allow_subset_search) == "budget exceeded"
        assert _search_outcome(
            upper, lower, low, allow_subset_search
        ) == _reference_outcome(upper, lower, low, allow_subset_search)
