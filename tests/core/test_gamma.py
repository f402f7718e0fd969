"""Unit tests for the Corollary 5.3' γ-acyclicity equivalences."""

from __future__ import annotations

import pytest

from repro.core import (
    all_connected_subschemas_lossless,
    cc_condition_holds_for_all_connected,
    check_gamma_equivalences,
    gr_condition_holds_for_all_connected,
)
from repro.hypergraph import aclique, aring, parse_schema, star_schema


GAMMA_ACYCLIC = [
    parse_schema("ab,bc"),
    parse_schema("ab,bc,cd"),
    star_schema(3),
    parse_schema("abc,abd"),
]

NOT_GAMMA_ACYCLIC = [
    parse_schema("ab,bc,ac"),
    aring(4),
    aclique(4),
    parse_schema("abc,ab,bc"),
    parse_schema("abc,cde,ace,afe"),
]


@pytest.mark.parametrize("schema", GAMMA_ACYCLIC, ids=str)
def test_gamma_acyclic_schemas_satisfy_all_conditions(schema):
    report = check_gamma_equivalences(schema)
    assert report.gamma_acyclic
    assert report.gr_condition
    assert report.cc_condition
    assert report.lossless_condition
    assert report.all_agree


@pytest.mark.parametrize("schema", NOT_GAMMA_ACYCLIC, ids=str)
def test_gamma_cyclic_schemas_violate_all_conditions(schema):
    report = check_gamma_equivalences(schema)
    assert not report.gamma_acyclic
    assert not report.gr_condition
    assert not report.cc_condition
    assert not report.lossless_condition
    assert report.all_agree


def test_individual_condition_functions_match_report():
    schema = parse_schema("abc,ab,bc")
    report = check_gamma_equivalences(schema)
    assert gr_condition_holds_for_all_connected(schema) == report.gr_condition
    assert cc_condition_holds_for_all_connected(schema) == report.cc_condition
    assert all_connected_subschemas_lossless(schema) == report.lossless_condition


def test_fagins_result_on_the_tree_counterexample():
    """Fagin's (*) on the paper's running example: {abc, ab, bc} is a tree
    schema, yet the connected sub-schema {ab, bc} has no lossless join, so the
    schema cannot be γ-acyclic."""
    schema = parse_schema("abc,ab,bc")
    assert not all_connected_subschemas_lossless(schema)
    assert not check_gamma_equivalences(schema).gamma_acyclic
