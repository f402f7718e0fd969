"""Tests for the exception hierarchy and the top-level public API surface."""

from __future__ import annotations


import repro
from repro import exceptions


def test_every_library_exception_derives_from_repro_error():
    specific = [
        exceptions.SchemaError,
        exceptions.ParseError,
        exceptions.NotATreeSchemaError,
        exceptions.NotASubSchemaError,
        exceptions.QualGraphError,
        exceptions.GYOError,
        exceptions.TableauError,
        exceptions.RelationError,
        exceptions.ProgramError,
        exceptions.TreeProjectionError,
        exceptions.TreeficationError,
        exceptions.SearchBudgetExceeded,
    ]
    for exception_type in specific:
        assert issubclass(exception_type, exceptions.ReproError)


def test_parse_error_is_a_schema_error():
    assert issubclass(exceptions.ParseError, exceptions.SchemaError)


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_quick_interactive_workflow_via_top_level_names():
    schema = repro.parse_schema("ab,bc,cd")
    assert repro.is_tree_schema(schema)
    assert repro.canonical_connection(schema, "ad") == repro.gyo_reduction(schema, "ad")
    state = repro.random_ur_database(schema, tuple_count=10, domain_size=2, rng=0)
    run = repro.yannakakis(schema, repro.RelationSchema("ad"), state)
    naive, _ = repro.naive_join_project(schema, repro.RelationSchema("ad"), state)
    assert run.result == naive
