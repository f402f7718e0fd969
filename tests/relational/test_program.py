"""Unit tests for Section 6 join/project/semijoin programs."""

from __future__ import annotations

import pytest

from repro.exceptions import ProgramError
from repro.hypergraph import RelationSchema, parse_schema
from repro.relational import (
    NaturalJoinQuery,
    Program,
    default_base_names,
    random_ur_database,
)


@pytest.fixture
def section6_schema():
    return parse_schema("abg,bcg,acf,ad,de,ea")


class TestProgramConstruction:
    def test_default_base_names(self, section6_schema):
        assert default_base_names(section6_schema) == ("R0", "R1", "R2", "R3", "R4", "R5")

    def test_schema_tracking(self, section6_schema):
        program = Program(section6_schema)
        program.project("S", "R2", "ac").join("J", "R0", "S").semijoin("K", "R3", "J")
        assert program.schema_of("S") == RelationSchema("ac")
        assert program.schema_of("J") == RelationSchema("abcg")
        assert program.schema_of("K") == RelationSchema("ad")

    def test_extended_schema_is_p_of_d(self, section6_schema):
        program = Program(section6_schema)
        program.join("J", "R0", "R1")
        extended = program.extended_schema()
        assert len(extended) == len(section6_schema) + 1
        assert RelationSchema("abcg") in extended

    def test_result_name_and_counts(self, section6_schema):
        program = Program(section6_schema)
        with pytest.raises(ProgramError):
            program.result_name()
        program.join("J", "R0", "R1").project("A", "J", "ab")
        assert program.result_name() == "A"
        assert program.statement_count() == {"join": 1, "project": 1, "semijoin": 0}

    def test_validation_of_statements(self, section6_schema):
        program = Program(section6_schema)
        with pytest.raises(ProgramError):
            program.join("J", "R0", "NOPE")
        with pytest.raises(ProgramError):
            program.project("P", "R0", "xyz")
        program.join("J", "R0", "R1")
        with pytest.raises(ProgramError):
            program.join("J", "R0", "R1")  # duplicate result name
        with pytest.raises(ProgramError):
            program.append("not a statement")  # type: ignore[arg-type]

    def test_base_name_validation(self, section6_schema):
        with pytest.raises(ProgramError):
            Program(section6_schema, base_names=("A", "B"))
        with pytest.raises(ProgramError):
            Program(section6_schema, base_names=("A",) * 6)

    def test_describe_lists_statements(self, section6_schema):
        program = Program(section6_schema)
        program.join("J", "R0", "R1")
        text = program.describe()
        assert "R0(abg)" in text
        assert "J := R0 ⋈ R1" in text


class TestExecution:
    def test_statements_compute_the_right_values(self, section6_schema):
        state = random_ur_database(section6_schema, tuple_count=20, domain_size=3, rng=1)
        program = Program(section6_schema)
        program.project("S", "R2", "ac").join("J", "R0", "R1").semijoin("K", "J", "S")
        environment = program.execute(state)
        assert environment["S"] == state[2].project("ac")
        assert environment["J"] == state[0].natural_join(state[1])
        assert environment["K"] == environment["J"].semijoin(environment["S"])

    def test_run_returns_last_statement(self, section6_schema):
        state = random_ur_database(section6_schema, tuple_count=15, domain_size=3, rng=2)
        program = Program(section6_schema)
        program.join("J", "R0", "R1").project("A", "J", "ab")
        assert program.run(state) == state[0].natural_join(state[1]).project("ab")

    def test_wrong_state_rejected(self, section6_schema, chain4):
        program = Program(section6_schema).join("J", "R0", "R1")
        state = random_ur_database(chain4, rng=0)
        with pytest.raises(ProgramError):
            program.execute(state)


class TestSolvesQuery:
    def test_paper_program_solves_section6_query(self, section6_schema):
        # Join R1, R2 and π_ac(R3) and project onto abc — exactly the plan the
        # paper derives from CC(D, abc).
        program = Program(section6_schema)
        program.project("S3", "R2", "ac").join("J1", "R0", "R1").join("J2", "J1", "S3")
        program.project("ANSWER", "J2", "abc")
        assert program.solves_empirically("abc", rng=3) is None

    def test_dropping_a_relevant_relation_fails(self, section6_schema):
        # Joining only R1 and R2 (without ac) does not solve the query.
        program = Program(section6_schema)
        program.join("J1", "R0", "R1").project("ANSWER", "J1", "abc")
        counterexample = program.solves_empirically("abc", trials=40, rng=4)
        assert counterexample is not None
        query = NaturalJoinQuery(section6_schema, RelationSchema("abc"))
        assert not program.solves_on(query, counterexample)

    def test_program_ignoring_one_triangle_edge_fails(self, triangle):
        # Computing ab ⋈ bc (even after semijoin reduction) is not the triangle
        # join: the ac relation must constrain the same c (Theorem 6.3's
        # message — without a tree projection the query is not solved).
        program = Program(triangle)
        program.semijoin("S0", "R0", "R1").semijoin("S1", "S0", "R2")
        program.join("J", "S1", "R1")
        program.project("ANSWER", "J", "abc")
        counterexample = program.solves_empirically("abc", trials=60, rng=5)
        assert counterexample is not None
