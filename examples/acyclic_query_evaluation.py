#!/usr/bin/env python3
"""Acyclic query evaluation on a small "university" database.

Run with ``python examples/acyclic_query_evaluation.py``.

This is the workload the paper's introduction motivates: a database whose
schema is a tree schema, queried with a natural join followed by a
projection.  The example builds a synthetic university universal relation
(students, courses, lecturers, departments, buildings), derives the UR
database, and answers the query three ways:

* the naive plan (join everything left to right, then project);
* the canonical-connection plan of Theorem 4.1 (join only ``CC(D, X)``);
* Yannakakis' semijoin-based algorithm, compiled once into a
  :class:`~repro.engine.PreparedQuery` via the engine façade and executed
  against the state.

All three agree; the printout compares how much intermediate work each does.
"""

from __future__ import annotations

import random
import time

from repro import analyze, parse_schema
from repro.core import execute_join_plan
from repro.hypergraph import RelationSchema
from repro.relational import (
    DatabaseState,
    NaturalJoinQuery,
    Relation,
    naive_join_project,
    universal_database,
)

# Attributes: s = student, c = course, l = lecturer, d = department,
# b = building, g = grade, y = year.
SCHEMA = parse_schema(
    "s c g, c l, l d, d b, s y",
    relation_separator=",",
    attribute_separator=" ",
)
TARGET = RelationSchema({"s", "d"})  # which students take courses in which departments


def build_university_universe(rng: random.Random, size: int = 400) -> Relation:
    """A synthetic universal relation with realistic-looking correlations."""
    rows = []
    for _ in range(size):
        student = f"s{rng.randrange(60)}"
        course = f"c{rng.randrange(25)}"
        lecturer = f"l{course[1:]}"                 # each course has one lecturer
        department = f"d{int(course[1:]) % 6}"      # lecturers cluster in departments
        building = f"b{int(department[1:]) % 4}"
        grade = rng.choice(["A", "B", "C"])
        year = rng.randrange(1, 5)
        rows.append(
            {
                "s": student,
                "c": course,
                "l": lecturer,
                "d": department,
                "b": building,
                "g": grade,
                "y": year,
            }
        )
    return Relation.from_dicts("scldbgy", rows)


def main() -> None:
    rng = random.Random(7)
    universe = build_university_universe(rng)
    state: DatabaseState = universal_database(SCHEMA, universe)
    query = NaturalJoinQuery(SCHEMA, TARGET)

    analysis = analyze(SCHEMA)
    print(f"schema D = {SCHEMA}")
    print(f"query target X = {TARGET.to_notation()}  (students x departments)")
    print(f"database sizes: {[len(r) for r in state.relations]} tuples per relation")
    print(f"qual tree: {analysis.qual_tree.to_edge_notation()}")
    print()

    started = time.perf_counter()
    naive_answer, naive_max = naive_join_project(SCHEMA, TARGET, state)
    naive_time = time.perf_counter() - started

    plan = analysis.join_plan(TARGET)
    started = time.perf_counter()
    planned_answer = execute_join_plan(plan, state)
    plan_time = time.perf_counter() - started

    prepared = analysis.prepare(TARGET)  # compiled once; reusable across states
    started = time.perf_counter()
    run = prepared.execute(state)
    yannakakis_time = time.perf_counter() - started

    assert naive_answer == planned_answer == run.result == query.evaluate(state)

    print(f"{'strategy':<34}{'tuples in answer':>17}{'max intermediate':>18}{'seconds':>10}")
    print(f"{'naive join then project':<34}{len(naive_answer):>17}{naive_max:>18}{naive_time:>10.4f}")
    print(
        f"{'join CC(D, X) only (Thm 4.1)':<34}{len(planned_answer):>17}"
        f"{'-':>18}{plan_time:>10.4f}"
    )
    print(
        f"{'Yannakakis (semijoins + joins)':<34}{len(run.result):>17}"
        f"{run.max_intermediate_size:>18}{yannakakis_time:>10.4f}"
    )
    print()
    print(f"CC(D, X) = {plan.sub_schema}  "
          f"(relations {[SCHEMA[i].to_notation() for i in plan.relevant_relations]} are relevant)")
    print(f"semijoins performed: {run.semijoin_count}, joins: {run.join_count}")
    print("all three strategies returned identical answers.")


if __name__ == "__main__":
    main()
