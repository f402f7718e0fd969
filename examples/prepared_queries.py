#!/usr/bin/env python3
"""Plan once, execute many: the engine façade on a stream of database states.

Run with ``python examples/prepared_queries.py``.

The serving scenario the engine is built for: one schema, one query shape,
and a stream of database states (snapshots, shards, tenants).  The schema's
structure — qual tree, semijoin program, pruned join order, early
projections — depends only on the schema and the target, so it is compiled
exactly once into a :class:`~repro.engine.PreparedQuery`; each incoming
state then pays only for execution.

The example times three ways of answering the same query over 200 states:

* re-planning per call with the analysis cache cleared (what every call cost
  before the engine existed);
* calling :func:`repro.yannakakis` repeatedly (the wrapper now hits the
  engine's caches, so only the first call plans);
* :meth:`PreparedQuery.execute_many` on a plan compiled up front.
"""

from __future__ import annotations

import time

from repro import analyze, clear_analysis_cache, yannakakis
from repro.hypergraph import RelationSchema, chain_schema
from repro.relational.universal import random_ur_database

SCHEMA = chain_schema(6)
TARGET = RelationSchema({"x0", "x6"})
STATE_COUNT = 200


def main() -> None:
    states = [
        random_ur_database(SCHEMA, tuple_count=60, domain_size=8, rng=seed)
        for seed in range(STATE_COUNT)
    ]
    print(f"schema D = {SCHEMA}")
    print(f"target X = {TARGET.to_notation()}, {STATE_COUNT} distinct states")
    print()

    started = time.perf_counter()
    cold_answers = []
    for state in states:
        clear_analysis_cache()  # force a full re-plan, as before the engine
        cold_answers.append(yannakakis(SCHEMA, TARGET, state).result)
    cold_time = time.perf_counter() - started

    clear_analysis_cache()
    started = time.perf_counter()
    warm_answers = [yannakakis(SCHEMA, TARGET, state).result for state in states]
    warm_time = time.perf_counter() - started

    analysis = analyze(SCHEMA)
    started = time.perf_counter()
    prepared = analysis.prepare(TARGET)
    prepare_time = time.perf_counter() - started
    started = time.perf_counter()
    runs = prepared.execute_many(states)
    execute_time = time.perf_counter() - started

    assert [run.result for run in runs] == cold_answers == warm_answers

    per = 1e6 / STATE_COUNT
    print(f"{'strategy':<44}{'total s':>10}{'µs/state':>12}")
    print(f"{'re-plan every call (pre-engine behavior)':<44}"
          f"{cold_time:>10.4f}{cold_time * per:>12.1f}")
    print(f"{'yannakakis() repeatedly (warm engine cache)':<44}"
          f"{warm_time:>10.4f}{warm_time * per:>12.1f}")
    print(f"{'PreparedQuery.execute_many':<44}"
          f"{execute_time:>10.4f}{execute_time * per:>12.1f}")
    print()
    print(f"plan compiled once in {prepare_time * 1e3:.2f} ms and reused "
          f"{STATE_COUNT}x; all strategies returned identical answers.")
    print()
    print(prepared.describe())


if __name__ == "__main__":
    main()
