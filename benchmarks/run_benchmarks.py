"""Scaling-benchmark runner producing a machine-readable trajectory file.

This script re-runs the three scaling benchmarks (``bench_scaling_gyo``,
``bench_yannakakis_vs_naive`` and ``bench_scaling_cc``) plus the engine
plan-reuse benchmark, the PR-4 ``serving`` section (classic vs compiled vs
batched per-state medians), the PR-5 ``parallel`` section (single-process
batched compiled vs the sharded multi-process executor at 2/4 workers, pool
reuse timed separately from cold spawn), the PR-6 ``robustness`` section
(supervision overhead when healthy, recovery latency under one injected
worker crash), the PR-7 ``service`` section (routing verdicts), the PR-8 ``vectorized`` section (the array-backed
kernel vs classic and compiled on output-explosion joins and string-heavy
encode batches), the PR-9 ``cyclic`` section (batched compiled cyclic
plans vs the per-call Theorem 6.1 solver on aring/aclique serving
families) and the PR-10 ``catalog`` section (cold-start analysis +
prepare vs a warm persistent plan catalog on cyclic schemas,
worker-respawn plan rebuilds with and without the catalog, plus an
execution noise control) outside pytest and records sizes, median wall times and
max-intermediate sizes as JSON so that every PR has a regression baseline to
compare against.  Multi-process sections warn loudly on hosts with fewer
than four cores and stamp ``host_cpus`` into every row.

Usage::

    # capture a snapshot (e.g. before a refactor)
    python benchmarks/run_benchmarks.py --phase before --out /tmp/bench_before.json

    # capture the optimized snapshot and merge the baseline into one
    # trajectory file with per-case speedups
    python benchmarks/run_benchmarks.py --phase after \
        --before /tmp/bench_before.json --out BENCH_PR2.json

The naive join baseline is only run on cases listed in ``NAIVE_CASES``:
its intermediate results explode combinatorially on the larger chains (that
blow-up is the paper's point), so timing it there is infeasible.

Since PR 2 the free functions (``gyo_reduce``, ``canonical_connection``,
``yannakakis``) delegate to the memoizing engine façade, so the classic
sections clear the analysis cache inside the timed region — they keep
measuring the *cold* (plan-every-call) path and stay comparable with the
PR-1 baselines.  The ``engine`` section measures what the cache buys:
one ``PreparedQuery`` executed against many states versus re-planning on
every call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.engine import analyze, clear_analysis_cache  # noqa: E402
from repro.hypergraph import (  # noqa: E402
    DatabaseSchema,
    RelationSchema,
    aring,
    chain_schema,
    gyo_reduce,
    gyo_reduction,
    random_tree_schema,
    star_schema,
)
from repro.relational import naive_join_project, yannakakis  # noqa: E402
from repro.relational.universal import random_ur_database  # noqa: E402
from repro.tableau import (  # noqa: E402
    canonical_connection,
    find_isomorphism,
    minimize_tableau,
    standard_tableau,
)

GYO_SIZES = (25, 100, 400)
GYO_FAMILIES = {
    "chain": chain_schema,
    "star": star_schema,
    "aring": lambda size: aring(max(size, 3)),
    "random-tree": lambda size: random_tree_schema(size, rng=size),
}

#: (chain length, tuples per relation, domain size) for the Yannakakis cases.
YANNAKAKIS_CASES = (
    (3, 90, 24),
    (4, 90, 24),
    (5, 90, 24),
    (6, 200, 32),
    (8, 300, 40),
)
#: Cases small enough to also time the naive join-then-project baseline.
NAIVE_CASES = {(3, 90, 24), (4, 90, 24), (5, 90, 24)}

CC_SIZES = (4, 6, 8)

#: Extra sizes for the sacred-set GYO family (``gr-*``): ``GR(D, X)`` with
#: the family's boundary attributes sacred (small sizes already come from the
#: ``CC_SIZES`` loop).  Sacred reductions mostly *survive* (the reduction is
#: a fixpoint or near-fixpoint), so these time the worklist's completeness
#: drain plus trace packaging — the path PR 4 made reuse original schema
#: objects for untouched survivors.
GR_SIZES = (100, 400)
GR_FAMILIES = ("chain", "star")

#: Tableau-kernel workloads (PR 3).  ``collapse`` families build the standard
#: tableau with a one-attribute target, so minimization folds every row onto a
#: single survivor — the canonical-connection hot path; ``minimal`` families
#: are already minimal, so every row-removal attempt fails and the benchmark
#: times the refutation path; ``iso`` compares row-permuted minimal tableaux.
TABLEAU_COLLAPSE_CHAIN_SIZES = (16, 24, 32)
TABLEAU_COLLAPSE_STAR_SIZES = (24, 32)
TABLEAU_MINIMAL_CHAIN_SIZES = (10, 12, 14)
TABLEAU_CC_CHAIN_SIZES = (12, 16)
TABLEAU_ISO_CHAIN_SIZES = (12, 16)

#: (schema family, size, tuples per relation, domain size, state count) for
#: the plan-reuse benchmark: 1 PreparedQuery amortized over ``state count``
#: distinct database states.  These are serving-shaped cases — many small to
#: medium states per schema — where planning is a real fraction of each call;
#: the execution-dominated large-state regime is covered by the plain
#: ``yannakakis`` section above (there plan reuse is asymptotically neutral).
ENGINE_CASES = (
    ("chain", 5, 30, 12, 100),
    ("chain", 8, 30, 12, 50),
    ("star", 12, 40, 10, 50),
    ("random-tree", 25, 30, 8, 50),
    ("random-tree", 40, 20, 8, 30),
)


def _median_time(fn: Callable[[], Any], repeats: int) -> float:
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cold(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Wrap ``fn`` so each call re-plans from scratch (engine cache cleared)."""

    def run() -> Any:
        clear_analysis_cache()
        return fn()

    return run


def bench_gyo(repeats: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for family, build in GYO_FAMILIES.items():
        for size in GYO_SIZES:
            schema = build(size)
            median = _median_time(_cold(lambda: gyo_reduce(schema)), repeats)
            trace = gyo_reduce(schema)
            rows.append(
                {
                    "case": f"{family}-{size}",
                    "family": family,
                    "size": size,
                    "median_s": median,
                    "steps": len(trace.steps),
                    "reduced_to_empty": trace.is_fully_reduced_to_empty,
                }
            )
    return rows


def bench_yannakakis(repeats: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for length, tuple_count, domain_size in YANNAKAKIS_CASES:
        schema = chain_schema(length)
        state = random_ur_database(
            schema, tuple_count=tuple_count, domain_size=domain_size, rng=length
        )
        target = RelationSchema({"x0", f"x{length}"})
        run = yannakakis(schema, target, state)
        median = _median_time(_cold(lambda: yannakakis(schema, target, state)), repeats)
        row: Dict[str, Any] = {
            "case": f"chain-{length}-n{tuple_count}",
            "length": length,
            "tuple_count": tuple_count,
            "median_s": median,
            "answer_rows": len(run.result),
            "max_intermediate": run.max_intermediate_size,
            "naive_median_s": None,
            "naive_max_intermediate": None,
        }
        if (length, tuple_count, domain_size) in NAIVE_CASES:
            result, naive_max = naive_join_project(schema, target, state)
            assert result == run.result, "yannakakis and naive disagree"
            row["naive_median_s"] = _median_time(
                lambda: naive_join_project(schema, target, state), repeats
            )
            row["naive_max_intermediate"] = naive_max
        rows.append(row)
    return rows


def bench_cc(repeats: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for size in CC_SIZES:
        chain = chain_schema(size)
        chain_target = RelationSchema({"x0", f"x{size}"})
        ring = aring(size)
        ring_attrs = ring.attributes.sorted_attributes()
        ring_target = RelationSchema({ring_attrs[0], ring_attrs[size // 2]})
        for label, schema, target in (
            (f"chain-{size}", chain, chain_target),
            (f"aring-{size}", ring, ring_target),
        ):
            rows.append(
                {
                    "case": f"cc-{label}",
                    "median_s": _median_time(
                        _cold(lambda: canonical_connection(schema, target)), repeats
                    ),
                }
            )
            rows.append(
                {
                    "case": f"gr-{label}",
                    "median_s": _median_time(
                        _cold(lambda: gyo_reduction(schema, target)), repeats
                    ),
                }
            )
    for family in GR_FAMILIES:
        for size in GR_SIZES:
            schema = chain_schema(size) if family == "chain" else star_schema(size)
            attrs = schema.attributes.sorted_attributes()
            target = RelationSchema({attrs[0], attrs[-1]})
            rows.append(
                {
                    "case": f"gr-{family}-{size}",
                    "median_s": _median_time(
                        _cold(lambda: gyo_reduction(schema, target)), repeats
                    ),
                }
            )
    return rows


def bench_tableau(repeats: int) -> List[Dict[str, Any]]:
    """Tableau-layer workloads: minimization, canonical connections, isomorphism.

    Every case rebuilds nothing per call except the operation under test: the
    standard tableaux are constructed outside the timed region (construction
    is linear and not the hot path), and ``canonical_connection`` runs with a
    cold engine cache so it times the full build → minimize → read-off
    derivation.
    """
    rows: List[Dict[str, Any]] = []

    def add(case: str, fn: Callable[[], Any], **extra: Any) -> None:
        rows.append({"case": case, "median_s": _median_time(fn, repeats), **extra})

    for size in TABLEAU_COLLAPSE_CHAIN_SIZES:
        tab = standard_tableau(chain_schema(size), {"x0"})
        result = minimize_tableau(tab)
        add(
            f"minimize-collapse-chain-{size}",
            lambda tab=tab: minimize_tableau(tab),
            rows_before=len(tab),
            rows_after=len(result.minimal),
        )
    for size in TABLEAU_COLLAPSE_STAR_SIZES:
        tab = standard_tableau(star_schema(size), {"x_hub"})
        result = minimize_tableau(tab)
        add(
            f"minimize-collapse-star-{size}",
            lambda tab=tab: minimize_tableau(tab),
            rows_before=len(tab),
            rows_after=len(result.minimal),
        )
    for size in TABLEAU_MINIMAL_CHAIN_SIZES:
        tab = standard_tableau(chain_schema(size), {"x0", f"x{size}"})
        result = minimize_tableau(tab)
        assert result.removed_count == 0, "chain endpoint tableau must be minimal"
        add(
            f"minimize-minimal-chain-{size}",
            lambda tab=tab: minimize_tableau(tab),
            rows_before=len(tab),
            rows_after=len(tab),
        )
    for size in TABLEAU_CC_CHAIN_SIZES:
        schema = chain_schema(size)
        target = RelationSchema({"x0"})
        add(
            f"cc-collapse-chain-{size}",
            _cold(lambda schema=schema, target=target: canonical_connection(schema, target)),
        )
    for size in TABLEAU_ISO_CHAIN_SIZES:
        schema = chain_schema(size)
        permuted = DatabaseSchema(tuple(reversed(schema.relations)))
        target = {"x0", f"x{size}"}
        first = standard_tableau(schema, target)
        second = standard_tableau(permuted, target)
        assert find_isomorphism(first, second) is not None
        add(
            f"iso-permuted-chain-{size}",
            lambda first=first, second=second: find_isomorphism(first, second),
        )
    return rows


def bench_engine(repeats: int) -> List[Dict[str, Any]]:
    """Plan-reuse amortization: N executions per 1 PreparedQuery.

    ``cold_per_exec_s`` re-plans on every call (the pre-engine cost of
    ``yannakakis()``); ``warm_per_exec_s`` calls ``yannakakis()`` with the
    engine cache warm; ``prepared_per_exec_s`` executes one compiled
    :class:`~repro.engine.PreparedQuery` against every state.  ``median_s``
    mirrors ``prepared_per_exec_s`` so cross-PR speedup tracking works.
    """
    rows: List[Dict[str, Any]] = []
    for family, size, tuple_count, domain_size, state_count in ENGINE_CASES:
        if family == "chain":
            schema = chain_schema(size)
            target = RelationSchema({"x0", f"x{size}"})
        else:
            schema = (
                star_schema(size)
                if family == "star"
                else random_tree_schema(size, rng=3)
            )
            attrs = schema.attributes.sorted_attributes()
            target = RelationSchema({attrs[0], attrs[-1]})
        states = [
            random_ur_database(
                schema, tuple_count=tuple_count, domain_size=domain_size, rng=seed
            )
            for seed in range(state_count)
        ]

        def run_cold() -> None:
            for state in states:
                clear_analysis_cache()
                yannakakis(schema, target, state)

        def run_warm() -> None:
            for state in states:
                yannakakis(schema, target, state)

        clear_analysis_cache()
        prepare_s = _median_time(
            _cold(lambda: analyze(schema).prepare(target)), repeats
        )
        prepared = analyze(schema).prepare(target)

        def run_prepared() -> None:
            prepared.execute_many(states)

        cold_s = _median_time(run_cold, repeats)
        clear_analysis_cache()
        yannakakis(schema, target, states[0])  # warm the cache once
        warm_s = _median_time(run_warm, repeats)
        prepared_s = _median_time(run_prepared, repeats)
        rows.append(
            {
                "case": f"{family}-{size}-n{tuple_count}-x{state_count}",
                "family": family,
                "size": size,
                "tuple_count": tuple_count,
                "states": state_count,
                "prepare_s": prepare_s,
                "cold_per_exec_s": cold_s / state_count,
                "warm_per_exec_s": warm_s / state_count,
                "prepared_per_exec_s": prepared_s / state_count,
                "median_s": prepared_s / state_count,
                "plan_reuse_speedup": (cold_s / prepared_s) if prepared_s else None,
            }
        )
    return rows


#: Serving workloads (PR 4): one compiled plan, many database states.
#: ``many-small`` families model request serving (hundreds of small states
#: per batch): ``distinct`` draws fresh random states per request,
#: ``shared-dims`` keeps dimension relations fixed under a varying fact
#: slot, ``repeat-pool`` draws requests from a small pool (duplicate
#: requests); ``few-large`` families model analytical batches.  Entries:
#: (case, family, size, tuple_count, domain, states, mode).
SERVING_CASES = (
    ("msmall-chain-distinct", "chain", 5, 12, 6, 300, "distinct"),
    ("msmall-tree-distinct", "random-tree", 12, 12, 6, 200, "distinct"),
    ("msmall-star-shared-dims", "star", 8, 30, 6, 200, "shared"),
    ("msmall-chain-repeat-pool", "chain", 4, 15, 6, 200, "pool"),
    ("flarge-chain", "chain", 6, 400, 40, 8, "distinct"),
    ("flarge-star", "star", 12, 300, 24, 8, "distinct"),
)


def _serving_schema(family: str, size: int):
    if family == "chain":
        schema = chain_schema(size)
        return schema, RelationSchema({"x0", f"x{size}"})
    if family == "star":
        schema = star_schema(size)
        attrs = schema.attributes.sorted_attributes()
        return schema, RelationSchema({"x_hub", attrs[0]})
    schema = random_tree_schema(size, rng=3)
    attrs = schema.attributes.sorted_attributes()
    return schema, RelationSchema({attrs[0], attrs[-1]})


def _serving_states(schema, mode, tuple_count, domain_size, count, seed_base):
    from repro.relational import DatabaseState

    if mode == "shared":
        base = random_ur_database(
            schema, tuple_count=tuple_count, domain_size=domain_size, rng=42
        )
        states = []
        for seed in range(count):
            relations = list(base.relations)
            relations[0] = random_ur_database(
                schema,
                tuple_count=tuple_count,
                domain_size=domain_size,
                rng=seed_base + seed,
            ).relations[0]
            states.append(DatabaseState(schema, relations))
        return states
    if mode == "pool":
        pool = [
            random_ur_database(
                schema,
                tuple_count=tuple_count,
                domain_size=domain_size,
                rng=seed_base + seed,
            )
            for seed in range(20)
        ]
        return [pool[index % len(pool)] for index in range(count)]
    return [
        random_ur_database(
            schema,
            tuple_count=tuple_count,
            domain_size=domain_size,
            rng=seed_base + seed,
        )
        for seed in range(count)
    ]


def bench_serving(repeats: int) -> List[Dict[str, Any]]:
    """Per-state medians: classic vs compiled vs batched compiled.

    Fairness protocol: every timed pass gets *fresh* state objects (new
    random seeds per repeat), since serving requests carry new data — timing
    repeated passes over one state list would let both backends reuse
    per-instance caches no real request stream provides.  ``median_s`` is
    the batched per-state time so cross-PR speedup tracking compares the
    serving path; ``classic_per_state_s`` is the per-state classic baseline
    the PR-4 acceptance criteria reference.  On a pre-PR-4 checkout the
    compiled columns degrade to ``None`` (the ``backend`` kwarg is missing),
    which keeps ``--phase before`` snapshots runnable.
    """
    rows: List[Dict[str, Any]] = []
    for case, family, size, tuple_count, domain_size, count, mode in SERVING_CASES:
        schema, target = _serving_schema(family, size)
        clear_analysis_cache()
        prepared = analyze(schema).prepare(target)

        def fresh_sets(salt: int) -> List[List[Any]]:
            # Every timed pass gets states no other pass has touched, so no
            # backend inherits caches (plan-level or per-relation) warmed by
            # a different backend's timing loop.
            return [
                _serving_states(
                    schema,
                    mode,
                    tuple_count,
                    domain_size,
                    count,
                    salt + 10_000 * (r + 1),
                )
                for r in range(repeats)
            ]

        def timed(fn, state_sets) -> float:
            times = []
            for states in state_sets:
                start = time.perf_counter()
                fn(states)
                times.append(time.perf_counter() - start)
            return statistics.median(times)

        # Probe once (one tiny state) for the PR-4 `backend` kwarg; any
        # TypeError raised later, inside the timed loops, is a real bug and
        # must propagate instead of masquerading as "pre-PR-4 engine".
        probe = _serving_states(schema, "distinct", 2, 3, 1, 999_983)[0]
        try:
            backend = prepared.execute(probe, backend="classic").backend
            has_backend_routing = True
        except TypeError:
            has_backend_routing = False
        if has_backend_routing:
            classic_s = timed(
                lambda states: [
                    prepared.execute(state, backend="classic") for state in states
                ],
                fresh_sets(0),
            )
            compiled_s = timed(
                lambda states: [
                    prepared.execute(state, backend="compiled") for state in states
                ],
                fresh_sets(1_000_000),
            )
            batched_s = timed(
                lambda states: prepared.execute_many(states),
                fresh_sets(2_000_000),
            )
            # Record the backend the timed batches actually resolved to:
            # ``auto``'s verdict depends on state size (the vectorized
            # profitability floor), so the tiny probe state would lie here.
            try:
                from repro.engine.prepared import resolve_backend_for

                backend = resolve_backend_for(
                    "auto",
                    _serving_states(
                        schema, mode, tuple_count, domain_size, count, 3_000_000
                    ),
                )
            except ImportError:  # pre-PR-8 engine: no profitability gate
                backend = prepared.execute_many([probe])[0].backend
        else:
            # Pre-PR-4 engine: no backend routing; record the classic path
            # only so --phase before snapshots stay comparable.
            classic_s = timed(
                lambda states: [prepared.execute(state) for state in states],
                fresh_sets(0),
            )
            compiled_s = batched_s = None
            backend = "classic"
        rows.append(
            {
                "case": case,
                "family": family,
                "size": size,
                "tuple_count": tuple_count,
                "states": count,
                "mode": mode,
                "classic_per_state_s": classic_s / count,
                "compiled_per_state_s": (
                    compiled_s / count if compiled_s is not None else None
                ),
                "batched_per_state_s": (
                    batched_s / count if batched_s is not None else None
                ),
                "median_s": (
                    (batched_s if batched_s is not None else classic_s) / count
                ),
                "batched_speedup_vs_classic": (
                    classic_s / batched_s if batched_s else None
                ),
                "backend": backend,
            }
        )
    return rows


#: Many-small serving families for the PR-5 parallel section — the cases
#: where the compiled backend already wins per core and the batch is
#: embarrassingly parallel across states.  (The few-large families are
#: deliberately excluded: a handful of big states leaves most of a pool
#: idle and measures shard-count luck, not the executor.)
PARALLEL_CASES = tuple(
    entry for entry in SERVING_CASES if entry[0].startswith("msmall-")
)
PARALLEL_WORKER_COUNTS = (2, 4)


def _warn_few_cores(section: str) -> None:
    """Shout when a multi-process section runs on a host that cannot show
    parallel speedups (the BENCH_PR5 one-core-capture caveat, mechanized).

    Per-state medians and overhead ratios stay meaningful on small hosts;
    absolute speedups vs serial do not.  Every affected row also records
    ``host_cpus`` so a reader of the JSON sees the caveat without this
    stderr warning.
    """
    host_cpus = os.cpu_count() or 1
    if host_cpus >= 4:
        return
    print(
        "=" * 72
        + f"\nWARNING: the '{section}' benchmark section is running on "
        f"{host_cpus} CPU core(s).\n"
        "Process parallelism cannot beat serial execution here: treat the\n"
        "speedup columns as lower bounds and compare only per-state medians\n"
        "and overhead ratios.  Re-run on >= 4 cores for meaningful speedups.\n"
        + "=" * 72,
        file=sys.stderr,
    )


def bench_parallel(repeats: int) -> List[Dict[str, Any]]:
    """Sharded multi-process serving vs single-process batched compiled.

    One row per (case, worker count).  ``serial_per_state_s`` is the
    single-process ``execute_many`` control (the PR-4 serving path);
    ``parallel_per_state_s`` times batches on a *reused* pool — the pool is
    spun up and the workers' per-spec plan compile is paid on an untimed
    warm-up batch first, and that one-off cost is reported separately as
    ``pool_spawn_s`` (``ensure_started``) and ``cold_batch_s`` (first batch
    on the fresh pool).  Every timed pass uses fresh state sets, exactly as
    in the serving section.  ``host_cpus`` records what the numbers can
    possibly mean: process parallelism cannot beat serial on a one-core
    container, so compare speedups against the core count, not the worker
    count.
    """
    from repro.engine.parallel import ParallelExecutor

    _warn_few_cores("parallel")
    rows: List[Dict[str, Any]] = []
    host_cpus = os.cpu_count() or 1
    for case, family, size, tuple_count, domain_size, count, mode in PARALLEL_CASES:
        schema, target = _serving_schema(family, size)
        clear_analysis_cache()
        prepared = analyze(schema).prepare(target)

        def fresh_sets(salt: int) -> List[List[Any]]:
            return [
                _serving_states(
                    schema,
                    mode,
                    tuple_count,
                    domain_size,
                    count,
                    salt + 10_000 * (r + 1),
                )
                for r in range(repeats)
            ]

        def timed(fn, state_sets) -> float:
            times = []
            for states in state_sets:
                start = time.perf_counter()
                fn(states)
                times.append(time.perf_counter() - start)
            return statistics.median(times)

        serial_s = timed(
            lambda states: prepared.execute_many(states),
            fresh_sets(5_000_000),
        )
        for workers in PARALLEL_WORKER_COUNTS:
            with ParallelExecutor(workers=workers) as executor:
                start = time.perf_counter()
                executor.ensure_started()
                spawn_s = time.perf_counter() - start
                # First batch on the fresh pool: workers resolve (and, unless
                # fork inherited a compiled plan, compile) the plan.
                cold_states = _serving_states(
                    schema, mode, tuple_count, domain_size, count, 6_000_000
                )
                start = time.perf_counter()
                cold_runs = executor.execute_many(prepared, cold_states)
                cold_s = time.perf_counter() - start
                parallel_s = timed(
                    lambda states, executor=executor: executor.execute_many(
                        prepared, states
                    ),
                    fresh_sets(7_000_000 + workers),
                )
            rows.append(
                {
                    "case": f"par-{case}-w{workers}",
                    "family": family,
                    "states": count,
                    "mode": mode,
                    "workers": workers,
                    "workers_resolved": executor.workers,
                    "host_cpus": host_cpus,
                    "backend": cold_runs[0].backend,
                    "pool_spawn_s": spawn_s,
                    "cold_batch_s": cold_s,
                    "serial_per_state_s": serial_s / count,
                    "parallel_per_state_s": parallel_s / count,
                    "median_s": parallel_s / count,
                    "parallel_speedup_vs_serial": (
                        serial_s / parallel_s if parallel_s else None
                    ),
                }
            )
    return rows


#: Cases the robustness section exercises (a representative subset of the
#: parallel section — the section times three executor configurations per
#: case plus a crash-recovery pass per repeat, so it is the most expensive
#: per case).
ROBUSTNESS_CASES = ("msmall-chain-distinct", "msmall-star-shared-dims")
ROBUSTNESS_WORKERS = 2


def bench_robustness(repeats: int) -> List[Dict[str, Any]]:
    """Supervision overhead when healthy, and recovery latency under faults.

    Three measurements per case, all on a reused warmed pool:

    * ``unsupervised_per_state_s`` — the executor with no timeout armed (the
      PR-5-shaped healthy path; supervision still watches for pool breakage
      but takes no per-wait deadline bookkeeping);
    * ``supervised_per_state_s`` — the same batches with ``shard_timeout``
      and retries armed; the acceptance bar is overhead within ~10% of the
      unarmed path (``supervision_overhead_ratio``);
    * ``crash_recovery_batch_s`` — wall time of one batch that absorbs one
      injected worker crash (``REPRO_FAULT_CRASH=1`` against a fresh fault
      directory per pass): pool respawn + lost-shard resubmission included.

    ``host_cpus`` is recorded per row — on small hosts the absolute numbers
    compress, but the overhead *ratio* stays meaningful.
    """
    import shutil
    import tempfile

    from repro.engine import faults
    from repro.engine.parallel import ParallelExecutor

    _warn_few_cores("robustness")
    rows: List[Dict[str, Any]] = []
    host_cpus = os.cpu_count() or 1
    fault_vars = (
        faults.ENV_FAULT_DIR,
        faults.ENV_CRASH,
        faults.ENV_HANG,
        faults.ENV_TRANSIENT,
        faults.ENV_POISON,
    )
    cases = [entry for entry in PARALLEL_CASES if entry[0] in ROBUSTNESS_CASES]
    for case, family, size, tuple_count, domain_size, count, mode in cases:
        schema, target = _serving_schema(family, size)
        clear_analysis_cache()
        prepared = analyze(schema).prepare(target)

        def fresh_sets(salt: int) -> List[List[Any]]:
            return [
                _serving_states(
                    schema,
                    mode,
                    tuple_count,
                    domain_size,
                    count,
                    salt + 10_000 * (r + 1),
                )
                for r in range(repeats)
            ]

        def timed_on(executor, state_sets) -> float:
            # Warm the pool and the workers' plan caches untimed, exactly as
            # the parallel section does.
            executor.ensure_started()
            executor.execute_many(
                prepared,
                _serving_states(schema, mode, tuple_count, domain_size, count, 13),
            )
            times = []
            for states in state_sets:
                start = time.perf_counter()
                executor.execute_many(prepared, states)
                times.append(time.perf_counter() - start)
            return statistics.median(times)

        with ParallelExecutor(workers=ROBUSTNESS_WORKERS) as executor:
            plain_s = timed_on(executor, fresh_sets(8_000_000))
        with ParallelExecutor(
            workers=ROBUSTNESS_WORKERS, shard_timeout=30.0, max_retries=2
        ) as executor:
            supervised_s = timed_on(executor, fresh_sets(9_000_000))

        recovery_times: List[float] = []
        recovery_respawns = 0
        for r in range(repeats):
            states = _serving_states(
                schema, mode, tuple_count, domain_size, count, 10_000_000 + r
            )
            directory = tempfile.mkdtemp(prefix="repro-bench-faults-")
            saved = {name: os.environ.pop(name, None) for name in fault_vars}
            os.environ[faults.ENV_FAULT_DIR] = directory
            os.environ[faults.ENV_CRASH] = "1"
            try:
                with ParallelExecutor(
                    workers=ROBUSTNESS_WORKERS, shard_timeout=30.0
                ) as executor:
                    executor.ensure_started()
                    start = time.perf_counter()
                    runs = executor.execute_many(prepared, states)
                    recovery_times.append(time.perf_counter() - start)
                    recovery_respawns += runs[0].stats.respawns
            finally:
                for name, value in saved.items():
                    if value is None:
                        os.environ.pop(name, None)
                    else:
                        os.environ[name] = value
                shutil.rmtree(directory, ignore_errors=True)

        rows.append(
            {
                "case": f"rob-{case}-w{ROBUSTNESS_WORKERS}",
                "family": family,
                "states": count,
                "mode": mode,
                "workers": ROBUSTNESS_WORKERS,
                "host_cpus": host_cpus,
                "unsupervised_per_state_s": plain_s / count,
                "supervised_per_state_s": supervised_s / count,
                "median_s": supervised_s / count,
                "supervision_overhead_ratio": (
                    supervised_s / plain_s if plain_s else None
                ),
                "crash_recovery_batch_s": statistics.median(recovery_times),
                "crash_recovery_respawns": recovery_respawns,
            }
        )
    return rows


#: Routing cases: (case, family, size, tuple_count, domain_size, count,
#: mode, expected_backend).  The thin case sits under the router's
#: small-batch gate ("serial" resolves per batch via the same
#: profitability rule ``auto`` applies: vectorized only when numpy imports
#: AND the states clear the row floor, compiled otherwise); the heavy case
#: carries enough rows that the cost model sends it to the (warm) pool
#: even charged with dispatch overhead.
SERVICE_ROUTING_CASES = (
    ("svc-thin-chain-repeat-pool", "chain", 4, 15, 6, 24, "pool", "serial"),
    ("svc-heavy-chain-distinct", "chain", 5, 40, 12, 200, "distinct", "parallel"),
)
SERVICE_WORKERS = 2


def bench_service(repeats: int) -> List[Dict[str, Any]]:
    """The PR-7 serving layer: routing verdicts.

    Routing rows submit each batch through a warm ``QueryService`` with
    ``backend="auto"`` and record which backend the router picked
    (``routed_backend``/``routing_rule``) next to the expectation the
    acceptance criteria name — thin repeat-pool batches stay on the
    in-process compiled backend, heavy distinct batches go to the pool.
    The verdict is a function of the calibrated cost model and
    ``workers=2``, not of the host, so it holds on small hosts too; the
    *latency* numbers inherit the usual few-core caveat (``host_cpus``).
    Fresh state sets per pass throughout, as established in PR-4.
    """
    from repro.engine.service import QueryService

    _warn_few_cores("service")
    rows: List[Dict[str, Any]] = []
    host_cpus = os.cpu_count() or 1
    from repro.engine.prepared import resolve_backend_for

    for entry in SERVICE_ROUTING_CASES:
        case, family, size, tuple_count, domain_size, count, mode, expected = entry
        schema, target = _serving_schema(family, size)
        clear_analysis_cache()
        prepared = analyze(schema).prepare(target)
        if expected == "serial":
            # The in-process verdict depends on the batch, not just the host:
            # auto upgrades to the vectorized kernel only for states that
            # clear the profitability floor, so resolve against a
            # representative state set for this case.
            expected = resolve_backend_for(
                "auto",
                _serving_states(
                    schema, mode, tuple_count, domain_size, count, 9_000_000
                ),
            )

        def fresh_sets(salt: int) -> List[List[Any]]:
            return [
                _serving_states(
                    schema,
                    mode,
                    tuple_count,
                    domain_size,
                    count,
                    salt + 10_000 * (r + 1),
                )
                for r in range(repeats)
            ]

        with QueryService(workers=SERVICE_WORKERS) as service:
            # Warm the service's pool so the router sees the long-lived
            # serving shape (pool_live) instead of charging a spawn.
            warmup = _serving_states(
                schema, "distinct", tuple_count, domain_size, 40, 11_000_000
            )
            service.execute_many(prepared, warmup, backend="parallel")
            decision = None
            times = []
            for states in fresh_sets(12_000_000):
                start = time.perf_counter()
                handle = service.submit(prepared, states)
                handle.result()
                times.append(time.perf_counter() - start)
                decision = handle.decision
            routed_s = statistics.median(times)
        rows.append(
            {
                "case": case,
                "family": family,
                "states": count,
                "mode": mode,
                "workers": SERVICE_WORKERS,
                "host_cpus": host_cpus,
                "median_s": routed_s / count,
                "routed_per_state_s": routed_s / count,
                "routed_backend": decision.backend,
                "routing_rule": decision.rule,
                "expected_backend": expected,
                "routing_matches_expected": decision.backend == expected,
                "estimated_serial_s": decision.estimated_serial_s,
                "estimated_parallel_s": decision.estimated_parallel_s,
            }
        )
    return rows


#: The vectorized-kernel workloads, one per side of the ``auto`` gate:
#:
#: * ``vec-explosion-star`` — an output-explosion join: star(3) with a
#:   dense hub (every hub value carried by every relation), so the final
#:   join materializes ``FANOUT**3`` combinations per hub value.  The
#:   vectorized backend builds the cross products as index gathers over
#:   int64 arrays instead of nested Python tuple loops; ``auto`` picks it.
#: * ``vec-string-chain`` — wide string relations under a semijoin-only
#:   plan.  The compiled kernel runs on the string values themselves, while
#:   the array kernel must first dictionary-encode every cell, so compiled
#:   is the faster one here (24.4 against 48.5 ms/state before the gate
#:   learned this) and ``auto`` picks it.
#:
#: Fairness protocol (PR-4, tightened): every timed pass gets fresh state
#: objects AND a fresh plan per backend.  Reusing one plan across passes
#: lets its per-slot caches pin every encoding ever produced, and the
#: resulting gen-2 GC traversals grow linearly with pass count — the
#: later passes then time the garbage collector, not the kernel.
VECTORIZED_EXPLOSION = {"hub": 80, "fanout": 16, "card": 23}
VECTORIZED_STRING = {"card": 800, "rows": 20000, "states": 6}


def _explosion_state(schema, seed: int):
    import random

    from repro.relational import DatabaseState, Relation

    r = random.Random(seed)
    hub = VECTORIZED_EXPLOSION["hub"]
    fanout = VECTORIZED_EXPLOSION["fanout"]
    card = VECTORIZED_EXPLOSION["card"]
    relations = []
    for relation in schema.relations:
        rows = []
        for h in range(hub):
            for value in r.sample(range(card + 1), fanout):
                rows.append((value, h))
        relations.append(Relation(relation, rows))
    return DatabaseState(schema, relations)


def _string_states(schema, seed: int):
    import random

    from repro.relational import DatabaseState, Relation

    r = random.Random(seed)
    card = VECTORIZED_STRING["card"]
    target_rows = VECTORIZED_STRING["rows"]
    states = []
    for _ in range(VECTORIZED_STRING["states"]):
        relations = []
        for relation in schema.relations:
            rows = set()
            while len(rows) < target_rows:
                rows.add(
                    (
                        f"cat_{r.randrange(card)}",
                        f"cat_{r.randrange(card)}",
                    )
                )
            relations.append(Relation(relation, sorted(rows)))
        states.append(DatabaseState(schema, relations))
    return states


def bench_vectorized(repeats: int) -> List[Dict[str, Any]]:
    """The array-backed kernel vs the row-at-a-time backends (PR 8).

    Each row times classic vs compiled vs vectorized on the same fresh
    state sets, fresh plans per pass (see the fairness note above), and
    asserts all three backends return identical results before recording
    anything.  The array kernel needs numpy, so without it the section is
    skipped; ``numpy`` stamps that the real array path ran.
    """
    from repro.engine.prepared import resolve_backend_for
    from repro.relational.compiled import CompiledPlan
    from repro.relational.vectorized import VectorizedPlan, numpy_available

    if not numpy_available():
        print(
            "warning: numpy is not importable; skipping the vectorized section",
            file=sys.stderr,
        )
        return []

    host_cpus = os.cpu_count() or 1
    rows: List[Dict[str, Any]] = []
    cases = (
        (
            "vec-explosion-star",
            star_schema(3),
            RelationSchema({"x0", "x1", "x2"}),
            lambda seed: [_explosion_state(star_schema(3), seed)],
        ),
        (
            "vec-string-chain",
            chain_schema(3),
            RelationSchema({"x0"}),
            lambda seed: _string_states(chain_schema(3), seed),
        ),
    )
    for case, schema, target, make_states in cases:
        clear_analysis_cache()
        prepared = analyze(schema).prepare(target)
        classic_times: List[float] = []
        compiled_times: List[float] = []
        vectorized_times: List[float] = []
        answer_rows = max_intermediate = 0
        state_count = 0
        for r in range(repeats):
            states = make_states(16_000_000 + 10_000 * r)
            state_count = len(states)

            start = time.perf_counter()
            classic_runs = [
                prepared.execute(state, backend="classic") for state in states
            ]
            classic_times.append(time.perf_counter() - start)

            compiled_plan = CompiledPlan(prepared)
            start = time.perf_counter()
            compiled_runs = compiled_plan.execute_batch(states)
            compiled_times.append(time.perf_counter() - start)

            vectorized_plan = VectorizedPlan(prepared)
            start = time.perf_counter()
            vectorized_runs = vectorized_plan.execute_batch(states)
            vectorized_times.append(time.perf_counter() - start)

            for classic, compiled, vectorized in zip(
                classic_runs, compiled_runs, vectorized_runs
            ):
                assert compiled.result == classic.result, case
                assert vectorized.result == classic.result, case
            answer_rows = len(classic_runs[0].result)
            max_intermediate = classic_runs[0].max_intermediate_size
            auto_backend = resolve_backend_for("auto", states, query=prepared)
        classic_s = statistics.median(classic_times)
        compiled_s = statistics.median(compiled_times)
        vectorized_s = statistics.median(vectorized_times)
        rows.append(
            {
                "case": case,
                "states": state_count,
                "numpy": numpy_available(),
                "host_cpus": host_cpus,
                "answer_rows": answer_rows,
                "max_intermediate": max_intermediate,
                "auto_backend": auto_backend,
                "classic_per_state_s": classic_s / state_count,
                "compiled_per_state_s": compiled_s / state_count,
                "vectorized_per_state_s": vectorized_s / state_count,
                "median_s": vectorized_s / state_count,
                "vectorized_speedup_vs_compiled": (
                    compiled_s / vectorized_s if vectorized_s else None
                ),
                "vectorized_speedup_vs_classic": (
                    classic_s / vectorized_s if vectorized_s else None
                ),
            }
        )
    return rows


#: PR-9 cyclic serving families: ``(case, family, size, target, tuple_count,
#: domain_size, states)``.  Many small states per pass — the regime where the
#: per-call solver's re-planning (tree-projection search + program rebuild
#: per state) dominates and the frozen ``CyclicPreparedQuery`` plan should
#: win by a wide margin.
CYCLIC_CASES = (
    # Many-small-state serving shapes where the per-call solver pays its
    # planning tax (tree-projection search + augmented-program rebuild)
    # on every state while the prepared plan amortizes it across the batch.
    ("cyclic-aring-10", "aring", 10, "af", 8, 6, 100),
    ("cyclic-aring-12", "aring", 12, "ag", 8, 6, 100),
    ("cyclic-aclique-8", "aclique", 8, "ab", 5, 16, 150),
)


def bench_cyclic(repeats: int) -> List[Dict[str, Any]]:
    """Batched compiled cyclic serving vs the per-call Theorem 6.1 solver.

    The baseline is :func:`repro.treeproj.solver.solve_with_tree_projection`
    over a sequential-join program — the paper-verbatim construction, which
    re-searches the tree projection and rebuilds the augmented program on
    every call.  The contender is ``prepare_cyclic(target)`` executed once
    and then ``execute_many(states, backend="compiled")`` per pass.  Fresh
    state sets per timed pass (serving fairness protocol), and every batched
    answer is asserted equal to the classic cyclic oracle in-loop so the
    speedup can never come from a wrong answer.  On a pre-PR-9 checkout the
    section degrades to an empty list (``prepare_cyclic`` missing), keeping
    ``--phase before`` snapshots runnable.
    """
    from repro.hypergraph import aclique
    from repro.relational.program import Program, default_base_names
    from repro.treeproj.solver import solve_with_tree_projection

    rows: List[Dict[str, Any]] = []
    for case, family, size, target_attrs, tuple_count, domain_size, count in CYCLIC_CASES:
        schema = aring(size) if family == "aring" else aclique(size)
        target = RelationSchema(target_attrs)
        clear_analysis_cache()
        analysis = analyze(schema)
        if not hasattr(analysis, "prepare_cyclic"):  # pre-PR-9 engine
            return rows
        prepared = analysis.prepare_cyclic(target)
        choice = prepared.projection_choice

        # The solver's input program: join every base relation in order, so
        # its extended schema covers U(D) and the per-call tree-projection
        # search always succeeds.  Built once — only the *solving* is
        # per-call, exactly the cost a plan-less serving loop would pay.
        program = Program(schema)
        names = list(default_base_names(schema))
        current = names[0]
        for index, name in enumerate(names[1:], start=1):
            joined = f"J{index}"
            program.join(joined, current, name)
            current = joined

        def fresh_sets(salt: int) -> List[List[Any]]:
            return [
                [
                    random_ur_database(
                        schema,
                        tuple_count=tuple_count,
                        domain_size=domain_size,
                        rng=salt + 10_000 * (r + 1) + seed,
                    )
                    for seed in range(count)
                ]
                for r in range(repeats)
            ]

        solver_times: List[float] = []
        for states in fresh_sets(0):
            start = time.perf_counter()
            for state in states:
                solve_with_tree_projection(program, target, state)
            solver_times.append(time.perf_counter() - start)

        batched_times: List[float] = []
        answer_rows = 0
        for states in fresh_sets(1_000_000):
            start = time.perf_counter()
            runs = prepared.execute_many(states, backend="compiled")
            batched_times.append(time.perf_counter() - start)
            # In-loop correctness: batched compiled ≡ classic cyclic oracle.
            for state, run in zip(states, runs):
                classic = prepared.execute(state, backend="classic")
                assert run.result == classic.result, case
            answer_rows = len(runs[0].result)

        solver_s = statistics.median(solver_times)
        batched_s = statistics.median(batched_times)
        rows.append(
            {
                "case": case,
                "family": family,
                "size": size,
                "target": target_attrs,
                "tuple_count": tuple_count,
                "states": count,
                "answer_rows": answer_rows,
                "tree_projection": choice.projection.to_notation(),
                "treefication_width": choice.width,
                "projection_method": choice.method,
                "projection_minimal": choice.minimal,
                "guard_semijoins": prepared.guard_semijoins,
                "backend": "compiled",
                "solver_per_state_s": solver_s / count,
                "batched_per_state_s": batched_s / count,
                "median_s": batched_s / count,
                "batched_speedup_vs_solver": (
                    solver_s / batched_s if batched_s else None
                ),
            }
        )
    return rows


#: Catalog cases: ``(case, family, size)``, all cyclic.  A catalog record
#: holds only the tree-projection choices of a cyclic schema — a tree
#: schema's GYO trace and qual tree recompute as fast as a record reads
#: back (0.80–1.08x in ``BENCH_PR10.json``), so tree schemas are not
#: persisted and have no case here.  A cold start pays the tree-projection
#: search; a warm catalog replaces it with one verified disk read and the
#: meaning check.  Targets span the schema's sorted-attribute extremes
#: (``af`` on the ring, as before).
CATALOG_CASES = (
    ("cat-aring-10", "aring", 10),
    ("cat-aclique-6", "aclique", 6),
    ("cat-random-cyclic-12", "random-cyclic", 12),
)
#: States per batch for the execution noise control — the check that a
#: restored analysis executes exactly like a freshly derived one (~1x).
CATALOG_EXEC_STATES = 30


def bench_catalog(repeats: int) -> List[Dict[str, Any]]:
    """Cold-start planning vs a warm persistent plan catalog (PR 10).

    Four measurements per case, each pass against an empty analysis LRU:

    * ``cold_prepare_s`` — ``analyze(schema)`` + ``prepare`` with no catalog:
      the full derivation every fresh process pays;
    * ``catalog_hit_prepare_s`` — the same call served from a warm
      :class:`~repro.engine.catalog.PlanCatalog`: one verified disk read
      restores the tree-projection choice, leaving only plan lowering;
    * ``respawn_cold_s`` / ``respawn_warm_s`` — ``prepared_from_spec`` on the
      plan's picklable spec, without and with the catalog: the exact path a
      pool worker respawned after a crash pays to rebuild its plan;
    * ``exec_cold_per_state_s`` / ``exec_restored_per_state_s`` — the noise
      control: identical fresh batches executed through a freshly derived
      and a catalog-restored plan, answers asserted equal in-loop.  The
      catalog accelerates planning only, so ``exec_ratio`` must read ~1x.

    On a pre-PR-10 checkout the catalog import fails and the section
    degrades to an empty list, keeping ``--phase before`` snapshots
    runnable.
    """
    import shutil
    import tempfile

    try:
        from repro.engine.analysis import prepared_from_spec
        from repro.engine.catalog import PlanCatalog
        from repro.engine.parallel import PlanSpec
    except ImportError:  # pre-PR-10 engine: no persistent catalog
        return []
    from repro.hypergraph import aclique, aring, random_cyclic_schema

    rows: List[Dict[str, Any]] = []
    # The env-default catalog must not leak into the no-catalog baselines.
    saved_env = os.environ.pop("REPRO_CATALOG_DIR", None)
    try:
        for case, family, size in CATALOG_CASES:
            if family == "aring":
                schema = aring(size)
                target = RelationSchema("af")
            else:
                if family == "aclique":
                    schema = aclique(size)
                else:
                    schema = random_cyclic_schema(size, ring_size=4, rng=3)
                attrs = schema.attributes.sorted_attributes()
                target = RelationSchema({attrs[0], attrs[-1]})

            def build(catalog=None):
                clear_analysis_cache()
                analysis = analyze(schema, catalog=catalog)
                return analysis, analysis.prepare_cyclic(target)

            directory = tempfile.mkdtemp(prefix="repro-bench-catalog-")
            try:
                catalog = PlanCatalog(directory)
                # Seed the record untimed: one full derivation, stored once.
                analysis, prepared = build()
                start = time.perf_counter()
                assert catalog.store(analysis), "catalog store failed"
                store_s = time.perf_counter() - start
                record_bytes = os.path.getsize(catalog.record_path(schema))
                spec = PlanSpec.of(prepared)

                cold_s = _median_time(lambda: build(), repeats)
                hit_s = _median_time(lambda: build(catalog), repeats)
                assert catalog.stats.hits >= repeats, catalog.stats.as_dict()
                assert catalog.stats.quarantined == 0, catalog.stats.as_dict()

                def respawn(catalog=None):
                    clear_analysis_cache()
                    return prepared_from_spec(spec, catalog=catalog)

                respawn_cold_s = _median_time(lambda: respawn(), repeats)
                respawn_warm_s = _median_time(lambda: respawn(catalog), repeats)

                _, cold_prepared = build()
                _, restored_prepared = build(catalog)

                def run(prepared_query, salt):
                    states = [
                        random_ur_database(
                            schema, tuple_count=6, domain_size=6, rng=salt + seed
                        )
                        for seed in range(CATALOG_EXEC_STATES)
                    ]
                    start = time.perf_counter()
                    runs = prepared_query.execute_many(states, backend="compiled")
                    elapsed = time.perf_counter() - start
                    return elapsed, [run.result for run in runs]

                # Alternate which plan is timed first and collect garbage
                # before each timed region: the second-timed plan otherwise
                # pays gen-2 GC traversals over the first plan's live slot
                # caches (the PR-8 reused-plan effect), which reads as a
                # phantom ~2x in whichever column runs last.
                import gc

                exec_cold_times: List[float] = []
                exec_restored_times: List[float] = []
                for r in range(repeats):
                    salt = 20_000_000 + 10_000 * (r + 1)
                    pair = [
                        ("cold", cold_prepared, exec_cold_times),
                        ("restored", restored_prepared, exec_restored_times),
                    ]
                    if r % 2:
                        pair.reverse()
                    answers = {}
                    for label, plan, times in pair:
                        gc.collect()
                        elapsed, results = run(plan, salt)
                        times.append(elapsed)
                        answers[label] = results
                    assert answers["cold"] == answers["restored"], case
                exec_cold_s = statistics.median(exec_cold_times)
                exec_restored_s = statistics.median(exec_restored_times)
            finally:
                shutil.rmtree(directory, ignore_errors=True)

            rows.append(
                {
                    "case": case,
                    "family": family,
                    "size": size,
                    "cyclic": True,
                    "record_bytes": record_bytes,
                    "store_s": store_s,
                    "cold_prepare_s": cold_s,
                    "catalog_hit_prepare_s": hit_s,
                    "median_s": hit_s,
                    "catalog_speedup": (cold_s / hit_s) if hit_s else None,
                    "respawn_cold_s": respawn_cold_s,
                    "respawn_warm_s": respawn_warm_s,
                    "respawn_speedup": (
                        respawn_cold_s / respawn_warm_s if respawn_warm_s else None
                    ),
                    "exec_cold_per_state_s": exec_cold_s / CATALOG_EXEC_STATES,
                    "exec_restored_per_state_s": (
                        exec_restored_s / CATALOG_EXEC_STATES
                    ),
                    "exec_ratio": (
                        exec_restored_s / exec_cold_s if exec_cold_s else None
                    ),
                }
            )
    finally:
        if saved_env is not None:
            os.environ["REPRO_CATALOG_DIR"] = saved_env
    return rows


def run_all(repeats: int) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        # Duplicated under the name the parallel/robustness rows use, so the
        # caveat (speedups are bounded by physical cores, not workers) is
        # visible at the top of every snapshot.
        "host_cpus": os.cpu_count() or 1,
        "repeats": repeats,
        "gyo_reduce": bench_gyo(repeats),
        "yannakakis": bench_yannakakis(repeats),
        "canonical_connection": bench_cc(repeats),
        "tableau": bench_tableau(repeats),
        "engine": bench_engine(repeats),
        "serving": bench_serving(repeats),
        "parallel": bench_parallel(repeats),
        "robustness": bench_robustness(repeats),
        "service": bench_service(repeats),
        "vectorized": bench_vectorized(repeats),
        "cyclic": bench_cyclic(repeats),
        "catalog": bench_catalog(repeats),
    }


def _speedups(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-case and aggregate before/after speedup factors."""
    summary: Dict[str, Any] = {}
    for section in (
        "gyo_reduce",
        "yannakakis",
        "canonical_connection",
        "tableau",
        "engine",
        "serving",
        "parallel",
        "robustness",
        "service",
        "vectorized",
        "cyclic",
        "catalog",
    ):
        before_rows = {row["case"]: row for row in before.get(section, ())}
        cases: Dict[str, float] = {}
        total_before = total_after = 0.0
        for row in after.get(section, ()):
            base = before_rows.get(row["case"])
            if base is None or not row["median_s"]:
                continue
            cases[row["case"]] = base["median_s"] / row["median_s"]
            total_before += base["median_s"]
            total_after += row["median_s"]
        summary[section] = {
            "per_case": cases,
            "aggregate": (total_before / total_after) if total_after else None,
        }
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("before", "after"), default="after")
    parser.add_argument("--out", default="BENCH_PR10.json", help="output JSON path")
    parser.add_argument(
        "--before",
        default=None,
        help="path to a snapshot captured with --phase before, merged into the output",
    )
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    snapshot = run_all(args.repeats)
    if args.phase == "before":
        payload: Dict[str, Any] = {"before": snapshot}
    else:
        payload = {"after": snapshot}
        if args.before:
            with open(args.before) as handle:
                payload["before"] = json.load(handle)["before"]
            payload["speedup"] = _speedups(payload["before"], snapshot)

    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {args.out}")
    for section, data in payload.get("speedup", {}).items():
        aggregate = data["aggregate"]
        print(f"  {section}: aggregate speedup {aggregate:.2f}x" if aggregate else section)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
