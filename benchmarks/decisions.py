"""Keep-or-delete measurements for the process pool and the plan catalog.

Both run on the end-to-end benchmark's own case code
(``e2e/workloads.py``, imported read-only)::

    python3 benchmarks/decisions.py pool [--repeats 7] [--smoke]
    python3 benchmarks/decisions.py catalog [--repeats 7] [--smoke]

``pool`` times a warm two-worker ``ParallelExecutor`` against in-process
``execute_many`` (backend ``auto``) on the traffic the pool serves:
service-mixed's heavy batch and the four serve-large shapes.
``pool_speedup`` is in-process time over pool time.  The pool's keep rule:
some case reaches 1.2x in at least 2 of 3 runs (repeats >= 7).

``catalog`` times cold ``analyze`` + ``prepare_cyclic`` against the same
call served by a warm ``PlanCatalog``, each on an empty analysis LRU, on the
24 cyclic adhoc-plan templates.  ``catalog_speedup`` is cold time over hit
time.  The catalog's keep rule: some cyclic family reads 1.5x or more.

Every timed pass gets fresh states (or a fresh LRU), the two sides run in
alternating order, and each time is the median of ``--repeats`` passes.
Answers are checked in the loop against ``backend="classic"``; a mismatch
fails the run.  Prints one JSON document; every row carries ``host_cpus``.
``--smoke`` shrinks the inputs to the end-to-end smoke sizes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "e2e")]

import workloads as W  # noqa: E402

from repro import analyze, clear_analysis_cache  # noqa: E402
from repro.engine import ParallelExecutor  # noqa: E402
from repro.engine.catalog import PlanCatalog  # noqa: E402

HOST_CPUS = os.cpu_count() or 1
POOL_WORKERS = 2
#: The keep thresholds of the two rules above.
POOL_KEEP = 1.2
CATALOG_KEEP = 1.5


def expect(condition: bool, message) -> None:
    """A failed check ends the run with a non-zero exit (unlike ``assert``,
    also under ``python -O``)."""
    if not condition:
        raise SystemExit(f"FAIL {message}")


def timed(fn):
    """``(seconds, result)`` of one call, after a collection so that no
    garbage left by the other side is traversed inside the timed region."""
    gc.collect()
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def answers(runs) -> list:
    return [run.result for run in runs]


def classic(prepared, states) -> list:
    return [prepared.execute(state, backend="classic").result for state in states]


def pool_cases():
    """``(name, prepared, batch)``: ``batch(seed)`` builds fresh state objects
    with the same contents for the same seed."""
    schema, target = W.service_query()
    cases = [
        (
            "service-heavy",
            analyze(schema).prepare(target),
            lambda seed: W.service_heavy(schema, random.Random(seed)),
        )
    ]
    for shape in W.serve_large_shapes():
        cases.append(
            (
                shape.name,
                analyze(shape.schema).prepare(shape.target),
                lambda seed, shape=shape: shape.batch(random.Random(seed)),
            )
        )
    return cases


def decide_pool(repeats: int) -> list:
    rows = []
    with ParallelExecutor(workers=POOL_WORKERS) as executor:
        executor.ensure_started()
        for index, (name, prepared, batch) in enumerate(pool_cases()):
            # Warm both sides untimed: the in-process kernel plan and the
            # workers' plan caches.
            prepared.execute_many(batch(-1))
            executor.execute_many(prepared, batch(-2))
            sides = [
                ("inprocess", lambda states: prepared.execute_many(states)),
                ("pool", lambda states: executor.execute_many(prepared, states)),
            ]
            times = {"inprocess": [], "pool": []}
            backends = {}
            for r in range(repeats):
                seed = 1000 * index + r
                expected = classic(prepared, batch(seed))
                for side, run in sides[:: 1 if r % 2 == 0 else -1]:
                    states = batch(seed)
                    elapsed, runs = timed(lambda: run(states))
                    expect(answers(runs) == expected, f"{name}: {side} answers differ")
                    times[side].append(elapsed)
                    backends[side] = runs[0].backend
            inprocess_s = statistics.median(times["inprocess"])
            pool_s = statistics.median(times["pool"])
            rows.append(
                {
                    "case": name,
                    "states": len(states),
                    "inprocess_backend": backends["inprocess"],
                    "backend": backends["pool"],
                    "workers_resolved": executor.workers,
                    "host_cpus": HOST_CPUS,
                    "inprocess_s": inprocess_s,
                    "pool_s": pool_s,
                    "pool_speedup": inprocess_s / pool_s,
                }
            )
    return rows


def decide_catalog(repeats: int) -> list:
    templates = [t for t in W.adhoc_templates() if analyze(t.schema).is_cyclic]
    rows = []
    directory = tempfile.mkdtemp(prefix="repro-decisions-catalog-")
    # An environment-default catalog must not serve the cold side.
    saved = os.environ.pop("REPRO_CATALOG_DIR", None)
    try:
        catalog = PlanCatalog(directory)
        for template in templates:
            schema, target = template.schema, template.target

            def cold():
                clear_analysis_cache()
                return analyze(schema).prepare_cyclic(target)

            def hit():
                clear_analysis_cache()
                return analyze(schema, catalog=catalog).prepare_cyclic(target)

            # Seed the record untimed: one full derivation, stored once.
            cold()
            expect(catalog.store(analyze(schema)), f"{template.name}: store failed")
            hits_before, quarantined_before = catalog.stats.hits, catalog.stats.quarantined
            times = {"cold": [], "hit": []}
            for r in range(repeats):
                plans = {}
                for side, build in [("cold", cold), ("hit", hit)][:: 1 if r % 2 == 0 else -1]:
                    elapsed, plans[side] = timed(build)
                    times[side].append(elapsed)
                states = [
                    W.adhoc_state(template, r, slot) for slot in range(W.ADHOC["states"])
                ]
                expected = classic(plans["cold"], states)
                for side, plan in plans.items():
                    expect(answers(plan.execute_many(states)) == expected, (template.name, side))
            expect(catalog.stats.hits - hits_before == repeats, catalog.stats.as_dict())
            cold_s = statistics.median(times["cold"])
            hit_s = statistics.median(times["hit"])
            rows.append(
                {
                    "case": template.name,
                    "family": template.name.split("-")[0],
                    "relations": len(schema.relations),
                    "host_cpus": HOST_CPUS,
                    "record_bytes": os.path.getsize(catalog.record_path(schema)),
                    "cold_s": cold_s,
                    "hit_s": hit_s,
                    "catalog_speedup": cold_s / hit_s,
                    "quarantines": catalog.stats.quarantined - quarantined_before,
                }
            )
    finally:
        if saved is not None:
            os.environ["REPRO_CATALOG_DIR"] = saved
        shutil.rmtree(directory, ignore_errors=True)
    return rows


DECISIONS = {
    "pool": (decide_pool, "pool_speedup", POOL_KEEP),
    "catalog": (decide_catalog, "catalog_speedup", CATALOG_KEEP),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("decision", choices=sorted(DECISIONS))
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.smoke:
        W.use_smoke_sizes()
    measure, metric, threshold = DECISIONS[args.decision]
    rows = measure(args.repeats)
    best = max(rows, key=lambda row: row[metric])
    document = {
        "decision": args.decision,
        "host_cpus": HOST_CPUS,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "metric": metric,
        "threshold": threshold,
        "best": {"case": best["case"], metric: best[metric]},
        "rows": rows,
    }
    print(json.dumps(document, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
