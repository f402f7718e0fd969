"""Command-line interface: schema analysis from the shell.

Usage (after ``pip install -e .``, as ``repro`` or ``python -m repro``):

.. code-block:: console

   $ repro analyze "ab,bc,ac"
   $ repro analyze --json "ab,bc,ac"
   $ repro cc "abg,bcg,acf,ad,de,ea" abc
   $ repro lossless "abc,ab,bc" "ab,bc"
   $ repro treefy "ab,bc,cd,da"
   $ repro tableau "abg,bcg,acf,ad,de,ea" abc
   $ repro query "ab,bc,cd" ad --random 30
   $ repro query "ab,bc,cd" ad --data state.json --backend classic --json
   $ repro query "ab,bc,cd" ad --random 30 --states 64 --backend parallel --workers 4
   $ repro query "ab,bc,cd" ad --random 30 --states 64 --backend parallel \
         --shard-timeout 5 --retries 3 --failure-policy degrade --json

Schemas are written in the paper's notation (relations separated by commas,
single-character attributes concatenated); multi-character attribute names
can be used by passing ``--attribute-separator``.  Every subcommand accepts
``--json`` for machine-readable output.  All commands are built on the
engine façade (:func:`repro.engine.analyze`), so each invocation performs
one schema analysis shared by every fact it prints.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from .core import jd_implies
from .engine import AnalyzedSchema, analyze
from .hypergraph import parse_schema

__all__ = ["main", "build_parser"]


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Analyze database schemas with the tools of Goodman, Shmueli & Tay: "
            "GYO reductions, canonical connections, tree/cyclic classification, "
            "lossless joins and treefication."
        ),
    )
    parser.add_argument(
        "--attribute-separator",
        default=None,
        help="separator between attribute names inside a relation "
        "(default: none, every character is one attribute)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--json",
            action="store_true",
            help="emit machine-readable JSON instead of text",
        )

    analyze_cmd = commands.add_parser(
        "analyze", help="classify a schema and print its structure"
    )
    analyze_cmd.add_argument("schema", help='database schema, e.g. "ab,bc,ac"')
    add_json_flag(analyze_cmd)

    connection = commands.add_parser(
        "cc", help="compute the canonical connection CC(D, X)"
    )
    connection.add_argument("schema", help="database schema D")
    connection.add_argument("target", help="query target X, e.g. abc")
    add_json_flag(connection)

    lossless = commands.add_parser("lossless", help="check whether ⋈D implies ⋈D'")
    lossless.add_argument("schema", help="database schema D")
    lossless.add_argument(
        "subschema",
        help="sub-schema D' (each relation contained in some relation of D)",
    )
    add_json_flag(lossless)

    treefy = commands.add_parser(
        "treefy", help="single-relation treefication (Corollary 3.2)"
    )
    treefy.add_argument("schema", help="database schema D")
    add_json_flag(treefy)

    tableau = commands.add_parser(
        "tableau",
        help="build and minimize the standard tableau Tab(D, X)",
    )
    tableau.add_argument("schema", help="database schema D")
    tableau.add_argument("target", help="query target X, e.g. abc")
    add_json_flag(tableau)

    query = commands.add_parser(
        "query",
        help="evaluate π_X(⋈ D) over a database state (Yannakakis plan)",
    )
    query.add_argument("schema", help="tree schema D")
    query.add_argument("target", help="projection target X, e.g. ad")
    query.add_argument(
        "--data",
        default=None,
        help="JSON file with one rows-list per relation (rows are "
        "attribute -> value objects); '-' reads stdin",
    )
    query.add_argument(
        "--random",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="evaluate against random UR state(s) with N tuples per universal relation",
    )
    query.add_argument(
        "--states",
        type=_positive_int,
        default=1,
        metavar="M",
        help="with --random: number of states to batch through execute_many",
    )
    query.add_argument(
        "--domain",
        type=_positive_int,
        default=8,
        help="random value domain size (default 8)",
    )
    query.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    query.add_argument(
        "--backend",
        choices=("auto", "classic", "compiled", "parallel", "vectorized"),
        default="auto",
        help="execution backend: the array-backed vectorized kernel "
        "(vectorized; auto picks it for batches of large states when numpy "
        "imports, and imports numpy only then), the compiled row-program "
        "kernel (compiled; auto's choice otherwise), the classic "
        "object-tuple operators, or the sharded multi-process pool "
        "(parallel)",
    )
    query.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --backend parallel: process-pool width "
        "(default: one per CPU, clamped by REPRO_PARALLEL_MAX_WORKERS)",
    )
    query.add_argument(
        "--shard-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="with --backend parallel: per-shard attempt timeout; a hung "
        "worker is killed and the shard retried "
        "(default: REPRO_PARALLEL_SHARD_TIMEOUT, else none)",
    )
    query.add_argument(
        "--retries",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="with --backend parallel: shard resubmissions before bisection "
        "(default 2)",
    )
    query.add_argument(
        "--failure-policy",
        choices=("raise", "degrade"),
        default=None,
        help="with --backend parallel: raise on unrecoverable states "
        "(default) or degrade to partial results with quarantined "
        "positions reported in the stats",
    )
    query.add_argument(
        "--stream",
        action="store_true",
        help="serve the batch through the streaming QueryService: results "
        "arrive as shards complete, backend 'auto' is routed adaptively by "
        "the per-plan cost model, and the routing decision is reported",
    )
    query.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --stream: admission-control cap on in-flight states "
        "(default: unbounded)",
    )
    query.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="persistent plan-catalog directory: the tree projections of "
        "cyclic schemas are loaded from (and stored back to) DIR, so repeated "
        "invocations skip the projection search (default: REPRO_CATALOG_DIR "
        "when set)",
    )
    query.add_argument(
        "--max-rows", type=int, default=20, help="answer rows to print (text mode)"
    )
    add_json_flag(query)

    catalog_cmd = commands.add_parser(
        "catalog",
        help="inspect and maintain a persistent plan catalog",
    )
    catalog_actions = catalog_cmd.add_subparsers(dest="action", required=True)

    catalog_ls = catalog_actions.add_parser(
        "ls", help="list catalog records (schema, projection choices, size)"
    )
    catalog_ls.add_argument("directory", help="catalog directory")
    add_json_flag(catalog_ls)

    catalog_verify = catalog_actions.add_parser(
        "verify",
        help="verify every record end to end, quarantining corrupt ones",
    )
    catalog_verify.add_argument("directory", help="catalog directory")
    add_json_flag(catalog_verify)

    catalog_gc = catalog_actions.add_parser(
        "gc",
        help="remove quarantined records and orphaned temp files",
    )
    catalog_gc.add_argument("directory", help="catalog directory")
    catalog_gc.add_argument(
        "--keep",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="also prune records beyond the newest N (by mtime)",
    )
    add_json_flag(catalog_gc)

    return parser


def _emit_json(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _analysis_payload(analysis: AnalyzedSchema) -> Dict[str, Any]:
    schema = analysis.schema
    tree = analysis.qual_tree
    payload: Dict[str, Any] = {
        "schema": schema.to_notation(),
        "relations": len(schema),
        "attributes": len(schema.attributes),
        "alpha_acyclic": analysis.is_tree_schema,
        "gamma_acyclic": analysis.is_gamma_acyclic,
        "beta_acyclic": analysis.is_beta_acyclic,
        "berge_acyclic": analysis.is_berge_acyclic,
        "gyo_residue": analysis.gyo_residue().to_notation(),
        "qual_tree": tree.to_edge_notation() if tree is not None else None,
    }
    if tree is None:
        payload["treefying_relation"] = analysis.treefication.added_relation.to_notation()
    return payload


def _analyze(schema_text: str, attribute_separator: Optional[str], as_json: bool) -> int:
    analysis = analyze(schema_text, attribute_separator=attribute_separator)
    if as_json:
        _emit_json(_analysis_payload(analysis))
        return 0
    schema = analysis.schema
    tree = analysis.qual_tree
    print(f"schema: {schema}")
    print(f"relations: {len(schema)}, attributes: {len(schema.attributes)}")
    print(f"tree schema (alpha-acyclic): {analysis.is_tree_schema}")
    print(f"gamma-acyclic: {analysis.is_gamma_acyclic}")
    print(f"beta-acyclic: {analysis.is_beta_acyclic}")
    print(f"Berge-acyclic: {analysis.is_berge_acyclic}")
    print(f"GYO residue GR(D): {analysis.gyo_residue().to_notation() or '(empty)'}")
    if tree is not None:
        print(f"qual tree: {tree.to_edge_notation()}")
    else:
        treefied = analysis.treefication
        print(
            "cyclic; smallest treefying relation (Corollary 3.2): "
            f"{treefied.added_relation.to_notation()}"
        )
    return 0


def _canonical_connection(
    schema_text: str,
    target_text: str,
    attribute_separator: Optional[str],
    as_json: bool,
) -> int:
    analysis = analyze(schema_text, attribute_separator=attribute_separator)
    schema = analysis.schema
    target = parse_schema(target_text, attribute_separator=attribute_separator)
    target_relation = target.attributes
    connection = analysis.canonical_connection(target_relation)
    plan = analysis.join_plan(target_relation)
    irrelevant = [schema[index].to_notation() for index in plan.irrelevant_relations]
    if as_json:
        _emit_json(
            {
                "schema": schema.to_notation(),
                "target": target_relation.to_notation(),
                "canonical_connection": connection.to_notation(),
                "irrelevant_relations": irrelevant,
                "relevant_relations": [
                    schema[index].to_notation() for index in plan.relevant_relations
                ],
            }
        )
        return 0
    print(f"D  = {schema}")
    print(f"X  = {target_relation.to_notation()}")
    print(f"CC(D, X) = {connection}")
    print(f"irrelevant relations: {irrelevant or 'none'}")
    return 0


def _lossless(
    schema_text: str,
    subschema_text: str,
    attribute_separator: Optional[str],
    as_json: bool,
) -> int:
    # No structural artifact is needed here, so skip the analysis cache.
    schema = parse_schema(schema_text, attribute_separator=attribute_separator)
    subschema = parse_schema(subschema_text, attribute_separator=attribute_separator)
    implied = jd_implies(schema, subschema)
    if as_json:
        _emit_json(
            {
                "schema": schema.to_notation(),
                "subschema": subschema.to_notation(),
                "lossless": implied,
            }
        )
        return 0 if implied else 1
    print(f"D  = {schema}")
    print(f"D' = {subschema}")
    print(f"⋈D implies that D' has a lossless join: {implied}")
    return 0 if implied else 1


def _tableau(
    schema_text: str,
    target_text: str,
    attribute_separator: Optional[str],
    as_json: bool,
) -> int:
    analysis = analyze(schema_text, attribute_separator=attribute_separator)
    target = parse_schema(target_text, attribute_separator=attribute_separator)
    target_relation = target.attributes
    result = analysis.canonical_connection_result(target_relation)
    minimization = result.minimization
    standard = result.standard
    minimal = minimization.minimal
    if as_json:
        _emit_json(
            {
                "schema": analysis.schema.to_notation(),
                "target": target_relation.to_notation(),
                "columns": list(standard.columns),
                "rows": len(standard),
                "minimal_rows": len(minimal),
                "kept_rows": list(minimization.kept_rows),
                "removed_rows": list(minimization.removed_rows),
                "canonical_connection": result.connection.to_notation(),
            }
        )
        return 0
    print(f"D  = {analysis.schema}")
    print(f"X  = {target_relation.to_notation()}")
    print()
    print(f"standard tableau Tab(D, X) ({len(standard)} rows):")
    print(standard.render())
    print()
    if minimization.removed_count == 0:
        print("already minimal; no rows removed")
    else:
        removed = ", ".join(f"r{index}" for index in minimization.removed_rows)
        print(f"minimization removed {minimization.removed_count} rows ({removed}):")
        print(minimal.render())
    print()
    print(f"CC(D, X) = {result.connection}")
    return 0


def _state_from_file(data_path: str, schema) -> "DatabaseState":
    """Read a database state from a JSON file (or stdin with ``-``).

    The payload is a list with one entry per relation schema, each entry a
    list of rows given as attribute -> value objects (a ``{"relations":
    [...]}`` wrapper is also accepted).
    """
    from .relational import DatabaseState, Relation

    if data_path == "-":
        payload = json.load(sys.stdin)
    else:
        with open(data_path) as handle:
            payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("relations", payload)
    if not isinstance(payload, list) or len(payload) != len(schema):
        raise SystemExit(
            f"--data must hold one rows-list per relation "
            f"({len(schema)} expected)"
        )
    relations = [
        Relation.from_dicts(relation_schema, rows)
        for relation_schema, rows in zip(schema.relations, payload)
    ]
    return DatabaseState(schema, relations)


def _count(count: int, noun: str) -> str:
    return f"{count} {noun}{'' if count == 1 else 's'}"


def _plan_steps(prepared) -> str:
    """``12 semijoins, 1 join, 10 identity joins pruned`` for a tree plan."""
    return (
        f"{_count(len(prepared.semijoin_steps), 'semijoin')}, "
        f"{_count(len(prepared.join_steps), 'join')}, "
        f"{_count(prepared.pruned_join_count, 'identity join')} pruned"
    )


def _query(arguments: "argparse.Namespace", attribute_separator: Optional[str]) -> int:
    """``repro query``: evaluate ``π_X(⋈ D)`` through the engine façade."""
    import time

    from .relational.universal import random_ur_database

    as_json = arguments.json
    catalog = None
    if arguments.catalog is not None or os.environ.get("REPRO_CATALOG_DIR"):
        from .engine.catalog import resolve_catalog

        catalog = resolve_catalog(arguments.catalog)
    analysis = analyze(
        arguments.schema,
        attribute_separator=attribute_separator,
        catalog=catalog,
    )
    schema = analysis.schema
    target = parse_schema(
        arguments.target, attribute_separator=attribute_separator
    ).attributes
    # Cyclic schemas plan through their treefication (engine.cyclic) and
    # serve on the same backends; tree schemas keep the direct Yannakakis
    # plan, which has no prologue to pay.
    cyclic = len(schema) > 0 and analysis.is_cyclic
    if cyclic:
        prepared = analysis.prepare_cyclic(target)
    else:
        prepared = analysis.prepare(target)
    if catalog is not None:
        # Store after preparing, so the record carries the tree projection
        # this invocation just planned (tree schemas store nothing).
        catalog.store(analysis)

    if arguments.data is not None and arguments.random is not None:
        raise SystemExit("--data and --random are mutually exclusive")
    if arguments.data is None and arguments.random is None:
        raise SystemExit("query needs a database state: pass --data FILE or --random N")
    if arguments.data is not None:
        if arguments.states != 1:
            raise SystemExit("--states requires --random (a --data file is one state)")
        states = [_state_from_file(arguments.data, schema)]
    else:
        states = [
            random_ur_database(
                schema,
                tuple_count=arguments.random,
                domain_size=arguments.domain,
                rng=arguments.seed + index,
            )
            for index in range(arguments.states)
        ]

    if arguments.max_inflight is not None and not arguments.stream:
        raise SystemExit("--max-inflight requires --stream")
    if not arguments.stream:
        # The service routes 'auto' adaptively, so every parallel knob is
        # meaningful under --stream; without it they bind to the pool and
        # therefore require an explicit parallel backend.
        if arguments.workers is not None and arguments.backend != "parallel":
            raise SystemExit("--workers requires --backend parallel (or --stream)")
        if arguments.backend != "parallel" and (
            arguments.shard_timeout is not None
            or arguments.retries is not None
            or arguments.failure_policy is not None
        ):
            raise SystemExit(
                "--shard-timeout/--retries/--failure-policy "
                "require --backend parallel (or --stream)"
            )

    stream_info: Optional[Dict[str, Any]] = None
    stream_errors: Dict[int, BaseException] = {}
    if arguments.stream:
        from .engine import QueryService

        start = time.perf_counter()
        first_item_s: Optional[float] = None
        runs: List[Any] = [None] * len(states)
        with QueryService(
            workers=arguments.workers,
            max_inflight_states=arguments.max_inflight,
            shard_timeout=arguments.shard_timeout,
            max_retries=arguments.retries,
            failure_policy=arguments.failure_policy or "raise",
            catalog=catalog,
        ) as service:
            streamed = service.stream(prepared, states, backend=arguments.backend)
            for item in streamed:
                if first_item_s is None:
                    first_item_s = time.perf_counter() - start
                if item.ok:
                    runs[item.index] = item.run
                else:
                    stream_errors[item.index] = item.error
        elapsed = time.perf_counter() - start
        stream_info = {
            "routing": streamed.decision.as_dict(),
            "shard_count": streamed.shard_count,
            "first_item_s": first_item_s,
        }
    else:
        start = time.perf_counter()
        runs = prepared.execute_many(
            states,
            backend=arguments.backend,
            workers=arguments.workers,
            shard_timeout=arguments.shard_timeout,
            max_retries=arguments.retries,
            failure_policy=arguments.failure_policy,
        )
        elapsed = time.perf_counter() - start
    # Under --failure-policy degrade, quarantined input positions come back
    # as None; any surviving run carries the batch's shared stats.
    run = next((r for r in runs if r is not None), None)
    if run is None:
        raise SystemExit("no state could be executed (all quarantined)")
    stats = run.stats
    parallel_stats = None
    if run.backend == "parallel":
        # Gated on the backend so classic/compiled queries never pay the
        # multiprocessing import the engine package defers on purpose.
        from .engine import ParallelStats

        if isinstance(stats, ParallelStats):
            parallel_stats = stats

    if as_json:
        payload: Dict[str, Any] = {
            "schema": schema.to_notation(),
            "target": target.to_notation(),
            "backend": run.backend,
            "states": len(states),
            "elapsed_s": elapsed,
            "semijoin_count": run.semijoin_count,
            "join_count": run.join_count,
            "answer_rows": [
                None if r is None else len(r.result) for r in runs
            ],
            "max_intermediate_size": max(
                r.max_intermediate_size for r in runs if r is not None
            ),
            "result": run.result.to_dicts() if len(states) == 1 else None,
            "cyclic": cyclic,
        }
        if cyclic:
            choice = prepared.projection_choice
            payload["tree_projection"] = prepared.tree_projection.to_notation()
            payload["treefication_width"] = prepared.treefication_width
            payload["projection_method"] = choice.method
            payload["projection_minimal"] = choice.minimal
            payload["guard_semijoins"] = prepared.guard_semijoins
        if catalog is not None:
            payload["catalog_stats"] = catalog.stats.as_dict()
        if stream_info is not None:
            payload["stream"] = dict(stream_info)
            if stream_errors:
                payload["stream"]["errors"] = {
                    str(index): f"{type(error).__name__}: {error}"
                    for index, error in sorted(stream_errors.items())
                }
        if stats is not None:
            payload["compiled_stats"] = {
                "states_executed": stats.states,
                "states_deduped": stats.deduped_states,
                "slots_encoded": stats.encoded_slots,
                "slots_from_cache": stats.cached_slots,
                "keyset_builds": stats.total_keyset_builds(),
                "bucket_builds": stats.total_bucket_builds(),
                "interner_resets": stats.interner_resets,
            }
        if parallel_stats is not None:
            payload["parallel_stats"] = {
                "workers": parallel_stats.workers,
                "shard_count": parallel_stats.shard_count,
                "shard_sizes": parallel_stats.shard_sizes,
                "plan_compiles": parallel_stats.plan_compiles,
                "routed_in_process": parallel_stats.routed_in_process,
                "per_worker": {
                    str(pid): dict(info)
                    for pid, info in parallel_stats.per_worker.items()
                },
                "failure_stats": {
                    "failure_policy": parallel_stats.failure_policy,
                    "retries": parallel_stats.retries,
                    "respawns": parallel_stats.respawns,
                    "timeouts": parallel_stats.timeouts,
                    "bisections": parallel_stats.bisections,
                    "fallback_runs": parallel_stats.fallback_runs,
                    "quarantined": parallel_stats.quarantined,
                    "worker_crashes": {
                        str(pid): count
                        for pid, count in parallel_stats.worker_crashes.items()
                    },
                },
            }
        _emit_json(payload)
        return 0

    print(f"D  = {schema}")
    print(f"X  = {target.to_notation()}")
    if cyclic:
        choice = prepared.projection_choice
        minimal = ", minimal" if choice.minimal else ""
        print(
            f"plan: cyclic via tree projection "
            f"{prepared.tree_projection.to_notation()} "
            f"(width {prepared.treefication_width}, {choice.method}{minimal}); "
            f"{prepared.prologue_joins} node joins + "
            f"{prepared.guard_semijoins} guard semijoins, then "
            f"{_plan_steps(prepared.inner)} (root N{prepared.root})"
        )
    else:
        print(f"plan: {_plan_steps(prepared)} (root R{prepared.root})")
    print(f"backend: {run.backend}; {len(states)} state(s) in {elapsed * 1e3:.2f} ms")
    if catalog is not None:
        cstats = catalog.stats
        mode = " (degraded: in-memory only)" if cstats.disabled else ""
        print(
            f"catalog: {cstats.hits} hit(s), {cstats.misses} miss(es), "
            f"{cstats.stores} store(s), {cstats.quarantined} quarantined, "
            f"{cstats.degraded} degraded op(s){mode}"
        )
    if stream_info is not None:
        routing = stream_info["routing"]
        first = stream_info["first_item_s"]
        first_text = "no items" if first is None else (
            f"first result after {first * 1e3:.2f} ms"
        )
        print(
            f"stream: routed {routing['backend']} ({routing['rule']}), "
            f"{stream_info['shard_count']} shard(s), {first_text}"
        )
        if stream_errors:
            positions = ", ".join(str(index) for index in sorted(stream_errors))
            print(f"stream errors at positions: {positions}")
    if stats is not None and len(states) > 1:
        print(
            f"batch: {stats.states} executed, {stats.deduped_states} deduped, "
            f"{stats.cached_slots} slot encodings reused"
        )
    if parallel_stats is not None:
        sizes = ", ".join(str(size) for size in parallel_stats.shard_sizes)
        print(
            f"parallel: {parallel_stats.workers} workers, "
            f"{parallel_stats.shard_count} shards [{sizes}], "
            f"{parallel_stats.plan_compiles} plan compile(s) across "
            f"{len(parallel_stats.per_worker)} worker(s)"
        )
        recovered = (
            parallel_stats.retries
            + parallel_stats.respawns
            + parallel_stats.fallback_runs
            + len(parallel_stats.quarantined)
        )
        if recovered:
            print(
                f"recovery: {parallel_stats.retries} retries, "
                f"{parallel_stats.respawns} pool respawns, "
                f"{parallel_stats.timeouts} timeouts, "
                f"{parallel_stats.bisections} bisections, "
                f"{parallel_stats.fallback_runs} in-process fallbacks, "
                f"quarantined positions: {parallel_stats.quarantined or 'none'}"
            )
    if len(states) == 1:
        print(f"answer ({len(run.result)} rows):")
        print(run.result.render(max_rows=arguments.max_rows))
    else:
        sizes = ", ".join(
            "-" if r is None else str(len(r.result)) for r in runs[:10]
        )
        more = "..." if len(runs) > 10 else ""
        print(f"answer sizes: [{sizes}{more}]")
    return 0


def _catalog(arguments: "argparse.Namespace") -> int:
    """``repro catalog {ls,verify,gc}``: catalog inspection and maintenance."""
    from .engine.catalog import PlanCatalog

    as_json = arguments.json
    try:
        catalog = PlanCatalog(arguments.directory, create=False)
    except Exception as error:
        raise SystemExit(str(error))

    if arguments.action == "ls":
        infos = catalog.records()
        if as_json:
            _emit_json(
                {
                    "directory": catalog.directory,
                    "records": [
                        {
                            "name": info.name,
                            "ok": info.ok,
                            "schema": info.schema,
                            "choices": info.choices,
                            "size": info.size,
                            "error": info.error,
                        }
                        for info in infos
                    ],
                }
            )
            return 0
        if not infos:
            print(f"{catalog.directory}: no records")
            return 0
        for info in infos:
            if info.ok:
                print(
                    f"{info.name}  {info.schema}  "
                    f"{info.choices} projection choice(s), {info.size} bytes"
                )
            else:
                print(f"{info.name}  CORRUPT: {info.error}")
        return 0

    if arguments.action == "verify":
        report = catalog.verify()
        if as_json:
            _emit_json({"directory": catalog.directory, **report})
        else:
            print(
                f"{catalog.directory}: {report['checked']} record(s) checked, "
                f"{report['ok']} ok, {len(report['quarantined'])} quarantined"
            )
            for name in report["quarantined"]:
                print(f"  quarantined: {name} -> {name}.corrupt")
        return 0 if not report["quarantined"] else 1

    if arguments.action == "gc":
        report = catalog.gc(keep=arguments.keep)
        if as_json:
            _emit_json({"directory": catalog.directory, **report})
        else:
            print(
                f"{catalog.directory}: removed "
                f"{report['removed_corrupt']} quarantined, "
                f"{report['removed_temp']} temp file(s), "
                f"{report['removed_records']} pruned record(s)"
            )
        return 0

    raise SystemExit(f"unknown catalog action {arguments.action!r}")


def _treefy(schema_text: str, attribute_separator: Optional[str], as_json: bool) -> int:
    analysis = analyze(schema_text, attribute_separator=attribute_separator)
    result = analysis.treefication
    if as_json:
        _emit_json(
            {
                "schema": analysis.schema.to_notation(),
                "already_tree": result.was_already_tree,
                "added_relation": (
                    None
                    if result.was_already_tree
                    else result.added_relation.to_notation()
                ),
                "treefied": result.treefied.to_notation(),
            }
        )
        return 0
    print(f"D = {analysis.schema}")
    if result.was_already_tree:
        print("already a tree schema; nothing to add")
    else:
        print(f"add U(GR(D)) = {result.added_relation.to_notation()}")
        print(f"treefied schema: {result.treefied}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    separator = arguments.attribute_separator
    as_json = getattr(arguments, "json", False)
    if arguments.command == "analyze":
        return _analyze(arguments.schema, separator, as_json)
    if arguments.command == "cc":
        return _canonical_connection(
            arguments.schema, arguments.target, separator, as_json
        )
    if arguments.command == "lossless":
        return _lossless(arguments.schema, arguments.subschema, separator, as_json)
    if arguments.command == "treefy":
        return _treefy(arguments.schema, separator, as_json)
    if arguments.command == "tableau":
        return _tableau(arguments.schema, arguments.target, separator, as_json)
    if arguments.command == "query":
        return _query(arguments, separator)
    if arguments.command == "catalog":
        return _catalog(arguments)
    parser.error(f"unknown command {arguments.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
