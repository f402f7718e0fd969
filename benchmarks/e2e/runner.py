"""Run one benchmark workload in this process.

``run.py`` starts this script for every measurement, so each workload runs
in a fresh interpreter::

    python benchmarks/e2e/runner.py --workload serve-small --seed 1 \\
        --seconds 20 --mode run --workdir DIR

It prints ``ready`` and a host-speed probe on standard output once set-up
is done (the parent times set-up up to that line), then one JSON object
with the results.
``--mode setup`` stops after set-up; ``--mode trace`` sends the same
requests through a decomposed sequence of public calls, each timed as a
span (see ``tracing.py``), and adds the per-layer numbers.

The engine is driven only through public entry points: ``analyze``,
``prepare``/``prepare_cyclic``, ``execute_many``, ``QueryService.submit``
and ``PlanCatalog``.  Answers are checked after the timed window, from
regenerated inputs, so neither the oracles' time nor their memory enters a
metric.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import queue
import random
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Dict, List, Optional

import workloads as W
from hostspeed import host_slowdown, probe_host
from tracing import REQUEST, Summary, Tracer

from repro import analyze, clear_analysis_cache
from repro.engine import analysis_cache_size
from repro.engine.prepared import resolve_backend_for
from repro.relational import Relation
from repro.relational.compiled import ExecutionStats
from repro.relational.yannakakis import naive_join_project

#: Every tenth request (by index) has its answers checked.
CHECK_EVERY = 10

#: The open loop probes the host while it waits to send, only when the
#: service is idle (nothing admitted, no heavy batch in flight) and the send
#: is at least this far off.  On this two-CPU guest the slow state looks like
#: contention on the other hardware thread, so a probe taken while the
#: service's own threads or pool workers run would read the service itself.
IDLE_PROBE_LEAD_S = 0.002

perf_counter = time.perf_counter


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile, linear between closest ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def scaled_stats(samples: List[tuple]) -> dict:
    """Latency and throughput of ``(wall seconds, host slowdown, ...)``
    samples, each scaled to the reference host speed, plus the same
    statistics in plain wall-clock time."""
    scaled_ms = [sample[0] / sample[1] * 1e3 for sample in samples]
    wall_ms = [sample[0] * 1e3 for sample in samples]
    return {
        "latency_p50_ms": percentile(scaled_ms, 50),
        "latency_p90_ms": percentile(scaled_ms, 90),
        "latency_p99_ms": percentile(scaled_ms, 99),
        "samples": len(scaled_ms),
        "throughput_rps": ratio(1e3 * len(scaled_ms), sum(scaled_ms)),
        "host_slowdown": percentile([sample[1] for sample in samples], 50),
        "wall_clock": {
            "latency_p50_ms": percentile(wall_ms, 50),
            "latency_p90_ms": percentile(wall_ms, 90),
            "throughput_rps": ratio(1e3 * len(wall_ms), sum(wall_ms)),
        },
    }


def fingerprint(relation: Relation) -> List[int]:
    """A compact stand-in for an answer, compared against the oracle's."""
    return [len(relation), hash(relation)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_subclass(base: type, tracer: Tracer, spans: Dict[str, str]) -> type:
    """A subclass of ``base`` whose methods named in ``spans`` run inside a
    span of the given name; passed to the engine through its existing
    ``catalog=`` and ``routing=`` parameters."""

    def wrap(method, span: str):
        def traced(self, *args, **kwargs):
            with tracer.span(span):
                return method(self, *args, **kwargs)

        return traced

    namespace = {name: wrap(getattr(base, name), span) for name, span in spans.items()}
    return type(f"Traced{base.__name__}", (base,), namespace)


class Kernels:
    """Counters of the execution layers, folded from ``ExecutionStats``."""

    def __init__(self) -> None:
        self.compiled = ExecutionStats()
        self.batches: Dict[str, int] = {}
        self.intermediate = 0
        self.answer_rows = 0

    def note(self, backend: str, runs, stats: Optional[ExecutionStats]) -> None:
        self.batches[backend] = self.batches.get(backend, 0) + 1
        if backend == "compiled" and stats is not None:
            self.compiled.absorb(stats)
        for run in runs:
            self.intermediate += run.max_intermediate_size
            self.answer_rows += len(run.result)


class Workload:
    """Shared machinery: planning, the closed request loop, deferred checks."""

    name = ""
    warmup = 0

    def __init__(self, args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
        self.seed = args.seed
        self.rng = random.Random(args.seed)
        self.tracer = tracer
        self.workdir = args.workdir
        self.plant = args.plant_wrong
        #: Timed requests: (wall seconds, host slowdown around it, class).
        self.samples: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.checked = 0
        self.gen_s = 0.0
        self.pending: List[tuple] = []
        self.kernels = Kernels()
        self.extra: Dict[str, object] = {}
        #: Prepared queries whose kernel plans were built in this process
        #: lifetime, kept alive so their ids stay unique.
        self.built: Dict[tuple, object] = {}
        #: Traced ``analyze`` calls, those answered by the analysis LRU, and
        #: the widths of the tree projections planned.
        self.analyses = 0
        self.lru_hits = 0
        self.widths: List[int] = []

    # -- failures and checks -------------------------------------------------

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        if self.failed <= 3:
            traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)

    def remember(self, key, relations: List[Relation]) -> None:
        """Keep fingerprints of answers to compare after the window."""
        prints = [fingerprint(relation) for relation in relations]
        if self.plant and not self.pending:
            prints[0][0] += 1
        self.pending.append((key, prints))

    def check(self) -> None:
        for key, prints in self.pending:
            expected = [fingerprint(relation) for relation in self.expected(key)]
            self.checked += 1
            if expected != prints:
                self.wrong += 1
                print(f"{self.name}: wrong answer for request {key!r}", file=sys.stderr)

    def expected(self, key) -> List[Relation]:
        raise NotImplementedError

    # -- planning and execution, untraced or span-timed ------------------------

    def prepare(self, schema, target, catalog=None):
        """What ``repro query`` runs before executing: analyze (consulting
        the catalog), then prepare for a tree or a cyclic schema."""
        tracer = self.tracer
        if tracer is None:
            analysis = analyze(schema, catalog=catalog)
            cyclic = len(schema) > 0 and analysis.is_cyclic
            prepared = analysis.prepare_cyclic(target) if cyclic else analysis.prepare(target)
            return analysis, prepared, cyclic
        cached = analysis_cache_size()
        with tracer.span("analysis.analyze"):
            analysis = analyze(schema, catalog=catalog)
        self.lru_hits += analysis_cache_size() == cached
        self.analyses += 1
        with tracer.span("hypergraph.gyo"):
            analysis.gyo_trace()
        cyclic = len(schema) > 0 and analysis.is_cyclic
        if cyclic:
            with tracer.span("cyclic.tree_projection"):
                analysis.cyclic_projection(target)
            with tracer.span("cyclic.lower"):
                prepared = analysis.prepare_cyclic(target)
            self.widths.append(prepared.treefication_width)
        else:
            with tracer.span("hypergraph.qual_tree"):
                analysis.qual_tree
            with tracer.span("analysis.prepare"):
                prepared = analysis.prepare(target)
        return analysis, prepared, cyclic

    def kernel_plan(self, prepared, kernel: str):
        """The compiled or vectorized plan; its first build is a span."""
        key = (id(prepared), kernel)
        if self.tracer is None or key in self.built:
            return getattr(prepared, kernel)
        with self.tracer.span(f"{kernel}.compile"):
            plan = getattr(prepared, kernel)
        self.built[key] = prepared
        return plan

    def execute_many(self, prepared, states, cyclic: bool = False):
        """``prepared.execute_many(states)``; traced, the same steps as
        separate calls: route the batch, then encode and execute each
        unique state (duplicates share one run, as in the batch path)."""
        tracer = self.tracer
        if tracer is None:
            return prepared.execute_many(states)
        with tracer.span("prepared.route"):
            backend = resolve_backend_for("auto", states)
        kernel = "vectorized" if backend == "vectorized" else "compiled"
        plan = self.kernel_plan(prepared, kernel)
        stats = ExecutionStats()
        memo = {}
        runs = []
        for state in states:
            run = memo.get(state)
            if run is None:
                if cyclic:
                    with tracer.span("cyclic.execute"):
                        run = plan.execute_state(state, stats=stats)
                else:
                    with tracer.span(f"{kernel}.encode"):
                        encoded = plan.encode_state(state, stats=stats)
                    with tracer.span(f"{kernel}.execute"):
                        run = plan.execute(encoded, stats=stats)
                memo[state] = run
            else:
                stats.deduped_states += 1
            runs.append(run)
        self.kernels.note(kernel, runs, stats)
        return runs

    # -- the closed loop ------------------------------------------------------

    def make(self, seed: int, index: int):
        raise NotImplementedError

    def serve(self, request):
        raise NotImplementedError

    def before(self, index: int) -> None:
        """Hook run before request ``index`` is generated (untimed)."""

    def tag(self, request) -> str:
        """The request's class, for per-class medians in the report."""
        return ""

    def run(self, seconds: float) -> None:
        """One client, closed loop: generate a request, time it, repeat.

        The run is a fixed number of requests, ``seconds`` times the rate
        the workload sustains at full host speed, so what a run contains
        (first sightings, cache contents, memory) does not depend on how
        fast the host happened to be.  A run that takes twice its seconds
        stops early and says so in the report.
        """
        tracer = self.tracer
        count = max(self.warmup + 1, round(seconds * self.per_second))
        cutoff = perf_counter() + 2 * seconds
        before = probe_host()
        for index in range(count):
            if perf_counter() > cutoff:
                self.extra["truncated_at"] = index
                break
            self.before(index)
            seed = self.rng.getrandbits(63)
            started = perf_counter()
            request = self.make(seed, index)
            tag = self.tag(request)
            begin = perf_counter()
            self.gen_s += begin - started
            self.attempted += 1
            try:
                if tracer is None:
                    outcome = self.serve(request)
                else:
                    with tracer.span(REQUEST, request=index):
                        outcome = self.serve(request)
            except Exception as error:  # a failed request is counted, not fatal
                self.fail(error)
                outcome = None
            elapsed = perf_counter() - begin
            after = probe_host()
            if index >= self.warmup:
                self.samples.append((elapsed, host_slowdown(before, after), tag))
            before = after
            if outcome is not None and index % CHECK_EVERY == 0:
                self.remember((seed, index), outcome)

    # -- results ---------------------------------------------------------------

    def result(self) -> dict:
        return {**scaled_stats(self.samples), "gen_s": self.gen_s, **self.extra}

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics from the trace and the counters."""
        own = self.own_layers()
        summary = Summary(self.tracer.spans)
        compiled = self.kernels.compiled
        semijoins = compiled.identity_semijoins + compiled.filtering_semijoins
        encodes = compiled.encoded_slots + compiled.cached_slots
        executed = compiled.states
        batches = sum(self.kernels.batches.values())
        layers = {
            f"{name}_share": summary.share(name)
            for name in (
                "hypergraph.gyo", "hypergraph.qual_tree", "analysis.analyze",
                "analysis.prepare", "cyclic.tree_projection", "cyclic.lower",
                "cyclic.execute", "catalog.load", "catalog.store", "compiled.compile",
                "compiled.encode", "compiled.execute", "vectorized.compile",
                "vectorized.encode", "vectorized.execute", "prepared.route",
                "routing.decide", "service.submit", "service.wait",
            )
        }
        layers.update(
            {
                "hypergraph.gyo_ms": summary.mean_self("hypergraph.gyo") * 1e3,
                "hypergraph.qual_tree_ms": summary.mean_self("hypergraph.qual_tree") * 1e3,
                "analysis.analyze_ms": summary.mean_self("analysis.analyze") * 1e3,
                "analysis.prepare_ms": summary.mean_self("analysis.prepare") * 1e3,
                "compiled.compile_ms": summary.mean_self("compiled.compile") * 1e3,
                "compiled.encode_us_per_state": summary.mean_self("compiled.encode") * 1e6,
                "compiled.execute_us_per_state": summary.mean_self("compiled.execute") * 1e6,
                "prepared.route_us": summary.mean_self("prepared.route") * 1e6,
                "analysis.lru_hit_rate": ratio(self.lru_hits, self.analyses),
                "cyclic.projection_width": statistics.mean(self.widths) if self.widths else 0.0,
                "compiled.keyset_builds_per_state": ratio(compiled.total_keyset_builds(), executed),
                "compiled.identity_semijoin_share": ratio(compiled.identity_semijoins, semijoins),
                "compiled.encode_cache_hit_rate": ratio(compiled.cached_slots, encodes),
                "compiled.dedupe_rate": ratio(
                    compiled.deduped_states, executed + compiled.deduped_states
                ),
                "relational.intermediate_per_output": ratio(
                    self.kernels.intermediate, self.kernels.answer_rows
                ),
                "prepared.vectorized_batch_share": ratio(
                    self.kernels.batches.get("vectorized", 0), batches
                ),
                "trace.coverage": summary.coverage(),
            }
        )
        interned = {"compiled": 0, "vectorized": 0}
        promotions = 0
        for (_, kernel), prepared in self.built.items():
            # A cyclic query's kernel plan is its inner tree query's.
            plan = getattr(getattr(prepared, "inner", prepared), kernel)
            interned[kernel] += plan.interned_value_count()
            promotions += getattr(plan, "mode_promotions", 0)
        layers["compiled.interned_values"] = interned["compiled"]
        layers["vectorized.interned_values"] = interned["vectorized"]
        layers["vectorized.mode_promotions"] = promotions
        for name in (
            "catalog.hit_rate", "catalog.store_skip_rate", "catalog.record_bytes",
            "routing.parallel_share", "routing.regret_ratio", "service.admission_waits",
            "parallel.shards_per_batch", "parallel.retries", "parallel.respawns",
        ):
            layers[name] = own.get(name, 0.0)
        return layers

    def own_layers(self) -> Dict[str, float]:
        """Metrics of layers only this workload reaches (the rest read 0).

        Runs before the trace is summarized, so traced work done here counts.
        """
        return {}

    def close(self) -> None:
        """Release what set-up acquired."""


class ServeSmall(Workload):
    """Plan once, execute many: 16 fresh small states per batch."""

    name = "serve-small"
    warmup = 10
    per_second = 120

    def setup(self) -> None:
        self.schema, target = W.serve_small_query()
        _, self.prepared, _ = self.prepare(self.schema, target)
        self.kernel_plan(self.prepared, "compiled")

    def make(self, seed: int, index: int):
        return W.serve_small_batch(self.schema, random.Random(seed))

    def serve(self, states):
        return [run.result for run in self.execute_many(self.prepared, states)]

    def expected(self, key):
        seed, index = key
        return [
            self.prepared.execute(state, backend="classic").result
            for state in self.make(seed, index)
        ]


class ServeLarge(Workload):
    """Four analytic shapes served round-robin, one batch each."""

    name = "serve-large"
    warmup = 4
    per_second = 20

    def setup(self) -> None:
        self.shapes = W.serve_large_shapes()
        self.prepared = []
        for shape in self.shapes:
            _, prepared, _ = self.prepare(shape.schema, shape.target)
            self.kernel_plan(prepared, "compiled")
            self.kernel_plan(prepared, "vectorized")
            self.prepared.append(prepared)

    def make(self, seed: int, index: int):
        shape = index % len(self.shapes)
        return shape, self.shapes[shape].batch(random.Random(seed))

    def tag(self, request) -> str:
        return self.shapes[request[0]].name

    def serve(self, request):
        shape, states = request
        runs = self.execute_many(self.prepared[shape], states)
        # The classic oracle runs 10-40x slower than the array kernel on
        # these shapes, so only the first state of a sampled batch is checked.
        return [runs[0].result]

    def expected(self, key):
        seed, index = key
        shape, states = self.make(seed, index)
        return [self.prepared[shape].execute(states[0], backend="classic").result]

    def result(self) -> dict:
        by_shape = {}
        for shape in self.shapes:
            samples = [sample for sample in self.samples if sample[2] == shape.name]
            by_shape[shape.name] = scaled_stats(samples)["latency_p50_ms"]
        self.extra["p50_ms_by_shape"] = by_shape
        return super().result()


class AdhocPlan(Workload):
    """Ad hoc queries through the ``repro query --catalog`` path."""

    name = "adhoc-plan"
    per_second = 80

    def setup(self) -> None:
        self.templates = W.adhoc_templates()
        self.directory = os.path.join(self.workdir, "catalog")
        shutil.rmtree(self.directory, ignore_errors=True)
        self.catalog = self.open_catalog()
        #: Stats of the catalogs of earlier simulated process lifetimes.
        self.retired_stats: List[object] = []

    def open_catalog(self):
        from repro.engine import PlanCatalog

        if self.tracer is None:
            return PlanCatalog(self.directory)
        spans = {"load": "catalog.load", "store": "catalog.store"}
        return traced_subclass(PlanCatalog, self.tracer, spans)(self.directory)

    def before(self, index: int) -> None:
        if index and index % W.ADHOC["restart_every"] == 0:
            # A process restart: in-memory analyses and compiled plans are
            # gone, the catalog directory stays.
            self.retired_stats.append(self.catalog.stats)
            clear_analysis_cache()
            self.built.clear()
            self.catalog = self.open_catalog()

    def make(self, seed: int, index: int):
        template = W.adhoc_template(self.templates, seed)
        states = [W.adhoc_state(template, seed, slot) for slot in range(W.ADHOC["states"])]
        # One state per query is checked against the naive oracle.
        return template, states, index % len(states)

    def serve(self, request):
        template, states, checked = request
        analysis, prepared, cyclic = self.prepare(template.schema, template.target, self.catalog)
        self.catalog.store(analysis)
        runs = self.execute_many(prepared, states, cyclic)
        return [runs[checked].result]

    def expected(self, key):
        seed, index = key
        template = W.adhoc_template(self.templates, seed)
        state = W.adhoc_state(template, seed, index % W.ADHOC["states"])
        return [naive_join_project(template.schema, template.target, state)[0]]

    def catalog_counters(self) -> Dict[str, float]:
        totals = {"hits": 0, "misses": 0, "stores": 0, "store_skips": 0}
        for stats in self.retired_stats + [self.catalog.stats]:
            for key in totals:
                totals[key] += getattr(stats, key)
        return totals

    def result(self) -> dict:
        self.extra["catalog"] = self.catalog_counters()
        return super().result()

    def own_layers(self) -> Dict[str, float]:
        counters = self.catalog_counters()
        sizes = [
            entry.stat().st_size
            for entry in os.scandir(self.directory)
            if entry.name.endswith(".plan")
        ]
        return {
            "catalog.hit_rate": ratio(counters["hits"], counters["hits"] + counters["misses"]),
            "catalog.store_skip_rate": ratio(
                counters["store_skips"], counters["stores"] + counters["store_skips"]
            ),
            "catalog.record_bytes": statistics.mean(sizes) if sizes else 0.0,
        }

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


class _Sent:
    """One open-loop request in flight."""

    __slots__ = ("arrival", "rung", "index", "due", "sent", "returned", "done", "handle",
                 "root", "runs")

    def __init__(self, arrival, rung: int, index: int, due: float) -> None:
        self.arrival = arrival
        self.rung = rung
        self.index = index
        self.due = due
        self.sent = self.returned = self.done = 0.0
        self.handle = None
        self.root = None
        self.runs = None


class ServiceMixed(Workload):
    """An open loop of thin and heavy requests into one ``QueryService``."""

    name = "service-mixed"
    #: (requests per second, share of the run's seconds); the middle rung
    #: is the reference the gated metrics are read from.
    RUNGS = ((30, 0.05), (60, 0.85), (120, 0.1))
    REFERENCE = 1
    #: A rung meets the latency limit when thin p90 stays within this.
    LIMIT_MS = 50.0

    def setup(self) -> None:
        from repro.engine import QueryService, RoutingPolicy

        self.schema, target = W.service_query()
        _, self.prepared, _ = self.prepare(self.schema, target)
        self.kernel_plan(self.prepared, "compiled")
        self.workers = min(2, os.cpu_count() or 1)
        if self.tracer is None:
            self.policy = RoutingPolicy()
        else:
            self.policy = traced_subclass(
                RoutingPolicy, self.tracer, {"decide": "routing.decide"}
            )()
        self.service = QueryService(
            workers=self.workers, max_inflight_states=512, routing=self.policy
        )
        self.pool = W.service_pool(self.schema, random.Random(self.seed))
        # Spawn the pinned pool (routing charges a cold pool its spawn cost,
        # which no heavy batch here outweighs) and let a routed batch past
        # the small-batch gate (32 unique states) calibrate the cost probe,
        # so the load phase measures neither.
        warm = W.service_heavy(self.schema, random.Random(self.seed + 1))
        self.service.submit(self.prepared, warm[:4], backend="parallel").result()
        self.service.submit(self.prepared, warm[4:36]).result()
        self.sent: List[_Sent] = []
        #: (time, host probe) pairs, taken while the service was idle.
        self.probes: List[tuple] = []

    def states_for(self, arrival) -> list:
        rng = random.Random(arrival.seed)
        if arrival.heavy:
            return W.service_heavy(self.schema, rng)
        return [self.pool[rng.randrange(len(self.pool))] for _ in range(W.SERVICE["thin_states"])]

    def run(self, seconds: float) -> None:
        for rung, (rate, share) in enumerate(self.RUNGS):
            self.run_rung(rung, rate, seconds * share)

    def run_rung(self, rung: int, rate: float, seconds: float) -> None:
        """Send on schedule from this thread; thin replies are collected on
        a second thread, heavy ones here while waiting for the next send,
        so no reply waits behind a slower one."""
        arrivals = W.service_schedule(self.rng, rate, seconds)
        # Heavy batches are built before the rung: built just in time, their
        # ~10 ms of generation would hold the GIL inside the open loop and
        # stall the service's own threads.
        started = perf_counter()
        prebuilt = {
            position: self.states_for(arrival)
            for position, arrival in enumerate(arrivals)
            if arrival.heavy
        }
        self.gen_s += perf_counter() - started
        thin: "queue.Queue[Optional[_Sent]]" = queue.Queue()
        collector = threading.Thread(target=self.collect, args=(thin,))
        collector.start()
        heavy: deque = deque()
        start = perf_counter()
        for position, arrival in enumerate(arrivals):
            states = prebuilt.pop(position) if arrival.heavy else self.states_for(arrival)
            record = _Sent(arrival, rung, len(self.sent), start + arrival.due)
            # One host probe per gap, at its midpoint (the previous request
            # is normally done by then), and only while the service is idle.
            probe_at = (perf_counter() + record.due) / 2
            probed = False
            while True:
                now = perf_counter()
                remaining = record.due - now
                if remaining <= 0:
                    break
                if heavy:
                    try:
                        heavy[0].handle.exception(timeout=remaining)
                    except FutureTimeout:
                        continue
                    self.finish(heavy.popleft())
                elif probed or remaining < IDLE_PROBE_LEAD_S:
                    time.sleep(remaining)
                elif now < probe_at:
                    time.sleep(probe_at - now)
                else:
                    if not self.service.inflight[0]:
                        self.probes.append((perf_counter(), probe_host()))
                    probed = True
            self.submit(record, states)
            if record.handle is not None:
                if arrival.heavy:
                    heavy.append(record)
                else:
                    thin.put(record)
        while heavy:
            heavy[0].handle.exception()
            self.finish(heavy.popleft())
        thin.put(None)
        collector.join()

    def submit(self, record: _Sent, states: list) -> None:
        tracer = self.tracer
        self.attempted += 1
        record.sent = perf_counter()
        try:
            if tracer is None:
                record.handle = self.service.submit(self.prepared, states)
            else:
                record.root = tracer.open(REQUEST, record.due, request=record.index)
                with tracer.within(record.root, record.index):
                    with tracer.span("service.submit"):
                        record.handle = self.service.submit(self.prepared, states)
        except Exception as error:  # a refused request is counted, not fatal
            self.fail(error)
        record.returned = perf_counter()
        self.sent.append(record)

    def collect(self, thin: "queue.Queue[Optional[_Sent]]") -> None:
        while True:
            record = thin.get()
            if record is None:
                return
            record.handle.exception()
            self.finish(record)

    def slowdown(self, times: List[float], record: _Sent) -> float:
        """Host slowdown from the idle probes taken from just before a
        request was due to just after its reply (``times``: their times)."""
        first = max(0, bisect.bisect_left(times, record.due) - 1)
        last = bisect.bisect_right(times, record.done) + 1
        window = [probe for _, probe in self.probes[first:last]]
        return host_slowdown(*window) if window else 1.0

    def finish(self, record: _Sent) -> None:
        record.done = perf_counter()
        try:
            record.runs = record.handle.result()
        except Exception as error:  # a failed request is counted, not fatal
            self.fail(error)
        if self.tracer is not None:
            self.tracer.record(
                "service.wait", record.returned, record.done, parent=record.root,
                request=record.index,
            )
            self.tracer.close(record.root, record.done)

    def check(self) -> None:
        for record in self.sent:
            if record.runs is None or record.index % CHECK_EVERY:
                continue
            states = self.states_for(record.arrival)
            prints = [fingerprint(run.result) for run in record.runs]
            if self.plant and self.checked == 0:
                prints[0][0] += 1
            expected = [
                fingerprint(self.prepared.execute(state, backend="classic").result)
                for state in states
            ]
            self.checked += 1
            if prints != expected:
                self.wrong += 1
                print(f"{self.name}: wrong answer for request {record.index}", file=sys.stderr)

    def rung_stats(self, rung: int) -> dict:
        """Latency is timed from each request's scheduled send time."""
        records = [r for r in self.sent if r.rung == rung and r.runs is not None]
        times = [probe[0] for probe in self.probes]
        thin = [
            (r.done - r.due, self.slowdown(times, r)) for r in records if not r.arrival.heavy
        ]
        heavy = [(r.done - r.due, self.slowdown(times, r)) for r in records if r.arrival.heavy]
        stats = scaled_stats(thin)
        every = [sample[0] for sample in thin]
        quarter = max(1, len(every) // 4)
        growing = percentile(every[-quarter:], 50) > 2 * percentile(every[:quarter], 50) + 0.01
        # From the first scheduled send to the last reply: a service that
        # falls behind the offered rate stretches it.
        elapsed = max((r.done for r in records), default=0.0) - min(
            (r.due for r in records), default=0.0
        )
        return {
            "rate_rps": self.RUNGS[rung][0],
            "thin_p50_ms": stats["latency_p50_ms"],
            "thin_p90_ms": stats["latency_p90_ms"],
            "thin_p99_ms": stats["latency_p99_ms"],
            "thin_samples": stats["samples"],
            "host_slowdown": stats["host_slowdown"],
            "thin_wall_clock": stats["wall_clock"],
            "heavy_p50_ms": scaled_stats(heavy)["latency_p50_ms"],
            "heavy_samples": len(heavy),
            "gen_lag_p99_ms": percentile([(r.sent - r.due) * 1e3 for r in records], 99),
            "backlog_growing": growing,
            "throughput_rps": ratio(len(records), elapsed),
        }

    def result(self) -> dict:
        rungs = [self.rung_stats(rung) for rung in range(len(self.RUNGS))]
        reference = rungs[self.REFERENCE]
        meeting = [
            r["rate_rps"] for r in rungs
            if r["thin_p90_ms"] <= self.LIMIT_MS and not r["backlog_growing"]
        ]
        return {
            "latency_p50_ms": reference["thin_p50_ms"],
            "latency_p90_ms": reference["thin_p90_ms"],
            "latency_p99_ms": reference["thin_p99_ms"],
            "samples": reference["thin_samples"],
            "host_slowdown": reference["host_slowdown"],
            "wall_clock": reference["thin_wall_clock"],
            "throughput_rps": reference["throughput_rps"],
            "heavy_latency_p50_ms": reference["heavy_p50_ms"],
            "max_rate_rps": max(meeting, default=0),
            "gen_lag_p99_ms": reference["gen_lag_p99_ms"],
            "rungs": rungs,
            "routing_rules": dict(self.service.stats.rules),
            "gen_s": self.gen_s,
        }

    def regret(self) -> float:
        """Chosen backend time over the fastest backend's, on fresh heavy
        batches timed after the load phase (median of three)."""
        ratios = []
        for offset in range(3):
            states = W.service_heavy(self.schema, random.Random(self.seed + 100 + offset))
            decision = self.policy.decide(
                self.prepared, states, workers=self.workers, pool_live=True
            )
            started = perf_counter()
            self.execute_many(self.prepared, states)
            compiled = perf_counter() - started
            started = perf_counter()
            self.service.execute_many(self.prepared, states, backend="parallel")
            parallel = perf_counter() - started
            chosen = parallel if decision.backend == "parallel" else compiled
            ratios.append(chosen / min(compiled, parallel))
        return statistics.median(ratios)

    def own_layers(self) -> Dict[str, float]:
        reference = [r for r in self.sent if r.rung == self.REFERENCE and r.runs]
        for record in reference:
            self.kernels.note(record.runs[0].backend, record.runs, record.runs[0].stats)
        parallel = [r.runs[0].stats for r in reference if r.runs[0].backend == "parallel"]
        return {
            "routing.parallel_share": ratio(len(parallel), len(reference)),
            "routing.regret_ratio": self.regret(),
            "service.admission_waits": self.service.stats.admission_waits,
            "parallel.shards_per_batch": (
                statistics.mean(stats.shard_count for stats in parallel) if parallel else 0.0
            ),
            "parallel.retries": sum(stats.retries for stats in parallel),
            "parallel.respawns": sum(stats.respawns for stats in parallel),
        }

    def close(self) -> None:
        self.service.close()


WORKLOADS = {cls.name: cls for cls in (ServeSmall, ServeLarge, AdhocPlan, ServiceMixed)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--workdir", required=True, help="scratch directory of this run")
    parser.add_argument("--spans", help="write the trace's spans here (JSON lines)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke check")
    parser.add_argument(
        "--plant-wrong", action="store_true",
        help="corrupt one checked answer, to prove the checks catch it",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        W.use_smoke_sizes()
    tracer = Tracer() if args.mode == "trace" else None
    workload = WORKLOADS[args.workload](args, tracer)
    workload.setup()
    try:
        # The host's speed at the end of set-up, for the parent to scale
        # the set-up time by (it probes once more just before the start).
        print(f"ready {probe_host()!r}", flush=True)
        if args.mode == "setup":
            print(json.dumps({"workload": workload.name, "mode": "setup"}))
            return 0
        workload.run(args.seconds)
        rss = peak_rss_mb()
        workload.check()
        result = {
            "workload": workload.name,
            "mode": args.mode,
            "attempted": workload.attempted,
            "failed": workload.failed + workload.wrong,
            "wrong": workload.wrong,
            "checked": workload.checked,
            "peak_rss_mb": rss,
            **workload.result(),
        }
        if tracer is not None:
            result["layers"] = workload.layers()
            if args.spans:
                tracer.write(args.spans)
        print(json.dumps(result))
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
