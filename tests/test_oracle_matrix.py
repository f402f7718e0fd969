"""The differential oracle matrix: every entry point on every serial backend
answers ``naive_join_project``, and every plan satisfies the paper.

Each test is one cell — an entry point, a backend and a schema family of
the shared generators in ``tests/strategies.py`` — and
``test_pinned_examples`` runs every cell on hand-built instances (:data:`PINNED`)
that a few random draws would rarely produce:

* entry points — ``execute`` and ``execute_many`` of the ``prepare`` plan
  (tree schemas) or the ``prepare_cyclic`` plan (cyclic schemas), the
  ``yannakakis()`` wrapper (tree schemas), ``QueryService.submit`` and
  ``.stream``, and ``repro query --json`` through ``cli.main``;
* backends — ``classic``, ``compiled``, ``vectorized``, ``auto``, and
  ``numpy-blocked``: ``vectorized`` requested while the array kernel's
  numpy is unavailable, so it resolves to ``compiled``.  Every drawn state
  is far below ``VECTORIZED_MIN_STATE_ROWS``, so ``auto`` must run
  ``compiled`` there; only the pinned ``large`` instance takes its array
  branch.

**The comparison rule** is the one ``docs/api.md`` states ("What each
kernel's answer holds"), applied by the backend that ran
(``run.backend``): equal to ``π_X(⋈ D)`` by value, and for ``classic`` and
``compiled`` made of the state's own values, types included.  Every run's
semijoin and join counts and largest intermediate equal those of the
classic run of the same plan, whose counts are the plan's own steps.

**The paper's invariants**, asserted on every example:

* the full reducer leaves each relation of a tree-schema state equal to
  ``π_R(⋈ D)`` (global consistency), and the classic run's largest
  intermediate stays within the naive join's;
* every tree plan, and the inner plan of every cyclic one, passes
  :func:`assert_pruned_plan`;
* every chosen tree projection passes ``is_valid_projection`` and the
  independent :func:`repro.treeproj.is_tree_projection` (a tree schema
  between ``D ∪ {X}`` and ``D ∪ {U}``), and its reported width is its
  widest node;
* every node value the Theorem 6.1 prologue (``CyclicPreparedQuery._derive``)
  builds contains ``π_node(⋈ D)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from collections import defaultdict
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.relational.vectorized as vectorized_module
from repro.cli import main as cli_main
from repro.engine import CyclicPreparedQuery, QueryService, analyze, clear_analysis_cache
from repro.engine.cyclic import is_valid_projection
from repro.engine.prepared import VECTORIZED_MIN_STATE_ROWS
from repro.hypergraph import RelationSchema, aclique, aring, chain_schema, parse_schema
from repro.relational import (
    DatabaseState,
    Relation,
    YannakakisRun,
    naive_join_project,
    numpy_available,
    yannakakis,
)
from repro.relational.compiled import _JOIN_GENERAL, _JOIN_SEMI_CHILD, plan_layout
from repro.relational.universal import random_ur_database
from repro.relational.yannakakis import full_reduce, rooted_orientation
from repro.treeproj import is_tree_projection
from strategies import CYCLIC_FAMILIES, TREE_FAMILIES, UNION_SEARCH, Instance, instances

BACKENDS = ("classic", "compiled", "vectorized", "auto", "numpy-blocked")


def assert_pruned_plan(prepared) -> None:
    """The structural invariants of a plan pruned to the canonical
    connection."""
    schema = prepared.schema
    if len(schema) == 0:
        return
    _, parent = rooted_orientation(prepared.tree, root=prepared.root)
    steps = prepared.semijoin_steps
    up = [s for s in steps if parent[s.source] == s.target]
    down = [s for s in steps if parent[s.target] == s.source]
    # Exactly |D|-1 leaf-to-root semijoins, all ahead of the root-to-leaf ones.
    assert len(up) == len(schema) - 1
    assert list(steps) == up + down

    carried = {node: set(schema[node].attributes) for node in range(len(schema))}
    joined = {prepared.root}
    for step in prepared.join_steps:
        assert step.mother == parent[step.node]
        keep = (
            set(step.projection.attributes)
            if step.projection is not None
            else carried[step.node]
        )
        # Every kept join does real work...
        assert not keep <= schema[step.mother].attributes
        carried[step.mother] |= keep
        joined.add(step.node)
    # ...and the kept joins form a subtree containing the root.
    for step in prepared.join_steps:
        assert step.mother in joined
    assert {s.target for s in down} == joined - {prepared.root}
    assert prepared.pruned_join_count == len(schema) - 1 - len(prepared.join_steps)

    # No layout has the mother-semijoin shape (plan_layout rejects it).
    layout = plan_layout(prepared)
    assert all(j.kind in (_JOIN_SEMI_CHILD, _JOIN_GENERAL) for j in layout.joins)


# -- the oracle and the invariants ---------------------------------------------


def _oracle(plan, instance: Instance):
    """Per state, ``π_X(⋈ D)`` from ``naive_join_project`` and the plan's
    classic run, with the paper's invariants checked against the same
    ``⋈ D`` on the way."""
    schema, target = instance.schema, instance.target
    universe = RelationSchema(schema.attributes)
    cyclic = isinstance(plan, CyclicPreparedQuery)
    if cyclic:
        projection = plan.tree_projection
        assert is_valid_projection(projection, schema.add_relation(target))
        assert is_tree_projection(
            projection, schema.add_relation(universe), schema.add_relation(target)
        )
        assert plan.treefication_width == max(len(node) for node in projection.relations)
        if instance.family == "union-search":
            assert plan.projection_method == "tp-union-search"
        inner = plan.inner
        assert_pruned_plan(inner)
        counts = (
            len(inner.semijoin_steps) + plan.guard_semijoins,
            len(inner.join_steps) + plan.prologue_joins,
        )
    else:
        assert_pruned_plan(plan)
        counts = (len(plan.semijoin_steps), len(plan.join_steps))
    answers = {}
    for state in instance.states:
        if id(state) in answers:
            continue
        joined, naive_max = naive_join_project(schema, universe, state)
        classic = plan.execute(state, backend="classic")
        # Every other run is held equal to this one, so this ties every
        # backend's counts to the plan.
        assert (classic.semijoin_count, classic.join_count) == counts
        if cyclic:
            derived, _ = plan._derive(state)
            for node, value in zip(projection.relations, derived.relations):
                assert joined.project(node).rows <= value.rows, node
        else:
            reduced = full_reduce(state, tree=plan.tree, root=plan.root)
            for relation in reduced.relations:
                assert relation == joined.project(relation.schema)
            assert classic.max_intermediate_size <= max(naive_max, state.total_rows(), 1)
        answers[id(state)] = (joined.project(target), classic)
    return [answers[id(state)] for state in instance.states]


def _own_values(state):
    """Attribute -> the ``(type, value)`` cells ``state`` holds under it."""
    cells = defaultdict(set)
    for relation in state.relations:
        for row in relation.rows:
            for attribute, value in zip(relation.columns, row):
                cells[attribute].add((type(value), value))
    return cells


def _kernel(requested, states) -> str:
    """The backend a request must run: ``vectorized`` only with numpy, and
    ``auto`` the array kernel only on states over the size floor (the
    pinned ``large`` instance, whose int cells pass the value check too)."""
    vectorized = "vectorized" if numpy_available() else "compiled"
    if requested == "auto":
        rows = sum(state.total_rows() for state in states) / len(states)
        return vectorized if rows >= VECTORIZED_MIN_STATE_ROWS else "compiled"
    return {"vectorized": vectorized, "numpy-blocked": "compiled"}.get(requested, requested)


def _assert_answers(requested, runs, expected, states) -> None:
    """The comparison rule: a ``vectorized`` answer may hold an equal value
    of another type that the plan interned first, so only classic and
    compiled answers are held to the state's own ``(type, value)`` cells."""
    kernel = _kernel(requested, states)
    assert len(runs) == len(states)
    for run, (answer, classic), state in zip(runs, expected, states):
        assert run.backend == kernel, (requested, run.backend)
        assert run.result == answer
        assert run == classic  # and so are the counts and largest intermediate
        if run.backend != "vectorized":
            own = _own_values(state)
            for row in run.result.rows:
                for attribute, value in zip(run.result.columns, row):
                    assert (type(value), value) in own[attribute], (attribute, value)


# -- the entry points -----------------------------------------------------------


def _execute(plan, instance, backend, service):
    return [plan.execute(state, backend=backend) for state in instance.states]


def _execute_many(plan, instance, backend, service):
    runs = plan.execute_many(instance.states, backend=backend)
    if runs and runs[0].backend != "classic":
        # One shared stats object describes the batch, and a repeated state
        # object is executed once and shares its run.
        stats = runs[0].stats
        assert all(run.stats is stats for run in runs)
        if not isinstance(plan, CyclicPreparedQuery):
            assert stats.states + stats.deduped_states == len(instance.states)
        first = {}
        for state, run in zip(instance.states, runs):
            assert first.setdefault(id(state), run) is run
    return runs


def _yannakakis(plan, instance, backend, service):
    schema, target, root = instance.schema, instance.target, instance.root
    return [yannakakis(schema, target, s, root=root, backend=backend) for s in instance.states]


def _submit(plan, instance, backend, service):
    handle = service.submit(plan, instance.states, backend=backend)
    runs = handle.result(timeout=120)
    assert handle.done()
    return runs


def _stream(plan, instance, backend, service):
    items = list(service.stream(plan, instance.states, backend=backend))
    assert sorted(item.index for item in items) == list(range(len(instance.states)))
    assert all(item.ok for item in items)
    return [item.run for item in sorted(items, key=lambda item: item.index)]


def _cli(plan, instance, backend, service):
    """``repro query --json --data FILE`` on the instance's one state, read
    back as a run."""
    (state,) = instance.states
    schema_text = ",".join(".".join(r.sorted_attributes()) for r in instance.schema.relations)
    target_text = ".".join(instance.target.sorted_attributes())
    argv = ["--attribute-separator", ".", "query", schema_text, target_text]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.json")
        with open(path, "w") as handle:
            json.dump([relation.to_dicts() for relation in state.relations], handle)
        with contextlib.redirect_stdout(out):
            assert cli_main(argv + ["--data", path, "--backend", backend, "--json"]) == 0
    payload = json.loads(out.getvalue())
    result = Relation.from_dicts(instance.target, payload["result"])
    assert payload["answer_rows"] == [len(result)]
    assert payload["cyclic"] == isinstance(plan, CyclicPreparedQuery)
    if payload["cyclic"]:
        assert payload["tree_projection"] == plan.tree_projection.to_notation()
        assert payload["projection_method"] == plan.projection_method
        assert payload["treefication_width"] == plan.treefication_width
    counts = [payload[key] for key in ("semijoin_count", "join_count", "max_intermediate_size")]
    return [YannakakisRun(result, *counts, payload["backend"])]


#: The rows; a cyclic plan has no ``yannakakis()`` row.
ENTRY_POINTS = {
    "execute": _execute,
    "execute_many": _execute_many,
    "yannakakis": _yannakakis,
    "service.submit": _submit,
    "service.stream": _stream,
    "cli.query": _cli,
}
CYCLIC_ENTRY_POINTS = [entry for entry in ENTRY_POINTS if entry != "yannakakis"]


@contextlib.contextmanager
def _requesting(backend):
    """The backend name to pass; ``numpy-blocked`` passes ``vectorized``
    with the array kernel's numpy made unavailable for the duration."""
    if backend != "numpy-blocked":
        yield backend
        return
    with mock.patch.object(vectorized_module, "_np", None):
        yield "vectorized"


def _json_safe(state: DatabaseState) -> DatabaseState:
    """Tuple cells replaced by their ``repr``, as a ``--data`` JSON file can
    carry them."""

    def convert(row):
        return tuple(repr(v) if isinstance(v, tuple) else v for v in row)

    return DatabaseState(
        state.schema, [Relation(r.schema, map(convert, r.rows)) for r in state.relations]
    )


def _check_cell(entry, backend, instance, service) -> None:
    if entry == "cli.query":
        # ``--data`` holds one state, read from JSON, and the CLI plans as
        # ``repro query`` does: the default root, and ``prepare_cyclic``
        # exactly when the schema is cyclic.
        instance = replace(instance, states=(_json_safe(instance.states[0]),))
        analysis = analyze(instance.schema)
        prepare = analysis.prepare_cyclic if analysis.is_cyclic else analysis.prepare
        plan = prepare(instance.target)
    else:
        if instance.fresh:
            clear_analysis_cache()
        plan = instance.prepare()
    expected = _oracle(plan, instance)
    with _requesting(backend) as requested:
        runs = ENTRY_POINTS[entry](plan, instance, requested, service)
    _assert_answers(backend, runs, expected, instance.states)


@pytest.fixture(scope="module")
def service():
    with QueryService(workers=2) as shared:
        yield shared


def _hand(text, target, *states, sizes, fresh=False):
    """A tree-schema case of hand-built states, each a list of rows per
    relation, and the answer size naive must give on each."""
    schema = parse_schema(text)
    built = tuple(
        DatabaseState(schema, [Relation(r, rows) for r, rows in zip(schema.relations, state)])
        for state in states
    )
    return Instance("tree", schema, RelationSchema(target), None, built, fresh), sizes


def _ur(family, schema, target, rows, domain, seed, emptied=None, sizes=None):
    """A case of one UR state, with relation ``emptied`` emptied."""
    state = random_ur_database(schema, tuple_count=rows, domain_size=domain, rng=seed)
    if emptied is not None:
        relations = list(state.relations)
        relations[emptied] = Relation.empty(schema[emptied])
        state = DatabaseState(schema, relations)
    return Instance(family, schema, RelationSchema(target), None, (state,)), sizes


#: Hand-built instances that a few random draws would rarely produce, each
#: with the answer size naive must give per state (``None``: not pinned).
#: ``ci-*`` are the states package-smoke ran as ``repro query D X --random
#: 20`` (seed 0, domain 8).
PINNED = {
    # 1, 2.0 and True meet equal values of other types across relations.
    "numeric-tower": _hand(
        "ab,bc", "ac", [[(1, "x"), (2.0, "y"), (True, "z")], [("x", 10), ("y", 2), ("z", 30)]],
        sizes=[3],
    ),
    # A cold plan meets 1.0, then 1, then True: each answer keeps its own.
    "own-values": _hand(
        "ab,bc", "ac", [[(1.0, 0)], [(0, "y")]], [[(1, 0)], [(0, "y")]], [[(True, 0)], [(0, "x")]],
        sizes=[1, 1, 1], fresh=True,
    ),
    # A cold plan meets pure ints first, then equal floats, a bool and a str.
    "ints-then-strays": _hand(
        "ab,bc", "ac", [[(5, 1)], [(1, 9)]], [[(5.0, True), ("s", 1)], [(1.0, 9)]],
        sizes=[1, 2], fresh=True,
    ),
    "all-empty": _hand("ab,bc,cd", "", [[], [], []], sizes=[0]),
    "cartesian": _hand("ab,cd", "ac", [[(1, 2), (3, 4)], [(5, 6)]], sizes=[2]),
    "cartesian-empty-side": _hand("ab,cd", "a", [[(1, 2)], []], sizes=[0]),
    "single-relation": _hand("abc", "ac", [[(1, 2, 3), (4, 5, 6)]], sizes=[2]),
    "duplicated": _hand("ab,ab", "ab", [[(1, 2), (3, 4)], [(1, 2)]], sizes=[1]),
    "emptied-chain": _ur("tree", chain_schema(4), {"x0", "x4"}, 20, 4, 1, emptied=2, sizes=[0]),
    "nullary-target": _ur("tree", chain_schema(3), (), 10, 3, 3, sizes=[1]),
    # Globally consistent: every semijoin returns its input unchanged.
    "consistent": _ur("tree", chain_schema(5), {"x0", "x5"}, 40, 20, 11),
    # Over the size floor with int cells: ``auto`` takes the array kernel.
    "large": _ur("tree", chain_schema(3), {"x0", "x3"}, 300, 1000, 7),
    "emptied-aring": _ur("aring", aring(4), "ac", 12, 3, 3, emptied=0, sizes=[0]),
    "emptied-aclique": _ur("aclique", aclique(4), "ab", 12, 3, 3, emptied=0, sizes=[0]),
    "full-universe": _ur("aring", aring(5), "abcde", 18, 3, 11),
    "ci-aring": _ur("aring", parse_schema("ab,bc,cd,da"), "ac", 20, 8, 0),
    "ci-union-search": _ur(
        "union-search", parse_schema(UNION_SEARCH[0][0]), UNION_SEARCH[0][1], 20, 8, 0
    ),
}
PINNED_CELLS = [
    (entry, case)
    for case, (instance, _) in PINNED.items()
    for entry in (CYCLIC_ENTRY_POINTS if instance.cyclic else ENTRY_POINTS)
]


@pytest.mark.parametrize("family", TREE_FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_tree_schemas(service, entry, backend, family, data):
    instance = data.draw(instances(family=family), label="instance")
    _check_cell(entry, backend, instance, service)


@pytest.mark.parametrize("family", CYCLIC_FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", CYCLIC_ENTRY_POINTS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_cyclic_schemas(service, entry, backend, family, data):
    instance = data.draw(instances(family=family), label="instance")
    _check_cell(entry, backend, instance, service)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry,case", PINNED_CELLS)
def test_pinned_examples(service, entry, case, backend):
    instance, sizes = PINNED[case]
    if sizes is not None:
        schema, target = instance.schema, instance.target
        assert [len(naive_join_project(schema, target, s)[0]) for s in instance.states] == sizes
    _check_cell(entry, backend, instance, service)
