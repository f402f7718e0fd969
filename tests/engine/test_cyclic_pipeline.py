"""The cyclic pipeline's pinned cases: projection choice, the serving
shapes, plan round trips and the backend gate.

``CyclicPreparedQuery`` freezes the Theorem 6.1 construction — tree-projection
node projections, guard semijoins, full reducer — into a reusable plan.  The
random equivalence checks (every entry point and backend against
``naive_join_project``, on Arings, Acliques, chorded trees, random cyclic,
nested and duplicated relation schemas) and the prologue's invariants live in
the oracle matrix (``tests/test_oracle_matrix.py``).  This suite keeps the
pinned schemas and the second oracle,
:func:`repro.treeproj.solver.solve_with_tree_projection` over a sequential
join program (the paper's per-call construction, kept verbatim).
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings

from repro import analyze, clear_analysis_cache
from repro.engine import choose_tree_projection
from repro.engine import cyclic as cyclic_module
from repro.engine.analysis import prepared_from_spec
from repro.engine.cyclic import is_valid_projection
from repro.engine.prepared import (
    VECTORIZED_MIN_STATE_ROWS,
    VECTORIZED_NARROW_RELATIONS,
    VECTORIZED_RELATION_ROWS_FACTOR,
    resolve_backend_for,
    vectorized_batch_profitable,
)
from repro.exceptions import SchemaError, SearchBudgetExceeded
from repro.hypergraph import (
    DatabaseSchema,
    RelationSchema,
    aclique,
    aring,
    chain_schema,
    is_tree_schema,
    parse_schema,
    random_cyclic_schema,
    random_tree_schema,
    star_schema,
)
from repro.relational import (
    DatabaseState,
    Relation,
    naive_join_project,
    numpy_available,
)
from repro.relational.program import Program, default_base_names
from repro.relational.universal import random_database_state, random_ur_database
from repro.treeproj import find_tree_projection
from repro.treeproj.solver import solve_with_tree_projection
from strategies import instances


def _sequential_join_program(schema: DatabaseSchema) -> Program:
    """``P(D)``: join every base relation in order — the solver oracle's input.

    Its extended schema contains ``U(D)``, so ``TP(P(D), D ∪ (X))`` is never
    empty and the per-call solver always succeeds.
    """
    program = Program(schema)
    names = list(default_base_names(schema))
    current = names[0]
    for index, name in enumerate(names[1:], start=1):
        joined = f"J{index}"
        program.join(joined, current, name)
        current = joined
    return program


def _solver_oracle(
    schema: DatabaseSchema, target: RelationSchema, state: DatabaseState
) -> Relation:
    return solve_with_tree_projection(_sequential_join_program(schema), target, state)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_analysis_cache()
    yield


class TestProjectionChoice:
    """The planner's tree projections are genuine and sensibly ranked."""

    def test_aring4_beats_universe(self):
        # The 4-ring's triangulation (two triangles) must beat the one-node
        # universe fallback: width 3 < 4.
        choice = choose_tree_projection(aring(4), RelationSchema("ab"))
        assert choice.width == 3
        assert len(choice.projection) >= 2

    def test_tree_schema_passes_through(self):
        schema = parse_schema("ab,bc,cd")
        choice = choose_tree_projection(schema, RelationSchema("ad"))
        assert is_tree_schema(choice.projection)
        assert choice.projection.covers(schema.add_relation(RelationSchema("ad")))

    def test_invalid_target_raises(self):
        with pytest.raises(SchemaError):
            choose_tree_projection(aring(3), RelationSchema("zz9"))


class TestEquivalence:
    """Cyclic execution ≡ per-call solver ≡ naive join-project."""

    @pytest.mark.parametrize("seed", range(20))
    def test_repeated_relation_schema_on_general_states(self, seed):
        # Two equal relation schemas hold different relations on a general
        # state; the solver must anchor each by position, not by the first
        # relation whose schema covers it (which answered rows naive did not).
        schema = DatabaseSchema(
            [
                RelationSchema(["t0", "t1", "t3"]),
                RelationSchema(["t3", "t4", "t5"]),
                RelationSchema(["t2", "t4", "t5"]),
                RelationSchema(["t2", "t4", "t5"]),
            ]
        )
        target = RelationSchema(["t4", "t5"])
        prepared = analyze(schema).prepare_cyclic(target)
        for tuples in (3, 6, 10):
            state = random_database_state(
                schema, tuple_count=tuples, domain_size=3, rng=seed
            )
            baseline, _ = naive_join_project(schema, target, state)
            assert _solver_oracle(schema, target, state) == baseline
            for backend in ("classic", "compiled", "vectorized"):
                assert prepared.execute(state, backend=backend).result == baseline

    @pytest.mark.parametrize(
        "schema, target, tuples, domain, guarded",
        [
            pytest.param(aring(10), "af", 8, 6, False, id="aring-10"),
            pytest.param(aring(12), "ag", 8, 6, False, id="aring-12"),
            pytest.param(aclique(8), "ab", 5, 16, True, id="aclique-8"),
        ],
    )
    def test_serving_batches_run_compiled(self, schema, target, tuples, domain, guarded):
        """The cyclic serving shapes: a batch of UR and dangling states runs
        on the compiled kernel, and every answer equals naive join-project."""
        target = RelationSchema(target)
        prepared = analyze(schema).prepare_cyclic(target)
        assert (prepared.guard_semijoins >= 1) == guarded
        states = [
            random_ur_database(schema, tuple_count=tuples, domain_size=domain, rng=seed)
            for seed in range(4)
        ] + [
            random_database_state(schema, tuple_count=6, domain_size=6, rng=seed)
            for seed in range(4)
        ]
        runs = prepared.execute_many(states, backend="compiled")
        assert {run.backend for run in runs} == {"compiled"}
        for state, run in zip(states, runs):
            assert run.result == naive_join_project(schema, target, state)[0]


def _assert_serial_backends_match_naive(
    schema: DatabaseSchema, target: RelationSchema, method: str
) -> None:
    prepared = analyze(schema).prepare_cyclic(target)
    assert prepared.projection_method == method
    states = [
        random_ur_database(schema, tuple_count=20, domain_size=4, rng=5),
        random_database_state(schema, tuple_count=10, domain_size=3, rng=5),
    ]
    for state in states:
        baseline, _ = naive_join_project(schema, target, state)
        for backend in ("classic", "compiled", "vectorized"):
            assert prepared.execute(state, backend=backend).result == baseline, backend


class TestUnionSearchChoices:
    """Pinned choices where the layered search's candidate wins or is lost.

    The union search is exponential in the pool size, so a change to how it
    enumerates or tests subsets shows up here as a different choice."""

    @pytest.mark.parametrize(
        "schema_text, target, expected",
        [
            ("cf,af,dfh,cg,aefh,ab,abe,cdg", "ed", "abe,cdfg,adefh"),
            ("afh,dfgi,agi,abc,bf,efi", "ae", "dfgi,abcfh,aefgi"),
        ],
    )
    def test_union_search_wins(self, schema_text, target, expected):
        schema = parse_schema(schema_text)
        target_schema = RelationSchema(target)
        choice = choose_tree_projection(schema, target_schema)
        assert choice.method == "tp-union-search"
        assert choice.width == 5
        assert choice.projection == parse_schema(expected)
        _assert_serial_backends_match_naive(schema, target_schema, "tp-union-search")

    def test_budget_exceeded_falls_back_to_greedy_merge(self, monkeypatch):
        exceeded = []

        def recording_search(*args, **kwargs):
            try:
                return find_tree_projection(*args, **kwargs)
            except SearchBudgetExceeded:
                exceeded.append(kwargs["budget"])
                raise

        monkeypatch.setattr(cyclic_module, "find_tree_projection", recording_search)
        schema = random_cyclic_schema(7, ring_size=3, rng=4)
        target = RelationSchema(["cr2", "ct0"])
        choice = choose_tree_projection(schema, target)
        assert exceeded == [cyclic_module._SEARCH_BUDGET]
        assert choice.method == "greedy-merge"
        assert is_valid_projection(choice.projection, schema.add_relation(target))
        _assert_serial_backends_match_naive(schema, target, "greedy-merge")


class TestSolverOracle:
    """The seed solver, the per-call Theorem 6.1 construction, agrees with
    naive join-project on arbitrary states (the oracle matrix holds the
    plan-once pipeline to naive; this keeps the two oracles honest)."""

    @settings(max_examples=15, deadline=None)
    @given(instances("cyclic", max_states=3))
    def test_solver_matches_naive(self, instance):
        program = _sequential_join_program(instance.schema)
        for state in instance.states:
            baseline, _ = naive_join_project(instance.schema, instance.target, state)
            assert solve_with_tree_projection(program, instance.target, state) == baseline


class TestParallelCyclic:
    """Cyclic plans ship through the parallel executor."""

    def test_parallel_matches_classic(self):
        schema = aring(4)
        target = RelationSchema("ac")
        states = [
            random_ur_database(schema, tuple_count=15, domain_size=4, rng=seed)
            for seed in range(8)
        ]
        prepared = analyze(schema).prepare_cyclic(target)
        expected = [prepared.execute(s, backend="classic").result for s in states]
        runs = prepared.execute_many(states, backend="parallel", workers=2)
        assert [run.result for run in runs] == expected
        assert all(run.backend == "parallel" for run in runs)

    def test_parallel_rejects_single_state_execute(self):
        prepared = analyze(aring(3)).prepare_cyclic(RelationSchema("ab"))
        state = random_ur_database(aring(3), tuple_count=5, domain_size=3, rng=0)
        with pytest.raises(ValueError, match="execute_many"):
            prepared.execute(state, backend="parallel")


class TestPlanSpecRoundTrip:
    """Cyclic plans serialize and rebuild through the analysis LRU."""

    def test_pickle_round_trip_same_object(self):
        schema = aring(4)
        target = RelationSchema("bd")
        prepared = analyze(schema).prepare_cyclic(target)
        spec = prepared.plan_spec()
        assert spec.cyclic is True
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        rebuilt = prepared_from_spec(clone)
        assert rebuilt is prepared

    def test_tree_spec_still_noncyclic(self):
        schema = parse_schema("ab,bc")
        prepared = analyze(schema).prepare(RelationSchema("ac"))
        assert prepared.plan_spec().cyclic is False

    def test_memoization_per_target_and_root(self):
        analysis = analyze(aring(4))
        first = analysis.prepare_cyclic(RelationSchema("ab"))
        assert analysis.prepare_cyclic(RelationSchema("ab")) is first
        assert analysis.prepare_cyclic(RelationSchema("cd")) is not first
        # The projection choice memo is shared across roots.
        assert analysis.cyclic_projection(RelationSchema("ab")) is first.projection_choice


class TestBackendGate:
    """Satellite 1: shape-aware auto-gate (mean rows per relation)."""

    def test_floor_still_applies(self):
        assert not vectorized_batch_profitable(4, 4 * (VECTORIZED_MIN_STATE_ROWS - 1), 2)

    def test_narrow_shape_clears_gate(self):
        # 3 relations sit under the narrow allowance: the row floor alone
        # decides, and 600 rows/state clears it.
        assert vectorized_batch_profitable(10, 6000, 3)

    def test_mid_chain_clears_gate(self):
        # chain-6 at ~190 rows/relation (the yannakakis benchmark shape,
        # where the array kernel wins ~3x) clears the surplus threshold
        # 32*(6-4) = 64.
        threshold = VECTORIZED_RELATION_ROWS_FACTOR * (6 - VECTORIZED_NARROW_RELATIONS)
        assert 190 >= threshold
        assert vectorized_batch_profitable(5, 5 * 6 * 190, 6)

    def test_wide_star_shape_stays_compiled(self):
        # 12 relations, 2808 rows/state (the flarge-star serving shape):
        # 234 rows/rel < 32*(12-4) — the dense path would thrash per-relation.
        threshold = VECTORIZED_RELATION_ROWS_FACTOR * (12 - VECTORIZED_NARROW_RELATIONS)
        assert 2808 / 12 < threshold
        assert not vectorized_batch_profitable(8, 8 * 2808, 12)

    def test_zero_states_never_profitable(self):
        assert not vectorized_batch_profitable(0, 0, 3)

    def test_resolve_backend_for_uses_shape(self):
        chain = parse_schema("ab,bc,cd")
        states = [
            random_ur_database(chain, tuple_count=600, domain_size=40, rng=seed)
            for seed in range(3)
        ]
        assert resolve_backend_for("auto", states) in (
            ("vectorized",) if numpy_available() else ("compiled",)
        )
        # The flarge-star serving profile: 12 binary relations sharing a hub,
        # ~230 rows per relation per state — under the 32·(n−4) per-relation
        # threshold.
        wide = DatabaseSchema([RelationSchema({"hub", f"x{k}"}) for k in range(12)])
        wide_states = [
            random_ur_database(wide, tuple_count=300, domain_size=24, rng=seed)
            for seed in range(3)
        ]
        assert resolve_backend_for("auto", wide_states) == "compiled"


def _star_explosion(hubs: int, fanout: int, card: int, value=int) -> DatabaseState:
    """A star-3 state where every hub carries ``fanout`` of ``card`` point
    values in each relation: the join into the root multiplies rows."""
    schema = star_schema(3)
    rng = random.Random(hubs * 1000 + fanout)
    relations = [
        Relation(
            relation_schema,
            [
                (value(point), hub)
                for hub in range(hubs)
                for point in rng.sample(range(card), fanout)
            ],
        )
        for relation_schema in schema.relations
    ]
    return DatabaseState(schema, relations)


def _string_chain(rows: int, seed: int) -> DatabaseState:
    """A chain-3 state of string values only."""
    schema = chain_schema(3)
    rng = random.Random(seed)
    return DatabaseState(
        schema,
        [
            Relation(
                relation_schema,
                [(f"v{rng.randrange(60)}", f"v{rng.randrange(60)}") for _ in range(rows)],
            )
            for relation_schema in schema.relations
        ],
    )


class TestPlanAwareGate:
    """After the shape gate says vectorized, ``auto`` keeps a plan with no
    expanding join on compiled when a sampled cell is not an ``int``."""

    VECTORIZED = "vectorized" if numpy_available() else "compiled"

    def test_serve_large_split(self):
        chain = chain_schema(6)
        chain_query = analyze(chain).prepare(RelationSchema({"x0", "x6"}))
        chain_states = [
            random_ur_database(chain, tuple_count=400, domain_size=40, rng=seed)
            for seed in range(3)
        ]
        star = star_schema(12)
        star_query = analyze(star).prepare(RelationSchema({"x_hub", "x0"}))
        star_states = [
            random_ur_database(star, tuple_count=300, domain_size=24, rng=seed)
            for seed in range(3)
        ]
        explosion_query = analyze(star_schema(3)).prepare(
            RelationSchema({"x0", "x1", "x2"})
        )
        strings_query = analyze(chain_schema(3)).prepare(RelationSchema({"x0"}))
        assert chain_query.expands and explosion_query.expands
        assert not star_query.expands and not strings_query.expands
        cases = [
            (chain_query, chain_states, self.VECTORIZED),
            (star_query, star_states, "compiled"),
            (explosion_query, [_star_explosion(20, 8, 12)], self.VECTORIZED),
            (strings_query, [_string_chain(300, 1)], "compiled"),
        ]
        # The many-small serving shapes (schema, target, tuples, domain):
        # tiny states stay on compiled, the star-8 one just under the row
        # floor (8 relations of <= 30 rows).
        tree = random_tree_schema(12, rng=3)
        tree_attributes = tree.attributes.sorted_attributes()
        for schema, target, tuples, domain in (
            (chain_schema(5), {"x0", "x5"}, 12, 6),
            (tree, {tree_attributes[0], tree_attributes[-1]}, 12, 6),
            (star_schema(8), {"x_hub", "x0"}, 30, 6),
            (chain_schema(4), {"x0", "x4"}, 15, 6),
        ):
            states = [
                random_ur_database(schema, tuple_count=tuples, domain_size=domain, rng=seed)
                for seed in range(3)
            ]
            cases.append((analyze(schema).prepare(RelationSchema(target)), states, "compiled"))
        serial = ["compiled", "vectorized"] if numpy_available() else ["compiled"]
        for query, states, expected in cases:
            assert resolve_backend_for("auto", states, query=query) == expected
            assert query.execute_many(states)[0].backend == expected
            classic = [query.execute(state, backend="classic").result for state in states]
            for backend in serial:
                runs = query.execute_many(states, backend=backend)
                assert [run.result for run in runs] == classic, backend

    def test_string_explosion_stays_vectorized(self):
        query = analyze(star_schema(3)).prepare(RelationSchema({"x0", "x1", "x2"}))
        state = _star_explosion(20, 8, 12, value=str)
        assert resolve_backend_for("auto", [state], query=query) == self.VECTORIZED
        run = query.execute(state)
        assert run.backend == self.VECTORIZED
        assert run.result == query.execute(state, backend="classic").result

    def test_any_non_int_sample_keeps_semijoin_plan_compiled(self):
        schema = chain_schema(3)
        query = analyze(schema).prepare(RelationSchema({"x0"}))
        ints = [
            random_ur_database(schema, tuple_count=300, domain_size=50, rng=seed)
            for seed in range(3)
        ]
        assert resolve_backend_for("auto", ints, query=query) == self.VECTORIZED
        # One relation of one state holds strings: its first row is a
        # non-int sample, whichever row that is.
        relations = list(ints[0].relations)
        relations[2] = Relation(
            relations[2].schema, [(str(b), str(c)) for b, c in relations[2].rows]
        )
        mixed = ints[1:] + [DatabaseState(schema, relations)]
        assert resolve_backend_for("auto", mixed, query=query) == "compiled"
        floats = [
            DatabaseState(
                schema,
                [
                    Relation(r.schema, [tuple(float(v) for v in row) for row in r.rows])
                    for r in ints[0].relations
                ],
            )
        ]
        assert resolve_backend_for("auto", floats, query=query) == "compiled"

    def test_cyclic_query_judged_by_inner_plan(self):
        schema = aring(4)
        query = analyze(schema).prepare_cyclic(RelationSchema("ac"))
        # A tree projection has a node covering the target, so the inner
        # plan is a semijoin program.
        assert not query.inner.expands
        ints = [
            random_ur_database(schema, tuple_count=100, domain_size=30, rng=seed)
            for seed in range(2)
        ]
        strings = [
            DatabaseState(
                schema,
                [
                    Relation(r.schema, [tuple(f"s{v}" for v in row) for row in r.rows])
                    for r in state.relations
                ],
            )
            for state in ints
        ]
        assert resolve_backend_for("auto", ints, query=query) == self.VECTORIZED
        assert resolve_backend_for("auto", strings, query=query) == "compiled"
        runs = query.execute_many(strings)
        assert runs[0].backend == "compiled"
        assert [run.result for run in runs] == [
            naive_join_project(schema, RelationSchema("ac"), state)[0]
        for state in strings
        ]

    def test_without_query_only_the_shape_gate_applies(self):
        state = _string_chain(300, 2)
        assert resolve_backend_for("auto", [state]) == self.VECTORIZED

    def test_explicit_backends_never_second_guessed(self):
        strings_query = analyze(chain_schema(3)).prepare(RelationSchema({"x0"}))
        strings = [_string_chain(300, 3)]
        explosion_query = analyze(star_schema(3)).prepare(
            RelationSchema({"x0", "x1", "x2"})
        )
        explosion = [_star_explosion(20, 8, 12)]
        assert (
            resolve_backend_for("vectorized", strings, query=strings_query)
            == self.VECTORIZED
        )
        for backend in ("compiled", "classic"):
            assert (
                resolve_backend_for(backend, explosion, query=explosion_query)
                == backend
            )

    def test_numpy_blocked_resolves_compiled(self, monkeypatch):
        from repro.relational import vectorized as vectorized_module

        monkeypatch.setattr(vectorized_module, "_np", None)
        explosion_query = analyze(star_schema(3)).prepare(
            RelationSchema({"x0", "x1", "x2"})
        )
        strings_query = analyze(chain_schema(3)).prepare(RelationSchema({"x0"}))
        for query, state in (
            (explosion_query, _star_explosion(20, 8, 12)),
            (explosion_query, _star_explosion(20, 8, 12, value=str)),
            (strings_query, _string_chain(300, 4)),
        ):
            assert resolve_backend_for("auto", [state], query=query) == "compiled"
            assert resolve_backend_for("auto", [state]) == "compiled"
            assert query.execute_many([state])[0].backend == "compiled"
