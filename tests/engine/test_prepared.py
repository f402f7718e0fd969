"""Tests for :class:`PreparedQuery`: plan-once / execute-many semantics.

``execute``, ``execute_many`` and the ``yannakakis()`` wrapper are checked
against ``naive_join_project`` in the oracle matrix
(``tests/test_oracle_matrix.py``); this suite pins planning reuse,
validation, index sharing and backend routing.
"""

from __future__ import annotations

import pytest

import repro.engine.analysis as analysis_module
import repro.engine.prepared as prepared_module
from repro import analyze, clear_analysis_cache, yannakakis
from repro.engine import PreparedQuery
from repro.exceptions import NotATreeSchemaError, SchemaError
from repro.hypergraph import (
    RelationSchema,
    chain_schema,
    find_qual_tree,
    parse_schema,
    star_schema,
)
from repro.relational import DatabaseState, Relation, numpy_available
from repro.relational.universal import random_ur_database


class TestEmptySchemaBatch:
    def test_execute_many_on_the_empty_schema(self):
        """The empty schema is a true batch too: one shared ExecutionStats,
        repeated states executed once."""
        empty = PreparedQuery(parse_schema(""), RelationSchema(()))
        state = DatabaseState(parse_schema(""), [])
        for backend in ("auto", "compiled", "vectorized"):
            runs = empty.execute_many([state, state, state], backend=backend)
            stats = runs[0].stats
            assert stats is not None and all(run.stats is stats for run in runs)
            assert (stats.states, stats.deduped_states) == (1, 2)
            assert all(run.result == Relation.nullary_true() for run in runs)


class TestPlanOnceExecuteMany:
    def test_no_replanning_across_100_states(self, monkeypatch):
        """One plan, ≥100 distinct states, zero qual-tree searches or
        reducer-planning passes after the plan is built."""
        clear_analysis_cache()
        calls = {"qual_tree": 0, "orientation": 0}
        real_find = analysis_module.find_qual_tree
        real_orient = prepared_module.rooted_orientation

        def counting_find(schema):
            calls["qual_tree"] += 1
            return real_find(schema)

        def counting_orient(tree, root=0):
            calls["orientation"] += 1
            return real_orient(tree, root=root)

        monkeypatch.setattr(analysis_module, "find_qual_tree", counting_find)
        monkeypatch.setattr(prepared_module, "rooted_orientation", counting_orient)

        schema = chain_schema(5)
        target = RelationSchema({"x0", "x5"})
        prepared = analyze(schema).prepare(target)
        assert calls == {"qual_tree": 1, "orientation": 1}

        states = [
            random_ur_database(schema, tuple_count=8, domain_size=4, rng=seed)
            for seed in range(120)
        ]
        assert len(set(states)) >= 100  # genuinely distinct states
        runs = prepared.execute_many(states)
        assert len(runs) == 120
        assert calls == {"qual_tree": 1, "orientation": 1}

        # The yannakakis() wrapper reuses the same cached plan: still no
        # additional planning work.
        for state in states[:20]:
            yannakakis(schema, target, state)
        assert calls == {"qual_tree": 1, "orientation": 1}

    def test_explicit_tree_bypasses_cache(self):
        schema = chain_schema(3)
        target = RelationSchema({"x0", "x3"})
        tree = find_qual_tree(schema)
        prepared = PreparedQuery(schema, target, tree=tree)
        state = random_ur_database(schema, tuple_count=10, domain_size=3, rng=0)
        direct = prepared.execute(state)
        via_wrapper = yannakakis(schema, target, state, tree=tree)
        assert direct.result == via_wrapper.result


class TestValidation:
    def test_rejects_state_for_other_schema(self):
        prepared = analyze(chain_schema(3)).prepare(RelationSchema({"x0"}))
        other = random_ur_database(chain_schema(4), tuple_count=5, rng=0)
        with pytest.raises(SchemaError):
            prepared.execute(other)

    @pytest.mark.parametrize(
        "entry",
        [
            "execute",
            "execute_many-classic",
            "execute_many-compiled",
            "execute_many-vectorized",
            "execute_many-auto",
            "service-submit",
            "service-execute_many",
            "execute_in_process",
            "parallel-executor",
        ],
    )
    @pytest.mark.parametrize("shape", ["tree", "cyclic"])
    def test_rejects_state_for_other_schema_on_every_entry_point(
        self, shape, entry
    ):
        """Tree and cyclic plans reject a state over another schema on every
        entry point, batch paths included (a cyclic plan used to answer)."""
        from repro.engine.parallel import ParallelExecutor, execute_in_process
        from repro.engine.service import QueryService
        from repro.exceptions import ShardExecutionError

        if shape == "tree":
            prepared = analyze(chain_schema(3)).prepare(RelationSchema({"x0"}))
            other = random_ur_database(chain_schema(4), tuple_count=5, rng=0)
        else:
            prepared = analyze(parse_schema("ab,bc,ca")).prepare_cyclic(
                RelationSchema("ab")
            )
            other = random_ur_database(
                parse_schema("ab,bc,cd"), tuple_count=5, rng=0
            )
        if entry == "parallel-executor":
            with ParallelExecutor(workers=1) as pool:
                with pytest.raises(ShardExecutionError) as raised:
                    pool.execute_many(prepared, [other])
            assert isinstance(raised.value.causes[0], SchemaError)
            return
        with pytest.raises(SchemaError):
            if entry == "execute":
                prepared.execute(other)
            elif entry.startswith("execute_many-"):
                prepared.execute_many([other], backend=entry.split("-")[1])
            elif entry == "execute_in_process":
                execute_in_process(prepared, [other])
            else:
                with QueryService(workers=1) as service:
                    if entry == "service-submit":
                        service.submit(prepared, [other]).result()
                    else:
                        service.execute_many(prepared, [other])

    def test_rejects_target_outside_universe(self):
        with pytest.raises(SchemaError):
            PreparedQuery(chain_schema(3), RelationSchema("z"))

    def test_rejects_cyclic_schema(self):
        with pytest.raises(NotATreeSchemaError):
            PreparedQuery(parse_schema("ab,bc,ac"), RelationSchema("ab"))

    def test_empty_schema(self):
        schema = parse_schema("")
        prepared = PreparedQuery(schema, RelationSchema(()))
        run = prepared.execute(DatabaseState(schema, []))
        assert len(run.result) == 1
        assert run.semijoin_count == 0 and run.join_count == 0

    def test_immutable(self):
        prepared = analyze(chain_schema(3)).prepare(RelationSchema({"x0"}))
        with pytest.raises(AttributeError):
            prepared.target = None

    def test_describe_lists_program(self):
        prepared = analyze(chain_schema(3)).prepare(RelationSchema({"x0", "x3"}))
        text = prepared.describe()
        assert "⋉" in text and "⋈" in text and "answer" in text

    def test_plan_accessors(self):
        schema = chain_schema(4)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x4"}))
        assert prepared.schema == schema
        assert prepared.root == 0
        assert len(prepared.semijoin_steps) == 2 * (len(schema) - 1)
        assert len(prepared.join_steps) == len(schema) - 1


class TestSemijoinIndexSharing:
    """The full-reducer program builds each relation's semijoin hash index
    once per (relation, key) pair per state (ROADMAP PR-2 follow-up)."""

    @staticmethod
    def _filtering_chain_state(schema, length):
        """A chain state where every relation has dangling rows, so every
        semijoin of the leaf-to-root pass drops rows (no identity shortcut —
        every intermediate is a fresh ``Relation`` instance)."""
        from repro.relational import Relation

        relations = []
        for index in range(length):
            rows = [{f"x{index}": value, f"x{index + 1}": value} for value in (1, 2)]
            # Dangling on both sides: joins with neither neighbour.
            rows.append({f"x{index}": 100 + index, f"x{index + 1}": 200 + index})
            relations.append(Relation.from_dicts({f"x{index}", f"x{index + 1}"}, rows))
        return DatabaseState(schema, relations)

    @staticmethod
    def _install_build_tracking(monkeypatch):
        """Attribute every ``key_index`` build to its original relation.

        Patches ``key_index`` to record cache-miss builds as
        ``(lineage root id, key columns)`` and ``semijoin`` to remember which
        relation each filtered result descends from, so a rebuild of an index
        a semijoin should have inherited shows up as a duplicate pair.
        Returns ``(builds, lineage)``; every touched relation is pinned so
        ``id()`` keys stay unique for the test's lifetime.
        """
        from repro.relational.relation import Relation

        pinned = []
        lineage = {}
        builds = []
        real_key_index = Relation.key_index
        real_semijoin = Relation.semijoin

        def root_of(relation):
            ident = id(relation)
            while ident in lineage:
                ident = lineage[ident]
            return ident

        def counting_key_index(self, attributes):
            if isinstance(attributes, RelationSchema):
                key_columns = attributes.sorted_attributes()
            else:
                key_columns = tuple(sorted(attributes))
            fresh_build = key_columns not in self._indexes
            index = real_key_index(self, attributes)
            if fresh_build:
                pinned.append(self)
                builds.append((root_of(self), key_columns))
            return index

        def tracking_semijoin(self, other):
            result = real_semijoin(self, other)
            pinned.extend((self, other, result))
            if result is not self:
                lineage[id(result)] = id(self)
            return result

        monkeypatch.setattr(Relation, "key_index", counting_key_index)
        monkeypatch.setattr(Relation, "semijoin", tracking_semijoin)
        return builds, lineage

    def test_no_duplicate_key_index_builds_per_state(self, monkeypatch):
        length = 4
        schema = chain_schema(length)
        target = RelationSchema({"x0", f"x{length}"})
        prepared = analyze(schema).prepare(target)
        state = self._filtering_chain_state(schema, length)

        builds, lineage = self._install_build_tracking(monkeypatch)
        # This test pins the *classic* kernel's index inheritance; the
        # compiled backend has its own build-count tests.
        runs = prepared.execute_many([state], backend="classic")
        assert runs[0].semijoin_count == 2 * (length - 1)
        assert lineage, "expected the semijoins to actually filter rows"

        # No (relation lineage, key) pair is ever built twice...
        assert len(builds) == len(set(builds))

        # ...and the semijoin program costs exactly one build per distinct
        # (state slot, edge key) pair, despite 2·(length-1) semijoin calls
        # touching each slot up to twice per key across the two passes.
        slot_of = {id(relation): index for index, relation in enumerate(state.relations)}
        expected = set()
        for step in prepared.semijoin_steps:
            key = tuple(
                sorted(
                    schema[step.target].attributes & schema[step.source].attributes
                )
            )
            expected.add((step.target, key))
            expected.add((step.source, key))
        observed = {
            (slot_of[root], key) for root, key in builds if root in slot_of
        }
        assert observed == expected

    def test_execute_many_shares_indexes_on_every_state(self, monkeypatch):
        """Across many states, duplicate builds never appear (per-state
        sharing; states do not share indexes with each other)."""
        length = 3
        schema = chain_schema(length)
        target = RelationSchema(schema.attributes)
        prepared = analyze(schema).prepare(target)
        states = [self._filtering_chain_state(schema, length) for _ in range(5)]

        builds, _ = self._install_build_tracking(monkeypatch)
        runs = prepared.execute_many(states, backend="classic")
        assert len(runs) == len(states)
        assert len(builds) == len(set(builds))


class TestCompiledBackendRouting:
    """Backend selection, run flags, and the compiled-plan lifecycle."""

    def _state(self, schema, seed=0, tuple_count=20):
        return random_ur_database(schema, tuple_count=tuple_count, domain_size=5, rng=seed)

    def test_auto_resolves_to_serial_backend(self):
        schema = chain_schema(3)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x3"}))
        # 20 tuples x 3 relations sits under VECTORIZED_MIN_STATE_ROWS, so
        # auto stays on the compiled backend whether or not numpy imports.
        state = self._state(schema)
        # The array kernel needs numpy; without it "vectorized" runs compiled.
        serial = "vectorized" if numpy_available() else "compiled"
        assert prepared.execute(state).backend == "compiled"
        assert prepared.execute(state, backend="auto").backend == "compiled"
        assert prepared.execute(state, backend="classic").backend == "classic"
        assert prepared.execute(state, backend="compiled").backend == "compiled"
        assert prepared.execute(state, backend="vectorized").backend == serial
        # A state big enough to amortize the array toll upgrades auto to the
        # vectorized kernel exactly when numpy is importable.  (A wide
        # domain, because random_ur_database dedups verbatim rows.)
        big = random_ur_database(schema, tuple_count=200, domain_size=60, rng=1)
        assert prepared.execute(big).backend == serial
        assert prepared.execute_many([big, big])[0].backend == serial

    def test_unknown_backend_rejected(self):
        schema = chain_schema(3)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        with pytest.raises(ValueError):
            prepared.execute(self._state(schema), backend="gpu")
        with pytest.raises(ValueError):
            prepared.execute_many([self._state(schema)], backend="")

    def test_classic_runs_carry_no_stats(self):
        schema = chain_schema(3)
        prepared = analyze(schema).prepare(RelationSchema({"x0"}))
        run = prepared.execute(self._state(schema), backend="classic")
        assert run.stats is None

    def test_empty_schema_reports_resolved_backend(self):
        prepared = PreparedQuery(parse_schema(""), RelationSchema(()))
        state = DatabaseState(parse_schema(""), [])
        # A zero-relation state has zero rows, so auto's profitability gate
        # keeps it on the compiled backend everywhere.
        assert prepared.execute(state).backend == "compiled"
        assert prepared.execute(state, backend="classic").backend == "classic"

    def test_compiled_plan_cached_and_resettable(self):
        schema = chain_schema(3)
        prepared = analyze(schema).prepare(RelationSchema({"x0", "x3"}))
        plan = prepared.compiled
        assert prepared.compiled is plan
        prepared.execute(self._state(schema))
        prepared.reset_compiled()
        assert prepared.compiled is not plan


class TestCompiledIndexAmortization:
    """Lineage-attributed call counts: key indexes are built at most once
    per (slot, key) per batch when slot contents repeat across states."""

    def test_one_build_per_slot_key_across_batch(self):
        length = 4
        schema = chain_schema(length)
        target = RelationSchema({"x0", f"x{length}"})
        prepared = analyze(schema).prepare(target)
        prepared.reset_compiled()
        # One globally consistent state repeated verbatim: the batch
        # executes it once and shares the immutable run.
        state = random_ur_database(schema, tuple_count=30, domain_size=4, rng=1)
        states = [state] * 6
        runs = prepared.execute_many(states)
        stats = runs[0].stats
        assert stats is runs[-1].stats
        assert stats.states == 1
        assert stats.deduped_states == len(states) - 1
        # Slots are encoded exactly once for the whole batch.
        assert stats.encoded_slots == len(schema)
        assert stats.cached_slots == 0
        # Every key index lineage was built exactly once for the whole batch.
        assert stats.keyset_builds, "expected the reducer to build key sets"
        assert set(stats.keyset_builds.values()) == {1}
        assert set(stats.bucket_builds.values()) == {1}
        # Lineages are (slot, key positions) pairs within the schema.
        for slot, positions in list(stats.keyset_builds) + list(stats.bucket_builds):
            assert 0 <= slot < len(schema)
            assert isinstance(positions, tuple)

    def test_shared_dimension_slots_amortize_under_varying_fact(self):
        schema = star_schema(6)
        attrs = schema.attributes.sorted_attributes()
        target = RelationSchema({"x_hub", attrs[0]})
        prepared = analyze(schema).prepare(target)
        prepared.reset_compiled()
        base = random_ur_database(schema, tuple_count=25, domain_size=4, rng=7)
        states = []
        for seed in range(8):
            relations = list(base.relations)
            relations[0] = random_ur_database(
                schema, tuple_count=25, domain_size=4, rng=100 + seed
            ).relations[0]
            states.append(DatabaseState(schema, relations))
        runs = prepared.execute_many(states)
        stats = runs[0].stats
        # The varying fact slot (0) re-encodes per state; every shared
        # dimension slot is encoded exactly once for the batch.
        assert stats.encoded_slots == len(states) + (len(schema) - 1)
        assert stats.cached_slots == (len(states) - 1) * (len(schema) - 1)
        # Dimension-slot indexes were each built at most once for the batch.
        for (slot, _key), count in stats.keyset_builds.items():
            if slot != 0:
                assert count == 1
        for (slot, _key), count in stats.bucket_builds.items():
            if slot != 0:
                assert count == 1

    def test_single_state_builds_each_keyset_once(self):
        length = 5
        schema = chain_schema(length)
        target = RelationSchema({"x0", f"x{length}"})
        prepared = analyze(schema).prepare(target)
        prepared.reset_compiled()
        state = random_ur_database(schema, tuple_count=40, domain_size=5, rng=2)
        runs = prepared.execute_many([state])
        stats = runs[0].stats
        # A consistent state never filters, so both reducer passes share one
        # key-set build per (slot, key) lineage.
        assert set(stats.keyset_builds.values()) == {1}
