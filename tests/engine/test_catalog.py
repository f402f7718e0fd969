"""The persistent plan catalog: round-trips, corruption defense, crash safety.

Three layers of guarantees are proven here:

* **Round-trips** — a record holds the tree-projection choices of a cyclic
  schema and nothing else; a restored choice equals a fresh
  ``choose_tree_projection`` (property-tested with hypothesis) and the
  restored analysis answers like ``naive_join_project``.  Tree schemas
  never get a record.
* **Corruption defense** — truncation, bit flips, stale format versions
  (including pickled version 1 records, never unpickled), trailing garbage,
  malformed JSON and restored projections that fail the meaning check are
  each detected, quarantined (``*.corrupt``), counted, and served as
  misses; the query still answers correctly through fresh analysis.
* **Crash safety** — a writer SIGKILLed mid-write (the ``:kill`` flavor of
  ``REPRO_FAULT_TORN_WRITE``) leaves a catalog that reopens clean: the
  partial record is quarantined and counted, and the same query is
  answer-equal to the oracle.

Catalog fault environment variables are scrubbed by an autouse fixture:
these tests must stay deterministic even when a chaos CI leg arms worker
faults globally, and the dedicated fault tests arm their own fresh
directories explicitly.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.engine import analyze, clear_analysis_cache, prepared_from_spec
from repro.engine import faults
from repro.engine.catalog import (
    FORMAT_VERSION,
    MAGIC,
    RECORD_KIND,
    _HEADER,
    CatalogStats,
    PlanCatalog,
    resolve_catalog,
)
from repro.engine.cyclic import choose_tree_projection
from repro.exceptions import CatalogError
from repro.hypergraph import (
    DatabaseSchema,
    RelationSchema,
    aring,
    random_cyclic_schema,
)
from repro.relational.universal import random_ur_database
from repro.relational.yannakakis import naive_join_project

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The target the cyclic fixture (``aring4``, "ab,bc,cd,ad") is queried on.
TARGET = ("a", "c")


@pytest.fixture(autouse=True)
def _scrub_catalog_environment(monkeypatch):
    """Catalog faults and the env-default catalog never leak into tests."""
    for name in (
        "REPRO_CATALOG_DIR",
        faults.ENV_TORN_WRITE,
        faults.ENV_CORRUPT_RECORD,
        faults.ENV_FAULT_DIR,
    ):
        monkeypatch.delenv(name, raising=False)


def _state_for(schema, seed=0, rows=12):
    return random_ur_database(schema, tuple_count=rows, domain_size=6, rng=seed)


def _prepare(analysis, target):
    if analysis.is_cyclic:
        return analysis.prepare_cyclic(target)
    return analysis.prepare(target)


def _assert_oracle_equal(analysis, target, states):
    """The analysis must answer like the naive join-then-project oracle."""
    target = RelationSchema(target)
    runs = _prepare(analysis, target).execute_many(states, backend="compiled")
    for run, state in zip(runs, states):
        assert run.result == naive_join_project(analysis.schema, target, state)[0]


def _frame(payload, version=FORMAT_VERSION):
    """A checksum-valid record around ``payload``."""
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, version, RECORD_KIND, checksum, len(payload)) + payload


def _store_cyclic(tmp_path, schema, target=TARGET):
    clear_analysis_cache()
    analysis = analyze(schema)
    analysis.prepare_cyclic(list(target))
    catalog = PlanCatalog(str(tmp_path))
    assert catalog.store(analysis)
    return catalog


# -- round-trips -----------------------------------------------------------------


class TestAnalysisRoundTrip:
    def test_tree_schema_writes_no_record(self, tmp_path, chain4):
        clear_analysis_cache()
        analysis = analyze(chain4)
        analysis.prepare(["a", "d"])
        catalog = PlanCatalog(str(tmp_path))
        # No projection choice to persist: the store is a skip, not a write.
        assert catalog.store(analysis)
        assert catalog.stats.stores == 0
        assert catalog.stats.store_skips == 1
        assert not any(name.endswith(".plan") for name in os.listdir(str(tmp_path)))

        clear_analysis_cache()
        restored = analyze(chain4, catalog=catalog)
        assert catalog.stats.hits == 0
        assert catalog.stats.misses == 1
        _assert_oracle_equal(restored, ["a", "d"], [_state_for(chain4, seed=s) for s in range(3)])

    def test_cyclic_artifacts_survive(self, tmp_path, triangle):
        clear_analysis_cache()
        analysis = analyze(triangle)
        prepared = analysis.prepare_cyclic(["a", "b"])
        choice = analysis.cyclic_projection(["a", "b"])

        catalog = PlanCatalog(str(tmp_path))
        assert catalog.store(analysis)
        # A second store is fingerprint-skipped: nothing new to persist.
        assert catalog.store(analysis)
        assert catalog.stats.store_skips == 1

        assert os.path.getsize(catalog.record_path(triangle)) > 0

        clear_analysis_cache()
        restored = analyze(triangle, catalog=catalog)
        assert catalog.stats.hits == 1
        assert catalog.stats.quarantined == 0
        assert restored.is_cyclic
        restored_choice = restored.cyclic_projection(["a", "b"])
        assert restored_choice == choice
        assert restored_choice.projection.relations == choice.projection.relations

        state = _state_for(triangle, seed=7)
        restored_prepared = restored.prepare_cyclic(["a", "b"])
        expected = prepared.execute(state, backend="classic")
        assert restored_prepared.execute(state).result == expected.result

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_analysis_round_trip_property(self, data):
        size = data.draw(st.integers(3, 6))
        schema = random_cyclic_schema(size, rng=data.draw(st.integers(0, 10**6)))
        attrs = list(schema.attributes.sorted_attributes())
        target = RelationSchema(
            data.draw(st.sets(st.sampled_from(attrs), max_size=min(3, len(attrs))))
        )
        clear_analysis_cache()
        analyze(schema).prepare_cyclic(target)
        with tempfile.TemporaryDirectory() as directory:
            catalog = PlanCatalog(directory)
            assert catalog.store(analyze(schema))
            clear_analysis_cache()
            restored = analyze(schema, catalog=catalog)
            assert catalog.stats.hits == 1
            # Seeded from disk, not searched again.
            assert target in restored._cyclic_choices
            assert restored.cyclic_projection(target) == choose_tree_projection(
                schema, target
            )
            _assert_oracle_equal(restored, target, [_state_for(schema, seed=5, rows=8)])

    def test_key_is_order_sensitive(self, tmp_path):
        # The catalog inherits the LRU's key discipline: multiset-equal
        # schemas in different orders are distinct entries.
        forward = DatabaseSchema([RelationSchema(r) for r in ("ab", "bc", "ac")])
        backward = DatabaseSchema([RelationSchema(r) for r in ("ac", "bc", "ab")])
        catalog = _store_cyclic(tmp_path, forward, target=("a", "b"))
        clear_analysis_cache()
        assert catalog.load(backward) is None
        assert catalog.stats.misses == 1
        assert catalog.load(forward) is not None

    def test_prepared_from_spec_stores_back(self, tmp_path, aring4):
        clear_analysis_cache()
        prepared = analyze(aring4).prepare_cyclic(list(TARGET))
        spec = prepared.plan_spec()
        catalog = PlanCatalog(str(tmp_path))

        clear_analysis_cache()
        rebuilt = prepared_from_spec(spec, catalog=catalog)
        # Cold rebuild: catalog miss, then the analysis is stored back.
        assert catalog.stats.misses == 1
        assert catalog.stats.stores == 1

        clear_analysis_cache()
        prepared_from_spec(spec, catalog=catalog)
        # Simulated respawned worker: the projection now comes from disk.
        assert catalog.stats.hits == 1

        state = _state_for(aring4, seed=11)
        assert (
            rebuilt.execute(state).result
            == prepared.execute(state, backend="classic").result
        )

    def test_environment_default_catalog(self, tmp_path, aring4, monkeypatch):
        monkeypatch.setenv("REPRO_CATALOG_DIR", str(tmp_path))
        catalog = resolve_catalog(None)
        assert catalog is not None and catalog.directory == str(tmp_path)
        # Memoized: the same directory resolves to the same instance (one
        # stats object, one degraded latch per process).
        assert resolve_catalog(None) is catalog
        clear_analysis_cache()
        analysis = analyze(aring4)
        analysis.prepare_cyclic(list(TARGET))
        catalog.store(analysis)
        clear_analysis_cache()
        analyze(aring4)  # no explicit catalog argument: env default consulted
        assert catalog.stats.hits == 1


# -- corruption defense ----------------------------------------------------------


def _good_record(triangle):
    """The JSON record a healthy catalog writes for ``triangle`` / ``ab``."""
    with tempfile.TemporaryDirectory() as directory:
        catalog = _store_cyclic(directory, triangle, target=("a", "b"))
        with open(catalog.record_path(triangle), "rb") as handle:
            data = handle.read()
    return json.loads(data[_HEADER.size :])


def _without(field):
    def mutate(record):
        del record[field]
        return record

    return mutate


def _with_choice(field, value):
    def mutate(record):
        record["choices"][0][field] = value
        return record

    return mutate


#: Checksum-valid payloads that must not restore, each a mutation of the
#: healthy triangle record (or raw bytes).
MALFORMED_PAYLOADS = {
    "not-json": b"\x00 not json at all",
    "json-list": b"[1, 2, 3]",
    "missing-key": _without("key"),
    "missing-choices": _without("choices"),
    "target-outside-universe": _with_choice("target", ["a", "z"]),
    "projection-not-covering": _with_choice("projection", [["a", "b"], ["b", "c"]]),
    "cyclic-projection": _with_choice("projection", [["a", "b"], ["b", "c"], ["a", "c"]]),
    "wrong-width": _with_choice("width", 2),
}


class TestCorruptionDefense:
    def _assert_quarantined_then_answers(self, catalog, schema, tmp_path):
        clear_analysis_cache()
        assert catalog.load(schema) is None
        assert catalog.stats.quarantined == 1
        assert catalog.stats.misses == 1
        corrupt = [
            name
            for name in os.listdir(str(tmp_path))
            if name.endswith(".corrupt")
        ]
        assert len(corrupt) == 1
        # After quarantine the record is gone: the next load is a plain miss
        # and fresh analysis still answers oracle-equal.
        assert catalog.load(schema) is None
        assert catalog.stats.quarantined == 1
        clear_analysis_cache()
        fresh = analyze(schema, catalog=catalog)
        _assert_oracle_equal(fresh, TARGET, [_state_for(schema, seed=2)])

    def test_truncated_record_quarantined(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        path = catalog.record_path(aring4)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        self._assert_quarantined_then_answers(catalog, aring4, tmp_path)

    def test_bit_flip_quarantined(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        path = catalog.record_path(aring4)
        with open(path, "r+b") as handle:
            handle.seek(_HEADER.size + 5)
            byte = handle.read(1)
            handle.seek(_HEADER.size + 5)
            handle.write(bytes([byte[0] ^ 0xFF]))
        self._assert_quarantined_then_answers(catalog, aring4, tmp_path)

    def test_stale_format_version_quarantined(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        path = catalog.record_path(aring4)
        with open(path, "rb") as handle:
            data = handle.read()
        magic, version, kind, checksum, length = _HEADER.unpack_from(data, 0)
        assert version == FORMAT_VERSION
        stale = _HEADER.pack(magic, version + 1, kind, checksum, length)
        with open(path, "wb") as handle:
            handle.write(stale + data[_HEADER.size :])
        self._assert_quarantined_then_answers(catalog, aring4, tmp_path)

    def test_bad_magic_quarantined(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        path = catalog.record_path(aring4)
        with open(path, "r+b") as handle:
            handle.write(b"NOTMAGIC")
        self._assert_quarantined_then_answers(catalog, aring4, tmp_path)

    def test_trailing_garbage_is_corruption(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        with open(catalog.record_path(aring4), "ab") as handle:
            handle.write(b"extra")
        self._assert_quarantined_then_answers(catalog, aring4, tmp_path)

    def test_undeserializable_payload_quarantined(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        path = catalog.record_path(aring4)
        # A checksum-valid record whose payload is not JSON at all.
        with open(path, "wb") as handle:
            handle.write(_frame(b"\x00garbage that is not JSON"))
        self._assert_quarantined_then_answers(catalog, aring4, tmp_path)

    def test_v1_pickle_record_is_never_unpickled(self, tmp_path, aring4, monkeypatch):
        catalog = _store_cyclic(tmp_path, aring4)
        path = catalog.record_path(aring4)
        calls = []
        monkeypatch.setattr(pickle, "loads", lambda *args, **kw: calls.append(args))
        with open(path, "wb") as handle:
            handle.write(_frame(pickle.dumps({"kind": "analysis"}), version=1))
        assert not catalog.records()[0].ok
        self._assert_quarantined_then_answers(catalog, aring4, tmp_path)
        assert calls == []

    @pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
    def test_malformed_payload_quarantined(self, tmp_path, triangle, case):
        mutation = MALFORMED_PAYLOADS[case]
        if isinstance(mutation, bytes):
            payload = mutation
        else:
            payload = json.dumps(mutation(_good_record(triangle))).encode("utf-8")
        catalog = PlanCatalog(str(tmp_path))
        path = catalog.record_path(triangle)

        def plant():
            with open(path, "wb") as handle:
                handle.write(_frame(payload))

        plant()
        infos = catalog.records()
        assert len(infos) == 1 and not infos[0].ok and infos[0].error
        clear_analysis_cache()
        assert catalog.load(triangle) is None
        assert catalog.stats.quarantined == 1
        plant()
        assert catalog.verify()["quarantined"] == [os.path.basename(path)]
        assert catalog.stats.quarantined == 2
        # The rejected record is re-analyzed: a fresh search, oracle answers.
        clear_analysis_cache()
        fresh = analyze(triangle, catalog=catalog)
        assert fresh.cyclic_projection(["a", "b"]) == choose_tree_projection(triangle, "ab")
        states = [_state_for(triangle, seed=seed) for seed in range(3)]
        _assert_oracle_equal(fresh, ("a", "b"), states)

    def test_verify_sweeps_corruption(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        path = catalog.record_path(aring4)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        report = catalog.verify()
        assert report["checked"] == 1
        assert report["ok"] == 0
        assert len(report["quarantined"]) == 1
        assert catalog.stats.quarantined == 1
        # The swept catalog is clean.
        assert catalog.verify() == {"checked": 0, "ok": 0, "quarantined": []}

    def test_records_reports_without_quarantining(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        infos = catalog.records()
        assert len(infos) == 1 and infos[0].ok
        assert infos[0].schema == aring4.to_notation()
        assert infos[0].choices == 1
        path = catalog.record_path(aring4)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        infos = catalog.records()
        assert len(infos) == 1 and not infos[0].ok
        assert infos[0].error
        # Read-only: the corrupt record is still in place.
        assert os.path.exists(path)
        assert catalog.stats.quarantined == 0

    def test_gc_removes_quarantine_and_temp(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        path = catalog.record_path(aring4)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        catalog.verify()
        # Orphaned temp file, as a crashed writer would leave behind.
        orphan = str(tmp_path / ".tmp.dead123.part")
        with open(orphan, "wb") as handle:
            handle.write(b"partial")
        report = catalog.gc()
        assert report["removed_corrupt"] == 1
        assert report["removed_temp"] == 1
        assert not os.path.exists(orphan)
        assert not any(
            name.endswith(".corrupt") for name in os.listdir(str(tmp_path))
        )

    def test_gc_keep_prunes_oldest(self, tmp_path):
        catalog = PlanCatalog(str(tmp_path))
        for size in (3, 4, 5):
            clear_analysis_cache()
            analysis = analyze(aring(size))
            analysis.cyclic_projection(["a"])
            assert catalog.store(analysis)
            path = catalog.record_path(aring(size))
            os.utime(path, (size, size))  # deterministic mtime ordering
        report = catalog.gc(keep=1)
        assert report["removed_records"] == 2
        infos = catalog.records()
        assert len(infos) == 1
        assert infos[0].schema == aring(5).to_notation()

    def test_gc_rejects_negative_keep(self, tmp_path, aring4):
        catalog = _store_cyclic(tmp_path, aring4)
        with pytest.raises(ValueError):
            catalog.gc(keep=-1)
        assert len(catalog.records()) == 1


# -- degraded mode ---------------------------------------------------------------


def _cyclic_analysis(schema):
    clear_analysis_cache()
    analysis = analyze(schema)
    analysis.cyclic_projection(list(TARGET))
    return analysis


class TestDegradedMode:
    def test_store_degrades_on_missing_directory(self, tmp_path, aring4):
        import shutil

        directory = str(tmp_path / "cat")
        catalog = PlanCatalog(directory)
        analysis = _cyclic_analysis(aring4)
        shutil.rmtree(directory)
        assert not catalog.store(analysis)
        assert catalog.stats.degraded == 1
        assert not catalog.stats.disabled

    def test_repeated_io_failures_latch_disabled(self, tmp_path, aring4):
        import shutil

        from repro.engine.catalog import MAX_CONSECUTIVE_IO_ERRORS

        directory = str(tmp_path / "cat")
        catalog = PlanCatalog(directory)
        analysis = _cyclic_analysis(aring4)
        shutil.rmtree(directory)
        for _ in range(MAX_CONSECUTIVE_IO_ERRORS):
            assert not catalog.store(analysis)
        assert catalog.stats.disabled
        assert catalog.disabled
        # Disabled: loads are pure in-memory misses, stores are no-ops, and
        # neither raises.
        assert catalog.load(aring4) is None
        assert not catalog.store(analysis)
        assert catalog.stats.degraded == MAX_CONSECUTIVE_IO_ERRORS

    def test_create_false_requires_directory(self, tmp_path):
        with pytest.raises(CatalogError):
            PlanCatalog(str(tmp_path / "absent"), create=False)

    def test_serving_path_never_raises(self, tmp_path, aring4):
        # Point the catalog at a *file*: every I/O fails, nothing raises.
        blocker = str(tmp_path / "blocker")
        with open(blocker, "w") as handle:
            handle.write("x")
        catalog = PlanCatalog.__new__(PlanCatalog)
        catalog.directory = blocker
        catalog.stats = CatalogStats()
        import threading

        catalog._lock = threading.Lock()
        catalog._consecutive_errors = 0
        catalog._fingerprints = {}
        analysis = _cyclic_analysis(aring4)
        assert catalog.load(aring4) is None
        assert not catalog.store(analysis)
        assert catalog.records() == []
        assert catalog.gc()["removed_corrupt"] == 0


# -- injected faults and crash safety --------------------------------------------


class TestInjectedFaults:
    def test_corrupt_record_fault(self, tmp_path, aring4, monkeypatch):
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir()
        monkeypatch.setenv(faults.ENV_FAULT_DIR, str(fault_dir))
        monkeypatch.setenv(faults.ENV_CORRUPT_RECORD, "1")
        catalog = _store_cyclic(tmp_path / "cat", aring4)
        # The write "succeeded" but one payload byte was flipped after the
        # checksum: the read path must detect and quarantine it.
        assert catalog.stats.stores == 1
        catalog._fingerprints.clear()  # force a re-read, not a skip
        clear_analysis_cache()
        assert catalog.load(aring4) is None
        assert catalog.stats.quarantined == 1
        # The fault fired exactly once: the next store is healthy.
        clear_analysis_cache()
        analysis = analyze(aring4)
        analysis.prepare_cyclic(list(TARGET))
        assert catalog.store(analysis)
        clear_analysis_cache()
        assert analyze(aring4, catalog=catalog) is not None
        assert catalog.stats.hits == 1
        _assert_oracle_equal(
            analyze(aring4), TARGET, [_state_for(aring4, seed=4)]
        )

    def test_torn_write_fault(self, tmp_path, aring4, monkeypatch):
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir()
        monkeypatch.setenv(faults.ENV_FAULT_DIR, str(fault_dir))
        monkeypatch.setenv(faults.ENV_TORN_WRITE, "1")
        catalog = _store_cyclic(tmp_path / "cat", aring4)
        path = catalog.record_path(aring4)
        # The torn write renamed a prefix into place.
        full_size = os.path.getsize(path)
        catalog._fingerprints.clear()
        clear_analysis_cache()
        assert catalog.load(aring4) is None
        assert catalog.stats.quarantined == 1
        corrupt_path = path + ".corrupt"
        assert os.path.exists(corrupt_path)
        assert os.path.getsize(corrupt_path) == full_size

    def test_kill_mid_write_reopens_clean(self, tmp_path, aring4):
        """The acceptance-criteria crash test: SIGKILL mid-catalog-write.

        A child process arms ``REPRO_FAULT_TORN_WRITE=1:kill`` and stores an
        analysis; the fault tears the write and SIGKILLs the child after the
        rename.  The parent then reopens the catalog: verify() quarantines
        exactly the partial record, and the same query answers oracle-equal
        through fresh analysis.
        """
        catalog_dir = tmp_path / "cat"
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir()
        child = (
            "import os\n"
            "from repro.engine import analyze\n"
            "from repro.engine.catalog import PlanCatalog\n"
            "analysis = analyze('ab,bc,cd,da')\n"
            "analysis.prepare_cyclic(['a', 'c'])\n"
            f"PlanCatalog({str(catalog_dir)!r}).store(analysis)\n"
            "print('UNREACHABLE')\n"
        )
        environment = dict(os.environ)
        environment.update(
            {
                "PYTHONPATH": _SRC,
                faults.ENV_FAULT_DIR: str(fault_dir),
                faults.ENV_TORN_WRITE: "1:kill",
            }
        )
        completed = subprocess.run(
            [sys.executable, "-c", child],
            env=environment,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == -signal.SIGKILL
        assert "UNREACHABLE" not in completed.stdout

        # Reopen: the torn record is on disk, verification quarantines it.
        catalog = PlanCatalog(str(catalog_dir))
        report = catalog.verify()
        assert report["checked"] == 1
        assert report["ok"] == 0
        assert len(report["quarantined"]) == 1
        assert catalog.stats.quarantined == 1

        # The serving path recovers: miss, fresh analysis, oracle-equal.
        clear_analysis_cache()
        analysis = analyze(aring4, catalog=catalog)
        assert catalog.stats.hits == 0
        _assert_oracle_equal(analysis, TARGET, [_state_for(aring4, seed=9)])

        # And the healed catalog serves hits again.
        analysis.prepare_cyclic(list(TARGET))
        assert catalog.store(analysis)
        clear_analysis_cache()
        analyze(aring4, catalog=catalog)
        assert catalog.stats.hits == 1

    def test_counted_catalog_fault_requires_fault_dir(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_TORN_WRITE, "1")
        with pytest.raises(ValueError):
            faults.torn_write_mode()
        monkeypatch.setenv(faults.ENV_TORN_WRITE, "1:bogus")
        with pytest.raises(ValueError):
            faults.torn_write_mode()


# -- concurrency -----------------------------------------------------------------


class TestSharedDirectory:
    def test_two_catalogs_share_one_directory(self, tmp_path, aring4):
        first = PlanCatalog(str(tmp_path))
        second = PlanCatalog(str(tmp_path))
        clear_analysis_cache()
        analysis = analyze(aring4)
        analysis.prepare_cyclic(list(TARGET))
        assert first.store(analysis)
        clear_analysis_cache()
        restored = second.load(aring4)
        assert restored is not None
        assert second.stats.hits == 1

    def test_writer_lock_file_created(self, tmp_path, aring4):
        pytest.importorskip("fcntl")
        catalog = PlanCatalog(str(tmp_path))
        assert catalog.store(_cyclic_analysis(aring4))
        assert os.path.exists(str(tmp_path / ".lock"))
