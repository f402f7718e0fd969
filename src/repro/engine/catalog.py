"""Crash-safe persistent plan catalog: the tree-projection choices of a schema.

The analysis LRU (:mod:`repro.engine.analysis`) and the worker plan caches
are per-process: they die with the process, so every cold start — and every
worker respawned by the PR-6 supervisor — pays full planning again.  Of
everything an :class:`~repro.engine.analysis.AnalyzedSchema` derives, only
the tree projection of a cyclic schema (Section 6, Theorem 6.1) is costly to
recompute: the search takes tens to hundreds of milliseconds, while the GYO
trace and the qual tree of a tree schema recompute in well under one.  So a
:class:`PlanCatalog` record holds exactly one thing — the
:class:`~repro.engine.cyclic.ProjectionChoice`\\ s of one **ordered relation
tuple** (the key discipline of the analysis LRU: analysis artifacts are
positional, and multiset-equal schemas in different orders must not share
them) — written as plain UTF-8 JSON::

    {"key": [[attr, ...] per relation, in order],
     "choices": [{"target", "projection", "method", "minimal",
                  "width", "fanout", "total_arity"}, ...]}

A tree schema has no choice to persist and never gets a record.

Durability first
----------------

The catalog is built to survive ``kill -9`` and to distrust everything it
reads back:

* **Durable writes.**  Every record is serialized in memory, written to a
  temporary file *in the catalog directory* (same filesystem, so the rename
  is atomic), fsynced, atomically renamed over the final name, and the
  directory entry fsynced — under an advisory ``fcntl`` writer lock
  (``.lock``) so concurrent processes can share one catalog directory.  A
  crash at any point leaves either the old record or the new one, never a
  half-visible name.
* **Verified reads, checked by meaning.**  Each record starts with a fixed
  header — magic, format version, record kind, CRC-32 checksum, payload
  length — and the read path verifies all five before decoding.  The
  payload is then decoded as plain data (it can never execute code) and
  every restored projection must pass the same
  :func:`~repro.engine.cyclic.is_valid_projection` check the search itself
  applies, with its recorded statistics matching.  Any failure
  (truncation, bad magic, a format version this library does not speak,
  checksum failure, trailing garbage, malformed JSON, a projection that is
  not a tree projection of ``D ∪ (X)``) is treated as corruption: the record
  is **quarantined** (renamed to ``*.corrupt``, counted in
  :class:`CatalogStats`) and the caller falls back to fresh analysis.
  Corruption can never take the serving path down.
* **Degraded mode.**  I/O failures (``ENOSPC``, permissions, a yanked
  mount) are absorbed and counted; after
  :data:`MAX_CONSECUTIVE_IO_ERRORS` consecutive failures the catalog stops
  touching the disk entirely and serves pure misses, so a broken disk costs
  one error per operation at worst and nothing once latched.  The serving
  path never sees an exception from the catalog.

The deterministic fault points behind the corruption tests live in
:mod:`repro.engine.faults` (``REPRO_FAULT_TORN_WRITE``,
``REPRO_FAULT_CORRUPT_RECORD``).

Integration
-----------

``analyze(schema, catalog=...)`` consults a catalog on an analysis-LRU
miss; :func:`~repro.engine.analysis.prepared_from_spec` both consults and
writes back, which is what lets a respawned worker skip the tree-projection
search.  The environment variable :data:`ENV_CATALOG_DIR`
(``REPRO_CATALOG_DIR``) names a default catalog that is picked up
process-wide — worker processes inherit it, so arming it warms every future
cold start.  See ``docs/persistence.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

try:  # pragma: no cover - platform dependent
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..exceptions import CatalogCorruptionError, CatalogError
from ..hypergraph.schema import DatabaseSchema, RelationSchema
from . import faults
from .analysis import _CACHE_LOCK, AnalyzedSchema
from .cyclic import ProjectionChoice, is_valid_projection

__all__ = [
    "ENV_CATALOG_DIR",
    "FORMAT_VERSION",
    "CatalogRecordInfo",
    "CatalogStats",
    "PlanCatalog",
    "default_catalog",
    "resolve_catalog",
]

#: Directory of the process-wide default catalog (inherited by workers).
ENV_CATALOG_DIR = "REPRO_CATALOG_DIR"

#: Bump when the record framing or payload layout changes incompatibly.
#: Readers quarantine records from other versions — a stale-version record
#: is indistinguishable from one this build cannot be trusted to interpret.
#: Version 1 records held serialized Python objects; version 2 holds the
#: JSON projection choices, so a version 1 record is quarantined on its
#: header alone, before its payload is ever decoded.
FORMAT_VERSION = 2

#: Eight fixed magic bytes opening every record.
MAGIC = b"RPROCAT\x01"

#: The record kind (``kind`` field of the header): projection choices.
RECORD_KIND = 1

#: Header layout: magic ``8s``, format version ``H``, record kind ``H``,
#: CRC-32 of the payload ``I``, payload length ``Q`` — 24 bytes.
_HEADER = struct.Struct("<8sHHIQ")

#: Consecutive I/O failures after which a catalog latches into degraded
#: (in-memory-only) mode and stops touching the disk.
MAX_CONSECUTIVE_IO_ERRORS = 8

SchemaLike = Union[DatabaseSchema, Sequence[RelationSchema]]
Choices = Dict[RelationSchema, ProjectionChoice]


# -- record framing -------------------------------------------------------------


def _pack_record(payload: bytes) -> bytes:
    """Frame ``payload`` with the versioned, checksummed record header."""
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return (
        _HEADER.pack(MAGIC, FORMAT_VERSION, RECORD_KIND, checksum, len(payload))
        + payload
    )


def _unpack_record(data: bytes, *, path: str) -> bytes:
    """Verify a record file's frame and return its payload.

    Raises :class:`~repro.exceptions.CatalogCorruptionError` on truncation,
    bad magic, unsupported version, wrong kind, checksum mismatch or
    trailing bytes.
    """
    if len(data) < _HEADER.size:
        raise CatalogCorruptionError(
            f"truncated record header ({len(data)} of {_HEADER.size} bytes)",
            path=path,
        )
    magic, version, kind, checksum, length = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CatalogCorruptionError(f"bad record magic {magic!r}", path=path)
    if version != FORMAT_VERSION:
        raise CatalogCorruptionError(
            f"unsupported format version {version} "
            f"(this build speaks {FORMAT_VERSION})",
            path=path,
        )
    if kind != RECORD_KIND:
        raise CatalogCorruptionError(
            f"record kind {kind} where {RECORD_KIND} was expected", path=path
        )
    end = _HEADER.size + length
    if len(data) < end:
        raise CatalogCorruptionError(
            f"truncated payload ({len(data) - _HEADER.size} of {length} bytes)",
            path=path,
        )
    if len(data) > end:
        raise CatalogCorruptionError(
            f"{len(data) - end} trailing bytes after the record", path=path
        )
    payload = data[_HEADER.size : end]
    if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
        raise CatalogCorruptionError("payload checksum mismatch", path=path)
    return payload


# -- the payload ----------------------------------------------------------------


def _encode(key: Tuple[RelationSchema, ...], choices: Choices) -> bytes:
    """The JSON payload of one record (deterministic: targets sorted)."""
    entries = [
        {
            "target": list(target.sorted_attributes()),
            "projection": [
                list(node.sorted_attributes())
                for node in choice.projection.relations
            ],
            "method": choice.method,
            "minimal": choice.minimal,
            "width": choice.width,
            "fanout": choice.fanout,
            "total_arity": choice.total_arity,
        }
        for target, choice in sorted(
            choices.items(), key=lambda item: item[0].sorted_attributes()
        )
    ]
    record = {
        "key": [list(relation.sorted_attributes()) for relation in key],
        "choices": entries,
    }
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


def _relation(attributes: Any) -> RelationSchema:
    # A bare JSON string would be read as single-character attributes.
    if not isinstance(attributes, list):
        raise ValueError(f"a relation must be a list of attributes, not {attributes!r}")
    return RelationSchema(attributes)


def _restore_choice(
    schema: DatabaseSchema, entry: Any
) -> Tuple[RelationSchema, ProjectionChoice]:
    """Rebuild one persisted choice, checked by meaning (raises ``ValueError``).

    The target must lie within ``U(D)``, the projection must pass
    :func:`~repro.engine.cyclic.is_valid_projection` for ``D ∪ (X)``, and the
    recorded width and total arity must be the projection's own.
    """
    target = _relation(entry["target"])
    projection = DatabaseSchema(_relation(node) for node in entry["projection"])
    method, minimal, fanout = entry["method"], entry["minimal"], entry["fanout"]
    if not (isinstance(method, str) and isinstance(minimal, bool) and type(fanout) is int):
        raise ValueError("method, minimal or fanout has the wrong type")
    if not target <= schema.attributes:
        raise ValueError(f"target {target.to_notation()} is not within U(D)")
    lower = schema.add_relation(target) if target else schema
    if not is_valid_projection(projection, lower):
        raise ValueError(
            f"{projection.to_notation()} is not a tree projection of "
            f"{lower.to_notation()}"
        )
    width = max((len(node) for node in projection), default=0)
    total_arity = sum(len(node) for node in projection)
    if (entry["width"], entry["total_arity"]) != (width, total_arity):
        raise ValueError(
            f"recorded width {entry['width']} and total arity "
            f"{entry['total_arity']} do not match the projection's "
            f"{width} and {total_arity}"
        )
    choice = ProjectionChoice(projection, method, minimal, width, fanout, total_arity)
    return target, choice


def _decode(data: bytes, *, path: str) -> Tuple[Tuple[RelationSchema, ...], Choices]:
    """Verify a record file and rebuild ``(key, choices)`` from it.

    The one read path of :meth:`PlanCatalog.load`, :meth:`~PlanCatalog.records`
    and :meth:`~PlanCatalog.verify`.  Every failure — of the frame, of the
    JSON structure or of the meaning check — raises
    :class:`~repro.exceptions.CatalogCorruptionError`.
    """
    payload = _unpack_record(data, path=path)
    try:
        record = json.loads(payload.decode("utf-8"))
        key = tuple(_relation(relation) for relation in record["key"])
        schema = DatabaseSchema(key)
        choices = dict(_restore_choice(schema, entry) for entry in record["choices"])
    except Exception as error:
        # Bytes from disk can fail to parse or check in any way; the
        # serving path must see exactly one error type, carrying the cause.
        raise CatalogCorruptionError(
            f"record does not decode ({type(error).__name__}: {error})", path=path
        ) from error
    return key, choices


# -- durable writes -------------------------------------------------------------


def _apply_write_faults(data: bytes) -> Tuple[bytes, Optional[str]]:
    """Consult the injectable catalog fault points for one durable write.

    Returns ``(data, torn_mode)``: data possibly with one payload byte
    flipped (corrupt-record fault), torn_mode ``None``/``"torn"``/``"kill"``.
    """
    if not faults.catalog_faults_active():
        return data, None
    if faults.corrupt_record() and len(data) > _HEADER.size:
        position = _HEADER.size + (len(data) - _HEADER.size) // 2
        corrupted = bytearray(data)
        corrupted[position] ^= 0xFF
        data = bytes(corrupted)
    return data, faults.torn_write_mode()


def _atomic_write(path: str, data: bytes) -> None:
    """The durable write protocol: temp file, fsync, rename, directory fsync.

    Raises ``OSError`` on failure (callers decide whether to degrade or
    propagate).  The injected torn-write fault writes only a prefix, skips
    the fsync and still renames — the on-disk picture of a crash after
    rename with unflushed pages — and the ``kill`` flavor then SIGKILLs the
    process, making crash tests deterministic.
    """
    data, torn = _apply_write_faults(data)
    directory = os.path.dirname(path) or "."
    descriptor, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp.", suffix=".part"
    )
    try:
        if torn is not None:
            os.write(descriptor, data[: max(_HEADER.size - 4, len(data) // 2)])
            os.close(descriptor)
            os.replace(tmp_path, path)
            if torn == "kill":
                faults.kill_self()
            return
        os.write(descriptor, data)
        os.fsync(descriptor)
        os.close(descriptor)
    except OSError:
        try:
            os.close(descriptor)
        except OSError:
            pass
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    """Flush a directory entry so the rename itself survives power loss."""
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:  # pragma: no cover - fsync on dirs can be unsupported
        pass
    finally:
        os.close(descriptor)


def _as_database_schema(schema: SchemaLike) -> DatabaseSchema:
    return schema if isinstance(schema, DatabaseSchema) else DatabaseSchema(schema)


# -- the catalog ----------------------------------------------------------------


class CatalogStats:
    """Catalog-lifetime counters (every mutation under the catalog lock)."""

    __slots__ = (
        "hits",
        "misses",
        "stores",
        "store_skips",
        "quarantined",
        "degraded",
        "key_mismatches",
        "disabled",
    )

    def __init__(self) -> None:
        #: Loads answered from a verified on-disk record.
        self.hits = 0
        #: Loads with no record on disk (quarantined reads count here too —
        #: after quarantine the record is gone, and the caller re-analyzes).
        self.misses = 0
        #: Durable record writes performed.
        self.stores = 0
        #: Stores with nothing new to write: the record already holds every
        #: choice, or the analysis has none (every tree schema).
        self.store_skips = 0
        #: Corrupt records renamed aside (``*.corrupt``).
        self.quarantined = 0
        #: I/O failures absorbed (the op degraded to an in-memory miss/no-op).
        self.degraded = 0
        #: Records whose stored key did not match the requested key (digest
        #: collision or a foreign file) — served as misses.
        self.key_mismatches = 0
        #: True once consecutive I/O failures latched the catalog into
        #: in-memory-only mode.
        self.disabled = False

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_skips": self.store_skips,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
            "key_mismatches": self.key_mismatches,
            "disabled": self.disabled,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CatalogStats(hits={self.hits}, misses={self.misses}, "
            f"stores={self.stores}, quarantined={self.quarantined}, "
            f"degraded={self.degraded})"
        )


@dataclass(frozen=True)
class CatalogRecordInfo:
    """One catalog entry as reported by :meth:`PlanCatalog.records`."""

    name: str
    path: str
    size: int
    mtime: float
    ok: bool
    #: Schema notation (verified records only).
    schema: Optional[str] = None
    #: Number of persisted projection choices (verified records only).
    choices: Optional[int] = None
    #: Why verification failed (corrupt records only).
    error: Optional[str] = None


class PlanCatalog:
    """A disk-backed, crash-safe store of tree-projection choices.

    One catalog owns a directory; records are files named by a digest of
    the ordered relation tuple.  All methods are thread-safe, and multiple
    processes may share one directory (writers serialize on the advisory
    ``.lock`` file; readers need no lock — they only ever see a complete
    old record or a complete new one, thanks to the atomic-rename
    protocol).

    The serving-path contract: :meth:`load` and :meth:`store` **never
    raise**.  Corruption quarantines, I/O failure degrades, and both are
    visible in :attr:`stats` — see the module docstring.
    """

    _RECORD_SUFFIX = ".plan"
    _QUARANTINE_SUFFIX = ".corrupt"

    def __init__(self, directory: str, *, create: bool = True) -> None:
        self.directory = os.path.abspath(directory)
        self.stats = CatalogStats()
        self._lock = threading.Lock()
        self._consecutive_errors = 0
        #: digest -> targets whose choices are known to be on disk; lets
        #: `store` skip rewriting records that already hold everything.
        self._fingerprints: Dict[str, FrozenSet[RelationSchema]] = {}
        if create:
            try:
                os.makedirs(self.directory, exist_ok=True)
            except OSError:
                self._note_io_error()
        elif not os.path.isdir(self.directory):
            raise CatalogError(f"catalog directory {self.directory} does not exist")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PlanCatalog({self.directory!r})"

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def key_of(schema: SchemaLike) -> Tuple[RelationSchema, ...]:
        """The catalog key: the **ordered** relation tuple."""
        return _as_database_schema(schema).relations

    @staticmethod
    def key_digest(key: Tuple[RelationSchema, ...]) -> str:
        """Stable cross-process digest of a catalog key."""
        encoded = "\x1e".join(
            "\x1f".join(relation.sorted_attributes()) for relation in key
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:32]

    def record_path(self, schema: SchemaLike) -> str:
        """The record file a schema's projection choices live in."""
        return os.path.join(
            self.directory,
            self.key_digest(self.key_of(schema)) + self._RECORD_SUFFIX,
        )

    # -- degraded-mode accounting ----------------------------------------------

    def _note_io_error(self) -> None:
        with self._lock:
            self.stats.degraded += 1
            self._consecutive_errors += 1
            if self._consecutive_errors >= MAX_CONSECUTIVE_IO_ERRORS:
                self.stats.disabled = True

    def _note_io_success(self) -> None:
        with self._lock:
            self._consecutive_errors = 0

    @property
    def disabled(self) -> bool:
        """True once the catalog latched into in-memory-only mode."""
        with self._lock:
            return self.stats.disabled

    # -- the writer lock -------------------------------------------------------

    def _acquire_writer_lock(self) -> Optional[int]:
        """Take the advisory cross-process writer lock (None: unavailable).

        Advisory by design: readers never block, and a platform without
        ``fcntl`` simply relies on atomic rename (last writer wins, which
        is safe — records are pure functions of their key plus a monotone
        choice set).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            return None
        try:
            descriptor = os.open(
                os.path.join(self.directory, ".lock"),
                os.O_CREAT | os.O_WRONLY,
                0o644,
            )
            fcntl.flock(descriptor, fcntl.LOCK_EX)
        except OSError:
            return None
        return descriptor

    @staticmethod
    def _release_writer_lock(descriptor: Optional[int]) -> None:
        if descriptor is None:
            return
        try:
            fcntl.flock(descriptor, fcntl.LOCK_UN)
        except OSError:  # pragma: no cover - unlock cannot realistically fail
            pass
        finally:
            os.close(descriptor)

    # -- quarantine ------------------------------------------------------------

    def _quarantine(self, path: str, error: CatalogCorruptionError) -> None:
        """Move a corrupt record aside (never raising) and count it."""
        try:
            os.replace(path, path + self._QUARANTINE_SUFFIX)
            with self._lock:
                self.stats.quarantined += 1
        except OSError:
            # Could not even rename (read-only mount?): degrade.  The next
            # read will re-detect the corruption; serving stays up either way.
            self._note_io_error()

    # -- load / store ----------------------------------------------------------

    def load(self, schema: SchemaLike):
        """The persisted analysis for ``schema``, or ``None`` (never raises).

        A verified record restores to a fresh
        :class:`~repro.engine.analysis.AnalyzedSchema` over the caller's own
        schema object whose tree-projection memo is seeded with the
        persisted choices (everything else recomputes lazily); a missing
        record is a miss; a corrupt record is quarantined and served as a
        miss; an I/O failure degrades and is served as a miss.
        """
        database_schema = _as_database_schema(schema)
        key = database_schema.relations
        digest = self.key_digest(key)
        path = os.path.join(self.directory, digest + self._RECORD_SUFFIX)
        if self.disabled:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except OSError:
            self._note_io_error()
            with self._lock:
                self.stats.misses += 1
            return None
        self._note_io_success()
        try:
            record_key, choices = _decode(data, path=path)
        except CatalogCorruptionError as error:
            self._quarantine(path, error)
            with self._lock:
                self.stats.misses += 1
            return None
        if record_key != key:
            with self._lock:
                self.stats.key_mismatches += 1
                self.stats.misses += 1
            return None
        # The caller's schema object (not a decoded copy) keeps the compiled
        # backend's per-state identity fast path working for its states.
        analysis = AnalyzedSchema(database_schema)
        analysis._cyclic_choices.update(choices)
        with self._lock:
            self.stats.hits += 1
            self._fingerprints[digest] = frozenset(choices)
        return analysis

    def store(self, analysis) -> bool:
        """Persist an analysis's projection choices durably (never raises).

        Writes only when the analysis holds a choice the on-disk record is
        not known to have; otherwise — including every tree schema, which
        has no choice at all — the call is a ``store_skip``, which keeps hot
        serving paths from rewriting an unchanged record on every batch.
        Returns True when nothing the analysis holds is missing from disk
        after the call.
        """
        if self.disabled:
            return False
        with _CACHE_LOCK:
            choices = dict(analysis._cyclic_choices)
        if not choices:
            with self._lock:
                self.stats.store_skips += 1
            return True
        key = analysis.schema.relations
        digest = self.key_digest(key)
        with self._lock:
            if set(choices) <= self._fingerprints.get(digest, frozenset()):
                self.stats.store_skips += 1
                return True
        path = os.path.join(self.directory, digest + self._RECORD_SUFFIX)
        data = _pack_record(_encode(key, choices))
        lock_descriptor = self._acquire_writer_lock()
        try:
            _atomic_write(path, data)
        except OSError:
            self._note_io_error()
            return False
        finally:
            self._release_writer_lock(lock_descriptor)
        self._note_io_success()
        with self._lock:
            self.stats.stores += 1
            self._fingerprints[digest] = frozenset(choices)
        return True

    # -- inspection / maintenance ----------------------------------------------

    def _record_names(self) -> List[str]:
        try:
            names = sorted(
                name
                for name in os.listdir(self.directory)
                if name.endswith(self._RECORD_SUFFIX)
            )
        except OSError:
            self._note_io_error()
            return []
        self._note_io_success()
        return names

    def records(self) -> List[CatalogRecordInfo]:
        """Inspect every record (read-only: corrupt entries are reported,
        not quarantined — that is :meth:`verify`'s job)."""
        infos: List[CatalogRecordInfo] = []
        for name in self._record_names():
            path = os.path.join(self.directory, name)
            try:
                size = os.path.getsize(path)
                mtime = os.path.getmtime(path)
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                self._note_io_error()
                continue
            try:
                key, choices = _decode(data, path=path)
                infos.append(
                    CatalogRecordInfo(
                        name=name,
                        path=path,
                        size=size,
                        mtime=mtime,
                        ok=True,
                        schema=DatabaseSchema(key).to_notation(),
                        choices=len(choices),
                    )
                )
            except CatalogCorruptionError as error:
                infos.append(
                    CatalogRecordInfo(
                        name=name,
                        path=path,
                        size=size,
                        mtime=mtime,
                        ok=False,
                        error=str(error),
                    )
                )
        return infos

    def verify(self) -> Dict[str, Any]:
        """Verify every record, quarantining the corrupt ones.

        Returns ``{"checked", "ok", "quarantined": [names...]}``.  This is
        the cold-start integrity sweep: run it after a crash (or from
        ``repro catalog verify``) and the catalog is guaranteed to hold only
        records that :meth:`load` would restore.
        """
        checked = 0
        ok = 0
        quarantined: List[str] = []
        for info in self.records():
            checked += 1
            if info.ok:
                ok += 1
            else:
                self._quarantine(
                    info.path, CatalogCorruptionError(info.error or "corrupt")
                )
                quarantined.append(info.name)
        return {"checked": checked, "ok": ok, "quarantined": quarantined}

    def gc(self, *, keep: Optional[int] = None) -> Dict[str, Any]:
        """Collect quarantined records and orphaned temp files.

        Removes ``*.corrupt`` files (they have served their diagnostic
        purpose once inspected) and ``.tmp.*`` leftovers of writers that
        died before renaming.  With ``keep=N`` the newest ``N`` records (by
        mtime) are retained and the rest deleted — a size bound for
        long-lived catalog directories.  A negative ``keep`` raises
        ``ValueError``.
        """
        if keep is not None and keep < 0:
            raise ValueError(f"keep must be non-negative, got {keep}")
        removed_corrupt = 0
        removed_temp = 0
        removed_records = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            self._note_io_error()
            return {
                "removed_corrupt": 0,
                "removed_temp": 0,
                "removed_records": 0,
            }
        for name in names:
            path = os.path.join(self.directory, name)
            if name.endswith(self._QUARANTINE_SUFFIX):
                try:
                    os.unlink(path)
                    removed_corrupt += 1
                except OSError:
                    self._note_io_error()
            elif name.startswith(".tmp.") and name.endswith(".part"):
                try:
                    os.unlink(path)
                    removed_temp += 1
                except OSError:
                    self._note_io_error()
        if keep is not None:
            records = []
            for name in self._record_names():
                path = os.path.join(self.directory, name)
                try:
                    records.append((os.path.getmtime(path), path))
                except OSError:
                    continue
            records.sort(reverse=True)
            for _, path in records[keep:]:
                try:
                    os.unlink(path)
                    removed_records += 1
                except OSError:
                    self._note_io_error()
        return {
            "removed_corrupt": removed_corrupt,
            "removed_temp": removed_temp,
            "removed_records": removed_records,
        }


# -- the default catalog --------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT_CATALOG: Optional[PlanCatalog] = None


def default_catalog() -> Optional[PlanCatalog]:
    """The process-wide catalog named by ``REPRO_CATALOG_DIR``, or ``None``.

    Memoized per directory, so every ``analyze`` call shares one stats
    object and one degraded-mode latch; changing the environment variable
    mid-process switches to (and memoizes) the new directory.
    """
    global _DEFAULT_CATALOG
    path = os.environ.get(ENV_CATALOG_DIR)
    if not path:
        return None
    absolute = os.path.abspath(path)
    with _DEFAULT_LOCK:
        if _DEFAULT_CATALOG is None or _DEFAULT_CATALOG.directory != absolute:
            _DEFAULT_CATALOG = PlanCatalog(absolute)
        return _DEFAULT_CATALOG


def resolve_catalog(
    catalog: Union[PlanCatalog, str, None],
) -> Optional[PlanCatalog]:
    """Normalize a catalog argument: instance, directory path, or ``None``
    (meaning the environment-configured default, which may itself be absent).
    """
    if catalog is None:
        return default_catalog()
    if isinstance(catalog, PlanCatalog):
        return catalog
    return PlanCatalog(str(catalog))
