"""Positional row-program execution backend for prepared queries.

The classic executor (:meth:`repro.engine.prepared.PreparedQuery.execute`
with ``backend="classic"``) runs the plan's semijoin program and the
bottom-up join on :class:`~repro.relational.relation.Relation` objects: every
step re-derives shared attributes, sorts them, and hashes rows of arbitrary
Python values.  That per-step schema algebra is pure overhead on the
plan-once/execute-many serving path — the plan already fixes, for every step,
which columns are compared and which are kept.

This module compiles a :class:`~repro.engine.prepared.PreparedQuery` into a
:class:`CompiledPlan` that freezes *all* of that algebra ahead of time:

* **Rows are the values.**  A relation slot's encoding is its own row
  tuples.  The row program compares cells only through ``hash`` and ``==``
  (key sets, bucket dictionaries, ``itemgetter`` keys), which is exactly the
  value equality of the classic operators, numeric tower included
  (``1 == 1.0 == True``).  So nothing is interned, nothing is decoded, and
  every cell of an answer is a value of the state it answers.
* **Positional step programs.**  Each semijoin step is compiled to integer
  column positions and prebuilt ``itemgetter`` extractors; each join step is
  resolved at compile time to one of two shapes (child-semijoin, general
  hash join) by replaying the column algebra symbolically, so execution
  never touches attribute names.  The third shape a join could take — the
  child's kept columns all inside the mother, a semijoin of the mother —
  never reaches the kernels: the prepared plan prunes exactly those steps
  as identities.
* **Encode-time key indexes.**  Key sets and join buckets are built at most
  once per (slot, key) and cached on the slot's encoding, where every later
  step that touches the slot — both reducer passes and the join — finds
  them.  :meth:`CompiledPlan.encode_state` looks encodings up in a bounded
  per-slot cache keyed by relation object, so a relation shared across the
  states of a batch (e.g. a fixed dimension table under a changing fact
  table) is indexed once per batch, not once per state.  An entry holds its
  relation weakly: it lives exactly as long as the caller keeps the
  relation, so the cache never pins an input nobody else holds.

Everything around the step program — the bounded per-slot encode cache,
``encode_state`` / ``execute`` / ``execute_batch`` and the diagnostics — is
the :class:`EncodedPlan` core, which the vectorized kernel
(:mod:`repro.relational.vectorized`) shares; both kernels return
:class:`EncodedState` objects from ``encode_state``.  The interner and its
epochs belong to the vectorized kernel alone, the one that needs int64
codes.

The classic operators remain in place as the property-test oracle (the
oracle matrix, ``tests/test_oracle_matrix.py``, holds every entry point
on every backend to them and to ``naive_join_project``), mirroring how
``repro.tableau.reference`` anchors the interned tableau kernel.

Lifecycle: a :class:`CompiledPlan` lives as long as the
:class:`~repro.engine.prepared.PreparedQuery` that owns it; between states
it keeps encodings only of relations some caller still holds (at most the
encode cache's per-slot cap of them).
:meth:`repro.engine.prepared.PreparedQuery.reset_compiled` drops the whole
plan.

Process boundaries: a ``CompiledPlan`` is **not** picklable by design — it is
built from closures and ``itemgetter`` programs.  The pickle-safe boundary
is one level up: :class:`repro.engine.parallel.PlanSpec` (ordered relation
tuple, target, root, cyclic flag) crosses the process boundary and each
worker rebuilds and caches its own plan from the spec.  Answers cross back
as plain-value relations.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import SchemaError
from ..hypergraph.schema import Attribute
from .database import DatabaseState, dedupe_states
from .relation import Relation, _tuple_getter
from .yannakakis import YannakakisRun

__all__ = [
    "CompiledPlan",
    "EncodedPlan",
    "EncodedState",
    "ExecutionStats",
    "plan_layout",
]

def _key_getter(positions: Sequence[int]):
    """An extractor for join/semijoin keys over rows.

    Unlike :func:`~repro.relational.relation._tuple_getter`, a single-column
    key is extracted as the *bare* cell (no 1-tuple wrapping): key sets
    and bucket dictionaries over bare ints hash faster and allocate nothing
    per row.  Both sides of every step use this consistently, so the key
    representations always agree.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        return itemgetter(positions[0])
    return itemgetter(*positions)


class ExecutionStats:
    """Instrumentation for one compiled execution or batch.

    ``keyset_builds`` and ``bucket_builds`` are lineage-attributed: they map
    ``(slot index, key column positions)`` to the number of times that index
    was actually constructed.  On a batch over states whose slot contents
    repeat (and are not filtered by the reducer), each count stays at 1 —
    the property the call-count tests pin down.
    """

    __slots__ = (
        "states",
        "deduped_states",
        "encoded_slots",
        "cached_slots",
        "keyset_builds",
        "bucket_builds",
        "identity_semijoins",
        "filtering_semijoins",
        "interner_resets",
    )

    def __init__(self) -> None:
        self.states = 0
        self.deduped_states = 0
        self.encoded_slots = 0
        self.cached_slots = 0
        self.keyset_builds: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self.bucket_builds: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self.identity_semijoins = 0
        self.filtering_semijoins = 0
        #: Vectorized interner epochs opened while this batch ran
        #: (``repro.relational.vectorized.DEFAULT_MAX_INTERNED_VALUES``
        #: overflows observed at state-encode boundaries); 0 on compiled.
        self.interner_resets = 0

    def absorb(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one (used by stats merging
        across shards/workers; lineage counts are summed per (slot, key))."""
        self.states += other.states
        self.deduped_states += other.deduped_states
        self.encoded_slots += other.encoded_slots
        self.cached_slots += other.cached_slots
        self.identity_semijoins += other.identity_semijoins
        self.filtering_semijoins += other.filtering_semijoins
        self.interner_resets += other.interner_resets
        for lineage, count in other.keyset_builds.items():
            self.keyset_builds[lineage] = self.keyset_builds.get(lineage, 0) + count
        for lineage, count in other.bucket_builds.items():
            self.bucket_builds[lineage] = self.bucket_builds.get(lineage, 0) + count

    def total_keyset_builds(self) -> int:
        """Total number of key-set constructions across all (slot, key) pairs."""
        return sum(self.keyset_builds.values())

    def total_bucket_builds(self) -> int:
        """Total number of join-bucket constructions across all (slot, key) pairs."""
        return sum(self.bucket_builds.values())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ExecutionStats(states={self.states}, "
            f"encoded_slots={self.encoded_slots}, cached_slots={self.cached_slots}, "
            f"keyset_builds={self.total_keyset_builds()}, "
            f"bucket_builds={self.total_bucket_builds()})"
        )


class _Encoding:
    """Encoded rows of one relation slot plus its reusable key indexes.

    ``rows`` is a tuple of row tuples (one cell per column, in the slot's
    canonical column order): the relation's own rows, or the rows a step
    derived from them.  ``keysets`` caches, per key-position tuple, the set
    of key tuples occurring in ``rows``; ``buckets`` caches, per join-step
    tag, grouped rows for the join probe.  Encodings held in a batch cache
    are shared across states, so cached indexes amortize across every state
    whose slot carries the same relation.
    """

    __slots__ = ("rows", "keysets", "buckets")

    def __init__(self, rows: Tuple[Tuple[Any, ...], ...]) -> None:
        self.rows = rows
        self.keysets: Dict[Tuple[int, ...], set] = {}
        self.buckets: Dict[int, Tuple[Dict[Any, tuple], Optional[int]]] = {}


class _SemijoinOp:
    """One compiled reducer step: filter ``target`` rows by ``source`` keys."""

    __slots__ = ("target", "source", "tkey", "skey", "tget", "sget")

    def __init__(
        self,
        target: int,
        source: int,
        tkey: Tuple[int, ...],
        skey: Tuple[int, ...],
    ) -> None:
        self.target = target
        self.source = source
        self.tkey = tkey
        self.skey = skey
        self.tget = _key_getter(tkey)
        self.sget = _key_getter(skey)


#: Join-step shapes resolved at compile time (see :func:`plan_layout`).
_JOIN_SEMI_CHILD = 0  # mother ⊆ child: mother := child ⋉ mother
_JOIN_GENERAL = 1  # hash join combining rows


class _JoinOp:
    """One compiled bottom-up join step (child merged into mother).

    The plan composes each step's early projection directly into the child
    extractors, so execution never materializes projected child relations:

    * general shape — ``extract`` reads the projected child columns in
      (shared key, new columns) order off the unprojected row; buckets map
      ``row[:kw]`` keys to ``row[kw:]`` parts and output rows are built as
      ``mother_row + part`` (intermediate layouts are chosen at compile time
      to make every join a plain tuple concatenation).
    * child-semijoin shape — projected child rows are the output, so this
      shape keeps an explicit ``proj_get``.
    """

    __slots__ = (
        "kind",
        "mother",
        "node",
        "tag",
        "proj_get",
        "mkey",
        "ckey",
        "mget",
        "cget",
        "cnew",
        "extract",
        "kw",
    )

    def __init__(
        self,
        kind: int,
        mother: int,
        node: int,
        tag: int,
        *,
        proj_get=None,
        mkey: Tuple[int, ...] = (),
        ckey: Tuple[int, ...] = (),
        cnew=None,
        extract=None,
        kw: int = 0,
    ) -> None:
        self.kind = kind
        self.mother = mother
        self.node = node
        self.tag = tag
        self.proj_get = proj_get
        self.mkey = mkey
        self.ckey = ckey
        self.mget = _key_getter(mkey)
        self.cget = _key_getter(ckey)
        self.cnew = cnew
        self.extract = extract
        self.kw = kw


class _SemijoinLayout:
    """Position-only description of one reducer step (see :func:`plan_layout`)."""

    __slots__ = ("target", "source", "tkey", "skey")

    def __init__(
        self,
        target: int,
        source: int,
        tkey: Tuple[int, ...],
        skey: Tuple[int, ...],
    ) -> None:
        self.target = target
        self.source = source
        self.tkey = tkey
        self.skey = skey


class _JoinLayout:
    """Position-only description of one join step (see :func:`plan_layout`).

    ``proj_pos`` (child-semijoin shape), ``extract_pos`` and ``cnew_pos``
    (general shape) carry the column positions the compiled backend turns
    into ``itemgetter`` programs; ``None`` marks a position program the shape
    does not use.  ``ckey`` holds positions in the projected child layout
    (the pair also keys stats lineages).
    """

    __slots__ = (
        "kind",
        "mother",
        "node",
        "tag",
        "mkey",
        "ckey",
        "kw",
        "proj_pos",
        "extract_pos",
        "cnew_pos",
    )

    def __init__(
        self,
        kind: int,
        mother: int,
        node: int,
        tag: int,
        *,
        mkey: Tuple[int, ...] = (),
        ckey: Tuple[int, ...] = (),
        kw: int = 0,
        proj_pos: Optional[Tuple[int, ...]] = None,
        extract_pos: Optional[Tuple[int, ...]] = None,
        cnew_pos: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.kind = kind
        self.mother = mother
        self.node = node
        self.tag = tag
        self.mkey = mkey
        self.ckey = ckey
        self.kw = kw
        self.proj_pos = proj_pos
        self.extract_pos = extract_pos
        self.cnew_pos = cnew_pos


class _PlanLayout:
    """The fully positional step program shared by the execution backends.

    ``final_positions`` is ``None`` when the root's final layout already
    matches the target's canonical column order (projection is a no-op).
    """

    __slots__ = ("semijoins", "joins", "final_positions")

    def __init__(
        self,
        semijoins: Tuple[_SemijoinLayout, ...],
        joins: Tuple[_JoinLayout, ...],
        final_positions: Optional[Tuple[int, ...]],
    ) -> None:
        self.semijoins = semijoins
        self.joins = joins
        self.final_positions = final_positions


def plan_layout(prepared) -> _PlanLayout:
    """Replay the plan's column algebra symbolically into a positional layout.

    The columns every slot carries at each join step are a function of the
    plan alone (the same recurrence :class:`~repro.engine.prepared
    .PreparedQuery` uses to place its early projections), so the shape of
    every join — semijoin degeneration included — is decided here, once.
    Intermediate column layouts are *not* kept sorted: a general join's
    output layout is the mother's layout followed by the child's new
    columns, so the execution-time combine is a bare concatenation and only
    the final projection re-establishes the canonical order.

    A join whose child columns all lie in the mother would be a semijoin of
    the mother; the prepared plan prunes those steps as identities, so
    meeting one here is an internal error.

    Both the compiled (tuple-program) and vectorized (array-program)
    backends consume this layout, which is what keeps their step semantics
    — and their stats lineages — identical by construction.
    """
    schema = prepared.schema
    columns: Tuple[Tuple[Attribute, ...], ...] = tuple(
        relation.sorted_attributes() for relation in schema.relations
    )
    positions = tuple(
        {column: index for index, column in enumerate(cols)} for cols in columns
    )
    semijoins: List[_SemijoinLayout] = []
    for step in prepared.semijoin_steps:
        tcols, scols = columns[step.target], columns[step.source]
        shared = sorted(set(tcols) & set(scols))
        semijoins.append(
            _SemijoinLayout(
                step.target,
                step.source,
                tuple(positions[step.target][a] for a in shared),
                tuple(positions[step.source][a] for a in shared),
            )
        )

    current: Dict[int, Tuple[Attribute, ...]] = {
        index: cols for index, cols in enumerate(columns)
    }
    joins: List[_JoinLayout] = []
    for tag, step in enumerate(prepared.join_steps):
        orig_child_cols = current[step.node]
        orig_positions = {c: i for i, c in enumerate(orig_child_cols)}
        child_cols = orig_child_cols
        has_proj = step.projection is not None
        if has_proj:
            child_cols = step.projection.sorted_attributes()
        mother_cols = current[step.mother]
        mother_positions = {c: i for i, c in enumerate(mother_cols)}
        mother_set = set(mother_cols)
        shared = sorted(mother_set & set(child_cols))
        mkey = tuple(mother_positions[c] for c in shared)
        if len(shared) == len(child_cols):
            raise AssertionError(
                f"join R{step.node} → R{step.mother} only semijoins the "
                "mother; the prepared plan should have pruned it"
            )
        child_positions = {c: i for i, c in enumerate(child_cols)}
        ckey = tuple(child_positions[c] for c in shared)
        if len(shared) == len(mother_cols):
            proj_pos = (
                tuple(orig_positions[c] for c in child_cols) if has_proj else None
            )
            joins.append(
                _JoinLayout(
                    _JOIN_SEMI_CHILD,
                    step.mother,
                    step.node,
                    tag,
                    mkey=mkey,
                    ckey=ckey,
                    proj_pos=proj_pos,
                )
            )
            current[step.mother] = child_cols
            continue
        new_cols = tuple(c for c in child_cols if c not in mother_set)
        if has_proj:
            # One pass extracts (key, new) in that order off the unprojected
            # rows; since key ∪ new covers every projected column, deduping
            # the extraction IS the projection.
            extract_pos: Optional[Tuple[int, ...]] = tuple(
                [orig_positions[c] for c in shared]
                + [orig_positions[c] for c in new_cols]
            )
            cnew_pos: Optional[Tuple[int, ...]] = None
        else:
            extract_pos = None
            cnew_pos = tuple(child_positions[c] for c in new_cols)
        joins.append(
            _JoinLayout(
                _JOIN_GENERAL,
                step.mother,
                step.node,
                tag,
                mkey=mkey,
                ckey=ckey,
                kw=len(shared),
                extract_pos=extract_pos,
                cnew_pos=cnew_pos,
            )
        )
        current[step.mother] = mother_cols + new_cols

    final_columns = prepared.final_projection.sorted_attributes()
    final_positions: Optional[Tuple[int, ...]]
    if columns:
        root_cols = current[prepared.root]
        if final_columns == root_cols:
            final_positions = None
        else:
            root_positions = {c: i for i, c in enumerate(root_cols)}
            final_positions = tuple(root_positions[c] for c in final_columns)
    else:
        final_positions = None
    return _PlanLayout(tuple(semijoins), tuple(joins), final_positions)


def build_row_ops(layout: _PlanLayout):
    """Compile a positional layout into row-tuple step programs.

    Returns ``(semijoin_ops, join_ops, final_get)`` — the ``itemgetter``
    programs :func:`execute_row_program` runs.
    """
    semijoin_ops = tuple(
        _SemijoinOp(sj.target, sj.source, sj.tkey, sj.skey)
        for sj in layout.semijoins
    )
    join_ops: List[_JoinOp] = []
    for jl in layout.joins:
        if jl.kind == _JOIN_SEMI_CHILD:
            join_ops.append(
                _JoinOp(
                    jl.kind,
                    jl.mother,
                    jl.node,
                    jl.tag,
                    proj_get=(
                        _tuple_getter(jl.proj_pos)
                        if jl.proj_pos is not None
                        else None
                    ),
                    mkey=jl.mkey,
                    ckey=jl.ckey,
                )
            )
        else:
            join_ops.append(
                _JoinOp(
                    jl.kind,
                    jl.mother,
                    jl.node,
                    jl.tag,
                    mkey=jl.mkey,
                    ckey=jl.ckey,
                    cnew=(
                        _tuple_getter(jl.cnew_pos)
                        if jl.cnew_pos is not None
                        else None
                    ),
                    extract=(
                        _tuple_getter(jl.extract_pos)
                        if jl.extract_pos is not None
                        else None
                    ),
                    kw=jl.kw,
                )
            )
    final_get = (
        None
        if layout.final_positions is None
        else _tuple_getter(layout.final_positions)
    )
    return semijoin_ops, tuple(join_ops), final_get


def _evicter(cache: "OrderedDict[int, Tuple[weakref.KeyedRef, Any]]"):
    """The weak-reference callback of one slot cache's entries.

    It pops a dead relation's entry only while the entry still holds that
    very reference, so it is a no-op once the entry was evicted, cleared
    (``clear_encode_cache``, a vectorized mode promotion or epoch rollover,
    the miss streak) or replaced.  It can fire on any thread, possibly one
    that holds the plan's encode lock, so it never takes that lock: every
    dict operation it makes is atomic under the GIL, and the dead relation's
    ``id`` cannot be reused by a new entry before the callback returns.  It
    holds the cache weakly, so a dropped plan frees its cache without a
    reference cycle.
    """
    cache_ref = weakref.ref(cache)

    def evict(ref: weakref.KeyedRef) -> None:
        live = cache_ref()
        if live is not None:
            entry = live.get(ref.key)
            if entry is not None and entry[0] is ref:
                live.pop(ref.key, None)

    return evict


class EncodedPlan:
    """The encode core both serial kernels share around their step program.

    A kernel plan is built once per :class:`~repro.engine.prepared
    .PreparedQuery` (see its ``compiled`` / ``vectorized`` properties) and
    owns a bounded per-slot encoding cache, with weak entries, shared by
    every state the plan executes.  This class implements that cache once,
    with the encode/execute/batch entry points and the diagnostics.  A kernel
    subclass supplies only what differs: ``_lower`` (the shared
    :func:`plan_layout` into the kernel's step program), ``_encode_relation``
    (one relation slot into the kernel's encoding), ``_run`` (its row or
    array program over an encoded state) and the ``backend`` name its runs
    report.  The vectorized kernel adds its interner on top (see
    :mod:`repro.relational.vectorized`).
    """

    #: Cap on cached encodings per slot.  Entries already die with their
    #: relations (see :meth:`_encode_slots`); the cap bounds what callers
    #: that keep many relations alive can make a long-running serving
    #: process hold on their behalf.  Sized above typical batch fan-outs: an
    #: LRU whose cap sits just *below* the working set degrades to 100%
    #: misses under sequentially repeated batches.
    _ENCODE_CACHE_MAX = 1024

    #: Consecutive misses after which a slot's encode cache turns itself off.
    #: A slot whose relation never repeats (a per-request fact table) pays
    #: hashing and LRU bookkeeping for nothing; shared slots keep hitting and
    #: never trip this.  ``clear_encode_cache`` re-arms a tripped slot.
    _CACHE_MISS_STREAK_MAX = 512

    #: The ``backend`` name the kernel's runs report.
    backend = ""

    __slots__ = (
        "schema",
        "target",
        "root",
        "slot_columns",
        "_encode_lock",
        "_semijoins",
        "_joins",
        "_final_columns",
        "_final_schema",
        "_slot_cache",
        "_evict",
        "_cache_meta",
    )

    def __init__(self, prepared) -> None:
        schema = prepared.schema
        self.schema = schema
        self.target = prepared.target
        self.root = prepared.root
        columns: Tuple[Tuple[Attribute, ...], ...] = tuple(
            relation.sorted_attributes() for relation in schema.relations
        )
        self.slot_columns = columns

        self._encode_lock = threading.Lock()
        self._slot_cache: Tuple[
            "OrderedDict[int, Tuple[weakref.KeyedRef, Any]]", ...
        ] = tuple(OrderedDict() for _ in columns)
        self._evict = tuple(_evicter(cache) for cache in self._slot_cache)
        # Per slot: [consecutive miss count, cache disabled flag].
        self._cache_meta: List[List[int]] = [[0, 0] for _ in columns]

        final = prepared.final_projection
        self._final_schema = final
        self._final_columns = final.sorted_attributes()
        # ``plan_layout`` replays the column algebra symbolically (see its
        # notes); the kernel lowers it into its own step program.
        self._lower(plan_layout(prepared))

    # -- encoding --------------------------------------------------------------

    def _encode_slots(self, state: DatabaseState, stats: Optional[ExecutionStats]):
        """One cache-assisted encode pass over every slot (lock held).

        Returns ``(encodings, encoded, cached_hits)``; :meth:`encode_state`
        commits the counts to its stats only after the pass succeeds (a
        kernel override may record its own encode-time events in ``stats``).

        The cache is keyed by the relation *object*: each entry holds a weak
        reference to its relation whose callback drops the entry when the
        relation dies.  An entry therefore lives exactly as long as its
        relation, so its ``id`` key cannot be reused while it is cached, and
        the cache never keeps alive an input no caller holds.  Relations are
        immutable, so a hit is exactly the rows the encoding was made from;
        a value-keyed cache would hand one state the representatives of an
        equal relation of another (``1.0`` for ``1``).
        """
        encodings: List[Any] = []
        encoded = cached_hits = 0
        for slot, relation in enumerate(state.relations):
            meta = self._cache_meta[slot]
            caching = not meta[1]
            if caching:
                cache = self._slot_cache[slot]
                key = id(relation)
                entry = cache.get(key)
                if entry is not None:
                    cache.move_to_end(key)
                    meta[0] = 0
                    cached_hits += 1
                    encodings.append(entry[1])
                    continue
            encoding = self._encode_relation(slot, relation)
            encoded += 1
            if caching:
                cache[key] = (
                    weakref.KeyedRef(relation, self._evict[slot], key),
                    encoding,
                )
                if len(cache) > self._ENCODE_CACHE_MAX:
                    cache.popitem(last=False)
                meta[0] += 1
                if meta[0] > self._CACHE_MISS_STREAK_MAX:
                    meta[1] = 1
                    cache.clear()
            encodings.append(encoding)
        return encodings, encoded, cached_hits

    def encode_state(
        self,
        state: DatabaseState,
        *,
        stats: Optional[ExecutionStats] = None,
    ) -> "EncodedState":
        """Encode a database state for this plan's program.

        Encodings are looked up in the per-slot bounded cache (see
        :meth:`_encode_slots`), so states that repeat a slot's relation share
        one encoding — and therefore one set of key indexes.  Encoding is
        serialized by a per-plan lock.  Execution never mutates rows, but it
        does lazily *fill* the per-encoding index caches outside that lock:
        concurrent threads may race to insert the same immutable index (a
        benign duplicate build under the GIL; on free-threaded builds those
        dict writes are unsynchronized and would need the lock).
        """
        schema = state.schema
        if schema is not self.schema and schema != self.schema:
            raise SchemaError("the state is for a different schema than the query")
        with self._encode_lock:
            encodings, encoded, cached_hits = self._encode_slots(state, stats)
            decoders = self._decoders()
        if stats is not None:
            stats.states += 1
            stats.encoded_slots += encoded
            stats.cached_slots += cached_hits
        return EncodedState(self, state, tuple(encodings), decoders)

    def _decoders(self) -> Tuple[Any, ...]:
        """What an encoded state needs to turn final codes back into values
        (lock held).  The compiled kernel's rows are the values, so it needs
        nothing; the vectorized kernel captures its epoch's decoders."""
        return ()

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        encoded: "EncodedState",
        stats: Optional[ExecutionStats] = None,
    ) -> YannakakisRun:
        """Run the kernel's program against one encoded state.

        Semantics — result, semijoin/join counts and the intermediate-size
        accounting — match the classic executor exactly; the equivalence
        suites check this on random schemas and states.
        """
        if encoded.plan is not self:
            raise SchemaError("the encoded state belongs to a different plan")
        if self.slot_columns:
            result, join_count, max_intermediate = self._run(encoded, stats)
            if len(result) > max_intermediate:
                max_intermediate = len(result)
        else:
            # The empty schema: ⋈ ∅ is the nullary-true relation (the same
            # constant PreparedQuery.execute returns before routing here).
            result, join_count, max_intermediate = Relation.nullary_true(), 0, 1
        return YannakakisRun(
            result=result,
            semijoin_count=len(self._semijoins),
            join_count=join_count,
            max_intermediate_size=max_intermediate,
            backend=self.backend,
            stats=stats,
        )

    def execute_state(
        self, state: DatabaseState, stats: Optional[ExecutionStats] = None
    ) -> YannakakisRun:
        """Encode (cache-assisted) and execute one state."""
        return self.execute(self.encode_state(state, stats=stats), stats=stats)

    def execute_batch(
        self,
        states: Iterable[DatabaseState],
        stats: Optional[ExecutionStats] = None,
    ) -> List[YannakakisRun]:
        """Execute many states as one batch with shared instrumentation.

        All states share the plan's per-slot encoding cache, so a relation
        object repeated across states is encoded — and its key indexes
        built — once for the whole batch; a state object repeated in the
        batch is executed once and its immutable run is shared (see
        :func:`~repro.relational.database.dedupe_states`).  Every returned
        run carries the same :class:`ExecutionStats` object describing the
        batch; a wrapping plan (the cyclic prologue adapter of
        :mod:`repro.engine.cyclic`) may pass its own ``stats`` to fold
        pre-batch accounting into the same object.
        """
        if stats is None:
            stats = ExecutionStats()
        unique, positions = dedupe_states(states)
        stats.deduped_states += len(positions) - len(unique)
        runs = [self.execute_state(state, stats=stats) for state in unique]
        return [runs[index] for index in positions]

    # -- maintenance -----------------------------------------------------------

    def _reset_slot_caches_locked(self) -> None:
        """Drop every cached slot encoding and re-arm tripped slot caches."""
        for cache in self._slot_cache:
            cache.clear()
        for meta in self._cache_meta:
            meta[0] = 0
            meta[1] = 0

    def cache_sizes(self) -> Tuple[int, ...]:
        """Cached encodings per slot (diagnostic)."""
        return tuple(len(cache) for cache in self._slot_cache)

    def clear_encode_cache(self) -> None:
        """Drop cached slot encodings and re-arm tripped slot caches (a
        kernel's interner, if it has one, is left intact)."""
        with self._encode_lock:
            self._reset_slot_caches_locked()

    def interned_value_count(self) -> int:
        """Distinct values interned by the kernel (diagnostic): always 0
        here, since only the vectorized kernel interns."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(schema={self.schema.to_notation()!r}, "
            f"target={self.target.to_notation()!r}, "
            f"semijoins={len(self._semijoins)}, joins={len(self._joins)})"
        )


class EncodedState:
    """One database state encoded for a kernel plan.

    Holds one (possibly cache-shared) encoding per relation slot — the row
    tuples themselves for the compiled kernel, int64 code arrays for the
    vectorized one — plus, for the vectorized kernel, the decoders of the
    interner epoch that minted its codes (so the state stays executable
    across epoch rollovers; empty for the compiled kernel).  ``state`` is the
    source :class:`DatabaseState`.  Immutable from the executor's point of
    view: execution replaces slot views instead of mutating their rows, so
    an encoded state can be executed any number of times.  Under the GIL
    concurrent executions are safe (they may redundantly fill an encoding's
    index caches); on free-threaded builds those lazy cache fills are
    unsynchronized.
    """

    __slots__ = ("plan", "state", "encodings", "decoders")

    def __init__(
        self,
        plan: EncodedPlan,
        state: DatabaseState,
        encodings: Tuple[Any, ...],
        decoders: Tuple[Optional[Any], ...],
    ) -> None:
        self.plan = plan
        self.state = state
        self.encodings = encodings
        self.decoders = decoders


class CompiledPlan(EncodedPlan):
    """A fully positional row program for one prepared query.

    Runs the shared layout as ``itemgetter`` programs over the state's own
    row tuples (:func:`execute_row_program`); everything around the program
    is the :class:`EncodedPlan` core.
    """

    backend = "compiled"

    __slots__ = ("_final_get",)

    def _lower(self, layout: _PlanLayout) -> None:
        # ``build_row_ops`` compiles each layout entry's positions into
        # ``itemgetter`` programs over row tuples.
        self._semijoins, self._joins, self._final_get = build_row_ops(layout)

    def _encode_relation(self, slot: int, relation: Relation) -> _Encoding:
        """A relation slot's encoding is its own rows: the row program
        compares cells only by ``hash``/``==``, which is exactly the classic
        operators' value equality."""
        return _Encoding(tuple(relation.rows))

    def _run(self, encoded: EncodedState, stats: Optional[ExecutionStats]):
        final_rows, join_count, max_intermediate = execute_row_program(
            self._semijoins,
            self._joins,
            self.root,
            self._final_get,
            list(encoded.encodings),
            stats,
        )
        result = Relation._from_trusted(
            self._final_schema, self._final_columns, frozenset(final_rows)
        )
        return result, join_count, max_intermediate


def execute_row_program(
    semijoin_ops: Tuple[_SemijoinOp, ...],
    join_ops: Tuple[_JoinOp, ...],
    root: int,
    final_get,
    views: List[_Encoding],
    stats: Optional[ExecutionStats] = None,
) -> Tuple[Iterable, int, int]:
    """Run the row-tuple reducer + bottom-up join program over ``views``.

    The execution core of the compiled backend: ``views`` holds one
    encoding per slot (its ``keysets``/``buckets`` filled lazily) and is
    mutated in place as steps replace slot views.  Returns
    ``(final_rows, join_count, max_intermediate)``; ``final_rows`` are the
    answer's rows (the caller wraps them in a relation).

    Semantics — result, semijoin/join counts and the intermediate-size
    accounting — match the classic executor exactly; the equivalence suite
    checks this on random schemas and states.
    """
    # Phase 1: the full-reducer semijoin program.  Key-set lookups are
    # inlined (this loop runs per state on the serving path).
    for op in semijoin_ops:
        source_view = views[op.source]
        source_keys = source_view.keysets.get(op.skey)
        if source_keys is None:
            source_keys = set(map(op.sget, source_view.rows))
            source_view.keysets[op.skey] = source_keys
            if stats is not None:
                lineage = (op.source, op.skey)
                builds = stats.keyset_builds
                builds[lineage] = builds.get(lineage, 0) + 1
        target_view = views[op.target]
        target_keys = target_view.keysets.get(op.tkey)
        if target_keys is None:
            target_keys = set(map(op.tget, target_view.rows))
            target_view.keysets[op.tkey] = target_keys
            if stats is not None:
                lineage = (op.target, op.tkey)
                builds = stats.keyset_builds
                builds[lineage] = builds.get(lineage, 0) + 1
        if target_keys <= source_keys:
            if stats is not None:
                stats.identity_semijoins += 1
            continue
        getter = op.tget
        kept = tuple(
            row for row in target_view.rows if getter(row) in source_keys
        )
        filtered = _Encoding(kept)
        filtered.keysets[op.tkey] = target_keys & source_keys
        views[op.target] = filtered
        if stats is not None:
            stats.filtering_semijoins += 1
    max_intermediate = max((len(view.rows) for view in views), default=0)

    # Phase 2: the bottom-up join with early projection.
    join_count = 0
    for op in join_ops:
        child_view = views[op.node]
        mother_view = views[op.mother]
        join_count += 1
        if op.kind == _JOIN_SEMI_CHILD:
            if op.proj_get is not None:
                # The projected child is a function of the (possibly
                # shared) child view alone — cache it there, like the
                # other join shapes cache their buckets.
                cached = child_view.buckets.get(op.tag)
                if cached is None:
                    child_rows: Iterable = tuple(
                        set(map(op.proj_get, child_view.rows))
                    )
                    child_view.buckets[op.tag] = (child_rows, len(child_rows))  # type: ignore[assignment]
                    if stats is not None:
                        lineage = (op.node, op.ckey)
                        builds = stats.bucket_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                else:
                    child_rows = cached[0]
                if len(child_rows) > max_intermediate:  # type: ignore[arg-type]
                    max_intermediate = len(child_rows)  # type: ignore[arg-type]
            else:
                child_rows = child_view.rows
            mother_keys = mother_view.keysets.get(op.mkey)
            if mother_keys is None:
                mother_keys = set(map(op.mget, mother_view.rows))
                mother_view.keysets[op.mkey] = mother_keys
                if stats is not None:
                    lineage = (op.mother, op.mkey)
                    builds = stats.keyset_builds
                    builds[lineage] = builds.get(lineage, 0) + 1
            getter = op.cget
            kept = tuple(row for row in child_rows if getter(row) in mother_keys)
            if op.proj_get is None and len(kept) == len(child_view.rows):
                joined = child_view
            else:
                joined = _Encoding(kept)
        else:
            cached = child_view.buckets.get(op.tag)
            if cached is None:
                # Buckets store the pre-extracted *new* child columns, so
                # the probe loop below is a bare tuple concatenation.
                grouped: Dict[Any, list] = {}
                setdefault = grouped.setdefault
                if op.extract is not None:
                    # Composed projection: dedup the (key, new) extraction
                    # (≡ the projected child), then split by fixed width.
                    extracted = set(map(op.extract, child_view.rows))
                    proj_len = len(extracted)
                    kw = op.kw
                    if kw == 1:
                        for row in extracted:
                            setdefault(row[0], []).append(row[1:])
                    else:
                        for row in extracted:
                            setdefault(row[:kw], []).append(row[kw:])
                else:
                    proj_len = None
                    cget = op.cget
                    cnew = op.cnew
                    for row in child_view.rows:
                        setdefault(cget(row), []).append(cnew(row))
                buckets = {key: tuple(parts) for key, parts in grouped.items()}
                child_view.buckets[op.tag] = (buckets, proj_len)
                if stats is not None:
                    lineage = (op.node, op.ckey)
                    builds = stats.bucket_builds
                    builds[lineage] = builds.get(lineage, 0) + 1
            else:
                buckets, proj_len = cached
            if proj_len is not None and proj_len > max_intermediate:
                max_intermediate = proj_len
            # Distinct (mother row, part) pairs concatenate injectively —
            # key + new part cover every child column — so the output
            # rows are distinct by construction and need no dedup set.
            combined: List[Tuple[Any, ...]] = []
            append = combined.append
            mget = op.mget
            get_bucket = buckets.get
            for mrow in mother_view.rows:
                bucket = get_bucket(mget(mrow))
                if bucket:
                    for part in bucket:
                        append(mrow + part)
            joined = _Encoding(tuple(combined))
        if len(joined.rows) > max_intermediate:
            max_intermediate = len(joined.rows)
        views[op.mother] = joined

    # Final projection.
    root_rows = views[root].rows
    if final_get is None:
        final_rows: Iterable = root_rows
    else:
        final_rows = set(map(final_get, root_rows))
    return final_rows, join_count, max_intermediate
