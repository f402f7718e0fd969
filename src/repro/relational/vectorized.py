"""Array-backed vectorized execution backend for prepared queries.

The compiled backend (:mod:`repro.relational.compiled`) freezes the plan's
column algebra into positional step programs, but still *executes* them as
per-row Python: key sets are built by mapping ``itemgetter`` over tuple rows,
semijoins probe Python sets row by row, and general joins concatenate tuples
in a Python loop.  Once every cell is interned to a dense ``int`` code, all
of that is vector work in disguise.  This module runs the
same positional programs (:func:`repro.relational.compiled.plan_layout` is
shared verbatim, so the step semantics — and the stats lineages — are
identical by construction) over contiguous int64 **code arrays**:

* **Representation.**  Each relation slot encodes column-major into one
  contiguous int64 numpy array per column.  Composite join keys pack their
  columns into a C-contiguous ``(n, k)`` block viewed as a ``numpy`` void
  dtype — one fixed-width scalar per row — so every kernel below works
  uniformly for single- and multi-column keys.
* **Semijoins as membership masks.**  A key set is the sorted unique key
  array (``np.unique``); membership is a batch binary search
  (``searchsorted`` + one vectorized equality), and filtering is a boolean
  gather.  Subset checks (the identity-semijoin detection the compiled
  backend does with ``set <= set``) are the same mask, reduced with
  ``all()``.
* **Child-semijoin joins as gathers.**  The degenerate join shape reuses
  the membership mask; early projections dedup via
  ``np.unique(return_index)`` over the projected key block and gather the
  kept columns once.
* **General joins as index cross products.**  The child groups by join key
  once per (slot, step) — stable argsort, boundary scan, pre-gathered "new"
  columns in sort order — and the probe expands mother rows with
  ``np.repeat``/``cumsum`` index arithmetic: output columns are built by two
  gathers (mother rows by repeat index, child parts by group-offset index)
  with no per-row Python at all.
* **The last join into the root emits only the final columns.**  Nothing
  reads the root after that join but the final projection, so when the
  projection drops columns (the hub of a star), the step skips them: it
  packs the mother's final columns on the mother's rows and the child's on
  the bucket rows, before expanding, into one int64 per join row —
  ``repeat(mother code) × child span + child code`` — dedups those by dense
  scatter or ``np.unique``, and unpacks only the distinct codes.  Run
  counts and ``max_intermediate_size`` still count the whole join.  A
  packed span of 2^62 or more takes the materializing path instead.
* **Bulk interning.**  Dictionary-mode encode of an all-string column runs
  ``np.unique(return_inverse)`` over the raw values and only walks the
  *unique* values through the interning dictionary — the vectorized
  canonical-value mode the ROADMAP left open.  Warm columns take a C-level
  ``map`` over the interning dictionary.

**The interner.**  Codes must live in int64 arrays, so this kernel — and
only this one; the compiled kernel runs on the values themselves — owns a
per-attribute interner.  Each attribute's mode is pinned at first
encounter: *identity* (native int columns, the value is the code) or
*dictionary* (dense codes assigned by an interning dictionary).  An
attribute pinned identity-mode that later meets a non-int value — or an int
outside int64 — is **promoted** to dictionary mode: the promotion drops
every cached slot encoding of that attribute (their identity codes for it
are retired) and restarts the in-progress state encode so a single state
never mixes modes.  Promotions are monotone (identity → dict only) and
surface as :attr:`VectorizedPlan.mode_promotions`.  Numeric-tower equality
(``1 == 1.0 == True``) holds in dictionary mode for free: equal values are
equal dict keys, so they intern to one code.  That code decodes to the
first representative the plan interned, so answers equal the classic
oracle's *by value*; a cell may be ``1.0`` where the state held ``1``.

**Epochs, caches, lifecycle.**  :class:`VectorizedPlan` subclasses the
compiled backend's :class:`~repro.relational.compiled.EncodedPlan`, so the
per-slot LRU encoding caches — weak entries that die with their relations,
miss-streak self-disable — are literally the same code.  The interner is
bounded here: when its value count overflows
:data:`DEFAULT_MAX_INTERNED_VALUES`, the next state encode opens
a new interner *epoch* (fresh maps, every cached encoding dropped), and
per-state decoders captured at encode time let in-flight states decode
against the epoch that minted their codes.  The number of rollovers is
:attr:`VectorizedPlan.interner_epoch` and, per batch,
:attr:`~repro.relational.compiled.ExecutionStats.interner_resets`.

**numpy is required, and imported on first use.**  Importing this module
does not import numpy: :func:`_numpy` loads it the first time a plan is
lowered or :func:`numpy_available` is asked, so a process that never
routes a batch to the array kernel never pays numpy's import.  Building a
plan without numpy raises ``ImportError``; without it
:func:`repro.engine.prepared.resolve_backend` maps both ``"vectorized"``
and ``"auto"`` to the compiled backend, so no entry point ever reaches
that error.

**Process boundaries.**  Like a ``CompiledPlan``, a ``VectorizedPlan`` never
crosses a process boundary; workers rebuild plans from ``PlanSpec``.

The classic executor remains the property-test oracle (the oracle
matrix, ``tests/test_oracle_matrix.py``, compares answers by value, the
rule ``docs/api.md`` states); ``tests/relational/test_vectorized_equivalence.py``
pins the compiled backend's execution accounting as a second cross-check.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from .compiled import (
    EncodedPlan,
    EncodedState,
    ExecutionStats,
    _JOIN_GENERAL,
    _JOIN_SEMI_CHILD,
    _PlanLayout,
)
from .database import DatabaseState
from .relation import Relation

__all__ = [
    "DEFAULT_MAX_INTERNED_VALUES",
    "VectorizedPlan",
    "numpy_available",
]

#: Cap on distinct interned values per plan (dictionary-mode codes), read at
#: every state-encode boundary.  Overflow opens a new interner epoch there;
#: see the module notes.  Sized so that ordinary serving never trips it
#: while a long-lived process churning through unbounded string domains
#: stays bounded.
DEFAULT_MAX_INTERNED_VALUES = 1 << 20

#: Per-attribute encoding modes, pinned the first time the attribute is seen.
_MODE_IDENTITY = 0  # codes are the int values themselves
_MODE_DICT = 1  # codes are dense ints assigned by the interning dictionary


#: The numpy module, ``None`` when it cannot be imported, or ``_NOT_LOADED``
#: until :func:`_numpy` first runs.  Tests set it to ``None`` to simulate
#: an absent numpy.
_NOT_LOADED = object()
_np: Any = _NOT_LOADED
_np_lock = threading.Lock()


def _numpy():
    """The numpy module, imported on the first call; ``None`` when numpy is
    absent or its import fails (either way the array kernel is off).

    The first import runs under a lock: a thread that waits on another
    thread's *failing* import of a module is handed the half-built module
    object, which would pass for numpy and crash the array kernel.
    """
    global _np
    if _np is _NOT_LOADED:
        with _np_lock:
            if _np is _NOT_LOADED:
                try:
                    import numpy
                except Exception:  # pragma: no cover - the no-numpy leg
                    numpy = None
                _np = numpy
    return _np


def numpy_available() -> bool:
    """True when the numpy kernel backs new :class:`VectorizedPlan` objects.

    The first call imports numpy (see :func:`_numpy`); callers that only
    route batches should ask it last, after cheaper checks have ruled the
    array kernel in (``repro.relational.vectorized._np`` is the patch point
    for tests)."""
    return _numpy() is not None


class _PromoteToDict(Exception):
    """Internal: an identity-mode column met a value int64 cannot carry.

    Raised inside a state encode and handled at the encode loop: the
    attribute's mode flips to dictionary, stale caches are dropped, and the
    state encode restarts from its first slot (modes only ever move
    identity → dict, so the restart loop terminates).
    """

    def __init__(self, attribute: Any) -> None:
        super().__init__(attribute)
        self.attribute = attribute


class _VecEncoding:
    """Encoded columns of one relation slot plus its reusable key indexes.

    ``columns`` holds one contiguous int64 code array per column and ``n``
    the row count — kept explicitly so zero-width (nullary) slots still
    know their cardinality.  ``keysets`` caches sorted-unique key arrays
    per key-position tuple; ``keyarrays`` caches packed per-row key arrays;
    ``buckets`` caches per-join-step structures.  Encodings held in a batch
    cache are shared across states, so cached indexes amortize exactly like
    the compiled backend's.
    """

    __slots__ = ("columns", "n", "keysets", "keyarrays", "buckets")

    def __init__(self, columns: Tuple[Any, ...], n: int) -> None:
        self.columns = columns
        self.n = n
        self.keysets: Dict[Tuple[int, ...], Any] = {}
        self.keyarrays: Dict[Tuple[int, ...], Any] = {}
        self.buckets: Dict[int, Any] = {}


# -- numpy kernels ---------------------------------------------------------------
#
# All helpers take the numpy module explicitly (the plan pins it at
# construction) and treat int64 1-D arrays and fixed-width void arrays
# uniformly: a void scalar is the packed bytes of one composite key row, and
# ``unique``/``searchsorted``/``argsort``/``==`` all operate on it like any
# scalar dtype.  Byte order of the void comparisons is not numeric order,
# but every kernel only needs a *consistent* total order on both sides.


def _build_key(np, columns, n: int, kpos: Tuple[int, ...]):
    """Pack the key columns at ``kpos`` into one array of per-row keys.

    Empty keys pack as zeros (every row shares one key — the degenerate
    cross-product/nonempty-test semantics the row engine gets from its
    ``lambda row: ()`` getter); single columns pass through; composite keys
    copy into a C-contiguous block viewed as a fixed-width void scalar.
    """
    if not kpos:
        return np.zeros(n, dtype=np.int64)
    if len(kpos) == 1:
        return columns[kpos[0]]
    k = len(kpos)
    block = np.empty((n, k), dtype=np.int64)
    for j, p in enumerate(kpos):
        block[:, j] = columns[p]
    return block.view(np.dtype((np.void, 8 * k))).ravel()


def _key_array(np, encoding: _VecEncoding, kpos: Tuple[int, ...]):
    """Per-row key array for an encoding, cached per key-position tuple."""
    cached = encoding.keyarrays.get(kpos)
    if cached is None:
        cached = _build_key(np, encoding.columns, encoding.n, kpos)
        encoding.keyarrays[kpos] = cached
    return cached


def _member_mask(np, sorted_unique, keys):
    """Boolean mask: which of ``keys`` occur in the sorted-unique array."""
    if len(sorted_unique) == 0:
        return np.zeros(len(keys), dtype=bool)
    index = sorted_unique.searchsorted(keys)
    np.minimum(index, len(sorted_unique) - 1, out=index)
    return sorted_unique[index] == keys


#: Dense-scatter dedup is allowed to allocate up to this many slots per row.
_DENSE_DEDUP_SLACK = 4

#: Packed row codes stay below this, so packing arithmetic never overflows.
_PACK_LIMIT = 1 << 62


def _pack_columns(np, columns, n: int):
    """Range-compress int64 columns into one int64 code per row.

    Column ``j`` contributes ``column - low_j`` as a mixed-radix digit of
    base ``width_j`` (its value range), the first column most significant,
    so equal rows get equal codes and every code lies in ``[0, span)``.
    Returns ``(packed, lows, widths, span)``, or ``None`` when ``span``
    reaches :data:`_PACK_LIMIT` (callers fall back to a path that does not
    pack).  No columns pack as ``n`` zeros with span 1.
    """
    if not columns:
        return np.zeros(n, dtype=np.int64), (), (), 1
    lows = [int(column.min()) for column in columns]
    widths = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
    span = 1
    for width in widths:
        span *= width
    if span >= _PACK_LIMIT:
        return None
    packed = columns[0] - lows[0]
    for column, low, width in zip(columns[1:], lows[1:], widths[1:]):
        packed = packed * width + (column - low)
    return packed, lows, widths, span


def _unpack_columns(np, codes, lows, widths) -> List[Any]:
    """The columns :func:`_pack_columns` packed into ``codes``, in order."""
    columns: List[Any] = [None] * len(lows)
    for j in range(len(lows) - 1, 0, -1):
        codes, digit = np.divmod(codes, widths[j])
        columns[j] = digit + lows[j]
    if lows:
        columns[0] = codes + lows[0]
    return columns


def _distinct_packed(np, packed, span: int, *, index: bool):
    """Dedup packed codes in ``[0, span)``.

    Returns the distinct codes or, with ``index``, the position of one
    representative row per distinct code (an arbitrary one).  A domain small
    next to the row count dedups by dense scatter, with no sort at all; a
    larger one by a single typed ``np.unique``.
    """
    n = len(packed)
    if span <= max(_DENSE_DEDUP_SLACK * n, 1 << 16):
        if index:
            representative = np.full(span, -1, dtype=np.intp)
            representative[packed] = np.arange(n, dtype=np.intp)
            return representative[representative >= 0]
        seen = np.zeros(span, dtype=bool)
        seen[packed] = True
        return np.flatnonzero(seen)
    if index:
        return np.unique(packed, return_index=True)[1]
    return np.unique(packed)


def _unique_rows_index(np, encoding: _VecEncoding, positions: Tuple[int, ...]):
    """Indices of one representative of each distinct row at ``positions``.

    Within-relation dedup needs no cross-relation key representation, so it
    avoids the void-dtype sort (memcmp comparisons — the slowest kernel in
    the module) entirely: the columns pack into one int64 per row
    (:func:`_pack_columns`) and dedup as :func:`_distinct_packed`.  Domains
    too wide to pack fall back to iterative inverse recompression: one
    typed unique per column, with the running group id recompressed below
    ``n`` each step so the arithmetic never overflows.  Representatives are
    arbitrary (callers gather whole equal rows), and output order is
    irrelevant.
    """
    n = encoding.n
    if n == 0:
        return np.empty(0, dtype=np.intp)
    cols = [encoding.columns[p] for p in positions]
    packing = _pack_columns(np, cols, n)
    if packing is not None:
        packed, _, _, span = packing
        return _distinct_packed(np, packed, span, index=True)
    inverse = None
    for col in cols:
        _, col_inverse = np.unique(col, return_inverse=True)
        col_inverse = col_inverse.astype(np.int64, copy=False)
        if inverse is None:
            inverse = col_inverse
        else:
            # Both factors are < n, so the product stays well inside int64.
            inverse = inverse * (int(col_inverse.max()) + 1) + col_inverse
            _, inverse = np.unique(inverse, return_inverse=True)
            inverse = inverse.astype(np.int64, copy=False)
    representative = np.empty(int(inverse.max()) + 1, dtype=np.intp)
    representative[inverse] = np.arange(n, dtype=np.intp)
    return representative


def _filtered(np, encoding: _VecEncoding, mask) -> _VecEncoding:
    """A fresh encoding keeping the masked rows of every column."""
    return _VecEncoding(
        tuple(column[mask] for column in encoding.columns),
        int(mask.sum()),
    )


def _empty_like(np, width: int) -> _VecEncoding:
    empty = np.empty(0, dtype=np.int64)
    return _VecEncoding(tuple(empty for _ in range(width)), 0)


def _general_bucket(np, child: _VecEncoding, op):
    """Group a general-join child by its key, early projection folded in.

    Returns ``(group_keys, starts, counts, new_sorted, proj_len)``:
    sorted-unique group keys, each group's start offset and length in stable
    key-sort order, the child's *new* columns pre-gathered into that order
    (so the probe's second gather indexes them directly), and the projected
    child's cardinality when the step carries an early projection.
    """
    if op.extract_pos is not None:
        # Composed projection: dedup the (key, new) extraction — which IS
        # the projected child — then split by the fixed key width.
        index = _unique_rows_index(np, child, op.extract_pos)
        extracted = [child.columns[p][index] for p in op.extract_pos]
        m = len(index)
        proj_len: Optional[int] = m
        key = _build_key(np, extracted, m, tuple(range(op.kw)))
        new_source = extracted[op.kw :]
    else:
        proj_len = None
        key = _key_array(np, child, op.ckey)
        new_source = [child.columns[p] for p in op.cnew_pos]
        m = child.n
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    if m:
        boundary = np.empty(m, dtype=bool)
        boundary[0] = True
        boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, m))
        group_keys = sorted_keys[starts]
    else:
        starts = np.empty(0, dtype=np.intp)
        counts = np.empty(0, dtype=np.int64)
        group_keys = sorted_keys
    new_sorted = tuple(column[order] for column in new_source)
    return group_keys, starts, counts, new_sorted, proj_len


class VectorizedPlan(EncodedPlan):
    """An array-program twin of :class:`~repro.relational.compiled.CompiledPlan`.

    Built once per :class:`~repro.engine.prepared.PreparedQuery` (see its
    ``vectorized`` property) on the shared
    :class:`~repro.relational.compiled.EncodedPlan` core.  Execution
    semantics — results, semijoin/join counts, intermediate-size
    accounting, and the lineage attribution of
    :class:`~repro.relational.compiled.ExecutionStats` — match the compiled
    backend branch for branch.
    """

    backend = "vectorized"

    __slots__ = (
        "_np",
        "_final_positions",
        "_final_permutes",
        "_fused",
        "mode_promotions",
        "_modes",
        "_intern",
        "_values",
        "interner_epoch",
    )

    def __init__(self, prepared) -> None:
        super().__init__(prepared)
        attributes = self.schema.attributes
        self._modes: Dict[Any, Optional[int]] = {a: None for a in attributes}
        self._intern: Dict[Any, Dict[Any, int]] = {a: {} for a in attributes}
        self._values: Dict[Any, List[Any]] = {a: [] for a in attributes}
        #: Number of interner epochs opened so far (0 = the original epoch).
        self.interner_epoch = 0

    def _lower(self, layout: _PlanLayout) -> None:
        np = _numpy()
        if np is None:
            raise ImportError("the vectorized backend requires numpy")
        #: numpy is pinned at construction so a plan keeps working when tests
        #: patch the module global to simulate its absence.
        self._np = np
        #: Identity→dictionary mode promotions forced by stray or oversized
        #: values arriving in a pinned identity column (see module notes).
        self.mode_promotions = 0
        self._semijoins = layout.semijoins
        self._joins = layout.joins
        self._final_positions = layout.final_positions
        # Candidate for the final-projection permutation shortcut: the
        # positions are distinct and cover a prefix 0..k-1 (the execution
        # still checks they span the root's whole final layout).
        self._final_permutes = layout.final_positions is not None and sorted(
            layout.final_positions
        ) == list(range(len(layout.final_positions)))
        self._fused = self._fuse_last_root_join(layout)

    def _fuse_last_root_join(self, layout: _PlanLayout):
        """Mark the join that can emit the final columns alone (module notes).

        That is the last join into the root, when it is a general join and
        the final projection drops some of its output columns: nothing reads
        the root after it but that projection.  Returns ``(step,
        mother_positions, child_positions, order)``: the final columns'
        positions among the mother's columns and among the child's new
        columns, and where each final column sits in their concatenation.
        ``None`` when no step qualifies.
        """
        final_positions = layout.final_positions
        if not final_positions:
            return None
        # Replay slot widths: a general join appends the child's new
        # columns to the mother's, a child-semijoin join replaces them.
        widths = [len(columns) for columns in self.slot_columns]
        last, mother_width = None, 0
        for step in layout.joins:
            if step.mother == self.root:
                last, mother_width = step, widths[step.mother]
            if step.kind == _JOIN_SEMI_CHILD:
                widths[step.mother] = (
                    widths[step.node] if step.proj_pos is None else len(step.proj_pos)
                )
            elif step.extract_pos is None:
                widths[step.mother] += len(step.cnew_pos)
            else:
                widths[step.mother] += len(step.extract_pos) - step.kw
        if (
            last is None
            or last.kind != _JOIN_GENERAL
            or len(final_positions) == widths[self.root]
        ):
            return None
        from_mother = [p for p in final_positions if p < mother_width]
        from_child = [p for p in final_positions if p >= mother_width]
        concatenated = from_mother + from_child
        return (
            last,
            tuple(from_mother),
            tuple(p - mother_width for p in from_child),
            tuple(concatenated.index(p) for p in final_positions),
        )

    # -- encoding --------------------------------------------------------------

    def _int64_or_none(self, data):
        """Convert rows/column to an int64 array at C speed, or ``None``.

        Conversion without an explicit dtype lets numpy *classify* instead
        of coerce: pure native-int data lands exactly on int64, while every
        value an identity column cannot carry lands elsewhere —
        floats on float64 (never truncated), pure bools on bool, out-of-range
        ints on object (or an ``OverflowError``), strings on unicode, ragged
        or exotic values on object/``ValueError`` — and is rejected by the
        dtype/ndim check.  The one deliberate coarsening: a *mixed* int/bool
        column converts to int64, canonicalizing ``True``/``False`` onto
        ``1``/``0``.  That is equality-preserving (``True == 1`` across the
        numeric tower, and the dictionary mode already canonicalizes
        tower-equal values onto one representative), so results still
        compare equal to the classic oracle's.
        """
        np = self._np
        try:
            converted = np.asarray(data)
        except Exception:
            return None
        if converted.dtype == np.int64:
            return converted
        return None

    def _encode_dict_column(self, attribute: Any, column):
        """One dictionary-mode column as a contiguous int64 code array.

        Warm columns — every value already interned, the serving steady
        state on stable value domains — encode as one C-level ``map`` over
        the interning dictionary and stay columnar: no zip back into row
        tuples.  A novel value falls through to the bulk path: for
        all-string columns, ``np.unique`` collapses the raw values at C
        speed and only the *unique* values touch the interning dictionary,
        so per-cell Python work is proportional to the distinct-value count,
        not the row count (the vectorized canonical-value mode).  Everything
        else — mixed columns, and string columns holding a NUL character,
        which numpy's unicode dtype would merge — takes the interning loop.
        """
        np = self._np
        intern_map = self._intern[attribute]
        values = self._values[attribute]
        if intern_map:
            try:
                codes = list(map(intern_map.__getitem__, column))
            except KeyError:
                pass
            else:
                return np.asarray(codes, dtype=np.int64)
        # The type scan runs as C-level ``map``; mixed columns must never
        # reach ``np.asarray`` below, which would silently stringify them.
        # numpy's unicode dtype drops trailing NULs (``'k\x00'`` reads back
        # as ``'k'``), so a column holding any NUL takes the loop instead.
        if set(map(type, column)) == {str} and "\x00" not in "".join(column):
            uniques, inverse = np.unique(np.asarray(column), return_inverse=True)
            unique_codes = np.empty(len(uniques), dtype=np.int64)
            get = intern_map.get
            for position, value in enumerate(uniques.tolist()):
                code = get(value)
                if code is None:
                    code = len(values)
                    intern_map[value] = code
                    values.append(value)
                unique_codes[position] = code
            return unique_codes[inverse]
        get = intern_map.get
        codes = []
        append = codes.append
        for value in column:
            code = get(value)
            if code is None:
                code = len(values)
                intern_map[value] = code
                values.append(value)
            append(code)
        return np.asarray(codes, dtype=np.int64)

    def _encode_relation(self, slot: int, relation: Relation) -> _VecEncoding:
        """Encode one relation column-major into int64 code arrays."""
        rows = relation.rows
        attrs = self.slot_columns[slot]
        n = len(rows)
        np = self._np
        if not attrs:
            return _VecEncoding((), n)
        if not n:
            empty = np.empty(0, dtype=np.int64)
            return _VecEncoding(tuple(empty for _ in attrs), 0)
        rows_t = tuple(rows)
        modes = self._modes
        # Whole-slot identity fast path: one 2-D classify-and-convert (see
        # ``_int64_or_none``) + transpose copy turns the value rows into
        # contiguous per-column arrays — value == code in identity mode, no
        # per-cell Python at all.
        if all(modes[a] != _MODE_DICT for a in attrs):
            block = self._int64_or_none(rows_t)
            if block is not None and block.ndim == 2:
                for a in attrs:
                    if modes[a] is None:
                        modes[a] = _MODE_IDENTITY
                transposed = np.ascontiguousarray(block.T)
                return _VecEncoding(
                    tuple(transposed[j] for j in range(len(attrs))), n
                )
        # Columns extract via ``map(itemgetter, ...)`` pipelines instead of a
        # ``zip(*rows)`` transpose: star-unpacking tens of thousands of rows
        # costs more than one C pass per column, and the warm dictionary
        # path below never materializes the column at all — extraction and
        # interning fuse into nested C maps.
        coded: List[Any] = []
        for position, attribute in enumerate(attrs):
            getter = itemgetter(position)
            mode = modes[attribute]
            if mode == _MODE_DICT:
                intern_map = self._intern[attribute]
                if intern_map:
                    try:
                        codes = list(
                            map(intern_map.__getitem__, map(getter, rows_t))
                        )
                    except KeyError:
                        pass
                    else:
                        coded.append(np.asarray(codes, dtype=np.int64))
                        continue
                coded.append(
                    self._encode_dict_column(attribute, tuple(map(getter, rows_t)))
                )
                continue
            column = tuple(map(getter, rows_t))
            converted = self._int64_or_none(column)
            if converted is not None and converted.ndim == 1:
                if mode is None:
                    modes[attribute] = _MODE_IDENTITY
                coded.append(converted)
                continue
            if mode is None:
                modes[attribute] = _MODE_DICT
            else:
                # Pinned identity met a column int64 cannot carry.
                raise _PromoteToDict(attribute)
            coded.append(self._encode_dict_column(attribute, column))
        return _VecEncoding(tuple(coded), n)

    def _decoders(self) -> Tuple[Optional[Any], ...]:
        """Per-final-column decoders for the *current* interner epoch.

        ``None`` for identity columns (no strays exist in this backend —
        they promote instead); dictionary columns index their epoch's value
        list.  Captured onto each encoded state at encode time.
        """
        return tuple(
            self._values[attribute].__getitem__
            if self._modes[attribute] == _MODE_DICT
            else None
            for attribute in self._final_columns
        )

    def _encode_slots(self, state: DatabaseState, stats: Optional[ExecutionStats]):
        """The shared slot loop behind the interner's epoch check, plus the
        identity→dictionary promotion restart described in the module notes
        (lock held).  The core commits stats only after a successful pass,
        so a restarted encode is not double-counted."""
        if self.interned_value_count() > DEFAULT_MAX_INTERNED_VALUES:
            self._open_interner_epoch_locked()
            if stats is not None:
                stats.interner_resets += 1
        while True:
            try:
                return super()._encode_slots(state, stats)
            except _PromoteToDict as promote:
                self._modes[promote.attribute] = _MODE_DICT
                self.mode_promotions += 1
                # Cached encodings of slots containing the promoted
                # attribute carry identity codes for it and must go; a
                # slot without the attribute is untouched by the mode
                # flip, so its cache (and future hits) survive.
                for slot, columns in enumerate(self.slot_columns):
                    if promote.attribute in columns:
                        self._slot_cache[slot].clear()

    def _open_interner_epoch_locked(self) -> None:
        """Rebuild the interner and retire every encoding of the old epoch.

        Called at a state-encode boundary with the encode lock held, *before*
        the incoming state is encoded: the interning maps and value lists are
        **replaced with fresh objects** — never cleared in place — and the
        slot encoding caches are dropped wholesale, because every cached
        encoding holds codes minted by the retired epoch and must never mix
        with codes of the new one.  Attribute *modes* stay pinned (they
        describe column shape, not code assignment).

        Replacement rather than clearing is what makes rollover safe for
        everything in flight: each :class:`EncodedState` captures its
        epoch's decoders — bound to that epoch's value-list objects — at
        encode time, so states encoded before a rollover (including ones a
        concurrent thread is executing right now, and ones a caller pinned
        long-term) keep decoding against the retired epoch's intact lists.
        The retired objects die with the last such state.
        """
        self._intern = {attribute: {} for attribute in self._intern}
        self._values = {attribute: [] for attribute in self._values}
        self._reset_slot_caches_locked()
        self.interner_epoch += 1

    def interned_value_count(self) -> int:
        """Total distinct values interned across all attributes (diagnostic).

        Identity-mode int values are never interned, so this counts only
        dictionary-mode values.
        """
        return sum(len(intern_map) for intern_map in self._intern.values())

    # -- execution -------------------------------------------------------------

    def _emit_fused(self, mother_view: _VecEncoding, new_sorted, per_mother, child_index):
        """The fused step's output: the distinct final rows of the join, as
        ``(final columns in target order, row count)``, or ``None`` when the
        packed span would reach :data:`_PACK_LIMIT`.

        The mother's final columns pack on the mother's rows and the
        child's on the bucket rows; the join then expands one int64 per
        row, ``repeat(mother code) × child span + child code``, dedups it as
        :func:`_distinct_packed` and unpacks only the distinct codes.
        """
        np = self._np
        _, mother_positions, child_positions, order = self._fused
        mother = _pack_columns(
            np, [mother_view.columns[p] for p in mother_positions], mother_view.n
        )
        child = _pack_columns(
            np, [new_sorted[q] for q in child_positions], len(new_sorted[0])
        )
        if mother is None or child is None:
            return None
        mother_packed, mother_lows, mother_widths, mother_span = mother
        child_packed, child_lows, child_widths, child_span = child
        if mother_span * child_span >= _PACK_LIMIT:
            return None
        combined = np.repeat(mother_packed, per_mother)
        combined *= child_span
        combined += child_packed[child_index]
        codes = _distinct_packed(np, combined, mother_span * child_span, index=False)
        mother_codes, child_codes = np.divmod(codes, child_span)
        columns = _unpack_columns(
            np, mother_codes, mother_lows, mother_widths
        ) + _unpack_columns(np, child_codes, child_lows, child_widths)
        return tuple(columns[k] for k in order), len(codes)

    def _run(self, encoded: EncodedState, stats: Optional[ExecutionStats]):
        np = self._np
        views: List[_VecEncoding] = list(encoded.encodings)

        # Phase 1: the full-reducer semijoin program as membership masks.
        for op in self._semijoins:
            source_view = views[op.source]
            source_keys = source_view.keysets.get(op.skey)
            if source_keys is None:
                source_keys = np.unique(_key_array(np, source_view, op.skey))
                source_view.keysets[op.skey] = source_keys
                if stats is not None:
                    lineage = (op.source, op.skey)
                    builds = stats.keyset_builds
                    builds[lineage] = builds.get(lineage, 0) + 1
            target_view = views[op.target]
            target_keys = target_view.keysets.get(op.tkey)
            if target_keys is None:
                target_keys = np.unique(_key_array(np, target_view, op.tkey))
                target_view.keysets[op.tkey] = target_keys
                if stats is not None:
                    lineage = (op.target, op.tkey)
                    builds = stats.keyset_builds
                    builds[lineage] = builds.get(lineage, 0) + 1
            subset_mask = _member_mask(np, source_keys, target_keys)
            if bool(subset_mask.all()):
                if stats is not None:
                    stats.identity_semijoins += 1
                continue
            mask = _member_mask(
                np, source_keys, _key_array(np, target_view, op.tkey)
            )
            filtered = _filtered(np, target_view, mask)
            filtered.keysets[op.tkey] = target_keys[subset_mask]
            views[op.target] = filtered
            if stats is not None:
                stats.filtering_semijoins += 1
        max_intermediate = max((view.n for view in views), default=0)

        # Phase 2: the bottom-up join as gathers.
        join_count = 0
        fused_step = None if self._fused is None else self._fused[0]
        fused_final = None
        for op in self._joins:
            child_view = views[op.node]
            mother_view = views[op.mother]
            join_count += 1
            if op.kind == _JOIN_SEMI_CHILD:
                if op.proj_pos is not None:
                    cached = child_view.buckets.get(op.tag)
                    if cached is None:
                        index = _unique_rows_index(np, child_view, op.proj_pos)
                        projected = tuple(
                            child_view.columns[p][index] for p in op.proj_pos
                        )
                        cached = (projected, len(index))
                        child_view.buckets[op.tag] = cached
                        if stats is not None:
                            lineage = (op.node, op.ckey)
                            builds = stats.bucket_builds
                            builds[lineage] = builds.get(lineage, 0) + 1
                    child_columns, child_n = cached
                    if child_n > max_intermediate:
                        max_intermediate = child_n
                else:
                    child_columns, child_n = child_view.columns, child_view.n
                mother_keys = mother_view.keysets.get(op.mkey)
                if mother_keys is None:
                    mother_keys = np.unique(
                        _key_array(np, mother_view, op.mkey)
                    )
                    mother_view.keysets[op.mkey] = mother_keys
                    if stats is not None:
                        lineage = (op.mother, op.mkey)
                        builds = stats.keyset_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                child_key = _build_key(np, child_columns, child_n, op.ckey)
                mask = _member_mask(np, mother_keys, child_key)
                if op.proj_pos is None and bool(mask.all()):
                    joined = child_view
                else:
                    joined = _VecEncoding(
                        tuple(column[mask] for column in child_columns),
                        int(mask.sum()),
                    )
            else:
                cached = child_view.buckets.get(op.tag)
                if cached is None:
                    cached = _general_bucket(np, child_view, op)
                    child_view.buckets[op.tag] = cached
                    if stats is not None:
                        lineage = (op.node, op.ckey)
                        builds = stats.bucket_builds
                        builds[lineage] = builds.get(lineage, 0) + 1
                group_keys, starts, counts, new_sorted, proj_len = cached
                if proj_len is not None and proj_len > max_intermediate:
                    max_intermediate = proj_len
                mother_n = mother_view.n
                total = 0
                if mother_n and len(group_keys):
                    mother_key = _key_array(np, mother_view, op.mkey)
                    position = group_keys.searchsorted(mother_key)
                    np.minimum(position, len(group_keys) - 1, out=position)
                    match = group_keys[position] == mother_key
                    per_mother = np.where(match, counts[position], 0)
                    total = int(per_mother.sum())
                if total == 0:
                    joined = _empty_like(
                        np, len(mother_view.columns) + len(new_sorted)
                    )
                else:
                    # Expand: per output row, the offset of its row in the
                    # key-sorted child (its group's start, plus its rank
                    # among the mother row's matches).
                    group_start = np.where(match, starts[position], 0)
                    first_output = np.cumsum(per_mother) - per_mother
                    child_index = np.arange(total) + np.repeat(
                        group_start - first_output, per_mother
                    )
                    if op is fused_step:
                        fused_final = self._emit_fused(
                            mother_view, new_sorted, per_mother, child_index
                        )
                        if fused_final is not None:
                            if total > max_intermediate:
                                max_intermediate = total
                            continue
                    mother_index = np.repeat(np.arange(mother_n), per_mother)
                    joined = _VecEncoding(
                        tuple(column[mother_index] for column in mother_view.columns)
                        + tuple(column[child_index] for column in new_sorted),
                        total,
                    )
            if joined.n > max_intermediate:
                max_intermediate = joined.n
            views[op.mother] = joined

        # Final projection + decode: the only value-level materialization
        # (and a bare ``tolist`` for pure identity-mode columns).
        root_view = views[self.root]
        final_positions = self._final_positions
        if fused_final is not None:
            final_columns, final_n = fused_final
        elif final_positions is None:
            final_columns = root_view.columns
            final_n = root_view.n
        elif not final_positions:
            # Projection onto the nullary target relation.
            final_columns = ()
            final_n = 1 if root_view.n else 0
        elif self._final_permutes and len(final_positions) == len(
            root_view.columns
        ):
            # Pure column reorder: no column is dropped, so the root's rows
            # (distinct by construction) stay distinct — skip the dedup.
            final_columns = tuple(root_view.columns[p] for p in final_positions)
            final_n = root_view.n
        else:
            index = _unique_rows_index(np, root_view, final_positions)
            final_columns = tuple(
                root_view.columns[p][index] for p in final_positions
            )
            final_n = len(index)
        if not final_columns:
            rows = frozenset([()]) if final_n else frozenset()
        else:
            decoded = []
            for column, decoder in zip(final_columns, encoded.decoders):
                cells = column.tolist()
                decoded.append(cells if decoder is None else list(map(decoder, cells)))
            rows = frozenset(zip(*decoded))
        result = Relation._from_trusted(
            self._final_schema, self._final_columns, rows
        )
        return result, join_count, max_intermediate
