"""Array-native tag stores: one authoritative NumPy store per cache level.

Ownership model
---------------
A :class:`LevelTagStore` is the single source of truth for one cache level's
tag state across all cores.  Its persistent representation is a set of NumPy
planes — ``tags``, ``dirty``, ``owner`` and an LRU ``stamp`` per (row, way),
where a row is ``core * num_sets + set`` for a private level and plain
``set`` for a shared level — shared by the lockstep walk kernel
(:mod:`repro.arch.vector`), the scalar grouped walk
(:mod:`repro.arch.batch`) and the coherence/invalidation replay.

The scalar paths do not index the planes per event (CPython NumPy scalar
access is several times slower than a dict hit); instead each
:class:`~repro.arch.cache.Cache` holds a :class:`_SetViews` mapping of
*row working copies*: per-set ``OrderedDict`` views materialised from the
planes **lazily, on demand** — the "lazy dict export" of the per-record
oracle, snapshot APIs and post-run readers.  Every row is in exactly one of
two states:

* **plane-resident** (``store.resident[row]`` is ``True``): the planes hold
  the row's truth and the view mapping has *no* entry for it.  The walk
  kernel operates on such rows directly; a scalar touch first materialises
  the row back into an ``OrderedDict`` through :meth:`_SetViews.__missing__`.
* **view-resident**: the ``OrderedDict`` holds the truth (LRU order is dict
  insertion order).  The kernel adopts such rows into the planes
  (:meth:`LevelTagStore.adopt`) before walking them — and, crucially, never
  exports them back afterwards: rows stay plane-resident until a scalar
  path actually asks for one, which removes the per-group gather/scatter
  round trip that used to dominate the kernel's fixed overhead.

Until the kernel first runs, ``resident`` stays ``None`` and the views
behave as plain lazily-allocated dict stores with zero synchronisation
overhead — the per-record oracle path never pays for the planes at all.

LRU order maps exactly onto stamps: an ``OrderedDict``'s iteration order is
ascending recency, so adoption assigns ascending stamps and materialisation
re-inserts in ascending stamp order.  The lockstep walk kernels
(:meth:`LevelTagStore.walk` and helpers) replay the scalar per-row access
order by rank, so state evolution is bit-identical either way.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

#: Encoding of ``_Line.owner is None`` in the int64 owner plane.
_NO_OWNER = -2


@dataclass
class _Line:
    """State of one cached line."""

    dirty: bool = False
    owner: Optional[int] = None


class _SetViews(dict):
    """Per-cache mapping of set index -> ``OrderedDict`` row working copy.

    Present keys resolve at C dict speed (this is the scalar hot path); a
    missing key materialises the row from the owning store's planes when the
    row is plane-resident, and otherwise allocates an empty set lazily —
    large shared caches (e.g. a 16K-set L3) would otherwise pay tens of
    milliseconds of ``OrderedDict`` construction per simulated machine for
    sets the trace never reaches.

    ``resident_count`` counts this view's plane-resident rows; while it is
    zero (always, for engines that never engage the kernel) the store is
    never consulted.
    """

    __slots__ = ("store", "base", "resident_count", "__weakref__")

    def __init__(self, store: Optional["LevelTagStore"], base: int) -> None:
        super().__init__()
        self.store = store
        self.base = base
        self.resident_count = 0

    def __missing__(self, key: int) -> OrderedDict:
        if self.resident_count:
            lines = self.store.materialise(self, key)
        else:
            lines = OrderedDict()
        self[key] = lines
        return lines

    def peek(self, key: int) -> Optional[OrderedDict]:
        """Return the row's lines without allocating cold sets.

        ``None`` means the set holds no lines (and none were materialised);
        used by probe/invalidate paths that must not bloat the mapping.
        """
        lines = dict.get(self, key)
        if lines is None and self.resident_count:
            store = self.store
            if store.resident[self.base + key]:
                lines = store.materialise(self, key)
                self[key] = lines
        return lines

    def sync(self) -> None:
        """Materialise every plane-resident row of this view."""
        if self.resident_count:
            self.store.export_view(self)


class LevelTagStore:
    """The authoritative tag state of one cache level across all cores.

    Views are attached in core order (:meth:`attach`); a shared level has a
    single view.  The NumPy planes are allocated on first kernel use
    (:meth:`ensure_planes`) and persist for the store's lifetime; the
    ``resident`` flags say, per row, whether the planes or the view's
    ``OrderedDict`` working copy hold the row's current truth.
    """

    __slots__ = (
        "num_sets",
        "assoc",
        "views",
        "tags",
        "dirty",
        "owner",
        "stamp",
        "resident",
        "counter",
        "profile",
        "export_seconds",
    )

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        #: Weak references, so that views (which hold their store) and the
        #: store form no reference cycle: a released memory system is freed
        #: at once instead of waiting for the cyclic collector.  The caches
        #: owning the views keep them alive for as long as they are used.
        self.views: List["weakref.ref[_SetViews]"] = []
        self.tags: Optional[np.ndarray] = None
        self.dirty: Optional[np.ndarray] = None
        self.owner: Optional[np.ndarray] = None
        self.stamp: Optional[np.ndarray] = None
        #: Per-row plane-residency flags; ``None`` until the kernel first
        #: adopts state (scalar-only engines never allocate the planes).
        self.resident: Optional[np.ndarray] = None
        self.counter = 1
        #: When set, lazy exports accumulate wall time in
        #: ``export_seconds`` (the engine's ``--profile`` phase breakdown).
        self.profile = False
        self.export_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def num_views(self) -> int:
        return len(self.views)

    @property
    def num_rows(self) -> int:
        return len(self.views) * self.num_sets

    def attach(self) -> _SetViews:
        """Register and return the working-copy view of the next core."""
        if self.resident is not None:
            raise RuntimeError("cannot attach views after plane allocation")
        view = _SetViews(self, len(self.views) * self.num_sets)
        self.views.append(weakref.ref(view))
        return view

    def ensure_planes(self) -> None:
        """Allocate the NumPy planes (idempotent)."""
        if self.resident is not None:
            return
        rows = self.num_rows
        assoc = self.assoc
        self.tags = np.full((rows, assoc), -1, dtype=np.int64)
        self.dirty = np.zeros((rows, assoc), dtype=np.bool_)
        self.owner = np.full((rows, assoc), _NO_OWNER, dtype=np.int64)
        self.stamp = np.zeros((rows, assoc), dtype=np.int64)
        self.resident = np.zeros(rows, dtype=np.bool_)

    # ------------------------------------------------------------------
    def adopt(self, rows: np.ndarray) -> None:
        """Make ``rows`` plane-resident, importing view-resident state.

        Rows already plane-resident are untouched; the rest are imported
        from (and removed out of) their view's ``OrderedDict`` working
        copies with ascending stamps, so LRU order is preserved exactly.
        """
        resident = self.resident
        fresh_mask = ~resident[rows]
        if not fresh_mask.any():
            return
        fresh = np.unique(rows[fresh_mask])
        tags = self.tags
        dirty = self.dirty
        owner = self.owner
        stamp = self.stamp
        num_sets = self.num_sets
        views = self.views
        for row in fresh.tolist():
            view = views[row // num_sets]()
            lines = dict.pop(view, row % num_sets, None)
            tags[row] = -1
            if lines:
                base = self.counter
                self.counter = base + len(lines)
                for way, (tag, line) in enumerate(lines.items()):
                    tags[row, way] = tag
                    dirty[row, way] = line.dirty
                    owner[row, way] = _NO_OWNER if line.owner is None else line.owner
                    stamp[row, way] = base + way
            view.resident_count += 1
        resident[fresh] = True

    def materialise(self, view: _SetViews, set_index: int) -> OrderedDict:
        """Lazy dict export of one row (or a fresh empty set when cold).

        Does **not** insert the result into ``view`` — the callers
        (:meth:`_SetViews.__missing__` / :meth:`_SetViews.peek`) do, which
        keeps the residency invariant in one place each.
        """
        row = view.base + set_index
        resident = self.resident
        if resident is None or not resident[row]:
            return OrderedDict()
        start = perf_counter() if self.profile else 0.0
        resident[row] = False
        view.resident_count -= 1
        lines: OrderedDict = OrderedDict()
        row_tags = self.tags[row]
        valid = row_tags != -1
        if valid.any():
            ways = np.nonzero(valid)[0]
            order = ways[np.argsort(self.stamp[row][ways], kind="stable")]
            owner = self.owner
            dirty = self.dirty
            for way in order.tolist():
                own = owner[row, way]
                lines[int(row_tags[way])] = _Line(
                    dirty=bool(dirty[row, way]),
                    owner=None if own == _NO_OWNER else int(own),
                )
        if self.profile:
            self.export_seconds += perf_counter() - start
        return lines

    def export_view(self, view: _SetViews) -> None:
        """Materialise every plane-resident row of one view."""
        resident = self.resident
        if resident is None:
            return
        base = view.base
        rows = np.nonzero(resident[base : base + self.num_sets])[0]
        for set_index in rows.tolist():
            lines = self.materialise(view, set_index)
            if lines:
                view[set_index] = lines

    def export_all(self) -> None:
        """Materialise every plane-resident row (post-run readers, tests)."""
        for view in self.views:
            self.export_view(view())

    def release_view(self, view: _SetViews) -> None:
        """Drop residency of one view's rows (``Cache.flush``)."""
        resident = self.resident
        if resident is None or not view.resident_count:
            return
        base = view.base
        span = slice(base, base + self.num_sets)
        self.tags[span] = -1
        resident[span] = False
        view.resident_count = 0

    # ------------------------------------------------------------------
    # Lockstep walk kernels (shared by the vector engine).
    def _step(
        self,
        rows: np.ndarray,
        tags: np.ndarray,
        writes: np.ndarray,
        cores: np.ndarray,
        stamp_value: int,
        has_writes: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """One lockstep step over events with pairwise-distinct rows.

        Operates in place on the state planes (distinct rows guarantee the
        scatters never collide).  ``has_writes`` is the caller's stream-wide
        write flag — when False, the per-step dirty/owner bookkeeping is
        skipped entirely.  Returns ``(hit, eviction, writeback)``; the last
        two are ``None`` when every event hit (the common steady state), so
        callers skip the eviction bookkeeping.
        """
        lane_tags = self.tags[rows]
        match = lane_tags == tags[:, None]
        hit = match.any(axis=1)
        way = match.argmax(axis=1)
        num_hits = int(hit.sum())
        if num_hits == hit.shape[0]:
            self.stamp[rows, way] = stamp_value
            if has_writes and writes.any():
                write_rows = rows[writes]
                write_ways = way[writes]
                self.dirty[write_rows, write_ways] = True
                self.owner[write_rows, write_ways] = cores[writes]
            return hit, None, None
        if num_hits:
            hit_rows = rows[hit]
            hit_ways = way[hit]
            self.stamp[hit_rows, hit_ways] = stamp_value
            if has_writes:
                hit_writes = writes[hit]
                if hit_writes.any():
                    write_rows = hit_rows[hit_writes]
                    write_ways = hit_ways[hit_writes]
                    self.dirty[write_rows, write_ways] = True
                    self.owner[write_rows, write_ways] = cores[hit][hit_writes]
        miss = ~hit
        miss_rows = rows[miss]
        empty = lane_tags[miss] == -1
        has_empty = empty.any(axis=1)
        miss_way = np.where(
            has_empty,
            empty.argmax(axis=1),
            self.stamp[miss_rows].argmin(axis=1),
        )
        evicted_miss = ~has_empty
        wb_miss = self.dirty[miss_rows, miss_way] & evicted_miss
        self.tags[miss_rows, miss_way] = tags[miss]
        self.dirty[miss_rows, miss_way] = writes[miss]
        self.owner[miss_rows, miss_way] = cores[miss]
        self.stamp[miss_rows, miss_way] = stamp_value
        evict_out = np.zeros(hit.shape[0], dtype=np.bool_)
        wb_out = np.zeros(hit.shape[0], dtype=np.bool_)
        evict_out[miss] = evicted_miss
        wb_out[miss] = wb_miss
        return hit, evict_out, wb_out

    def walk(
        self,
        rows: np.ndarray,
        tags: np.ndarray,
        writes: np.ndarray,
        cores: np.ndarray,
        ranks: Optional[np.ndarray] = None,
        serialise: bool = False,
        has_writes: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Walk one level's event stream in lockstep on the planes.

        ``rows``/``tags``/``writes``/``cores`` describe, in execution order,
        every event that reaches this level.  Events mapping to distinct
        rows commute; events sharing a row must be serialised by rank so the
        per-row access order (and therefore LRU state) matches the scalar
        walk exactly.  At private levels the caller passes the plan's static
        per-record ranks (``ranks``; ``None`` when the whole group is known
        collision-free); at shared levels cross-member collisions are only
        discoverable dynamically, so ``serialise=True`` ranks the stream by
        row here.  Touched rows become (and stay) plane-resident; nothing is
        exported back.  Returns per-event ``(hit, eviction, writeback)``
        with the :meth:`_step` convention for ``None``.
        """
        self.adopt(rows)
        base = self.counter
        if ranks is not None:
            if int(ranks.max()):
                return self._walk_ranked(
                    rows, tags, writes, cores, ranks, base, has_writes
                )
            result = self._step(rows, tags, writes, cores, base, has_writes)
            self.counter = base + 1
            return result
        if serialise:
            count = rows.shape[0]
            order = np.argsort(rows, kind="stable")
            sorted_rows = rows[order]
            distinct = np.empty(count, dtype=np.bool_)
            distinct[0] = True
            np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=distinct[1:])
            if distinct.all():
                result = self._step(rows, tags, writes, cores, base, has_writes)
                self.counter = base + 1
                return result
            positions = np.arange(count, dtype=np.int64)
            segment_start = np.maximum.accumulate(
                np.where(distinct, positions, 0)
            )
            dynamic = np.empty(count, dtype=np.int64)
            dynamic[order] = positions - segment_start
            return self._walk_ranked(
                rows, tags, writes, cores, dynamic, base, has_writes
            )
        result = self._step(rows, tags, writes, cores, base, has_writes)
        self.counter = base + 1
        return result

    def _walk_ranked(
        self,
        rows: np.ndarray,
        tags: np.ndarray,
        writes: np.ndarray,
        cores: np.ndarray,
        ranks: np.ndarray,
        base: int,
        has_writes: bool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One lockstep step per distinct rank value (ranks may be sparse).

        Same-row events never share a rank, so grouping the stream by rank
        value (stable, hence ascending stream position within each group)
        yields steps with pairwise-distinct rows that replay each row's
        access sequence in stream order.
        """
        count = rows.shape[0]
        order = np.argsort(ranks, kind="stable")
        sorted_ranks = ranks[order]
        cuts = np.nonzero(sorted_ranks[1:] != sorted_ranks[:-1])[0] + 1
        starts = np.concatenate(([0], cuts)).tolist()
        ends = np.concatenate((cuts, [count])).tolist()
        hit_out = np.empty(count, dtype=np.bool_)
        evict_out = np.zeros(count, dtype=np.bool_)
        wb_out = np.zeros(count, dtype=np.bool_)
        for step_index, (start, end) in enumerate(zip(starts, ends)):
            select = order[start:end]
            hit, evicted, wrote_back = self._step(
                rows[select],
                tags[select],
                writes[select],
                cores[select],
                base + step_index,
                has_writes,
            )
            hit_out[select] = hit
            if evicted is not None:
                evict_out[select] = evicted
                wb_out[select] = wrote_back
        self.counter = base + len(starts)
        return hit_out, evict_out, wb_out
