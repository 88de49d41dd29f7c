"""Batched detailed-mode execution over a columnar trace.

:class:`BatchedCoreExecutor` is the hot-path replacement for calling
:meth:`repro.arch.core.DetailedCoreModel.execute` once per task instance.  It
exploits the columnar trace backbone (:mod:`repro.trace.columns`) to split the
detailed cost model into

* a **static part**, precomputed vectorised over the whole trace at
  construction time: per-block dispatch cycles
  (``instructions * base_cpi / issue_width``), the repeated-access
  serialisation term of the ROB model, and the cache-geometry decomposition
  (per level: set index and tag) of every memory event's address, and
* a **dynamic part**, evaluated at dispatch: the sequential cache-state walk
  (hits, misses, LRU updates, coherence invalidations), the active-core
  contention terms of the interconnect and DRAM models — both constant within
  one task instance, so they are computed once per call instead of once per
  event — and the optional noise factor.

The executor operates **in place** on the same :class:`~repro.arch.cache.Cache`
objects as the per-record model: their per-set ``OrderedDict`` working copies
(lazy views of the authoritative :class:`~repro.arch.tagstore.LevelTagStore`
planes — a set the vector kernel holds plane-side is materialised on first
scalar touch through the view's ``__missing__``) and their statistics
counters.  Every floating-point operation replays the exact order of the
per-record implementation, so detailed-mode cycle counts, IPCs and cache/DRAM
statistics are bit-identical between the paths — this is asserted by the
equivalence tests — while the batched path avoids the per-event method
dispatch, dataclass allocation and latency-list construction that dominated
the original profile.

For the two concrete hierarchy shapes the Table II architectures produce
(two private levels over one shared, and one private level over one shared),
:meth:`BatchedCoreExecutor.execute_many` dispatches to a specialised walk
with the outer-level loop unrolled, the flat counter-block writes replaced by
local integer counters, and the per-level exposure constants hoisted into
locals — worth ~6-12% of group-walk wall time on eviction-heavy traces.  The
generic walk remains for any other geometry and stays the reference.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.cache import _Line
from repro.arch.config import ArchitectureConfig
from repro.arch.hierarchy import MemorySystem
from repro.arch.rob import RobModel
from repro.trace.columns import TraceColumns


class ExecutionPlan(NamedTuple):
    """Static per-trace precomputation of the detailed cost model.

    One plan is built per (trace columns, model geometry) pair and memoised
    in ``columns.plan_cache``, so re-simulating the same trace with a
    different thread count or controller reuses it.  The geometry columns are
    kept both as NumPy arrays (shared with the vectorised walk engine in
    :mod:`repro.arch.vector`, which gathers from them directly) and as plain
    Python lists (bound by the scalar hot loop of
    :meth:`BatchedCoreExecutor.execute`, where list indexing beats NumPy
    scalar indexing).
    """

    #: Per-block dispatch cycles, ``instructions * base_cpi / issue_width``.
    block_dispatch: np.ndarray
    #: Per-block repeated-access serialisation term of the ROB model.
    block_repeat: np.ndarray
    #: Per cache level, the set index of every event (NumPy int64).
    level_set: Tuple[np.ndarray, ...]
    #: Per cache level, the tag of every event (NumPy int64).
    level_tag: Tuple[np.ndarray, ...]
    #: Block id of every event and the event's rank within its block.
    event_block: np.ndarray
    event_rank: np.ndarray
    #: Per-record number of events and whether the record writes shared data.
    record_events: np.ndarray
    has_shared_write: np.ndarray
    #: Sound per-record lower bound on detailed cycles (pre-noise): the
    #: contention-free dispatch time with a relative safety margin for
    #: summation-order differences.  Used by the engine's deferred-dispatch
    #: path to order completions without evaluating the cache walk.
    cycles_floor: np.ndarray
    #: Per cache level, the rank of every event among the *same-record*
    #: events that map to the same set at that level (0 for the first).  At
    #: private levels two group members never share a tag-store row, so this
    #: static rank is exactly the serialisation order the vector kernel
    #: needs; ``level_max_rank`` holds the per-record maximum per level so an
    #: all-distinct group (the common case) is detected without touching the
    #: arrays.
    level_rank: Tuple[np.ndarray, ...]
    level_max_rank: Tuple[list, ...]
    #: Exact contention-free detailed cycle count per record: the sequential
    #: left fold of ``block_dispatch`` over the record's blocks, bit-equal to
    #: the scalar loop when no event exposes stall latency.
    static_cycles: list
    # ------------------------------------------------------------------
    # Python-list mirrors for the scalar hot loop.
    block_dispatch_list: list
    block_repeat_list: list
    level_set_list: tuple
    level_tag_list: tuple
    event_write: list
    event_shared: list
    block_offsets: list
    event_offsets: list
    instructions: list
    detail_events: list
    has_shared_write_list: list
    cycles_floor_list: list
    #: Per record, a tuple of ``(l1_events, dispatch, repeat)`` triples — one
    #: per block — where ``l1_events`` is the block's pre-zipped L1 walk
    #: stream of ``(l1_set, l1_tag, is_write, coherent_write, event_id)``
    #: tuples.  The scalar group executor iterates this structure with one
    #: tuple unpack per block and one per event, replacing the
    #: ``block_offsets``/``block_dispatch``/``block_repeat`` index lookups
    #: and the three parallel event-column lookups of the naive loop.  The
    #: ``coherent_write`` flag pre-evaluates ``is_write and shared`` so the
    #: hot loop's coherence gate is a single truth test.
    record_blocks: list


def _plan_key(columns: TraceColumns, caches: list, core, rob_model: RobModel) -> tuple:
    return (
        "batched-executor",
        caches[0].config.line_bytes,
        tuple(c.config.num_sets for c in caches),
        core.base_cpi,
        core.issue_width,
        rob_model.l1_latency,
    )


def build_execution_plan(
    columns: TraceColumns, caches: list, core, rob_model: RobModel
) -> ExecutionPlan:
    """Build (or fetch from ``columns.plan_cache``) the execution plan."""
    plan_key = _plan_key(columns, caches, core, rob_model)
    plan = columns.plan_cache.get(plan_key)
    if plan is not None:
        return plan

    # Contention-free base cycles: per-block dispatch time at the core's
    # issue width.  int64 -> float64 conversion and the multiply/divide
    # reproduce `instructions * base_cpi / issue_width` bit-exactly.
    block_dispatch = (
        columns.block_instructions.astype(np.float64)
        * core.base_cpi
        / core.issue_width
    )

    # Repeated-access serialisation term of RobModel.block_cycles: the
    # per-block sum of (weight - 1) scaled by a constant.
    repeats = np.maximum(columns.event_weight - 1, 0)
    cumulative = np.concatenate(([0], np.cumsum(repeats, dtype=np.int64)))
    offsets = columns.event_offsets
    repeats_per_block = cumulative[offsets[1:]] - cumulative[offsets[:-1]]
    block_repeat = (
        repeats_per_block.astype(np.float64)
        * (rob_model.l1_latency / core.issue_width)
        * 0.1
    )

    # Cache geometry: per level, the set index and tag of every event.
    line_numbers = columns.event_address // caches[0].config.line_bytes
    level_set = []
    level_tag = []
    for cache in caches:
        num_sets = cache.config.num_sets
        level_set.append(line_numbers % num_sets)
        level_tag.append(line_numbers // num_sets)

    # Event topology: the block of every event and its rank within it.
    events_per_block = offsets[1:] - offsets[:-1]
    event_block = np.repeat(
        np.arange(columns.num_blocks, dtype=np.int64), events_per_block
    )
    event_rank = (
        np.arange(columns.num_events, dtype=np.int64) - offsets[event_block]
        if columns.num_events
        else np.zeros(0, dtype=np.int64)
    )

    record_offsets = columns.record_event_offsets
    record_events = record_offsets[1:] - record_offsets[:-1]
    shared_write = columns.event_is_write & columns.event_shared
    sw_cum = np.concatenate(([0], np.cumsum(shared_write, dtype=np.int64)))
    has_shared_write = (sw_cum[record_offsets[1:]] - sw_cum[record_offsets[:-1]]) > 0

    # Per-level, per-record set-collision ranks (see ExecutionPlan docstring).
    num_records = record_events.shape[0]
    record_of_event = np.repeat(
        np.arange(num_records, dtype=np.int64), record_events
    )
    num_events = columns.num_events
    level_rank = []
    level_max_rank = []
    event_positions = np.arange(num_events, dtype=np.int64)
    for sets_at_level, cache in zip(level_set, caches):
        key = record_of_event * np.int64(cache.config.num_sets) + sets_at_level
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        if num_events:
            new_segment = np.concatenate(
                ([True], sorted_key[1:] != sorted_key[:-1])
            )
        else:
            new_segment = np.zeros(0, dtype=np.bool_)
        segment_start = np.maximum.accumulate(
            np.where(new_segment, event_positions, 0)
        )
        rank = np.empty(num_events, dtype=np.int64)
        rank[order] = event_positions - segment_start
        max_rank = np.zeros(num_records, dtype=np.int64)
        np.maximum.at(max_rank, record_of_event, rank)
        level_rank.append(rank)
        level_max_rank.append(max_rank.tolist())

    # Lower bound on the detailed cycle count: the dispatch contribution of
    # every block (stalls are non-negative).  The segment sums here use a
    # different float summation order than the scalar loop, so shave a
    # relative margin far above the worst-case summation error.
    bd_cum = np.concatenate(([0.0], np.cumsum(block_dispatch, dtype=np.float64)))
    block_offsets = columns.block_offsets
    cycles_floor = np.maximum(
        bd_cum[block_offsets[1:]] - bd_cum[block_offsets[:-1]], 0.0
    ) * (1.0 - 1e-9)

    # Exact stall-free cycle counts: the same left fold the scalar loop
    # performs when every block's exposed sum is zero.  Computed once in
    # Python because `a + b + c` and the cumsum segment difference above are
    # not bit-equal in general.
    bd_list = block_dispatch.tolist()
    bo_list = block_offsets.tolist()
    static_cycles = []
    for record in range(num_records):
        total = 0.0
        for block in range(bo_list[record], bo_list[record + 1]):
            total += bd_list[block]
        static_cycles.append(total)

    # Pre-zipped per-block L1 walk streams and the per-record block
    # structure for the scalar group executor.
    l1_set_list = level_set[0].tolist()
    l1_tag_list = level_tag[0].tolist()
    ev_write_list = columns.event_is_write.tolist()
    coh_list = shared_write.tolist()
    eo_list = offsets.tolist()
    l1_events = tuple(
        zip(l1_set_list, l1_tag_list, ev_write_list, coh_list, range(num_events))
    )
    br_list = block_repeat.tolist()
    block_entries = tuple(
        zip(
            [l1_events[start:end] for start, end in zip(eo_list[:-1], eo_list[1:])],
            bd_list,
            br_list,
        )
    )
    record_blocks = [
        block_entries[start:end] for start, end in zip(bo_list[:-1], bo_list[1:])
    ]

    plan = ExecutionPlan(
        block_dispatch=block_dispatch,
        block_repeat=block_repeat,
        level_set=tuple(level_set),
        level_tag=tuple(level_tag),
        event_block=event_block,
        event_rank=event_rank,
        record_events=record_events,
        has_shared_write=has_shared_write,
        cycles_floor=cycles_floor,
        level_rank=tuple(level_rank),
        level_max_rank=tuple(level_max_rank),
        static_cycles=static_cycles,
        block_dispatch_list=bd_list,
        block_repeat_list=br_list,
        level_set_list=tuple(
            [l1_set_list] + [s.tolist() for s in level_set[1:]]
        ),
        level_tag_list=tuple(
            [l1_tag_list] + [t.tolist() for t in level_tag[1:]]
        ),
        event_write=ev_write_list,
        event_shared=columns.event_shared.tolist(),
        block_offsets=bo_list,
        event_offsets=eo_list,
        instructions=columns.instructions.tolist(),
        detail_events=columns.detail_events_per_record().tolist(),
        has_shared_write_list=has_shared_write.tolist(),
        cycles_floor_list=cycles_floor.tolist(),
        record_blocks=record_blocks,
    )
    columns.plan_cache[plan_key] = plan
    return plan


class BatchedCoreExecutor:
    """Executes task instances of one columnar trace in detailed mode.

    Parameters
    ----------
    columns:
        Columnar trace data; instances are addressed by record index.
    architecture:
        Architecture configuration (cache geometry, core parameters).
    memory_system:
        The machine's shared memory state.  The executor reads and mutates
        the same cache tag stores and statistics as the per-record model.
    rob_model:
        The ROB-occupancy timing model shared with the per-record path (its
        parameters seed the precomputed static terms).
    """

    def __init__(
        self,
        columns: TraceColumns,
        architecture: ArchitectureConfig,
        memory_system: MemorySystem,
        rob_model: RobModel,
    ) -> None:
        self.columns = columns
        self.architecture = architecture
        self.memory_system = memory_system
        self.rob_model = rob_model

        core = architecture.core
        self._hide = rob_model.hide_capacity()
        self._l1_threshold = rob_model.l1_latency
        self._max_outstanding = max(1.0, core.rob_size / 32.0)

        # ------------------------------------------------------------------
        # Static precomputation, vectorised over the whole trace — memoised
        # on the columns (keyed by model geometry) so that re-simulating one
        # trace with different thread counts or controllers pays it once.
        # ------------------------------------------------------------------
        hierarchy = memory_system.hierarchy(0)
        caches = hierarchy.caches
        self._num_private = len(hierarchy.private_caches)
        self._have_shared = bool(hierarchy.shared_caches)
        self._num_levels = len(caches)
        self._level_latency: List[int] = [c.config.latency_cycles for c in caches]
        self._level_assoc: List[int] = [c.config.associativity for c in caches]

        plan = build_execution_plan(columns, caches, core, rob_model)
        self.plan = plan
        self._block_dispatch = plan.block_dispatch_list
        self._block_repeat_term = plan.block_repeat_list
        self._ev_set = plan.level_set_list
        self._ev_tag = plan.level_tag_list
        self._ev_write = plan.event_write
        self._ev_shared = plan.event_shared
        #: Whether any event in the trace touches shared data at all; when
        #: not, the hot loop skips the per-write coherence check entirely.
        self._any_shared = bool(columns.event_shared.any())
        self._block_offsets = plan.block_offsets
        self._event_offsets = plan.event_offsets
        self._record_blocks = plan.record_blocks
        #: Persistent flat per-(core, level) counter block for
        #: :meth:`execute_many`: ``[core * stride + level * 4 + k]`` with
        #: ``k`` in (hits, misses, evictions, writebacks).  Zeroed slot-wise
        #: during each group's writeback, so no per-group allocation.
        self._group_acc = [0] * (memory_system.num_cores * self._num_levels * 4)
        self._instructions = plan.instructions
        self._detail_events = plan.detail_events
        #: Contention tables memoised per active-core count (see
        #: :meth:`contention_tables`); shared with the vector engine.
        self._tables: Dict[int, tuple] = {}

        # Per-core view of the tag stores: [core][level] -> (sets, stats),
        # plus the flattened hot-loop bindings (sets, associativity, per-event
        # set index, per-event tag) hoisted out of the per-call path.
        self._core_levels: List[List[Tuple[list, object]]] = []
        self._core_level_data: List[List[tuple]] = []
        for core_id in range(memory_system.num_cores):
            view = memory_system.hierarchy(core_id)
            caches_for_core = view.private_caches + view.shared_caches
            self._core_levels.append([(c._sets, c.stats) for c in caches_for_core])
            self._core_level_data.append(
                [
                    (
                        caches_for_core[k]._sets,
                        self._level_assoc[k],
                        self._ev_set[k],
                        self._ev_tag[k],
                    )
                    for k in range(self._num_levels)
                ]
            )
        # Invalidation targets of a shared-data write by core c: the private
        # levels of every *other* core, flattened for the coherence loop.
        private_targets = [
            [
                (sets, stats, self._ev_set[level], self._ev_tag[level])
                for level, (sets, stats) in enumerate(levels[: self._num_private])
            ]
            for levels in self._core_levels
        ]
        self._invalidate_targets: List[List[tuple]] = [
            [
                target
                for other_id, targets in enumerate(private_targets)
                if other_id != core_id
                for target in targets
            ]
            for core_id in range(memory_system.num_cores)
        ]

        # Specialised grouped walks for the two concrete hierarchy shapes
        # (see module docstring); the generic loop covers everything else.
        # Held as plain functions: a bound method stored on the instance
        # would be a reference cycle, leaving a released executor and its
        # whole memory system to the cyclic collector.
        self._walk = BatchedCoreExecutor._execute_many_generic
        if self._have_shared and self._num_private == 2 and self._num_levels == 3:
            self._walk = BatchedCoreExecutor._execute_many_p2s1
        elif self._have_shared and self._num_private == 1 and self._num_levels == 2:
            self._walk = BatchedCoreExecutor._execute_many_p1s1

    # ------------------------------------------------------------------
    def detail_events(self, index: int) -> int:
        """Number of memory events the detailed model resolves for ``index``."""
        return self._detail_events[index]

    def contention_tables(self, active_cores: int) -> tuple:
        """Latency and exposure tables for one active-core count.

        Returns ``(ic_latency, dram_latency, hit_latency, exposure)`` exactly
        as the per-record model computes them; the dynamic contention terms
        are constant for the duration of one task instance, and within one
        simulation they recur for the same ``active_cores`` value, so the
        tables are memoised per count.  The float operation order below
        replays :meth:`CacheHierarchy.access` bit-exactly.
        """
        tables = self._tables.get(active_cores)
        if tables is not None:
            return tables
        interconnect = self.memory_system.interconnect
        dram = self.memory_system.dram

        ic_config = interconnect.config
        ic_latency = float(ic_config.interconnect_latency_cycles) + (
            ic_config.interconnect_contention_per_core * (active_cores - 1)
        )
        dram_config = dram.config
        dram_base = float(dram_config.dram_latency_cycles)
        demand = 0.02 * active_cores
        utilisation = min(0.95, demand / dram_config.dram_bandwidth_lines_per_cycle)
        dram_latency = dram_base + dram_base * (
            utilisation / (2.0 * (1.0 - utilisation))
        )

        # Walk-latency table: the accumulated latency charged when an access
        # hits at level k, replaying the addition order of
        # CacheHierarchy.access (interconnect crossing after the last private
        # level), plus the full-miss latency.
        num_private = self._num_private
        have_shared = self._have_shared
        walk = 0.0
        hit_latency: List[float] = []
        for level, latency_cycles in enumerate(self._level_latency):
            walk += latency_cycles
            hit_latency.append(walk)
            if level == num_private - 1 and have_shared:
                walk += ic_latency
        if not have_shared:
            walk += ic_latency
        miss_latency = walk + dram_latency

        # Exposure table: the stall latency an access exposes beyond the
        # ROB's hiding capacity is a per-(hit level | miss) constant within
        # one call.  ``None`` marks outcomes that contribute nothing to the
        # block's stall estimate — a latency at or below the L1 threshold, or
        # one fully hidden by the ROB (its ``max(0, lat - hide)`` term is
        # exactly 0.0, and adding 0.0 to a non-negative sum is a bitwise
        # no-op) — so the hot loop skips their bookkeeping entirely.
        hide = self._hide
        l1_threshold = self._l1_threshold
        exposure: List[Optional[float]] = []
        for latency in hit_latency:
            if latency > l1_threshold and latency - hide > 0.0:
                exposure.append(latency - hide)
            else:
                exposure.append(None)
        exposure.append(
            miss_latency - hide
            if miss_latency > l1_threshold and miss_latency - hide > 0.0
            else None
        )
        tables = (ic_latency, dram_latency, hit_latency, exposure)
        self._tables[active_cores] = tables
        return tables

    def execute(
        self,
        index: int,
        core_id: int,
        active_cores: int = 1,
        noise: Optional[float] = None,
    ) -> Tuple[float, float]:
        """Execute record ``index`` on ``core_id``; return ``(cycles, ipc)``.

        Semantics (including every floating-point operation order) match
        ``DetailedCoreModel.execute`` on the equivalent record view.
        """
        if active_cores < 1:
            active_cores = 1
        memory = self.memory_system
        interconnect = memory.interconnect
        dram = memory.dram

        ic_latency, dram_latency, _, exposure = self.contention_tables(active_cores)
        num_private = self._num_private
        miss_level = self._num_levels

        # Local bindings for the hot loop.
        levels = self._core_levels[core_id]
        level_data = self._core_level_data[core_id]
        l1_sets, l1_assoc, l1_set_index, l1_tag_index = level_data[0]
        outer_levels = level_data[1:]
        ev_write = self._ev_write
        ev_shared = self._ev_shared
        any_shared = self._any_shared
        event_offsets = self._event_offsets
        block_dispatch = self._block_dispatch
        block_repeat = self._block_repeat_term
        l1_exposure = exposure[0]
        max_outstanding = self._max_outstanding

        hits = [0] * self._num_levels
        misses = [0] * self._num_levels
        evictions = [0] * self._num_levels
        writebacks = [0] * self._num_levels
        ic_transfers = 0
        ic_total = interconnect.stats.total_latency
        dram_requests = 0
        dram_total = dram.stats.total_latency

        total_cycles = 0.0
        block_start = self._block_offsets[index]
        block_end = self._block_offsets[index + 1]
        for block in range(block_start, block_end):
            exposed_sum = 0.0
            exposed_max = 0.0
            exposed_count = 0
            for event in range(event_offsets[block], event_offsets[block + 1]):
                is_write = ev_write[event]
                # L1 fast path: with the engine's threshold (== L1 latency)
                # an L1 hit never exposes stall cycles, so only the LRU
                # update and optional coherence action run.
                lines = l1_sets[l1_set_index[event]]
                tag = l1_tag_index[event]
                if tag in lines:
                    hits[0] += 1
                    if is_write:
                        line = lines[tag]
                        line.dirty = True
                        line.owner = core_id
                        lines.move_to_end(tag)
                        if any_shared and ev_shared[event]:
                            self._invalidate_remote(core_id, event)
                    else:
                        lines.move_to_end(tag)
                    if l1_exposure is not None:
                        exposed_count += 1
                        if l1_exposure > exposed_max:
                            exposed_max = l1_exposure
                        exposed_sum += l1_exposure
                    continue
                misses[0] += 1
                if len(lines) >= l1_assoc:
                    _, victim = lines.popitem(last=False)
                    evictions[0] += 1
                    if victim.dirty:
                        writebacks[0] += 1
                    victim.dirty = is_write
                    victim.owner = core_id
                    lines[tag] = victim
                else:
                    lines[tag] = _Line(dirty=is_write, owner=core_id)
                level = 1
                for sets, associativity, set_index, tag_index in outer_levels:
                    lines = sets[set_index[event]]
                    tag = tag_index[event]
                    if tag in lines:
                        hits[level] += 1
                        if is_write:
                            line = lines[tag]
                            line.dirty = True
                            line.owner = core_id
                        lines.move_to_end(tag)
                        if level >= num_private:
                            # Hit in a shared level: the access still crossed
                            # the interconnect out of the private levels.
                            ic_transfers += 1
                            ic_total += ic_latency
                        break
                    misses[level] += 1
                    if len(lines) >= associativity:
                        _, victim = lines.popitem(last=False)
                        evictions[level] += 1
                        if victim.dirty:
                            writebacks[level] += 1
                        victim.dirty = is_write
                        victim.owner = core_id
                        lines[tag] = victim
                    else:
                        lines[tag] = _Line(dirty=is_write, owner=core_id)
                    level += 1
                else:
                    level = miss_level
                    dram_requests += 1
                    dram_total += dram_latency
                    ic_transfers += 1
                    ic_total += ic_latency
                if any_shared and is_write and ev_shared[event]:
                    self._invalidate_remote(core_id, event)
                exposed = exposure[level]
                if exposed is not None:
                    exposed_count += 1
                    if exposed > exposed_max:
                        exposed_max = exposed
                    exposed_sum += exposed
            if exposed_sum <= 0.0:
                total_cycles += block_dispatch[block]
                continue
            mlp = float(exposed_count) if exposed_count > 1 else 1.0
            if mlp > max_outstanding:
                mlp = max_outstanding
            stall = exposed_sum / mlp
            if exposed_max > stall:
                stall = exposed_max
            stall += block_repeat[block]
            total_cycles += block_dispatch[block] + stall

        # Write the batched statistics back to the shared model state.
        for level in range(self._num_levels):
            stats = levels[level][1]
            stats.hits += hits[level]
            stats.misses += misses[level]
            stats.evictions += evictions[level]
            stats.writebacks += writebacks[level]
        if ic_transfers:
            interconnect.stats.transfers += ic_transfers
            interconnect.stats.total_latency = ic_total
        if dram_requests:
            dram.stats.requests += dram_requests
            dram.stats.total_latency = dram_total

        if total_cycles <= 0.0:
            # Degenerate empty instance: charge one cycle so IPC stays finite.
            total_cycles = 1.0
        if noise is not None and noise != 1.0:
            total_cycles *= noise
        if total_cycles <= 0.0:
            # Only reachable with a non-positive noise factor; mirror
            # InstanceExecution.ipc's guard.
            return total_cycles, 0.0
        return total_cycles, self._instructions[index] / total_cycles

    # ------------------------------------------------------------------
    def execute_many(self, entries: Sequence[tuple]) -> List[Tuple[float, float]]:
        """Execute ``(index, core_id, active_cores, noise)`` entries in order.

        Semantically exactly ``[self.execute(*entry) for entry in entries]``
        (same walk, same float operation order, same statistics), but with
        the per-call setup hoisted out of the loop: contention tables are
        re-resolved only when the active-core count changes (within one
        dispatch instant it never does), the interconnect/DRAM latency folds
        carry across entries, all hit/miss counters accumulate into the
        persistent flat per-(core, level) block (L1 via per-entry locals)
        and are written back once per group (integer sums, so the aggregate
        is identical), and the walk iterates the pre-zipped
        ``record_blocks`` structure — per-block ``(l1_events, dispatch,
        repeat)`` triples with the coherence flag folded into each L1 event
        tuple — instead of indexing parallel lists per block and per event.
        The grouped-dispatch engine flushes whole deferred groups through
        this entry point when the vector kernel is not engaged.
        """
        return self._walk(self, entries)

    def _execute_many_generic(self, entries: Sequence[tuple]) -> List[Tuple[float, float]]:
        """The grouped walk for any hierarchy shape (reference for the others)."""
        memory = self.memory_system
        interconnect = memory.interconnect
        dram = memory.dram
        num_private = self._num_private
        num_levels = self._num_levels
        miss_level = num_levels
        record_blocks = self._record_blocks
        max_outstanding = self._max_outstanding
        instructions = self._instructions
        core_level_data = self._core_level_data
        core_levels = self._core_levels
        contention_tables = self.contention_tables
        invalidate_remote = self._invalidate_remote
        acc = self._group_acc
        stride = num_levels * 4

        ic_transfers = 0
        ic_total = interconnect.stats.total_latency
        dram_requests = 0
        dram_total = dram.stats.total_latency
        touched: set = set()
        touched_add = touched.add

        tables_for = -1
        ic_latency = dram_latency = 0.0
        exposure: List[Optional[float]] = []
        l1_exposure: Optional[float] = None
        results: List[Tuple[float, float]] = []
        for index, core_id, active_cores, noise in entries:
            if active_cores < 1:
                active_cores = 1
            if active_cores != tables_for:
                ic_latency, dram_latency, _, exposure = contention_tables(
                    active_cores
                )
                l1_exposure = exposure[0]
                tables_for = active_cores

            level_data = core_level_data[core_id]
            l1_sets, l1_assoc, _l1_set_index, _l1_tag_index = level_data[0]
            outer_levels = level_data[1:]
            base = core_id * stride
            touched_add(core_id)

            l1_hits = l1_misses = l1_evictions = l1_writebacks = 0
            total_cycles = 0.0
            for l1_events, dispatch, repeat in record_blocks[index]:
                exposed_sum = 0.0
                exposed_max = 0.0
                exposed_count = 0
                for l1_set, tag, is_write, coherent, event in l1_events:
                    lines = l1_sets[l1_set]
                    if tag in lines:
                        l1_hits += 1
                        if is_write:
                            line = lines[tag]
                            line.dirty = True
                            line.owner = core_id
                            lines.move_to_end(tag)
                            if coherent:
                                invalidate_remote(core_id, event)
                        else:
                            lines.move_to_end(tag)
                        if l1_exposure is not None:
                            exposed_count += 1
                            if l1_exposure > exposed_max:
                                exposed_max = l1_exposure
                            exposed_sum += l1_exposure
                        continue
                    l1_misses += 1
                    if len(lines) >= l1_assoc:
                        _, victim = lines.popitem(last=False)
                        l1_evictions += 1
                        if victim.dirty:
                            l1_writebacks += 1
                        victim.dirty = is_write
                        victim.owner = core_id
                        lines[tag] = victim
                    else:
                        lines[tag] = _Line(dirty=is_write, owner=core_id)
                    level = 1
                    off = base + 4
                    for sets, associativity, set_index, tag_index in outer_levels:
                        lines = sets[set_index[event]]
                        tag = tag_index[event]
                        if tag in lines:
                            acc[off] += 1
                            if is_write:
                                line = lines[tag]
                                line.dirty = True
                                line.owner = core_id
                            lines.move_to_end(tag)
                            if level >= num_private:
                                ic_transfers += 1
                                ic_total += ic_latency
                            break
                        acc[off + 1] += 1
                        if len(lines) >= associativity:
                            _, victim = lines.popitem(last=False)
                            acc[off + 2] += 1
                            if victim.dirty:
                                acc[off + 3] += 1
                            victim.dirty = is_write
                            victim.owner = core_id
                            lines[tag] = victim
                        else:
                            lines[tag] = _Line(dirty=is_write, owner=core_id)
                        level += 1
                        off += 4
                    else:
                        level = miss_level
                        dram_requests += 1
                        dram_total += dram_latency
                        ic_transfers += 1
                        ic_total += ic_latency
                    if coherent:
                        invalidate_remote(core_id, event)
                    exposed = exposure[level]
                    if exposed is not None:
                        exposed_count += 1
                        if exposed > exposed_max:
                            exposed_max = exposed
                        exposed_sum += exposed
                if exposed_sum <= 0.0:
                    total_cycles += dispatch
                    continue
                mlp = float(exposed_count) if exposed_count > 1 else 1.0
                if mlp > max_outstanding:
                    mlp = max_outstanding
                stall = exposed_sum / mlp
                if exposed_max > stall:
                    stall = exposed_max
                stall += repeat
                total_cycles += dispatch + stall

            if l1_hits or l1_misses:
                acc[base] += l1_hits
                acc[base + 1] += l1_misses
                acc[base + 2] += l1_evictions
                acc[base + 3] += l1_writebacks
            if total_cycles <= 0.0:
                total_cycles = 1.0
            if noise is not None and noise != 1.0:
                total_cycles *= noise
            if total_cycles <= 0.0:
                results.append((total_cycles, 0.0))
                continue
            results.append((total_cycles, instructions[index] / total_cycles))

        if ic_transfers:
            interconnect.stats.transfers += ic_transfers
            interconnect.stats.total_latency = ic_total
        if dram_requests:
            dram.stats.requests += dram_requests
            dram.stats.total_latency = dram_total
        # Per-group statistics writeback; the counter slots are re-zeroed as
        # they drain so the flat block is clean for the next group.
        num_shared = num_levels - num_private
        shared_totals = [0] * (4 * num_shared)
        for core_id in touched:
            levels = core_levels[core_id]
            cbase = core_id * stride
            for level in range(num_private):
                off = cbase + level * 4
                level_hits = acc[off]
                level_misses = acc[off + 1]
                if level_hits or level_misses:
                    stats = levels[level][1]
                    stats.hits += level_hits
                    stats.misses += level_misses
                    stats.evictions += acc[off + 2]
                    stats.writebacks += acc[off + 3]
                    acc[off] = 0
                    acc[off + 1] = 0
                    acc[off + 2] = 0
                    acc[off + 3] = 0
            sbase = cbase + num_private * 4
            for k in range(4 * num_shared):
                shared_totals[k] += acc[sbase + k]
                acc[sbase + k] = 0
        if num_shared and touched:
            shared_levels = core_levels[next(iter(touched))]
            for level in range(num_private, num_levels):
                k = (level - num_private) * 4
                stats = shared_levels[level][1]
                stats.hits += shared_totals[k]
                stats.misses += shared_totals[k + 1]
                stats.evictions += shared_totals[k + 2]
                stats.writebacks += shared_totals[k + 3]
        return results

    # ------------------------------------------------------------------
    def _execute_many_p2s1(self, entries: Sequence[tuple]) -> List[Tuple[float, float]]:
        """:meth:`execute_many` specialised for two private levels over one
        shared level (the high-performance shape: L1/L2 private, L3 shared).

        Same walk, same float operation order, same aggregate statistics —
        the outer-level loop is unrolled into explicit L2/L3 blocks, the
        hit/miss bookkeeping runs on local integer counters folded back once
        per core at the end (integer sums commute), and the per-level
        exposure constants are bound to locals.
        """
        memory = self.memory_system
        interconnect = memory.interconnect
        dram = memory.dram
        record_blocks = self._record_blocks
        max_outstanding = self._max_outstanding
        instructions = self._instructions
        core_level_data = self._core_level_data
        core_levels = self._core_levels
        contention_tables = self.contention_tables
        invalidate_remote = self._invalidate_remote

        ic_transfers = 0
        ic_total = interconnect.stats.total_latency
        dram_requests = 0
        dram_total = dram.stats.total_latency

        tables_for = -1
        ic_latency = dram_latency = 0.0
        l1_exposure = l2_exposure = l3_exposure = miss_exposure = None
        l3_hits = l3_misses = l3_evictions = l3_writebacks = 0
        percore: Dict[int, list] = {}
        results: List[Tuple[float, float]] = []
        for index, core_id, active_cores, noise in entries:
            if active_cores < 1:
                active_cores = 1
            if active_cores != tables_for:
                ic_latency, dram_latency, _, exposure = contention_tables(
                    active_cores
                )
                l1_exposure, l2_exposure, l3_exposure, miss_exposure = exposure
                tables_for = active_cores

            level_data = core_level_data[core_id]
            l1_sets, l1_assoc = level_data[0][0], level_data[0][1]
            l2_sets, l2_assoc, l2_set_index, l2_tag_index = level_data[1]
            l3_sets, l3_assoc, l3_set_index, l3_tag_index = level_data[2]
            cacc = percore.get(core_id)
            if cacc is None:
                cacc = percore[core_id] = [0] * 8

            l1_hits = l1_misses = l1_evictions = l1_writebacks = 0
            l2_hits = l2_misses = l2_evictions = l2_writebacks = 0
            total_cycles = 0.0
            for l1_events, dispatch, repeat in record_blocks[index]:
                exposed_sum = 0.0
                exposed_max = 0.0
                exposed_count = 0
                for l1_set, tag, is_write, coherent, event in l1_events:
                    lines = l1_sets[l1_set]
                    if tag in lines:
                        l1_hits += 1
                        if is_write:
                            line = lines[tag]
                            line.dirty = True
                            line.owner = core_id
                            lines.move_to_end(tag)
                            if coherent:
                                invalidate_remote(core_id, event)
                        else:
                            lines.move_to_end(tag)
                        if l1_exposure is not None:
                            exposed_count += 1
                            if l1_exposure > exposed_max:
                                exposed_max = l1_exposure
                            exposed_sum += l1_exposure
                        continue
                    l1_misses += 1
                    if len(lines) >= l1_assoc:
                        _, victim = lines.popitem(last=False)
                        l1_evictions += 1
                        if victim.dirty:
                            l1_writebacks += 1
                        victim.dirty = is_write
                        victim.owner = core_id
                        lines[tag] = victim
                    else:
                        lines[tag] = _Line(dirty=is_write, owner=core_id)
                    # L2 (private).
                    lines = l2_sets[l2_set_index[event]]
                    tag = l2_tag_index[event]
                    if tag in lines:
                        l2_hits += 1
                        if is_write:
                            line = lines[tag]
                            line.dirty = True
                            line.owner = core_id
                        lines.move_to_end(tag)
                        exposed = l2_exposure
                    else:
                        l2_misses += 1
                        if len(lines) >= l2_assoc:
                            _, victim = lines.popitem(last=False)
                            l2_evictions += 1
                            if victim.dirty:
                                l2_writebacks += 1
                            victim.dirty = is_write
                            victim.owner = core_id
                            lines[tag] = victim
                        else:
                            lines[tag] = _Line(dirty=is_write, owner=core_id)
                        # L3 (shared): the access crossed the interconnect.
                        lines = l3_sets[l3_set_index[event]]
                        tag = l3_tag_index[event]
                        if tag in lines:
                            l3_hits += 1
                            if is_write:
                                line = lines[tag]
                                line.dirty = True
                                line.owner = core_id
                            lines.move_to_end(tag)
                            ic_transfers += 1
                            ic_total += ic_latency
                            exposed = l3_exposure
                        else:
                            l3_misses += 1
                            if len(lines) >= l3_assoc:
                                _, victim = lines.popitem(last=False)
                                l3_evictions += 1
                                if victim.dirty:
                                    l3_writebacks += 1
                                victim.dirty = is_write
                                victim.owner = core_id
                                lines[tag] = victim
                            else:
                                lines[tag] = _Line(dirty=is_write, owner=core_id)
                            dram_requests += 1
                            dram_total += dram_latency
                            ic_transfers += 1
                            ic_total += ic_latency
                            exposed = miss_exposure
                    if coherent:
                        invalidate_remote(core_id, event)
                    if exposed is not None:
                        exposed_count += 1
                        if exposed > exposed_max:
                            exposed_max = exposed
                        exposed_sum += exposed
                if exposed_sum <= 0.0:
                    total_cycles += dispatch
                    continue
                mlp = float(exposed_count) if exposed_count > 1 else 1.0
                if mlp > max_outstanding:
                    mlp = max_outstanding
                stall = exposed_sum / mlp
                if exposed_max > stall:
                    stall = exposed_max
                stall += repeat
                total_cycles += dispatch + stall

            cacc[0] += l1_hits
            cacc[1] += l1_misses
            cacc[2] += l1_evictions
            cacc[3] += l1_writebacks
            cacc[4] += l2_hits
            cacc[5] += l2_misses
            cacc[6] += l2_evictions
            cacc[7] += l2_writebacks
            if total_cycles <= 0.0:
                total_cycles = 1.0
            if noise is not None and noise != 1.0:
                total_cycles *= noise
            if total_cycles <= 0.0:
                results.append((total_cycles, 0.0))
                continue
            results.append((total_cycles, instructions[index] / total_cycles))

        if ic_transfers:
            interconnect.stats.transfers += ic_transfers
            interconnect.stats.total_latency = ic_total
        if dram_requests:
            dram.stats.requests += dram_requests
            dram.stats.total_latency = dram_total
        for core_id, cacc in percore.items():
            levels = core_levels[core_id]
            stats = levels[0][1]
            stats.hits += cacc[0]
            stats.misses += cacc[1]
            stats.evictions += cacc[2]
            stats.writebacks += cacc[3]
            stats = levels[1][1]
            stats.hits += cacc[4]
            stats.misses += cacc[5]
            stats.evictions += cacc[6]
            stats.writebacks += cacc[7]
        if percore and (l3_hits or l3_misses):
            stats = core_levels[next(iter(percore))][2][1]
            stats.hits += l3_hits
            stats.misses += l3_misses
            stats.evictions += l3_evictions
            stats.writebacks += l3_writebacks
        return results

    # ------------------------------------------------------------------
    def _execute_many_p1s1(self, entries: Sequence[tuple]) -> List[Tuple[float, float]]:
        """:meth:`execute_many` specialised for one private level over one
        shared level (the low-power shape: L1 private, L2 shared).
        """
        memory = self.memory_system
        interconnect = memory.interconnect
        dram = memory.dram
        record_blocks = self._record_blocks
        max_outstanding = self._max_outstanding
        instructions = self._instructions
        core_level_data = self._core_level_data
        core_levels = self._core_levels
        contention_tables = self.contention_tables
        invalidate_remote = self._invalidate_remote

        ic_transfers = 0
        ic_total = interconnect.stats.total_latency
        dram_requests = 0
        dram_total = dram.stats.total_latency

        tables_for = -1
        ic_latency = dram_latency = 0.0
        l1_exposure = l2_exposure = miss_exposure = None
        l2_hits = l2_misses = l2_evictions = l2_writebacks = 0
        percore: Dict[int, list] = {}
        results: List[Tuple[float, float]] = []
        for index, core_id, active_cores, noise in entries:
            if active_cores < 1:
                active_cores = 1
            if active_cores != tables_for:
                ic_latency, dram_latency, _, exposure = contention_tables(
                    active_cores
                )
                l1_exposure, l2_exposure, miss_exposure = exposure
                tables_for = active_cores

            level_data = core_level_data[core_id]
            l1_sets, l1_assoc = level_data[0][0], level_data[0][1]
            l2_sets, l2_assoc, l2_set_index, l2_tag_index = level_data[1]
            cacc = percore.get(core_id)
            if cacc is None:
                cacc = percore[core_id] = [0] * 4

            l1_hits = l1_misses = l1_evictions = l1_writebacks = 0
            total_cycles = 0.0
            for l1_events, dispatch, repeat in record_blocks[index]:
                exposed_sum = 0.0
                exposed_max = 0.0
                exposed_count = 0
                for l1_set, tag, is_write, coherent, event in l1_events:
                    lines = l1_sets[l1_set]
                    if tag in lines:
                        l1_hits += 1
                        if is_write:
                            line = lines[tag]
                            line.dirty = True
                            line.owner = core_id
                            lines.move_to_end(tag)
                            if coherent:
                                invalidate_remote(core_id, event)
                        else:
                            lines.move_to_end(tag)
                        if l1_exposure is not None:
                            exposed_count += 1
                            if l1_exposure > exposed_max:
                                exposed_max = l1_exposure
                            exposed_sum += l1_exposure
                        continue
                    l1_misses += 1
                    if len(lines) >= l1_assoc:
                        _, victim = lines.popitem(last=False)
                        l1_evictions += 1
                        if victim.dirty:
                            l1_writebacks += 1
                        victim.dirty = is_write
                        victim.owner = core_id
                        lines[tag] = victim
                    else:
                        lines[tag] = _Line(dirty=is_write, owner=core_id)
                    # L2 (shared): the access crossed the interconnect.
                    lines = l2_sets[l2_set_index[event]]
                    tag = l2_tag_index[event]
                    if tag in lines:
                        l2_hits += 1
                        if is_write:
                            line = lines[tag]
                            line.dirty = True
                            line.owner = core_id
                        lines.move_to_end(tag)
                        ic_transfers += 1
                        ic_total += ic_latency
                        exposed = l2_exposure
                    else:
                        l2_misses += 1
                        if len(lines) >= l2_assoc:
                            _, victim = lines.popitem(last=False)
                            l2_evictions += 1
                            if victim.dirty:
                                l2_writebacks += 1
                            victim.dirty = is_write
                            victim.owner = core_id
                            lines[tag] = victim
                        else:
                            lines[tag] = _Line(dirty=is_write, owner=core_id)
                        dram_requests += 1
                        dram_total += dram_latency
                        ic_transfers += 1
                        ic_total += ic_latency
                        exposed = miss_exposure
                    if coherent:
                        invalidate_remote(core_id, event)
                    if exposed is not None:
                        exposed_count += 1
                        if exposed > exposed_max:
                            exposed_max = exposed
                        exposed_sum += exposed
                if exposed_sum <= 0.0:
                    total_cycles += dispatch
                    continue
                mlp = float(exposed_count) if exposed_count > 1 else 1.0
                if mlp > max_outstanding:
                    mlp = max_outstanding
                stall = exposed_sum / mlp
                if exposed_max > stall:
                    stall = exposed_max
                stall += repeat
                total_cycles += dispatch + stall

            cacc[0] += l1_hits
            cacc[1] += l1_misses
            cacc[2] += l1_evictions
            cacc[3] += l1_writebacks
            if total_cycles <= 0.0:
                total_cycles = 1.0
            if noise is not None and noise != 1.0:
                total_cycles *= noise
            if total_cycles <= 0.0:
                results.append((total_cycles, 0.0))
                continue
            results.append((total_cycles, instructions[index] / total_cycles))

        if ic_transfers:
            interconnect.stats.transfers += ic_transfers
            interconnect.stats.total_latency = ic_total
        if dram_requests:
            dram.stats.requests += dram_requests
            dram.stats.total_latency = dram_total
        for core_id, cacc in percore.items():
            levels = core_levels[core_id]
            stats = levels[0][1]
            stats.hits += cacc[0]
            stats.misses += cacc[1]
            stats.evictions += cacc[2]
            stats.writebacks += cacc[3]
        if percore and (l2_hits or l2_misses):
            stats = core_levels[next(iter(percore))][1][1]
            stats.hits += l2_hits
            stats.misses += l2_misses
            stats.evictions += l2_evictions
            stats.writebacks += l2_writebacks
        return results

    # ------------------------------------------------------------------
    def _invalidate_remote(self, writer_core: int, event: int) -> None:
        """Write-invalidate coherence for a shared-data write."""
        for sets, stats, set_index, tag_index in self._invalidate_targets[writer_core]:
            lines = sets.get(set_index[event])
            if lines is None:
                # The set has no working copy; the line can still live in
                # the level store's planes if the kernel adopted the row.
                if not sets.resident_count:
                    continue
                lines = sets.peek(set_index[event])
                if lines is None:
                    continue
            line = lines.pop(tag_index[event], None)
            if line is not None:
                stats.invalidations += 1
                if line.dirty:
                    stats.writebacks += 1
