"""Synthetic memory-access pattern generators.

The workloads in :mod:`repro.workloads` describe their memory behaviour in
terms of a few canonical access patterns (strided streaming, random accesses
within a working set, heavy reuse of a small block, accesses to shared data).
The helpers in this module turn those descriptions into concrete weighted
events, deterministically for a given :class:`random.Random` instance.  Each
returns one columnar :class:`~repro.trace.records.EventRun` (parallel
address, write, weight and shared lists) rather than one object per event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.trace.records import EventRun

CACHE_LINE = 64


@dataclass
class AddressSpace:
    """A contiguous region of the application's virtual address space.

    Workload generators allocate one region per logical data structure
    (input matrix, output vector, shared histogram, ...) so that different
    task instances touching the same structure produce genuinely overlapping
    addresses, which is what drives data reuse and invalidation behaviour in
    the cache model.
    """

    base: int
    size: int
    shared: bool = False

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base address must be non-negative")
        if self.size <= 0:
            raise ValueError("region size must be positive")

    def offset(self, byte_offset: int) -> int:
        """Return the absolute address of ``byte_offset`` within the region."""
        return self.base + (byte_offset % self.size)

    def slice(self, start: int, size: int, shared: bool | None = None) -> "AddressSpace":
        """Return a sub-region starting at ``start`` bytes into this region."""
        if size <= 0:
            raise ValueError("slice size must be positive")
        return AddressSpace(
            base=self.base + (start % self.size),
            size=size,
            shared=self.shared if shared is None else shared,
        )


class AddressSpaceAllocator:
    """Allocates non-overlapping address regions for a workload's data."""

    def __init__(self, base: int = 1 << 30, alignment: int = CACHE_LINE) -> None:
        self._next = base
        self._alignment = alignment

    def allocate(self, size: int, shared: bool = False) -> AddressSpace:
        """Allocate a new region of ``size`` bytes."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        aligned = (size + self._alignment - 1) // self._alignment * self._alignment
        region = AddressSpace(base=self._next, size=aligned, shared=shared)
        self._next += aligned + self._alignment
        return region


def strided_accesses(
    region: AddressSpace,
    count: int,
    total_accesses: int,
    stride: int = CACHE_LINE,
    start: int = 0,
    write_fraction: float = 0.0,
    rng: random.Random | None = None,
) -> EventRun:
    """Generate ``count`` weighted events walking ``region`` with ``stride``.

    Models streaming/strided kernels (2d-convolution, 3d-stencil,
    vector-operation): each event represents ``total_accesses / count`` real
    accesses that hit consecutive lines.
    """
    if count <= 0:
        return EventRun()
    rng = rng or random.Random(0)
    draw = rng.random
    base, size = region.base, region.size
    return EventRun(
        address=[base + (start + index * stride) % size for index in range(count)],
        is_write=[draw() < write_fraction for _ in range(count)],
        weight=[max(1, total_accesses // count)] * count,
        shared=[region.shared] * count,
    )


def random_accesses(
    region: AddressSpace,
    count: int,
    total_accesses: int,
    write_fraction: float = 0.0,
    rng: random.Random | None = None,
) -> EventRun:
    """Generate events at uniformly random line-aligned offsets in ``region``.

    Models irregular kernels (n-body neighbour lookups, canneal's random graph
    walks, sparse matrix structure-dependent accesses).
    """
    if count <= 0:
        return EventRun()
    rng = rng or random.Random(0)
    draw, draw_below = rng.random, rng.randrange
    lines = max(1, region.size // CACHE_LINE)
    base = region.base
    # The line and the write flag of one event are drawn back to back, so
    # the two columns fill in one loop.
    address: List[int] = []
    is_write: List[bool] = []
    for _ in range(count):
        address.append(base + draw_below(lines) * CACHE_LINE)
        is_write.append(draw() < write_fraction)
    return EventRun(
        address=address,
        is_write=is_write,
        weight=[max(1, total_accesses // count)] * count,
        shared=[region.shared] * count,
    )


def reuse_accesses(
    region: AddressSpace,
    count: int,
    total_accesses: int,
    hot_lines: int = 8,
    write_fraction: float = 0.0,
    rng: random.Random | None = None,
) -> EventRun:
    """Generate events that repeatedly touch a small set of hot cache lines.

    Models compute-bound kernels with high data reuse (dense matrix
    multiplication inner blocks, blackscholes per-option state).
    """
    if count <= 0:
        return EventRun()
    rng = rng or random.Random(0)
    draw, draw_below = rng.random, rng.randrange
    lines = max(1, min(hot_lines, region.size // CACHE_LINE))
    base = region.base
    address: List[int] = []
    is_write: List[bool] = []
    for index in range(count):
        line = index % lines if draw() < 0.8 else draw_below(lines)
        address.append(base + line * CACHE_LINE)
        is_write.append(draw() < write_fraction)
    return EventRun(
        address=address,
        is_write=is_write,
        weight=[max(1, total_accesses // count)] * count,
        shared=[region.shared] * count,
    )
