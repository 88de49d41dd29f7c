"""The nine kernel benchmarks of Table I.

Each kernel reproduces the task structure and the behavioural note of the
paper's Table I (number of task types, instance count, access pattern).  The
instruction counts are scaled down relative to the native kernels so that
full detailed simulation remains tractable in pure Python; the per-type IPC
behaviour (regular vs. irregular, compute- vs. memory-bound, balanced vs.
imbalanced) is what matters for TaskPoint and is preserved.
"""

from __future__ import annotations

import random
from typing import List

from repro.trace.generator import TraceBuilder
from repro.trace.records import EventRun
from repro.workloads.base import Workload


class Convolution2D(Workload):
    """2d-convolution: strided streaming over an image, one tile per task."""

    name = "2d-convolution"
    category = "kernel"
    paper_task_types = 1
    paper_task_instances = 16384
    properties = "Kernel: strided memory accesses"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        # The image is far larger than any cache level, so tiles stream from
        # memory at every scale and all instances behave alike.
        image = builder.allocator.allocate(256 * 1024 * 1024)
        output = builder.allocator.allocate(256 * 1024 * 1024)
        tile_bytes = 16 * 1024
        for index in range(num_instances):
            instructions = self.jittered(rng, 36_000, jitter=0.02)
            start = (index * tile_bytes) % image.size
            reads = self.streaming_events(
                rng, image, events=36, accesses=instructions // 6, start=start
            )
            writes = self.streaming_events(
                rng, output, events=12, accesses=instructions // 18,
                start=start, write_fraction=1.0,
            )
            builder.add_task(
                "conv2d_tile",
                instructions=instructions,
                memory_events=self.combine(reads, writes),
            )


class Stencil3D(Workload):
    """3d-stencil: strided accesses over three neighbouring planes."""

    name = "3d-stencil"
    category = "kernel"
    paper_task_types = 1
    paper_task_instances = 16370
    properties = "Kernel: strided memory accesses"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        volume = builder.allocator.allocate(256 * 1024 * 1024)
        result = builder.allocator.allocate(256 * 1024 * 1024)
        block_bytes = 24 * 1024
        plane_bytes = 8 * 1024 * 1024
        for index in range(num_instances):
            instructions = self.jittered(rng, 30_000, jitter=0.025)
            start = (index * block_bytes) % volume.size
            events = EventRun()
            for plane in range(3):
                events.extend(
                    self.streaming_events(
                        rng, volume, events=14,
                        accesses=instructions // 12,
                        start=start + plane * plane_bytes,
                        stride=128,
                    )
                )
            events.extend(
                self.streaming_events(
                    rng, result, events=10, accesses=instructions // 20,
                    start=start, write_fraction=1.0,
                )
            )
            builder.add_task(
                "stencil_block", instructions=instructions, memory_events=events
            )


class AtomicMonteCarloDynamics(Workload):
    """atomic-monte-carlo-dynamics: compute-bound, embarrassingly parallel."""

    name = "atomic-monte-carlo-dynamics"
    category = "kernel"
    paper_task_types = 1
    paper_task_instances = 16384
    properties = "Kernel: embarrassingly parallel"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        state = builder.allocator.allocate(256 * 1024)
        trajectories = builder.allocator.allocate(64 * 1024 * 1024)
        for index in range(num_instances):
            instructions = self.jittered(rng, 48_000, jitter=0.02)
            events = self.combine(
                self.reuse_events(
                    rng, state, events=10, accesses=instructions // 40,
                    hot_lines=rng.randint(6, 10),
                ),
                self.streaming_events(
                    rng, trajectories, events=3, accesses=instructions // 200,
                    start=(index * 4096) % trajectories.size, write_fraction=1.0,
                ),
            )
            builder.add_task(
                "mc_trajectory", instructions=instructions, memory_events=events
            )


class DenseMatrixMultiplication(Workload):
    """dense-matrix-multiplication: blocked GEMM, high data reuse."""

    name = "dense-matrix-multiplication"
    category = "kernel"
    paper_task_types = 1
    paper_task_instances = 17576
    properties = "Kernel: high data reuse, compute bound"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        # A BLAS-3 block kernel touches O(b^2) data for O(b^3) work: few
        # memory events relative to the instruction count, spread over
        # matrices much larger than the last-level cache.
        matrix_a = builder.allocator.allocate(128 * 1024 * 1024)
        matrix_b = builder.allocator.allocate(128 * 1024 * 1024)
        matrix_c = builder.allocator.allocate(128 * 1024 * 1024)
        block_bytes = 32 * 1024
        blocks = matrix_a.size // block_bytes
        for index in range(num_instances):
            instructions = self.jittered(rng, 55_000, jitter=0.02)
            offset = ((index * 2654435761) % blocks) * block_bytes
            events = self.combine(
                self.reuse_events(
                    rng, matrix_a.slice(offset, block_bytes), events=10,
                    accesses=instructions // 10, hot_lines=48,
                ),
                self.reuse_events(
                    rng, matrix_b.slice(offset, block_bytes), events=10,
                    accesses=instructions // 10, hot_lines=48,
                ),
                self.reuse_events(
                    rng, matrix_c.slice(offset, block_bytes), events=4,
                    accesses=instructions // 40, hot_lines=16, write_fraction=0.8,
                ),
            )
            builder.add_task(
                "gemm_block", instructions=instructions, memory_events=events
            )


class Histogram(Workload):
    """histogram: streaming reads plus atomic updates to a shared histogram."""

    name = "histogram"
    category = "kernel"
    paper_task_types = 1
    paper_task_instances = 16384
    properties = "Kernel: atomic operations"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        data = builder.allocator.allocate(256 * 1024 * 1024)
        bins = builder.allocator.allocate(16 * 1024, shared=True)
        chunk_bytes = 16 * 1024
        for index in range(num_instances):
            instructions = self.jittered(rng, 22_000, jitter=0.03)
            start = (index * chunk_bytes) % data.size
            reads = self.streaming_events(
                rng, data, events=28, accesses=instructions // 6, start=start
            )
            updates = self.irregular_events(
                rng, bins, events=16, accesses=instructions // 16, write_fraction=0.9
            )
            builder.add_task(
                "histogram_chunk",
                instructions=instructions,
                memory_events=self.combine(reads, updates),
            )


class NBody(Workload):
    """n-body: irregular force computation plus regular position updates."""

    name = "n-body"
    category = "kernel"
    paper_task_types = 2
    paper_task_instances = 25000
    properties = "Kernel: irregular memory accesses"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        # The particle set is larger than the last-level cache, so neighbour
        # gathers keep missing throughout the run (irregular, memory bound).
        particles = builder.allocator.allocate(64 * 1024 * 1024)
        forces = builder.allocator.allocate(512 * 1024)
        iterations = max(1, num_instances // 400)
        per_iteration = max(2, num_instances // iterations)
        update_share = max(1, per_iteration // 5)
        force_share = per_iteration - update_share
        previous_updates: List[int] = []
        created = 0
        iteration = 0
        while created < num_instances:
            iteration += 1
            force_ids: List[int] = []
            for _ in range(min(force_share, num_instances - created)):
                instructions = self.jittered(rng, 34_000, jitter=0.04)
                events = self.irregular_events(
                    rng, particles, events=44, accesses=instructions // 7
                )
                force_ids.append(
                    builder.add_task(
                        "compute_forces",
                        instructions=instructions,
                        memory_events=events,
                        depends_on=previous_updates[-2:],
                    )
                )
                created += 1
            update_ids: List[int] = []
            for _ in range(min(update_share, num_instances - created)):
                instructions = self.jittered(rng, 15_000, jitter=0.03)
                events = self.combine(
                    self.streaming_events(
                        rng, particles, events=18, accesses=instructions // 8,
                        start=rng.randrange(particles.size), write_fraction=0.5,
                    ),
                    self.streaming_events(
                        rng, forces, events=10, accesses=instructions // 16,
                        start=rng.randrange(forces.size),
                    ),
                )
                depends = force_ids[:: max(1, len(force_ids) // 4)] if force_ids else []
                update_ids.append(
                    builder.add_task(
                        "update_positions",
                        instructions=instructions,
                        memory_events=events,
                        depends_on=depends[:4],
                    )
                )
                created += 1
            previous_updates = update_ids


class Reduction(Workload):
    """reduction: a binary reduction tree; parallelism decreases over time."""

    name = "reduction"
    category = "kernel"
    paper_task_types = 2
    paper_task_instances = 16384
    properties = "Kernel: parallelism decreases over time"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        data = builder.allocator.allocate(32 * 1024 * 1024)
        partials = builder.allocator.allocate(1024 * 1024)
        # A binary tree with L leaves has ~2L-1 nodes; pick L accordingly.
        leaves = max(2, (num_instances + 1) // 2)
        frontier: List[int] = []
        chunk_bytes = 32 * 1024
        for index in range(leaves):
            instructions = self.jittered(rng, 18_000, jitter=0.03)
            events = self.streaming_events(
                rng, data, events=30, accesses=instructions // 5,
                start=(index * chunk_bytes) % data.size,
            )
            frontier.append(
                builder.add_task(
                    "reduce_leaf", instructions=instructions, memory_events=events
                )
            )
        while len(frontier) > 1:
            next_frontier: List[int] = []
            for position in range(0, len(frontier) - 1, 2):
                instructions = self.jittered(rng, 6_000, jitter=0.05)
                events = self.reuse_events(
                    rng, partials, events=8, accesses=instructions // 20, hot_lines=4
                )
                next_frontier.append(
                    builder.add_task(
                        "reduce_node",
                        instructions=instructions,
                        memory_events=events,
                        depends_on=frontier[position : position + 2],
                    )
                )
            if len(frontier) % 2:
                next_frontier.append(frontier[-1])
            frontier = next_frontier


class SparseMatrixVectorMultiplication(Workload):
    """sparse-matrix-vector-multiplication: memory bound with load imbalance."""

    name = "sparse-matrix-vector-multiplication"
    category = "kernel"
    paper_task_types = 1
    paper_task_instances = 1024
    properties = "Kernel: load imbalance, memory bound"
    min_instances = 256

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        values = builder.allocator.allocate(256 * 1024 * 1024)
        vector = builder.allocator.allocate(2 * 1024 * 1024)
        row_bytes = 128 * 1024
        for index in range(num_instances):
            # Row-block density varies: load imbalance (duration spread) and
            # a structure-dependent gather pattern (moderate IPC spread).
            density = self.lognormal(rng, 1_000, sigma=0.35)
            instructions = max(4_000, 16 * density)
            gather_ratio = rng.uniform(0.85, 1.15)
            start = (index * row_bytes) % values.size
            stream_events = max(8, min(60, instructions // 500))
            gather_events = max(6, min(50, int(instructions * gather_ratio) // 650))
            stream = self.streaming_events(
                rng, values, events=stream_events, accesses=instructions // 4,
                start=start,
            )
            gather = self.irregular_events(
                rng, vector, events=gather_events,
                accesses=int(instructions * gather_ratio) // 6,
            )
            builder.add_task(
                "spmv_row_block",
                instructions=instructions,
                memory_events=self.combine(stream, gather),
            )


class VectorOperation(Workload):
    """vector-operation: regular streaming, memory bound."""

    name = "vector-operation"
    category = "kernel"
    paper_task_types = 1
    paper_task_instances = 16400
    properties = "Kernel: regular, memory bound"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        source_a = builder.allocator.allocate(64 * 1024 * 1024)
        source_b = builder.allocator.allocate(64 * 1024 * 1024)
        destination = builder.allocator.allocate(64 * 1024 * 1024)
        chunk_bytes = 64 * 1024
        for index in range(num_instances):
            instructions = self.jittered(rng, 16_000, jitter=0.02)
            start = (index * chunk_bytes) % source_a.size
            events = self.combine(
                self.streaming_events(
                    rng, source_a, events=26, accesses=instructions // 4, start=start
                ),
                self.streaming_events(
                    rng, source_b, events=26, accesses=instructions // 4, start=start
                ),
                self.streaming_events(
                    rng, destination, events=18, accesses=instructions // 6,
                    start=start, write_fraction=1.0,
                ),
            )
            builder.add_task(
                "vector_chunk", instructions=instructions, memory_events=events
            )
