"""The four HPC application benchmarks of Table I.

checkSparseLU, cholesky, kmeans and knn are the benchmarks whose task graphs
are genuinely irregular: blocked factorisations with wavefront dependencies,
iterative algorithms with reduction phases, and instance-based learning with
two task types of very different weight.  Their generators reproduce those
structures so the dynamic scheduler, the dependency tracker and TaskPoint's
resampling triggers are exercised the same way the original applications
exercise them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.trace.generator import TraceBuilder
from repro.trace.records import EventRun
from repro.workloads.base import Workload


class CheckSparseLU(Workload):
    """checkSparseLU: blocked sparse LU factorisation plus result checking.

    The benchmark has 11 task types (factorisation kernels on blocks of a
    sparse blocked matrix plus allocation/check helpers).  Empty blocks make
    the per-instance work highly irregular, which is why the paper observes
    one of the largest IPC variations for this benchmark.
    """

    name = "checkSparseLU"
    category = "application"
    paper_task_types = 11
    paper_task_instances = 22058
    properties = "Decomposition of large, sparse matrices"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        matrix = builder.allocator.allocate(32 * 1024 * 1024)
        check = builder.allocator.allocate(4 * 1024 * 1024)
        # Choose the blocked-matrix dimension so the factorisation produces
        # roughly the requested number of instances (the task count of a
        # right-looking blocked LU grows with n^3 / 3).
        dimension = max(4, round((3.0 * num_instances) ** (1.0 / 3.0)))
        block_bytes = 16 * 1024
        # Sparse structure: a block is present with 70% probability.
        present: Dict[Tuple[int, int], bool] = {
            (row, col): (row == col or rng.random() < 0.7)
            for row in range(dimension)
            for col in range(dimension)
        }
        last_writer: Dict[Tuple[int, int], int] = {}

        def block_events(row: int, col: int, instructions: int, kind: str) -> EventRun:
            offset = ((row * dimension + col) * block_bytes) % matrix.size
            region = matrix.slice(offset, block_bytes)
            if kind == "dense":
                return self.reuse_events(
                    rng, region, events=24, accesses=instructions // 8,
                    hot_lines=32, write_fraction=0.4,
                )
            return self.irregular_events(
                rng, region, events=18, accesses=instructions // 10, write_fraction=0.3
            )

        def add(task_type: str, row: int, col: int, instructions: int,
                deps: List[int], kind: str = "dense") -> int:
            instance = builder.add_task(
                task_type,
                instructions=instructions,
                memory_events=block_events(row, col, instructions, kind),
                depends_on=sorted(set(deps)),
            )
            last_writer[(row, col)] = instance
            return instance

        # Allocation / initialisation helper types.
        for index in range(dimension):
            instructions = self.jittered(rng, 6_000, jitter=0.1)
            add("allocate_block", index, index, instructions, [], kind="sparse")

        for k in range(dimension):
            deps = [last_writer[(k, k)]] if (k, k) in last_writer else []
            lu0 = add("lu0", k, k, self.jittered(rng, 40_000, jitter=0.08), deps)
            for j in range(k + 1, dimension):
                if not present[(k, j)]:
                    continue
                deps = [lu0] + ([last_writer[(k, j)]] if (k, j) in last_writer else [])
                add("fwd", k, j, self.jittered(rng, 28_000, jitter=0.12), deps)
            for i in range(k + 1, dimension):
                if not present[(i, k)]:
                    continue
                deps = [lu0] + ([last_writer[(i, k)]] if (i, k) in last_writer else [])
                add("bdiv", i, k, self.jittered(rng, 28_000, jitter=0.12), deps)
            for i in range(k + 1, dimension):
                for j in range(k + 1, dimension):
                    if builder.num_instances >= num_instances:
                        break
                    if not present[(i, k)] or not present[(k, j)]:
                        continue
                    deps = []
                    for key in ((i, k), (k, j), (i, j)):
                        if key in last_writer:
                            deps.append(last_writer[key])
                    present[(i, j)] = True
                    # A bmod instance either updates a dense block or touches
                    # a sparse/fill-in block with far less, irregular work:
                    # strong IPC irregularity within one task type, but with
                    # a stationary mix across the whole factorisation.
                    if rng.random() < 0.72:
                        instructions = self.jittered(rng, 34_000, jitter=0.1)
                        kind = "dense"
                    else:
                        instructions = self.lognormal(rng, 9_000, sigma=0.6)
                        kind = "sparse"
                    add("bmod", i, j, instructions, deps, kind=kind)

        # Check phase: a handful of helper task types verifying the result.
        check_types = [
            "check_row", "check_col", "check_norm", "compare_reference",
            "free_block", "report",
        ]
        barrier = [instance for instance in last_writer.values()][-1:]
        for index, task_type in enumerate(check_types):
            count = max(1, dimension // 2 if index < 4 else 1)
            for _ in range(count):
                instructions = self.lognormal(rng, 5_000, sigma=0.4)
                events = self.streaming_events(
                    rng, check, events=10, accesses=instructions // 8,
                    start=rng.randrange(check.size),
                )
                builder.add_task(
                    task_type,
                    instructions=instructions,
                    memory_events=events,
                    depends_on=barrier,
                )


class Cholesky(Workload):
    """cholesky: blocked Cholesky factorisation (potrf/trsm/syrk/gemm)."""

    name = "cholesky"
    category = "application"
    paper_task_types = 4
    paper_task_instances = 19600
    properties = "Decomposition of Hermitian positive-definite matrices"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        matrix = builder.allocator.allocate(512 * 1024 * 1024)
        block_bytes = 512 * 1024
        # Task count of a blocked Cholesky is ~ n^3 / 6 for an n x n grid.
        dimension = max(4, round((6.0 * num_instances) ** (1.0 / 3.0)))
        last_writer: Dict[Tuple[int, int], int] = {}

        def events_for(row: int, col: int, instructions: int, reuse: bool) -> EventRun:
            offset = ((row * dimension + col) * block_bytes) % matrix.size
            region = matrix.slice(offset, block_bytes)
            if reuse:
                return self.reuse_events(
                    rng, region, events=8, accesses=instructions // 8,
                    hot_lines=40, write_fraction=0.4,
                )
            return self.streaming_events(
                rng, region, events=8, accesses=instructions // 10,
                start=0, write_fraction=0.3,
            )

        def add(task_type: str, row: int, col: int, instructions: int,
                deps: List[int], reuse: bool = True) -> int:
            instance = builder.add_task(
                task_type,
                instructions=instructions,
                memory_events=events_for(row, col, instructions, reuse),
                depends_on=sorted(set(deps)),
            )
            last_writer[(row, col)] = instance
            return instance

        for k in range(dimension):
            if builder.num_instances >= num_instances:
                break
            deps = [last_writer[(k, k)]] if (k, k) in last_writer else []
            potrf = add("potrf", k, k, self.jittered(rng, 42_000, jitter=0.03), deps)
            for i in range(k + 1, dimension):
                deps = [potrf] + ([last_writer[(i, k)]] if (i, k) in last_writer else [])
                add("trsm", i, k, self.jittered(rng, 36_000, jitter=0.03), deps)
            for i in range(k + 1, dimension):
                if builder.num_instances >= num_instances:
                    break
                deps = [last_writer[(i, k)]]
                if (i, i) in last_writer:
                    deps.append(last_writer[(i, i)])
                add("syrk", i, i, self.jittered(rng, 34_000, jitter=0.03), deps)
                for j in range(k + 1, i):
                    if builder.num_instances >= num_instances:
                        break
                    deps = [last_writer[(i, k)], last_writer[(j, k)]]
                    if (i, j) in last_writer:
                        deps.append(last_writer[(i, j)])
                    add("gemm", i, j, self.jittered(rng, 38_000, jitter=0.03), deps)


class KMeans(Workload):
    """kmeans: Lloyd's algorithm with per-iteration assignment and reduction."""

    name = "kmeans"
    category = "application"
    paper_task_types = 6
    paper_task_instances = 16337
    properties = "Clustering based on Lloyd's algorithm"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        points = builder.allocator.allocate(512 * 1024 * 1024)
        centroids = builder.allocator.allocate(64 * 1024, shared=True)
        partials = builder.allocator.allocate(256 * 1024)
        iterations = max(2, num_instances // 160)
        per_iteration = max(8, num_instances // iterations)
        assign_share = int(per_iteration * 0.82)
        partial_share = max(1, int(per_iteration * 0.12))
        chunk_bytes = 32 * 1024

        init_id = builder.add_task(
            "init_centroids",
            instructions=self.jittered(rng, 10_000, jitter=0.05),
            memory_events=self.streaming_events(
                rng, centroids, events=12, accesses=2_000, write_fraction=1.0
            ),
        )
        previous_update = init_id
        created = 1
        iteration = 0
        while created < num_instances:
            iteration += 1
            assign_ids: List[int] = []
            for index in range(min(assign_share, num_instances - created)):
                instructions = self.jittered(rng, 26_000, jitter=0.04)
                events = self.combine(
                    self.streaming_events(
                        rng, points, events=24, accesses=instructions // 6,
                        start=(builder.num_instances * chunk_bytes) % points.size,
                    ),
                    self.reuse_events(
                        rng, centroids, events=14, accesses=instructions // 10,
                        hot_lines=24,
                    ),
                )
                assign_ids.append(
                    builder.add_task(
                        "assign_points",
                        instructions=instructions,
                        memory_events=events,
                        depends_on=[previous_update],
                    )
                )
                created += 1
            partial_ids: List[int] = []
            for index in range(min(partial_share, num_instances - created)):
                instructions = self.jittered(rng, 9_000, jitter=0.06)
                events = self.reuse_events(
                    rng, partials, events=10, accesses=instructions // 12,
                    hot_lines=12, write_fraction=0.6,
                )
                group = assign_ids[index::partial_share][:6] if assign_ids else []
                partial_ids.append(
                    builder.add_task(
                        "partial_sums",
                        instructions=instructions,
                        memory_events=events,
                        depends_on=group,
                    )
                )
                created += 1
            if created >= num_instances:
                break
            update_id = builder.add_task(
                "update_centroids",
                instructions=self.jittered(rng, 12_000, jitter=0.05),
                memory_events=self.streaming_events(
                    rng, centroids, events=14, accesses=3_000, write_fraction=0.9
                ),
                depends_on=partial_ids or assign_ids[-1:],
            )
            created += 1
            check_id = builder.add_task(
                "convergence_check",
                instructions=self.jittered(rng, 4_000, jitter=0.08),
                memory_events=self.reuse_events(
                    rng, centroids, events=6, accesses=800, hot_lines=8
                ),
                depends_on=[update_id],
            )
            created += 1
            previous_update = check_id
        builder.add_task(
            "write_output",
            instructions=self.jittered(rng, 8_000, jitter=0.05),
            memory_events=self.streaming_events(
                rng, points, events=16, accesses=4_000, write_fraction=1.0
            ),
            depends_on=[previous_update],
        )


class KNearestNeighbours(Workload):
    """knn: distance computation blocks plus per-query selection tasks."""

    name = "knn"
    category = "application"
    paper_task_types = 2
    paper_task_instances = 18400
    properties = "Instance-based machine learning algorithm"

    def build(self, builder: TraceBuilder, num_instances: int, rng: random.Random) -> None:
        training = builder.allocator.allocate(512 * 1024 * 1024)
        queries = builder.allocator.allocate(1024 * 1024)
        distance_share = int(num_instances * 0.9)
        select_share = num_instances - distance_share
        block_bytes = 48 * 1024
        distance_ids: List[int] = []
        for index in range(distance_share):
            instructions = self.jittered(rng, 32_000, jitter=0.03)
            events = self.combine(
                self.streaming_events(
                    rng, training, events=30, accesses=instructions // 5,
                    start=(index * block_bytes) % training.size,
                ),
                self.reuse_events(
                    rng, queries, events=12, accesses=instructions // 12, hot_lines=16
                ),
            )
            distance_ids.append(
                builder.add_task(
                    "distance_block", instructions=instructions, memory_events=events
                )
            )
        group = max(1, distance_share // max(1, select_share))
        for index in range(select_share):
            instructions = self.jittered(rng, 11_000, jitter=0.05)
            events = self.irregular_events(
                rng, queries, events=14, accesses=instructions // 8, write_fraction=0.4
            )
            deps = distance_ids[index * group : (index + 1) * group][:8]
            builder.add_task(
                "select_neighbours",
                instructions=instructions,
                memory_events=events,
                depends_on=deps,
            )
