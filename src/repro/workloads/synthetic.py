"""Synthetic microworkloads: one per cache-miss class.

Each generator produces a workload whose dominant miss cause is known *by
construction*, so tests can validate both the hardware model's ground
truth and DProf's statistical classification:

- :func:`true_sharing_workload` -- every core read-modify-writes the same
  field of one shared object;
- :func:`false_sharing_workload` -- each core owns its own field, but all
  fields share one cache line;
- :func:`conflict_workload` -- one core cycles through more same-set lines
  than the cache has ways, while the rest of the cache stays idle;
- :func:`capacity_workload` -- one core streams a buffer bigger than its
  private caches.
"""

from __future__ import annotations

from repro.kernel.kernel import Kernel
from repro.kernel.layout import KObject, StructType
from repro.workloads.base import WorkloadResult

def drive(kernel: Kernel, duration_cycles: int) -> WorkloadResult:
    """Run every miss-class microworkload at once for a bounded window.

    The uniform scenario entry point (see
    :data:`repro.workloads.SCENARIOS`): true sharing, false sharing,
    conflict, and capacity all active together gives traces that touch
    every coherence path, which is what the hierarchy-equivalence tests
    want.
    """
    true_sharing_workload(kernel, iterations=duration_cycles // 400)
    false_sharing_workload(kernel, iterations=duration_cycles // 400)
    conflict_workload(kernel, iterations=duration_cycles // 2_000)
    capacity_workload(kernel, iterations=max(1, duration_cycles // 100_000))
    start = kernel.elapsed_cycles()
    kernel.run(until_cycle=start + duration_cycles)
    return WorkloadResult(
        requests_completed=sum(
            1 for thread in kernel.machine.threads if thread.done
        ),
        elapsed_cycles=kernel.elapsed_cycles() - start,
    )


#: One shared counter: all cores hammer `count` (true sharing).
SHARED_COUNTER_TYPE = StructType(
    "shared_counter",
    [("count", 8), ("owner", 8)],
    object_size=64,
    description="globally shared counter",
)

#: Per-core counters packed into a single 64-byte line (false sharing).
PACKED_COUNTERS_TYPE = StructType(
    "packed_counters",
    [(f"slot{i}", 8) for i in range(8)],
    object_size=64,
    description="per-core counters sharing one line",
)

#: A big streaming buffer (capacity) or strided array (conflict).
BUFFER_TYPE = StructType(
    "stream_buffer",
    [("data", 8)],
    object_size=8,
    description="streaming buffer element",
)


def true_sharing_workload(kernel: Kernel, iterations: int = 200) -> KObject:
    """Spawn one RMW loop per core against a single shared counter.

    Returns the shared object (its line will bounce between every core).
    """
    shared = kernel.slab.new_static(SHARED_COUNTER_TYPE, "shared_counter")
    env = kernel.env

    def body(cpu: int):
        for _ in range(iterations):
            yield env.read("worker_loop", shared, "count")
            yield env.write("worker_loop", shared, "count")
            yield env.work("worker_loop", 20)

    for cpu in range(kernel.ncores):
        kernel.spawn(f"true-sharing.{cpu}", cpu, body(cpu))
    return shared


def false_sharing_workload(kernel: Kernel, iterations: int = 200) -> KObject:
    """Spawn one writer per core, each on its *own* slot of one line.

    No data is logically shared, yet every write invalidates the line in
    every other core's cache -- the textbook false-sharing pattern.
    """
    packed = kernel.slab.new_static(PACKED_COUNTERS_TYPE, "packed_counters")
    env = kernel.env

    def body(cpu: int):
        slot = f"slot{cpu % 8}"
        for _ in range(iterations):
            yield env.read("worker_loop", packed, slot)
            yield env.write("worker_loop", packed, slot)
            yield env.work("worker_loop", 20)

    for cpu in range(min(kernel.ncores, 8)):
        kernel.spawn(f"false-sharing.{cpu}", cpu, body(cpu))
    return packed


def conflict_workload(
    kernel: Kernel, iterations: int = 50, lines: int | None = None
) -> list[int]:
    """One core cycles through many lines that all map to one L1/L2 set.

    Returns the addresses used.  With ``lines`` greater than the L2's
    associativity, every pass evicts the next line it needs even though
    the cache is otherwise empty: pure conflict misses.
    """
    cfg = kernel.machine.config
    l2_sets = cfg.l2_size // (cfg.l2_ways * cfg.line_size)
    stride = l2_sets * cfg.line_size
    count = lines if lines is not None else cfg.l2_ways + cfg.l1_ways + 4
    base = kernel.machine.address_space.alloc_region(
        stride * count, align=cfg.line_size * l2_sets, label="conflict_buffer"
    )
    addrs = [base + i * stride for i in range(count)]
    env = kernel.env

    def body():
        for _ in range(iterations):
            for addr in addrs:
                yield env.read_at("conflict_loop", "probe", addr, 8)

    kernel.spawn("conflict", 0, body())
    return addrs


def capacity_workload(
    kernel: Kernel, iterations: int = 4, footprint_multiple: float = 4.0
) -> tuple[int, int]:
    """One core streams a buffer several times its private cache capacity.

    Returns (base, size).  Every pass evicts lines uniformly across all
    sets -- pure capacity misses.
    """
    cfg = kernel.machine.config
    private_bytes = cfg.l1_size + cfg.l2_size
    size = int(private_bytes * footprint_multiple)
    base = kernel.machine.address_space.alloc_region(
        size, align=cfg.line_size, label="capacity_buffer"
    )
    env = kernel.env

    def body():
        for _ in range(iterations):
            for addr in range(base, base + size, cfg.line_size):
                yield env.read_at("stream_loop", "probe", addr, 8)

    kernel.spawn("capacity", 0, body())
    return base, size
