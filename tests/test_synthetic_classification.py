"""Validation: the simulator's ground truth on the synthetic workloads.

Each synthetic workload produces one dominant miss class *by construction*.
These tests check that the hardware model's ground truth (the miss kind,
writer ranges and cache sets it records per access) shows that class.
They do not score DProf's inferred miss classification.
"""

from collections import Counter

from repro.hw.events import MissKind
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.workloads.synthetic import (
    capacity_workload,
    conflict_workload,
    false_sharing_workload,
    true_sharing_workload,
)


def ground_truth_misses(kernel, addr_range):
    """Collect ground-truth miss kinds for accesses in [lo, hi)."""
    lo, hi = addr_range
    kinds = Counter()

    def observer(cpu, instr, result, cycle):
        if lo <= instr.addr < hi and result.miss_kind is not None:
            kinds[result.miss_kind] += 1

    kernel.machine.add_access_observer(observer)
    return kinds


def test_true_sharing_ground_truth():
    k = Kernel(MachineConfig(ncores=4, seed=7))
    shared = true_sharing_workload(k, iterations=100)
    kinds = ground_truth_misses(k, (shared.base, shared.end))
    k.run()
    assert kinds[MissKind.INVALIDATION] > 50
    assert kinds[MissKind.INVALIDATION] > 10 * kinds[MissKind.EVICTION]


def test_false_sharing_ground_truth_has_disjoint_writer_ranges():
    k = Kernel(MachineConfig(ncores=4, seed=7))
    packed = false_sharing_workload(k, iterations=100)
    overlapping = [0]
    disjoint = [0]

    def observer(cpu, instr, result, cycle):
        inv = result.invalidation
        if inv is None or not packed.base <= instr.addr < packed.end:
            return
        writer = range(inv.writer_addr, inv.writer_addr + inv.writer_size)
        mine = range(instr.addr, instr.addr + instr.size)
        if set(writer) & set(mine):
            overlapping[0] += 1
        else:
            disjoint[0] += 1

    k.machine.add_access_observer(observer)
    k.run()
    # Each core owns its slot: invalidations come from *other* slots.
    assert disjoint[0] > 30
    assert overlapping[0] == 0


def test_conflict_ground_truth_single_hot_set():
    k = Kernel(MachineConfig(ncores=2, seed=7))
    addrs = conflict_workload(k, iterations=30)
    lo, hi = min(addrs), max(addrs) + 64
    kinds = ground_truth_misses(k, (lo, hi))
    k.run()
    assert kinds[MissKind.EVICTION] > 100
    assert kinds[MissKind.INVALIDATION] == 0


def test_conflict_addresses_map_to_one_set():
    k = Kernel(MachineConfig(ncores=2, seed=7))
    addrs = conflict_workload(k, iterations=1)
    geo = k.machine.hierarchy.l2[0].geometry
    sets = {geo.set_of(a // 64) for a in addrs}
    assert len(sets) == 1


def test_capacity_ground_truth_uniform_evictions():
    k = Kernel(MachineConfig(ncores=2, seed=7))
    base, size = capacity_workload(k, iterations=3)
    kinds = ground_truth_misses(k, (base, base + size))
    k.run()
    # After the cold first pass, repeat passes evict uniformly.
    assert kinds[MissKind.EVICTION] > kinds[MissKind.COLD] * 0.5
    assert kinds[MissKind.INVALIDATION] == 0


def test_capacity_evictions_spread_across_sets():
    k = Kernel(MachineConfig(ncores=2, seed=7))
    base, size = capacity_workload(k, iterations=3)
    sets_hit = set()

    def observer(cpu, instr, result, cycle):
        if result.eviction is not None:
            sets_hit.add(result.eviction.set_index)

    k.machine.add_access_observer(observer)
    k.run()
    geo = k.machine.hierarchy.l2[0].geometry
    assert len(sets_hit) > geo.num_sets * 0.8
