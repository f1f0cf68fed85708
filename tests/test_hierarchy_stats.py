"""Tests for hierarchy statistics accounting."""

from repro.hw.events import CacheLevel, MissKind
from repro.hw.hierarchy import HierarchyStats, MemoryHierarchy
from repro.hw.machine import MachineConfig
from tests.hierarchy_oracle import core_holds, private_occupancy


def test_stats_level_counts_partition_accesses():
    h = MemoryHierarchy(MachineConfig(ncores=2))
    for i in range(50):
        h.access(0, (i % 5) * 64, 8, False, ip=1, cycle=i)
    s = h.stats
    assert s.accesses == 50
    assert sum(s.level_counts.values()) == 50
    assert s.level_counts[CacheLevel.DRAM] == 5  # five cold lines
    assert s.level_counts[CacheLevel.L1] == 45


def test_miss_kind_counts_only_for_misses():
    h = MemoryHierarchy(MachineConfig(ncores=2))
    h.access(0, 0, 8, False, ip=1, cycle=0)
    h.access(0, 0, 8, False, ip=1, cycle=1)
    assert h.stats.miss_kind_counts[MissKind.COLD] == 1
    assert sum(h.stats.miss_kind_counts.values()) == 1


def test_l1_miss_rate():
    s = HierarchyStats()
    assert s.l1_miss_rate == 0.0
    h = MemoryHierarchy(MachineConfig(ncores=2))
    h.access(0, 0, 8, False, ip=1, cycle=0)  # DRAM
    h.access(0, 0, 8, False, ip=1, cycle=1)  # L1
    assert abs(h.stats.l1_miss_rate - 0.5) < 1e-9


def test_core_holds_and_occupancy_helpers():
    h = MemoryHierarchy(MachineConfig(ncores=2))
    h.access(0, 0x4000, 8, False, ip=1, cycle=0)
    assert core_holds(h, 0, 0x4000)
    assert not core_holds(h, 1, 0x4000)
    assert private_occupancy(h, 0) == 1
    assert private_occupancy(h, 1) == 0
