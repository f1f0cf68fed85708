"""Tests for the MESI memory hierarchy and ground-truth miss causes."""

from repro.dprof.profiler import DProf, DProfConfig
from repro.hw.events import CacheLevel, MissKind
from repro.hw.hierarchy import HierarchyConfig, Latencies, MemoryHierarchy
from repro.hw.pebs import PebsEvent, PebsUnit
from repro.workloads import MemcachedWorkload, build_kernel
from tests.hierarchy_oracle import outcome_of


def make_hierarchy(ncores=2, **kwargs):
    defaults = dict(
        ncores=ncores,
        l1_size=1024,
        l1_ways=2,
        l2_size=4096,
        l2_ways=4,
        l3_size=16384,
        l3_ways=8,
    )
    defaults.update(kwargs)
    return MemoryHierarchy(HierarchyConfig(**defaults))


def test_first_access_is_cold_dram_miss():
    h = make_hierarchy()
    r = h.access(0, 0x1000, 8, False, ip=1, cycle=0)
    assert r.level == CacheLevel.DRAM
    assert r.miss_kind == MissKind.COLD
    assert r.latency == Latencies().dram


def test_second_access_hits_l1():
    h = make_hierarchy()
    h.access(0, 0x1000, 8, False, ip=1, cycle=0)
    r = h.access(0, 0x1000, 8, False, ip=2, cycle=1)
    assert r.level == CacheLevel.L1
    assert r.latency == Latencies().l1
    assert r.miss_kind is None


def test_remote_write_invalidates_and_reload_is_foreign():
    h = make_hierarchy()
    h.access(0, 0x1000, 8, False, ip=1, cycle=0)  # core 0 caches the line
    h.access(1, 0x1000, 8, True, ip=2, cycle=1)  # core 1 writes: invalidate
    r = h.access(0, 0x1000, 8, False, ip=3, cycle=2)
    assert r.miss_kind == MissKind.INVALIDATION
    assert r.invalidation is not None
    assert r.invalidation.writer_cpu == 1
    assert r.invalidation.writer_ip == 2
    assert r.level == CacheLevel.FOREIGN  # served from core 1's dirty copy


def test_write_hit_on_shared_line_invalidates_other_reader():
    h = make_hierarchy()
    h.access(0, 0x2000, 8, False, ip=1, cycle=0)
    h.access(1, 0x2000, 8, False, ip=2, cycle=1)  # both cores share the line
    r0 = h.access(0, 0x2000, 8, True, ip=3, cycle=2)  # write hit, upgrade
    assert r0.level == CacheLevel.L1
    assert r0.latency == Latencies().l1 + Latencies().upgrade
    r1 = h.access(1, 0x2000, 8, False, ip=4, cycle=3)
    assert r1.miss_kind == MissKind.INVALIDATION


def test_false_sharing_offsets_recorded_in_invalidation():
    # Writer touches bytes 0-7; reader re-reads bytes 32-39 of the same line.
    h = make_hierarchy()
    h.access(0, 0x3020, 8, False, ip=1, cycle=0)
    h.access(1, 0x3000, 8, True, ip=2, cycle=1)
    r = h.access(0, 0x3020, 8, False, ip=3, cycle=2)
    assert r.miss_kind == MissKind.INVALIDATION
    inv = r.invalidation
    # Writer wrote a different range of the same line: false sharing.
    assert inv.writer_addr == 0x3000
    assert inv.writer_size == 8
    writer_range = range(inv.writer_addr, inv.writer_addr + inv.writer_size)
    assert 0x3020 not in writer_range


def test_capacity_eviction_is_recorded():
    # Tiny L1 (2-way) and L2 (4-way): stream enough lines through one set
    # that an early line leaves the private domain entirely.
    h = make_hierarchy(l1_size=2 * 64, l1_ways=2, l2_size=4 * 64, l2_ways=4)
    # All lines map to set 0 of both single-set caches.
    for i in range(10):
        h.access(0, i * 64, 8, False, ip=i, cycle=i)
    r = h.access(0, 0, 8, False, ip=99, cycle=100)
    assert r.miss_kind == MissKind.EVICTION
    assert r.eviction is not None
    # The victim L3 caught the evicted line, so the reload is an L3 hit.
    assert r.level == CacheLevel.L3


def test_l2_hit_promotes_to_l1_exclusive():
    h = make_hierarchy(l1_size=2 * 64, l1_ways=2, l2_size=8 * 64, l2_ways=8)
    lines = [0, 64, 128]
    for a in lines:
        h.access(0, a, 8, False, ip=1, cycle=0)
    # line 0 was demoted to L2 by the third insert (2-way L1, one set).
    assert h.l2[0].contains(0)
    r = h.access(0, 0, 8, False, ip=2, cycle=1)
    assert r.level == CacheLevel.L2
    # Exclusive: after promotion the line lives in L1 only.
    assert h.l1[0].contains(0)
    assert not h.l2[0].contains(0)


def test_clean_shared_line_served_from_l3_not_foreign():
    h = make_hierarchy(l1_size=2 * 64, l1_ways=2, l2_size=4 * 64, l2_ways=4)
    # Core 1 reads a line, then it is evicted from core 1's private caches
    # into L3 by streaming conflicting lines.
    h.access(1, 0, 8, False, ip=1, cycle=0)
    for i in range(1, 10):
        h.access(1, i * 64, 8, False, ip=1, cycle=i)
    r = h.access(0, 0, 8, False, ip=2, cycle=20)
    assert r.level == CacheLevel.L3


def test_read_of_dirty_line_demotes_owner_and_fills_l3():
    h = make_hierarchy(ncores=3)
    h.access(0, 0x4000, 8, True, ip=1, cycle=0)  # core 0 owns dirty
    r = h.access(1, 0x4000, 8, False, ip=2, cycle=1)
    assert r.level == CacheLevel.FOREIGN
    # After the transfer both cores hold the line shared; a third read by
    # either is a local hit.
    r0 = h.access(0, 0x4000, 8, False, ip=3, cycle=2)
    assert r0.level == CacheLevel.L1
    # Core 0 no longer owns it dirty: a third core is served the
    # written-back copy from L3, not a foreign transfer.
    r2 = h.access(2, 0x4000, 8, False, ip=4, cycle=3)
    assert r2.level == CacheLevel.L3


def test_straddling_access_sums_latency():
    h = make_hierarchy()
    # 8-byte access at line boundary minus 4 touches two lines.
    r = h.access(0, 64 - 4, 8, False, ip=1, cycle=0)
    assert r.latency == 2 * Latencies().dram
    assert r.level == CacheLevel.DRAM


def test_stats_accumulate():
    h = make_hierarchy()
    h.access(0, 0, 8, False, ip=1, cycle=0)
    h.access(0, 0, 8, False, ip=1, cycle=1)
    assert h.stats.accesses == 2
    assert h.stats.level_counts[CacheLevel.L1] == 1
    assert h.stats.level_counts[CacheLevel.DRAM] == 1
    assert 0.0 < h.stats.l1_miss_rate < 1.0


def test_flush_all_forgets_everything():
    h = make_hierarchy()
    h.access(0, 0, 8, True, ip=1, cycle=0)
    h.flush_all()
    r = h.access(0, 0, 8, False, ip=2, cycle=1)
    assert r.level == CacheLevel.DRAM
    assert r.miss_kind == MissKind.COLD


def test_shared_hit_results_survive_a_profiled_session():
    """No consumer mutates the shared L1-hit results.

    A 4-core memcached session runs with IBS (through DProf), PEBS, an
    access observer and a debug-register history collection attached.
    Afterwards the hierarchy's two preallocated hit results still read
    ``(L1, l1)`` and ``(L1, l1 + upgrade)``, and a line-straddling
    access, whose result the split path mutates, gets a fresh object.
    """
    kernel = build_kernel(4, seed=3)
    machine = kernel.machine
    hierarchy = machine.hierarchy
    shared = (hierarchy._l1_hit, hierarchy._l1_upgrade_hit)
    workload = MemcachedWorkload(kernel)
    workload.setup()
    workload.start()
    kernel.run(until_cycle=50_000)

    pebs_samples = []
    pebs = PebsUnit(machine, PebsEvent(kind="all"), 37, pebs_samples.append)
    pebs.attach()
    seen = {"hit": 0, "upgrade": 0}

    def observer(cpu, instr, result, cycle):
        if result is shared[0]:
            seen["hit"] += 1
        elif result is shared[1]:
            seen["upgrade"] += 1

    machine.add_access_observer(observer)
    dprof = DProf(kernel, DProfConfig(ibs_interval=50))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + 150_000)
    dprof.collect_histories("skbuff", sets=1, hot_chunks=2)
    kernel.run(
        until_cycle=kernel.elapsed_cycles() + 3_000_000,
        stop_when=lambda: dprof.histories_done,
    )
    dprof.detach()
    pebs.detach()
    machine.remove_access_observer(observer)

    delivered, _dropped, _corrupted = machine.ibs_delivery_counts()
    assert delivered > 0 and pebs_samples and machine.watches.traps_delivered > 0
    assert seen["hit"] > 0 and seen["upgrade"] > 0, seen
    lat = hierarchy.latencies
    assert outcome_of(shared[0]) == (CacheLevel.L1, lat.l1, None, None, None)
    assert outcome_of(shared[1]) == (
        CacheLevel.L1, lat.l1 + lat.upgrade, None, None, None,
    )

    addr = 0x7F00_0000 + 60  # bytes 60..67 straddle two lines
    hierarchy.access(0, addr, 8, False, ip=1, cycle=machine.elapsed_cycles())
    split = hierarchy.access(0, addr, 8, False, ip=1, cycle=machine.elapsed_cycles())
    assert split is not shared[0] and split is not shared[1]
    assert outcome_of(split) == (CacheLevel.L1, 2 * lat.l1, None, None, None)
    assert outcome_of(shared[0]) == (CacheLevel.L1, lat.l1, None, None, None)
