"""Tests for the Intel PTU-style baseline and its documented blind spot."""

from repro.baselines.ptu import PtuProfiler, run_ptu
from repro.hw.machine import MachineConfig
from repro.hw.pebs import PebsSample
from repro.hw.events import CacheLevel
from repro.kernel import Kernel, StructType

STATIC_T = StructType("ptu_static", [("a", 8)], object_size=64)
DYNAMIC_T = StructType("ptu_dynamic", [("a", 8)], object_size=64)


def make_kernel():
    return Kernel(MachineConfig(ncores=2, seed=9))


def sample(addr, level=CacheLevel.DRAM, write=False):
    return PebsSample(
        cycle=0,
        cpu=0,
        ip=1,
        fn="fn",
        addr=addr,
        size=8,
        is_write=write,
        level=level,
        latency=250,
    )


def test_static_lines_get_named():
    k = make_kernel()
    obj = k.slab.new_static(STATIC_T, "s")
    profiler = PtuProfiler(k.slab)
    profiler.on_sample(sample(obj.base))
    report = profiler.report()
    [row] = report.rows
    assert row.static_name == "ptu_static"
    assert row.attributed
    assert report.attributed_fraction == 1.0


def test_dynamic_lines_stay_anonymous():
    # PTU's blind spot, reproduced: slab-allocated objects have no name.
    k = make_kernel()
    cache = k.slab.create_cache(DYNAMIC_T)
    held = []

    def body():
        held.append((yield from cache.alloc(0)))

    k.spawn("t", 0, body())
    k.run()
    profiler = PtuProfiler(k.slab)
    profiler.on_sample(sample(held[0].base))
    report = profiler.report()
    [row] = report.rows
    assert row.static_name is None
    assert not row.attributed
    assert "(dynamic memory)" in report.render()


def test_working_set_counts_addresses_not_types():
    k = make_kernel()
    profiler = PtuProfiler(k.slab)
    for i in range(5):
        profiler.on_sample(sample(0x100000 + i * 64))
    profiler.on_sample(sample(0x100000))  # repeat line
    report = profiler.report()
    assert report.working_set_lines == 5


def test_miss_and_hitm_accounting():
    k = make_kernel()
    profiler = PtuProfiler(k.slab)
    profiler.on_sample(sample(0x100000, level=CacheLevel.L1))
    profiler.on_sample(sample(0x100000, level=CacheLevel.FOREIGN))
    profiler.on_sample(sample(0x100000, level=CacheLevel.DRAM))
    report = profiler.report()
    [row] = report.rows
    assert row.samples == 3
    assert row.misses == 2
    assert row.hitm == 1


def test_on_kernel_workload_most_misses_unattributed():
    """The paper's argument, measured: on a kernel workload the hot data
    is dynamic, so PTU cannot name most of the missing lines -- while
    DProf (same machine, same run) attributes them to types."""
    from repro.api import DProf, DProfConfig
    from repro.workloads import MemcachedWorkload

    kernel = Kernel(MachineConfig(ncores=4, seed=33))
    workload = MemcachedWorkload(kernel)
    workload.setup()
    ptu, pebs = run_ptu(kernel.machine, kernel.slab, interval=60)
    dprof = DProf(kernel, DProfConfig(ibs_interval=300))
    pebs.attach()
    dprof.attach()
    workload.run(400_000, warmup_cycles=100_000)
    dprof.detach()
    pebs.detach()

    report = ptu.report()
    assert report.rows
    # PTU names only the static minority of missing lines...
    assert report.attributed_miss_fraction() < 0.5
    # ...while DProf attributes the same workload's misses to types, with
    # the dynamic payload pool on top.
    profile = dprof.data_profile()
    assert profile.rows[0].type_name in ("size-1024", "skbuff")
