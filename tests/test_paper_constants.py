"""Pin the constants the paper states explicitly.

These tests exist so that casual refactoring cannot silently drift the
reproduction away from the paper's stated parameters.
"""

from repro.hw.debugreg import DEFAULT_TRAP_CYCLES, MAX_WATCH_BYTES, NUM_DEBUG_REGISTERS
from repro.hw.hierarchy import LATENCIES
from repro.hw.ibs import DEFAULT_IBS_INTERRUPT_CYCLES
from repro.hw.interconnect import INTERCONNECT
from repro.dprof.history import DEFAULT_CHUNK_SIZE, all_pairs, chunks_for_type
from repro.kernel.net.types import (
    NET_DEVICE_TYPE,
    SIZE_1024_TYPE,
    SKBUFF_FCLONE_TYPE,
    SKBUFF_TYPE,
    TCP_SOCK_TYPE,
    UDP_SOCK_TYPE,
)
from repro.kernel.slab import ARRAY_CACHE_TYPE


def test_object_sizes_match_thesis_tables():
    # Sizes from Tables 6.1 and 6.7.
    assert SKBUFF_TYPE.size == 256
    assert SKBUFF_FCLONE_TYPE.size == 512
    assert SIZE_1024_TYPE.size == 1024
    assert UDP_SOCK_TYPE.size == 1024
    assert TCP_SOCK_TYPE.size == 1600
    assert NET_DEVICE_TYPE.size == 128
    assert ARRAY_CACHE_TYPE.size == 128


def test_ibs_interrupt_cost_is_2000_cycles():
    # Section 6.3: "The cost of an IBS interrupt is about 2,000 cycles".
    assert DEFAULT_IBS_INTERRUPT_CYCLES == 2_000


def test_latency_table_matches_table_4_1():
    # Table 4.1: ~3 ns local L1 and ~200 ns foreign-cache loads, at one
    # cycle per nanosecond.
    assert LATENCIES.l1 == 3
    assert LATENCIES.foreign == 200


def test_debug_register_limits_match_x86():
    # Section 5.3 / 7: four registers, eight bytes each, ~1,000-cycle trap.
    assert NUM_DEBUG_REGISTERS == 4
    assert MAX_WATCH_BYTES == 8
    assert DEFAULT_TRAP_CYCLES == 1_000


def test_debug_setup_costs_match_section_6_4():
    costs = INTERCONNECT
    # "The core responsible for setting up debug registers incurs a cost
    # of 130,000 cycles" (16 cores)...
    assert abs(costs.broadcast_cost(16) - 130_000) <= 10_000
    # ..."It costs about 220,000 cycles to setup an object for profiling."
    assert abs(costs.object_setup_cost(16) - 220_000) <= 15_000


def test_history_set_sizes_match_section_6_4():
    # "a skbuff is 256 bytes long and its history set is composed of 64
    # histories with debug register configured to monitor length of 4".
    assert DEFAULT_CHUNK_SIZE == 4
    assert len(chunks_for_type(256)) == 64
    assert len(chunks_for_type(1600)) == 400  # tcp_sock: 32000/80 sets
    assert len(chunks_for_type(1024)) == 256  # size-1024: 8128/32 sets
    assert len(chunks_for_type(512)) == 128  # skbuff_fclone: 10240/80

    # Table 6.10's pairwise counts.
    assert len(all_pairs(chunks_for_type(256))) == 2016  # paper: 2017/1
    assert len(all_pairs(chunks_for_type(1600))) == 79800  # paper: 79801/1


def test_sample_record_sizes_match_section_6_3_and_6_4():
    # "Each access sample is 88 bytes" / "32 bytes per element".
    from repro.dprof.access_sampler import AccessSampleCollector
    from repro.dprof.history import HistoryCollector
    from repro.dprof.resolver import TypeResolver
    from repro.hw.machine import Machine, MachineConfig
    from repro.kernel import Kernel

    k = Kernel(MachineConfig(ncores=2, seed=1))
    sampler = AccessSampleCollector(k.machine, TypeResolver(k.slab))
    collector = HistoryCollector(k.machine, k.slab)
    assert sampler.memory_bytes == 0
    assert collector.memory_bytes == 0
    # The constants are embedded in the accounting properties.
    sampler.samples.append(object())
    assert sampler.memory_bytes == 88
