"""Tests for DProf's offline working-set cache simulation."""

from repro.dprof.cachesim import DProfCacheSim
from repro.dprof.records import AddressSet, PathTrace, PathTraceEntry
from repro.hw.cache import CacheGeometry
from repro.util.rng import DeterministicRng
from tests.cachesim_oracle import OracleCacheSim


def make_sim(size=4096, ways=4):
    return DProfCacheSim(CacheGeometry(size, ways, 64), DeterministicRng(1, "t"))


def entry(ip, lo, hi, t, write=False):
    return PathTraceEntry(
        ip=ip,
        fn=f"fn{ip}",
        cpu_changed=False,
        offsets=(lo, hi),
        is_write=write,
        mean_time=t,
    )


def test_objects_without_traces_touch_their_lines():
    aset = AddressSet()
    aset.record_alloc("t", 0, 128, 1, 0, 0)  # two lines: 0 and 1
    result = make_sim().simulate(aset, {})
    assert result.objects_simulated == 1
    assert sum(result.distinct_lines_per_set.values()) == 2


def test_traced_objects_replay_trace_accesses_over_full_footprint():
    aset = AddressSet()
    aset.record_alloc("t", 0, 256, 1, 0, 0)
    trace = PathTrace("t", [entry(1, 0, 8, 10), entry(2, 128, 136, 20)], frequency=1)
    result = make_sim().simulate(aset, {"t": [trace]})
    # The whole 4-line object counts toward the working set; the trace
    # replays extra accesses to lines 0 and 2 (they don't add new lines).
    assert sum(result.distinct_lines_per_set.values()) == 4
    # Trace accesses happened: more accesses than the alloc touch alone.
    assert result.accesses_simulated == 4 + 2


def test_free_removes_lines_from_cache():
    aset = AddressSet()
    aset.record_alloc("t", 0, 64, 1, 0, 0)
    aset.record_free(0, 1, 0, 100)
    # A second object whose line maps to the same set, allocated later.
    aset.record_alloc("t", 4096, 64, 2, 0, 200)
    result = make_sim().simulate(aset, {})
    # Distinct lines ever stored counts both.
    assert sum(result.distinct_lines_per_set.values()) == 2


def test_conflict_sets_detected_when_one_set_overloaded():
    geometry = CacheGeometry(4096, 4, 64)  # 16 sets
    aset = AddressSet()
    # 12 objects whose lines all map to set 0 (stride = 16 lines).
    for i in range(12):
        aset.record_alloc("hot", i * 16 * 64, 64, 1, 0, i)
    # A few objects spread over other sets.
    for i in range(1, 4):
        aset.record_alloc("cold", i * 64, 64, 1, 0, 100 + i)
    sim = DProfCacheSim(geometry, DeterministicRng(1, "t"))
    result = sim.simulate(aset, {})
    assert 0 in result.conflict_sets()
    assert not result.capacity_pressured()
    types = dict(result.types_in_set(0))
    assert types.get("hot", 0) == 12


def test_capacity_pressure_when_all_sets_overloaded():
    geometry = CacheGeometry(4096, 4, 64)  # 64 lines total
    aset = AddressSet()
    # 4x the cache capacity, spread uniformly.
    for i in range(256):
        aset.record_alloc("big", i * 64, 64, 1, 0, i)
    sim = DProfCacheSim(geometry, DeterministicRng(1, "t"))
    result = sim.simulate(aset, {})
    assert result.capacity_pressured()
    # Uniform overload: conflict heuristic (2x average) does not fire.
    assert result.conflict_sets() == []


def test_mean_resident_lines_by_type():
    geometry = CacheGeometry(4096, 4, 64)
    aset = AddressSet()
    for i in range(8):
        aset.record_alloc("a", i * 64, 64, 1, 0, i)
    sim = DProfCacheSim(geometry, DeterministicRng(1, "t"))
    sim.SNAPSHOT_EVERY = 2
    result = sim.simulate(aset, {})
    assert result.mean_resident_lines.get("a", 0) > 0


def test_sampling_caps_object_count():
    aset = AddressSet()
    for i in range(100):
        aset.record_alloc("t", i * 64, 64, 1, 0, i)
    sim = make_sim()
    result = sim.simulate(aset, {}, max_objects=10)
    assert result.objects_simulated == 10


def test_span_before_its_allocation_keeps_first_touch_order():
    # Object "a" (line 0) has a trace span 50 cycles *before* its
    # allocation; object "b" (line 4, the same set of 4) is allocated in
    # between.  Set 0 first sees "a" through the span, so the tie
    # between one "a" and one "b" instance lists "a" first.
    geometry = CacheGeometry(256, 1, 64)
    aset = AddressSet()
    aset.record_alloc("a", 0, 64, 1, 0, 100)
    aset.record_alloc("b", 256, 64, 2, 0, 60)
    traces = {"a": [PathTrace("a", [entry(1, 0, 8, -50)], frequency=1)]}
    for sim_class in (DProfCacheSim, OracleCacheSim):
        result = sim_class(geometry, DeterministicRng(1, "t")).simulate(aset, traces)
        assert result.types_in_set(0) == [("a", 1), ("b", 1)]
