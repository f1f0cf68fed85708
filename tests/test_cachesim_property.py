"""Property-based tests for DProf's offline cache simulation."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dprof.cachesim import DProfCacheSim
from repro.dprof.records import AddressSet, PathTrace, PathTraceEntry
from repro.hw.cache import CacheGeometry
from repro.util.rng import DeterministicRng
from tests.cachesim_oracle import OracleCacheSim

slow = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def address_sets(draw):
    aset = AddressSet()
    n = draw(st.integers(min_value=1, max_value=40))
    for i in range(n):
        base = draw(st.integers(min_value=0, max_value=2**20)) * 64
        size = draw(st.sampled_from([64, 128, 256, 1024]))
        alloc = draw(st.integers(min_value=0, max_value=10**6))
        aset.record_alloc(
            draw(st.sampled_from(["a", "b", "c"])), base, size, 1, 0, alloc
        )
        if draw(st.booleans()):
            aset.record_free(base, 1, 0, alloc + draw(st.integers(1, 10**5)))
    return aset


@slow
@given(address_sets())
def test_sim_counters_are_consistent(aset):
    geometry = CacheGeometry(8 * 1024, 4, 64)
    sim = DProfCacheSim(geometry, DeterministicRng(1, "p"))
    result = sim.simulate(aset, {})
    # Every distinct-line count is positive and set indices are in range.
    for set_index, count in result.distinct_lines_per_set.items():
        assert 0 <= set_index < geometry.num_sets
        assert count >= 1
    # Objects simulated never exceeds the address-set population.
    assert result.objects_simulated <= len(aset.entries)
    # Accesses at least touch each sampled object's footprint once.
    assert result.accesses_simulated >= result.objects_simulated
    # Per-set type instances never exceed the total object count.
    for counter in result.set_type_instances.values():
        assert sum(counter.values()) <= result.objects_simulated * 4


@slow
@given(address_sets())
def test_sim_is_deterministic(aset):
    geometry = CacheGeometry(8 * 1024, 4, 64)
    a = DProfCacheSim(geometry, DeterministicRng(2, "x")).simulate(aset, {})
    b = DProfCacheSim(geometry, DeterministicRng(2, "x")).simulate(aset, {})
    assert a.distinct_lines_per_set == b.distinct_lines_per_set
    assert a.mean_resident_lines == b.mean_resident_lines


@slow
@given(address_sets(), st.floats(min_value=1.1, max_value=8.0))
def test_conflict_sets_monotone_in_factor(aset, factor):
    geometry = CacheGeometry(8 * 1024, 4, 64)
    result = DProfCacheSim(geometry, DeterministicRng(3, "m")).simulate(aset, {})
    loose = set(result.conflict_sets(1.05))
    tight = set(result.conflict_sets(factor))
    # Raising the threshold can only shrink the suspect set.
    assert tight <= loose


# ----------------------------------------------------------------------
# Differential: the lean replay against the readable oracle
# ----------------------------------------------------------------------

TYPES = ("a", "b", "c")


@st.composite
def reused_address_sets(draw, first_cycle=st.just(0)):
    """Allocations over a small pool of bases, so addresses are reused
    after a free, live objects share lines, and sets overflow.  Cycles
    count up from a draw of *first_cycle*."""
    aset = AddressSet()
    live: list[tuple[int, int]] = []
    cycle = draw(first_cycle)
    for cookie in range(draw(st.integers(min_value=1, max_value=40))):
        if live and draw(st.booleans()):
            base, live_cookie = live.pop(draw(st.integers(0, len(live) - 1)))
            cycle += draw(st.integers(0, 50))
            aset.record_free(base, live_cookie, 0, cycle)
        cycle += draw(st.integers(0, 50))
        base = draw(st.integers(0, 31)) * 64 + draw(st.sampled_from([0, 8, 40]))
        size = draw(st.sampled_from([8, 64, 100, 192, 256]))
        aset.record_alloc(draw(st.sampled_from(TYPES)), base, size, cookie, 0, cycle)
        live.append((base, cookie))
    return aset


@st.composite
def path_trace_sets(draw):
    """type -> path traces whose entries re-touch objects, overrun them,
    start before or past them (with a gap), or sort before their
    allocation."""
    traces = {}
    for type_name in TYPES:
        traces[type_name] = [
            PathTrace(
                type_name=type_name,
                entries=[
                    PathTraceEntry(
                        ip=i,
                        fn=f"f{i}",
                        cpu_changed=False,
                        offsets=(lo, lo + draw(st.integers(0, 200))),
                        is_write=False,
                        mean_time=draw(st.sampled_from([-3, 0, 5, 17.5, 40, 300.25])),
                    )
                    for i, lo in enumerate(
                        draw(
                            st.lists(
                                st.integers(-100, -1)
                                | st.integers(0, 255)
                                | st.integers(256, 1024),
                                min_size=1,
                                max_size=5,
                            )
                        )
                    )
                ],
                frequency=draw(st.integers(1, 5)),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
    return traces


def _intervals(*intervals):
    """An address set of (type, base, size, alloc cycle, free cycle or
    None) lifetimes, in this order."""
    aset = AddressSet()
    for type_name, base, size, alloc, free in intervals:
        aset.record_interval(
            type_name, base, size, 0, alloc, None if free is None else 0, free
        )
    return aset


def _trace(type_name, *entries):
    """One path trace of (lo, hi, mean time) entries."""
    return PathTrace(
        type_name=type_name,
        entries=[
            PathTraceEntry(
                ip=i,
                fn=f"f{i}",
                cpu_changed=False,
                offsets=(lo, hi),
                is_write=False,
                mean_time=mean_time,
            )
            for i, (lo, hi, mean_time) in enumerate(entries)
        ],
        frequency=1,
    )


# (256, 1) has 4 sets: footprints wrap around the set index and some
# cover more lines than there are sets.
GEOMETRIES = st.sampled_from([(256, 1), (512, 1), (1024, 2), (2048, 4)])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    reused_address_sets(),
    path_trace_sets(),
    GEOMETRIES,
    st.integers(1, 16),
    st.integers(1, 50),
    st.integers(0, 2**16),
)
# A footprint that ends exactly on a snapshot: the second allocation's
# two lines are the last two accesses before it.
@example(
    _intervals(("a", 0, 128, 0, None), ("b", 128, 128, 5, None), ("c", 64, 64, 9, 30)),
    {},
    (256, 1),
    4,
    50,
    0,
)
# A footprint that straddles a snapshot: one access is left before it
# when the three-line allocation starts.
@example(
    _intervals(("a", 0, 128, 0, 20), ("b", 128, 192, 5, None)),
    {},
    (256, 1),
    3,
    50,
    0,
)
# A single-line touch at cycle 10, the time of another object's free
# and a third one's allocation, all in set 0 of a one-way cache.
@example(
    _intervals(("a", 0, 64, 0, None), ("b", 256, 64, 0, 10), ("c", 512, 64, 10, None)),
    {"a": [_trace("a", (0, 8, 10))]},
    (256, 1),
    1,
    50,
    0,
)
def test_replay_matches_oracle(aset, traces, geometry, snapshot_every, max_objects, seed):
    _assert_matches_oracle(aset, traces, geometry, snapshot_every, max_objects, seed)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # Event times are float sort keys.  Near 2**40 a float keeps only
    # 12 bits below the whole cycle, so keys are compared far from zero.
    reused_address_sets(first_cycle=st.integers(2**40 - 2**10, 2**40 + 2**10)),
    path_trace_sets(),
    GEOMETRIES,
    st.integers(1, 16),
    st.integers(1, 50),
    st.integers(0, 2**16),
)
def test_replay_matches_oracle_late_cycles(
    aset, traces, geometry, snapshot_every, max_objects, seed
):
    _assert_matches_oracle(aset, traces, geometry, snapshot_every, max_objects, seed)


def _assert_matches_oracle(aset, traces, geometry, snapshot_every, max_objects, seed):
    size, ways = geometry
    results = []
    for sim_class in (DProfCacheSim, OracleCacheSim):
        sim = sim_class(CacheGeometry(size, ways, 64), DeterministicRng(seed, "diff"))
        # Snapshot often, so small inputs exercise the resident counts.
        sim.SNAPSHOT_EVERY = snapshot_every
        results.append(sim.simulate(aset, traces, max_objects=max_objects))
    lean, oracle = results
    assert lean.distinct_lines_per_set == oracle.distinct_lines_per_set
    assert lean.set_type_instances == oracle.set_type_instances
    assert {i: c.most_common() for i, c in lean.set_type_instances.items()} == {
        i: c.most_common() for i, c in oracle.set_type_instances.items()
    }
    assert lean.mean_resident_lines == oracle.mean_resident_lines
    assert lean.objects_simulated == oracle.objects_simulated
    assert lean.accesses_simulated == oracle.accesses_simulated
