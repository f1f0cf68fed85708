"""Tests for DProf's raw data structures."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.dprof.records import (
    AccessSample,
    AccessStats,
    AddressSet,
    AddressSetEntry,
    HistoryElement,
    ObjectAccessHistory,
)
from repro.hw.events import CacheLevel


def make_sample(level=CacheLevel.L1, latency=3, offset=0, ip=1):
    return AccessSample(
        type_name="skbuff",
        offset=offset,
        ip=ip,
        cpu=0,
        level=level,
        latency=latency,
        is_write=False,
        cycle=100,
    )


class TestAccessSample:
    def test_l1_hit_is_not_miss(self):
        assert not make_sample(CacheLevel.L1).l1_miss
        assert not make_sample(CacheLevel.L1).remote_miss

    def test_levels_beyond_l1_are_misses(self):
        for level in (CacheLevel.L2, CacheLevel.L3, CacheLevel.FOREIGN, CacheLevel.DRAM):
            assert make_sample(level).l1_miss

    def test_remote_miss_only_foreign_and_dram(self):
        assert make_sample(CacheLevel.FOREIGN).remote_miss
        assert make_sample(CacheLevel.DRAM).remote_miss
        assert not make_sample(CacheLevel.L2).remote_miss


class TestAccessStats:
    def test_aggregation(self):
        stats = AccessStats()
        stats.add(make_sample(CacheLevel.L1, latency=3))
        stats.add(make_sample(CacheLevel.L1, latency=3))
        stats.add(make_sample(CacheLevel.FOREIGN, latency=200))
        assert stats.count == 3
        assert abs(stats.hit_probability(CacheLevel.L1) - 2 / 3) < 1e-9
        assert abs(stats.miss_probability - 1 / 3) < 1e-9
        assert abs(stats.remote_probability - 1 / 3) < 1e-9
        assert abs(stats.latency.mean - (3 + 3 + 200) / 3) < 1e-9

    def test_empty_stats(self):
        stats = AccessStats()
        assert stats.miss_probability == 0.0
        assert stats.hit_probability(CacheLevel.L1) == 0.0


class TestHistorySignatures:
    def make_history(self, elements, alloc_cpu=0):
        h = ObjectAccessHistory(
            type_name="t",
            object_base=0x1000,
            object_cookie=1,
            offsets=((0, 4), (8, 4)),
            alloc_cpu=alloc_cpu,
            alloc_cycle=0,
        )
        h.elements = elements
        h.free_cycle = 999
        return h

    def test_signature_tracks_cpu_changes(self):
        h = self.make_history(
            [
                HistoryElement(offset=0, ip=10, cpu=0, time=1, is_write=True),
                HistoryElement(offset=8, ip=20, cpu=2, time=5, is_write=False),
                HistoryElement(offset=0, ip=30, cpu=2, time=9, is_write=False),
            ]
        )
        assert h.signature() == ((0, 10, False), (8, 20, True), (0, 30, False))

    def test_projection_restricts_to_chunk(self):
        h = self.make_history(
            [
                HistoryElement(offset=0, ip=10, cpu=0, time=1, is_write=True),
                HistoryElement(offset=8, ip=20, cpu=2, time=5, is_write=False),
                HistoryElement(offset=1, ip=30, cpu=2, time=9, is_write=False),
            ]
        )
        assert h.projection((0, 4)) == ((10, False), (30, False))
        assert h.projection((8, 4)) == ((20, True),)

    def test_pair_flag(self):
        h = self.make_history([])
        assert h.is_pair
        h.offsets = ((0, 4),)
        assert not h.is_pair


class TestAddressSet:
    def test_live_bytes_integration(self):
        aset = AddressSet()
        # Object of 100 bytes live for the whole [0, 100) window.
        aset.record_alloc("t", 0x1000, 100, 1, 0, 0)
        aset.record_free(0x1000, 1, 0, 100)
        assert aset.mean_live_bytes("t", 0, 100) == 100.0
        # Live for half the window -> half the bytes on average.
        assert aset.mean_live_bytes("t", 0, 200) == 50.0

    def test_unfreed_objects_live_to_window_end(self):
        aset = AddressSet()
        aset.record_alloc("t", 0x1000, 64, 1, 0, 50)
        assert aset.mean_live_bytes("t", 0, 100) == 32.0

    def test_mean_live_objects(self):
        aset = AddressSet()
        for i in range(4):
            aset.record_alloc("t", 0x1000 + i * 64, 64, 1, 0, 0)
        assert aset.mean_live_objects("t", 0, 100) == 4.0

    def test_free_with_unknown_cookie_ignored(self):
        aset = AddressSet()
        aset.record_alloc("t", 0x1000, 64, 1, 0, 0)
        aset.record_free(0x1000, 99, 0, 10)  # wrong cookie
        entry = aset.entries[0]
        assert entry.free_cycle is None

    def test_by_type_and_names(self):
        aset = AddressSet()
        aset.record_alloc("a", 0x1000, 64, 1, 0, 0)
        aset.record_alloc("b", 0x2000, 64, 1, 0, 0)
        aset.record_alloc("a", 0x3000, 64, 1, 0, 0)
        grouped = aset.by_type()
        assert len(grouped["a"]) == 2
        assert aset.type_names() == ["a", "b"]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=1, max_value=500),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_live_bytes_nonnegative_and_bounded(self, intervals):
        aset = AddressSet()
        size = 64
        for i, (start, length) in enumerate(intervals):
            aset.record_alloc("t", 0x1000 + i * size, size, 1, 0, start)
            aset.record_free(0x1000 + i * size, 1, 0, start + length)
        mean = aset.mean_live_bytes("t", 0, 1000)
        assert 0 <= mean <= len(intervals) * size


def _scan_live(entries, type_name, start, end, weight):
    """The plain scan the per-type index must reproduce, float for float."""
    if end <= start:
        return 0.0
    total = 0.0
    for entry in entries:
        if entry.type_name != type_name:
            continue
        lo = max(entry.alloc_cycle, start)
        hi = min(entry.free_cycle if entry.free_cycle is not None else end, end)
        if hi > lo:
            total += (hi - lo) * weight(entry)
    return total / (end - start)


@st.composite
def recorded_address_sets(draw):
    """Interleaved allocs, frees (some unknown) and archived intervals
    over a few reused bases."""
    aset = AddressSet()
    live: list[tuple[int, int]] = []
    cycle = 0
    for cookie in range(draw(st.integers(min_value=0, max_value=40))):
        cycle += draw(st.integers(0, 30))
        action = draw(st.sampled_from(["alloc", "free", "unknown-free", "interval"]))
        base = draw(st.integers(0, 7)) * 64
        if action == "free" and live:
            freed_base, freed_cookie = live.pop(draw(st.integers(0, len(live) - 1)))
            aset.record_free(freed_base, freed_cookie, 1, cycle)
        elif action == "unknown-free":
            aset.record_free(base, -1 - cookie, 1, cycle)
        elif action == "interval":
            free = draw(st.none() | st.integers(cycle, cycle + 100))
            aset.record_interval(
                draw(st.sampled_from("abc")), base, draw(st.integers(1, 300)),
                0, cycle, 1, free,
            )
        else:
            aset.record_alloc(
                draw(st.sampled_from("abc")), base, draw(st.integers(1, 300)),
                cookie, 0, cycle,
            )
            live.append((base, cookie))
    return aset


def _window_edges() -> AddressSet:
    """Objects allocated before the window, freed after it, and one still
    live when recording ended."""
    aset = AddressSet()
    aset.record_interval("a", 0x40, 48, 0, 5, 1, 300)
    aset.record_interval("a", 0x80, 64, 0, 40, 1, None)
    aset.record_interval("a", 0xC0, 100, 0, 60, 1, 90)
    aset.record_alloc("a", 0x100, 24, 7, 0, 150)
    return aset


@given(
    recorded_address_sets(),
    st.integers(0, 600),
    st.integers(0, 600),
    st.sampled_from("abcd"),
)
@example(_window_edges(), 20, 200, "a")
@example(_window_edges(), 200, 200, "a")
@example(_window_edges(), 250, 30, "a")
def test_per_type_index_matches_a_plain_scan(aset, start, end, type_name):
    entries = aset.entries
    assert aset.mean_live_bytes(type_name, start, end) == _scan_live(
        entries, type_name, start, end, lambda e: e.size
    )
    assert aset.mean_live_objects(type_name, start, end) == _scan_live(
        entries, type_name, start, end, lambda e: 1
    )
    assert aset.live_means(type_name, start, end) == (
        _scan_live(entries, type_name, start, end, lambda e: e.size),
        _scan_live(entries, type_name, start, end, lambda e: 1),
    )
    assert aset.type_names() == sorted({e.type_name for e in entries})
    grouped: dict = {}
    for entry in entries:
        grouped.setdefault(entry.type_name, []).append(entry)
    by_type = aset.by_type()
    assert list(by_type) == list(grouped)
    assert all(
        [id(e) for e in by_type[name]] == [id(e) for e in group]
        for name, group in grouped.items()
    )


def test_live_means_clips_each_interval_to_the_window():
    aset = _window_edges()
    # [20, 200): 48 bytes for 180 cycles, 64 for 160, 100 for 30, 24 for 50.
    assert aset.live_means("a", 20, 200) == (
        (48 * 180 + 64 * 160 + 100 * 30 + 24 * 50) / 180,
        (180 + 160 + 30 + 50) / 180,
    )
    assert aset.live_means("a", 200, 200) == (0.0, 0.0)
    assert aset.live_means("a", 250, 30) == (0.0, 0.0)
    assert aset.live_means("missing", 0, 100) == (0.0, 0.0)


def test_from_intervals_indexes_like_record_interval():
    rows = [("b", 0x40, 8, 0, 5, 1, 9), ("a", 0x80, 16, 2, 6, None, None),
            ("b", 0xC0, 32, 3, 7, 4, 12)]
    recorded = AddressSet()
    for name, base, size, cpu, cycle, free_cpu, free_cycle in rows:
        recorded.record_interval(name, base, size, cpu, cycle, free_cpu, free_cycle)
    built = AddressSet.from_intervals(
        [AddressSetEntry(n, b, s, c, cpu, f, fc) for n, b, s, cpu, c, fc, f in rows]
    )
    assert built.entries == recorded.entries
    assert built.by_type() == recorded.by_type()
    assert built.type_names() == ["a", "b"]


def test_record_interval_appends_one_closed_entry():
    aset = AddressSet()
    aset.record_interval("t", 0x1000, 64, 0, 10, 1, 50)
    aset.record_interval("t", 0x1000, 64, 2, 60, 3, None)
    aset.record_free(0x1000, 0, 3, 90)  # no interval is open to close
    first, second = aset.entries
    assert (first.alloc_cycle, first.free_cycle, first.free_cpu) == (10, 50, 1)
    assert (second.alloc_cycle, second.free_cycle, second.free_cpu) == (60, None, None)
    assert aset.mean_live_objects("t", 0, 100) == (40 + 40) / 100
