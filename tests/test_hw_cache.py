"""Tests for set-associative cache arrays and geometry.

The unit tests run on both arrays in turn: the test suite's
:class:`~tests.hierarchy_oracle.ReferenceCacheArray` oracle, and
:class:`CacheArray`, the one the machine builds.  A Hypothesis test
drives both with the same random operation sequence and compares them
after every step.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hw.cache import CacheArray, CacheGeometry
from tests.hierarchy_oracle import ReferenceCacheArray

#: Every cache array; each unit test below runs on all of them.
ARRAYS = (ReferenceCacheArray, CacheArray)


def test_geometry_derives_sets_and_lines():
    g = CacheGeometry(size=16 * 1024, ways=8, line_size=64)
    assert g.num_lines == 256
    assert g.num_sets == 32
    assert g.set_of(0) == 0
    assert g.set_of(33) == 1


def test_geometry_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        CacheGeometry(size=1000, ways=8, line_size=64)  # not a multiple
    with pytest.raises(ConfigError):
        CacheGeometry(size=0, ways=8, line_size=64)
    with pytest.raises(ConfigError):
        CacheGeometry(size=1024, ways=-1, line_size=64)


def test_lookup_miss_then_hit():
    for array in ARRAYS:
        c = array(CacheGeometry(1024, 2, 64))
        assert not c.lookup(5)
        c.insert(5)
        assert c.lookup(5)
        assert c.hits == 1
        assert c.misses == 1


def test_lru_eviction_within_set():
    for array in ARRAYS:
        # 2-way cache: third line in the same set evicts the least recent.
        g = CacheGeometry(size=2 * 64 * 4, ways=2, line_size=64)  # 4 sets
        c = array(g)
        nsets = g.num_sets
        a, b, d = 0, nsets, 2 * nsets  # all map to set 0
        c.insert(a)
        c.insert(b)
        assert c.insert(d) == a  # a is LRU
        assert not c.contains(a)
        assert c.contains(b) and c.contains(d)


def test_lookup_refreshes_lru():
    for array in ARRAYS:
        g = CacheGeometry(size=2 * 64 * 4, ways=2, line_size=64)
        c = array(g)
        nsets = g.num_sets
        a, b, d = 0, nsets, 2 * nsets
        c.insert(a)
        c.insert(b)
        c.lookup(a)  # a becomes most-recent
        assert c.insert(d) == b


def test_insert_existing_line_refreshes_without_eviction():
    for array in ARRAYS:
        g = CacheGeometry(size=2 * 64 * 4, ways=2, line_size=64)
        c = array(g)
        nsets = g.num_sets
        c.insert(0)
        c.insert(nsets)
        assert c.insert(0) is None  # refresh, no eviction
        assert c.occupancy() == 2


def test_remove_and_clear():
    for array in ARRAYS:
        c = array(CacheGeometry(1024, 2, 64))
        c.insert(1)
        assert c.remove(1)
        assert not c.remove(1)
        c.insert(2)
        c.clear()
        assert c.occupancy() == 0


def test_set_occupancy_tracks_per_set():
    for array in ARRAYS:
        g = CacheGeometry(size=4 * 64 * 8, ways=4, line_size=64)  # 8 sets
        c = array(g)
        c.insert(0)
        c.insert(8)
        c.insert(1)
        assert c.set_occupancy(0) == 2
        assert c.set_occupancy(1) == 1


@given(st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=500))
def test_occupancy_never_exceeds_capacity(lines):
    for array in ARRAYS:
        g = CacheGeometry(size=8 * 64 * 4, ways=4, line_size=64)
        c = array(g)
        for line in lines:
            c.insert(line)
            assert c.occupancy() <= g.num_lines
            for s in range(g.num_sets):
                assert c.set_occupancy(s) <= g.ways


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
def test_most_recent_insert_always_resident(lines):
    for array in ARRAYS:
        g = CacheGeometry(size=2 * 64 * 8, ways=2, line_size=64)
        c = array(g)
        for line in lines:
            c.insert(line)
            assert c.contains(line)


#: One operation on a cache array: (method, line).  ``clear`` ignores
#: the line and is rare, so sets fill up between clears; ten lines over
#: 2 sets of 3 ways make hits on older lines and evictions frequent.
#: Hypothesis keeps unbounded lists short, hence the minimum length.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("lookup",) * 6 + ("insert",) * 6 + ("remove", "contains") * 2 + ("clear",)
        ),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=30,
    max_size=200,
)


def _array_state(c) -> tuple:
    return (c.hits, c.misses, c.evictions, c.lru_snapshot(), tuple(c.lines()))


@given(_OPS)
def test_fast_array_matches_reference(ops):
    """Same operations, same answers: return values, counters, LRU order
    and ``lines()`` order agree after every step."""
    g = CacheGeometry(size=3 * 64 * 2, ways=3, line_size=64)
    reference, fast = ReferenceCacheArray(g), CacheArray(g)
    for op, line in ops:
        args = () if op == "clear" else (line,)
        assert getattr(fast, op)(*args) == getattr(reference, op)(*args), (op, line)
        assert _array_state(fast) == _array_state(reference), (op, line)
    assert fast.occupancy() == reference.occupancy()
