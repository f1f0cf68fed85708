"""Unit tests for debug register files and the watch manager internals."""

import pytest

from repro.errors import SimulationError
from repro.hw.debugreg import (
    DEFAULT_TRAP_CYCLES,
    DebugRegisterFile,
    Watch,
    WatchManager,
)


def handler(*args):
    pass


def make_watch(watch_id=1, lo=0x1000, length=4, slot=0):
    return Watch(watch_id=watch_id, lo=lo, hi=lo + length, slot=slot, handler=handler)


class TestDebugRegisterFile:
    def test_free_slot_progression(self):
        f = DebugRegisterFile(0)
        assert f.free_slot() == 0
        f.arm(0, make_watch(slot=0))
        assert f.free_slot() == 1
        for i in range(1, 4):
            f.arm(i, make_watch(watch_id=i + 1, slot=i))
        assert f.free_slot() is None

    def test_double_arm_same_slot_rejected(self):
        f = DebugRegisterFile(0)
        f.arm(0, make_watch())
        with pytest.raises(SimulationError):
            f.arm(0, make_watch(watch_id=2))

    def test_out_of_range_slot_rejected(self):
        f = DebugRegisterFile(0)
        with pytest.raises(SimulationError):
            f.arm(7, make_watch())

    def test_disarm_frees_slot(self):
        f = DebugRegisterFile(0)
        f.arm(0, make_watch())
        f.disarm(0)
        assert f.free_slot() == 0


class TestWatchOverlap:
    def test_overlap_boundaries(self):
        w = make_watch(lo=0x100, length=4)  # [0x100, 0x104)
        assert w.overlaps(0x100, 1)
        assert w.overlaps(0x103, 1)
        assert not w.overlaps(0x104, 1)
        assert not w.overlaps(0xFC, 4)
        assert w.overlaps(0xFC, 5)
        assert w.overlaps(0xFE, 8)

    def test_zero_size_access_treated_as_one_byte(self):
        w = make_watch(lo=0x100, length=4)
        assert w.overlaps(0x100, 0)
        assert not w.overlaps(0x104, 0)


class TestWatchManagerIndex:
    def test_line_index_spans_ranges(self):
        mgr = WatchManager(ncores=2, line_size=64)
        w = mgr.arm_all_cores(0x103C, 8, handler)  # straddles lines 64, 65
        assert set(mgr.watched_lines) == {0x103C // 64, (0x103C + 7) // 64}
        mgr.disarm(w)
        assert mgr.watched_lines == {}

    def test_two_watches_same_line_both_fire(self):
        mgr = WatchManager(ncores=1, line_size=64)
        fired = []
        mgr.arm_all_cores(0x1000, 4, lambda c, i, r, cy: fired.append("a"))
        mgr.arm_all_cores(0x1004, 4, lambda c, i, r, cy: fired.append("b"))

        class FakeInstr:
            addr = 0x1002
            size = 4
            is_write = False

        overhead = mgr.check(0, FakeInstr(), None, 0)
        # Access [0x1002, 0x1006) overlaps both watches.
        assert sorted(fired) == ["a", "b"]
        assert overhead == 2 * DEFAULT_TRAP_CYCLES

    def test_same_watch_not_fired_twice_for_straddling_access(self):
        mgr = WatchManager(ncores=1, line_size=64)
        fired = []
        mgr.arm_all_cores(0x103C, 8, lambda c, i, r, cy: fired.append(1))

        class FakeInstr:
            addr = 0x1038
            size = 16  # spans both indexed lines
            is_write = True

        mgr.check(0, FakeInstr(), None, 0)
        assert fired == [1]
