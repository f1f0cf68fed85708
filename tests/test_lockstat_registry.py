"""Tests for the lock-statistics registry in isolation."""

from repro.kernel.lockstat import LockStatRegistry


def test_acquire_and_release_accumulate():
    reg = LockStatRegistry()
    reg.record_acquire("l", "fn_a", wait=100, contended=True)
    reg.record_acquire("l", "fn_b", wait=50, contended=False)
    reg.record_release("l", "fn_a", hold=300)
    st = reg.stat("l")
    assert st.acquisitions == 2
    assert st.contentions == 1
    assert st.wait_cycles == 150
    assert st.hold_cycles == 300
    assert st.mean_wait == 75.0
    assert st.contention_rate == 0.5


def test_empty_stat_rates_are_zero():
    st = LockStatRegistry().stat("fresh")
    assert st.mean_wait == 0.0
    assert st.contention_rate == 0.0


def test_all_stats_sorted_by_wait():
    reg = LockStatRegistry()
    reg.record_acquire("light", "f", wait=10, contended=False)
    reg.record_acquire("heavy", "f", wait=1000, contended=True)
    names = [s.name for s in reg.all_stats()]
    assert names == ["heavy", "light"]


def test_reset_clears_everything():
    reg = LockStatRegistry()
    reg.record_acquire("l", "f", wait=10, contended=False)
    reg.reset()
    assert reg.all_stats() == []
