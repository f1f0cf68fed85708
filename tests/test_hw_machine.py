"""Tests for the machine event loop, IBS, and debug registers."""

import itertools

import pytest

from repro.errors import SimulationError
from repro.hw.debugreg import NUM_DEBUG_REGISTERS
from repro.hw.events import Instr, Pause
from repro.hw.machine import QUANTUM, Machine, MachineConfig


def small_machine(ncores=2):
    return Machine(MachineConfig(ncores=ncores, seed=1))


def loads(n, base=0x100000, fn="fn", ip=1, stride=64):
    for i in range(n):
        yield Instr("load", fn, ip, addr=base + (i % 8) * stride, size=8)


def test_threads_run_to_completion():
    m = small_machine()
    t = m.spawn("t", 0, loads(50))
    m.run()
    assert t.done
    assert m.cores[0].instructions == 50
    assert m.cores[0].cycle > 0


def test_pause_wakes_later():
    m = small_machine()

    def body():
        yield Instr("exec", "fn", 1, work=10)
        yield Pause(500)
        yield Instr("exec", "fn", 1, work=10)

    t = m.spawn("sleeper", 0, body())
    m.run()
    assert t.done
    assert m.cores[0].cycle >= 520


def test_two_threads_interleave_on_one_core():
    m = small_machine()
    order = []

    def body(tag):
        for _ in range(2 * QUANTUM):
            order.append(tag)
            yield Instr("exec", "fn", 1, work=1)

    m.spawn("a", 0, body("a"))
    m.spawn("b", 0, body("b"))
    m.run()
    # Each body outlasts one quantum, so the schedule must switch between
    # the threads, and no thread runs longer than a quantum at a stretch.
    switches = sum(1 for x, y in zip(order, order[1:]) if x != y)
    assert switches >= 2
    runs = [len(list(group)) for _tag, group in itertools.groupby(order)]
    assert max(runs) <= QUANTUM


def test_until_cycle_bounds_run():
    m = small_machine()

    def forever():
        while True:
            yield Instr("exec", "fn", 1, work=10)

    m.spawn("spin", 0, forever())
    m.run(until_cycle=1000)
    assert 1000 <= m.cores[0].cycle <= 1400


def test_stop_when_predicate():
    m = small_machine()
    count = [0]

    def body():
        while True:
            count[0] += 1
            yield Instr("exec", "fn", 1, work=1)

    m.spawn("t", 0, body())
    m.run(stop_when=lambda: count[0] >= 100)
    assert count[0] >= 100
    assert count[0] < 200  # stopped promptly (within a quantum or two)


def test_cores_advance_together():
    # The min-cycle scheduling policy keeps core clocks close.
    m = small_machine(ncores=4)
    for cpu in range(4):
        m.spawn(f"t{cpu}", cpu, loads(200, base=0x100000 + cpu * 0x10000))
    m.run()
    cycles = [c.cycle for c in m.cores]
    assert max(cycles) < 2 * min(cycles) + 1000


def test_ibs_sampling_delivers_and_charges_overhead():
    m = small_machine()
    samples = []
    m.configure_ibs(interval=10, handler=samples.append)
    m.spawn("t", 0, loads(500))
    m.run()
    assert len(samples) > 20
    assert m.cores[0].overhead_cycles >= len(samples) * 2000
    s = samples[0]
    assert s.cpu == 0
    assert s.fn == "fn"
    assert s.is_memory


def test_ibs_disabled_means_no_overhead():
    m = small_machine()
    m.spawn("t", 0, loads(500))
    m.run()
    assert m.cores[0].overhead_cycles == 0


def test_ibs_rate_scales_with_interval():
    def run_with_interval(interval):
        m = small_machine()
        samples = []
        m.configure_ibs(interval=interval, handler=samples.append)
        m.spawn("t", 0, loads(2000))
        m.run()
        return len(samples)

    assert run_with_interval(10) > 2.5 * run_with_interval(50)


def test_watchpoint_fires_on_overlap_only():
    m = small_machine()
    hits = []

    def handler(cpu, instr, result, cycle):
        hits.append((cpu, instr.addr))

    m.watches.arm_all_cores(0x100000, 8, handler)

    def body():
        yield Instr("load", "fn", 1, addr=0x100000, size=8)  # hit
        yield Instr("load", "fn", 1, addr=0x100040, size=8)  # same-page miss
        yield Instr("store", "fn", 2, addr=0x100004, size=4)  # hit
        yield Instr("load", "fn", 1, addr=0x100008, size=8)  # adjacent, miss

    m.spawn("t", 0, body())
    m.run()
    assert [a for _, a in hits] == [0x100000, 0x100004]
    assert m.cores[0].overhead_cycles == 2 * 1000


def test_watchpoint_traps_on_any_core():
    m = small_machine()
    hits = []
    m.watches.arm_all_cores(0x100000, 4, lambda c, i, r, cy: hits.append(c))
    m.spawn("a", 0, iter([Instr("load", "f", 1, addr=0x100000, size=4)]))
    m.spawn("b", 1, iter([Instr("store", "f", 2, addr=0x100002, size=2)]))
    m.run()
    assert sorted(hits) == [0, 1]


def test_watch_disarm_stops_traps():
    m = small_machine()
    hits = []
    w = m.watches.arm_all_cores(0x100000, 8, lambda c, i, r, cy: hits.append(c))
    m.watches.disarm(w)
    m.spawn("t", 0, iter([Instr("load", "f", 1, addr=0x100000, size=8)]))
    m.run()
    assert hits == []
    assert not m.watches.any_armed


def test_watch_limits_enforced():
    m = small_machine()
    with pytest.raises(SimulationError):
        m.watches.arm_all_cores(0x100000, 16, lambda *a: None)  # > 8 bytes
    watches = [
        m.watches.arm_all_cores(0x100000 + i * 64, 8, lambda *a: None)
        for i in range(NUM_DEBUG_REGISTERS)
    ]
    with pytest.raises(SimulationError):
        m.watches.arm_all_cores(0x100400, 8, lambda *a: None)  # all 4 busy
    for w in watches:
        m.watches.disarm(w)
    # After disarm a slot is free again.
    m.watches.arm_all_cores(0x100400, 8, lambda *a: None)


def test_observers_see_every_access():
    m = small_machine()
    seen = []
    m.add_access_observer(lambda cpu, instr, result, cycle: seen.append(instr.addr))
    m.spawn("t", 0, loads(10))
    m.run()
    assert len(seen) == 10


def test_spawn_rejects_bad_cpu():
    m = small_machine()
    with pytest.raises(SimulationError):
        m.spawn("t", 99, loads(1))


def test_deterministic_replay():
    def build_and_run():
        m = small_machine()
        samples = []
        m.configure_ibs(interval=7, handler=lambda s: samples.append((s.cpu, s.ip)))
        m.spawn("a", 0, loads(300))
        m.spawn("b", 1, loads(300, base=0x200000))
        m.run()
        return samples, [c.cycle for c in m.cores]

    first = build_and_run()
    second = build_and_run()
    assert first == second
