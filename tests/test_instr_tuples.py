"""Differential tests: instructions as plain tuples or as ``Instr``.

:class:`~repro.kernel.kenv.KernelEnv` yields plain
``(kind, fn, ip, addr, size, work)`` tuples and the machine builds an
:class:`~repro.hw.events.Instr` only where one is kept or inspected (an
expiring IBS countdown, a watched line, observers).  The same thread
bodies, once yielding ``Instr`` objects and once yielding plain tuples,
must leave the machine in exactly the same state and deliver exactly the
same IBS samples and debug-register traps.
"""

from __future__ import annotations

from repro.api import export_session
from repro.hw.events import Instr
from repro.hw.machine import Machine, MachineConfig
from repro.kernel.kenv import KernelEnv
from repro.workloads import collect_history_session
from tests.hierarchy_oracle import replacement_snapshot

NCORES = 2
SHARED = 0x200000  # a few lines every core reads and writes
IBS_INTERVAL = 3  # short: the IBS site builds an Instr every few instructions


def bodies(make):
    """Per-core thread bodies; *make* turns a 6-tuple into what is yielded."""

    def body(cpu: int):
        private = 0x100000 + cpu * 0x10000
        for i in range(600):
            step = i % 5
            if step == 0:
                kind = "store" if (i + cpu) % 3 == 0 else "load"
                yield make((kind, "shared", 0x10 + cpu, SHARED + (i % 4) * 64, 8, 1))
            elif step == 1:  # straddles two private lines
                yield make(("load", "walk", 0x20, private + (i % 40) * 64 + 60, 8, 2))
            elif step == 2:
                yield make(("store", "walk", 0x21, private + (i % 300) * 64, 4, 1))
            elif step == 3:  # the watched bytes of the shared block
                yield make(("store", "watched", 0x30 + cpu, SHARED + 128, 4, 1))
            else:
                yield make(("exec", "compute", 0x40, 0, 0, 7))

    return [body(cpu) for cpu in range(NCORES)]


def machine_run(make):
    machine = Machine(MachineConfig(ncores=NCORES, seed=9))
    samples = []
    machine.configure_ibs(IBS_INTERVAL, samples.append)
    elements = []
    machine.watches.arm_all_cores(
        SHARED + 128,
        4,
        lambda cpu, instr, result, cycle: elements.append(
            (instr.addr - SHARED, instr.ip, cpu, cycle, instr.is_write, result.level)
        ),
    )
    observed = []
    machine.add_instr_observer(
        lambda cpu, instr, result, cycle: observed.append((cpu, instr, cycle))
    )
    for cpu, body in enumerate(bodies(make)):
        machine.spawn(f"t{cpu}", cpu, body)
    machine.run()
    hierarchy = machine.hierarchy
    return {
        "cycles": [core.cycle for core in machine.cores],
        "overhead": machine.total_overhead_cycles(),
        "counters": hierarchy.stats.metrics_counters(),
        "lru": replacement_snapshot(hierarchy),
        "samples": samples,
        "elements": elements,
        "observed": observed,
    }


def test_machine_runs_tuples_and_instrs_identically():
    as_instr = machine_run(Instr._make)
    as_tuple = machine_run(tuple)
    assert as_tuple == as_instr
    # Both lazy Instr sites ran, and observers saw named fields.
    assert len(as_tuple["samples"]) > 100
    # Per core: 120 direct stores plus 30 shared loads/stores at +128.
    assert len(as_tuple["elements"]) == NCORES * 150
    assert all(type(instr) is Instr for _cpu, instr, _cycle in as_tuple["observed"])


def as_instr_env(monkeypatch):
    """Make every KernelEnv access helper return an Instr, not a tuple."""
    for name in ("read", "write", "read_range", "write_range", "read_at", "write_at", "work"):
        original = getattr(KernelEnv, name)

        def emit(self, *args, _original=original, **kwargs):
            return Instr._make(_original(self, *args, **kwargs))

        monkeypatch.setattr(KernelEnv, name, emit)


def history_run():
    dprof = collect_history_session("memcached", ncores=NCORES, seed=3)
    machine = dprof.kernel.machine
    return {
        "cycles": [core.cycle for core in machine.cores],
        "counters": machine.hierarchy.stats.metrics_counters(),
        "lru": replacement_snapshot(machine.hierarchy),
        "samples": dprof.sampler.samples,
        "histories": dprof.history.histories_for("skbuff"),
        "archive": export_session(dprof),
    }


def test_kernel_session_same_with_instr_objects(monkeypatch):
    """A whole DProf session (IBS samples plus debug-register histories)
    is the same when the kernel yields Instr objects instead of tuples."""
    as_tuple = history_run()
    with monkeypatch.context() as patch:
        as_instr_env(patch)
        as_instr = history_run()
    assert as_instr == as_tuple
    assert as_tuple["samples"]
    assert any(history.elements for history in as_tuple["histories"])

