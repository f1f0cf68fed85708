"""Differential tests: the machine's hierarchy must match the reference.

Every machine runs the fused :class:`~repro.hw.hierarchy.MemoryHierarchy`;
the readable :class:`~tests.hierarchy_oracle.ReferenceHierarchy`, a
test-only module that shares no access code with it, is the oracle.  Two
layers of comparison:

1. *Live machines*: a full workload run (5 seeds x every scenario) on
   each hierarchy must agree on every per-access outcome (level, miss
   classification, latency, loss record), the hierarchy stats (with the
   metrics counters: latency by level, lines touched, lines shared),
   cache counters, complete LRU state, residual loss records, invalidation
   count, and DProf's top-10 data-profile ranking.
2. *Generated streams*: a seeded multi-core access stream that exercises
   every miss class, driven through both hierarchies in lockstep, must
   agree access by access and in end state.

Any nonzero delta anywhere fails; there is no tolerance.
"""

from __future__ import annotations

import random

import pytest

from repro.api import DProf, DProfConfig
from repro.hw.debugreg import DEFAULT_TRAP_CYCLES
from repro.hw.events import Instr
from repro.hw.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.hw.machine import Machine, MachineConfig
from repro.workloads import SCENARIOS, build_kernel
from tests.hierarchy_oracle import (
    ReferenceHierarchy,
    cache_counters,
    outcome_of,
    replacement_snapshot,
    use_hierarchy,
)

SEEDS = (3, 7, 11, 23, 42)
DURATION = 60_000
NCORES = 4
IBS_INTERVAL = 29  # runs are instruction-sparse; sample densely


def loss_records(hierarchy):
    """The directory's residual loss maps as plain tuples."""
    inv = [
        {line: tuple(rec) for line, rec in per_cpu.items()}
        for per_cpu in hierarchy.directory.invalidated
    ]
    ev = [
        {line: tuple(rec) for line, rec in per_cpu.items()}
        for per_cpu in hierarchy.directory.evicted
    ]
    return inv, ev


def end_state(hierarchy) -> dict:
    return {
        # metrics_counters() is snapshot() plus the per-level latency
        # sums and the accessor-mask line counts.
        "stats": hierarchy.stats.metrics_counters(),
        "counters": cache_counters(hierarchy),
        "lru": replacement_snapshot(hierarchy),
        "loss_records": loss_records(hierarchy),
        "invalidations": hierarchy.directory.invalidation_count,
    }


def profiled_run(kind: str, scenario: str, seed: int):
    """One live workload run under DProf on the *kind* hierarchy.

    Returns (per-access outcomes, comparable end state); both must match
    exactly between hierarchies.
    """
    with use_hierarchy(kind):
        kernel = build_kernel(NCORES, seed=seed)
    outcomes: list[tuple] = []
    kernel.machine.add_access_observer(
        lambda cpu, instr, result, cycle: outcomes.append(
            (cpu, cycle, outcome_of(result))
        )
    )
    dprof = DProf(kernel, DProfConfig(ibs_interval=IBS_INTERVAL))
    dprof.attach()
    result = SCENARIOS[scenario](kernel, DURATION)
    dprof.detach()
    state = end_state(kernel.machine.hierarchy)
    state["top10"] = [
        (r.type_name, r.miss_share, r.bounce, r.sample_count, r.working_set_bytes)
        for r in dprof.data_profile().top(10)
    ]
    state["requests"] = result.requests_completed
    state["elapsed"] = result.elapsed_cycles
    return outcomes, state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_engines_equivalent(scenario: str, seed: int) -> None:
    """Live runs and DProf rankings agree bit for bit on both hierarchies."""
    ref_outcomes, ref_state = profiled_run("reference", scenario, seed)
    fast_outcomes, fast_state = profiled_run("fast", scenario, seed)
    assert ref_outcomes, "reference run made no memory accesses"
    assert fast_outcomes == ref_outcomes
    assert fast_state == ref_state


def generated_stream(seed: int, *, steps: int = 8_000, private_lines: int = 1_536):
    """A seeded multi-core access stream that hits every miss class.

    Each core walks its own private region cyclically -- it must exceed
    the private-cache capacity (L1+L2 = 1280 lines) so the second lap
    produces eviction-classed misses -- and a quarter of all accesses go
    to a few shared lines, half of them writes, which produces
    invalidations and foreign hits.
    """
    rng = random.Random(seed)
    walk = [0] * NCORES
    shared_base = NCORES * private_lines
    for cycle in range(steps):
        cpu = rng.randrange(NCORES)
        if rng.random() < 0.25:
            line = shared_base + rng.randrange(16)
            is_write = rng.random() < 0.5
        else:
            line = cpu * private_lines + walk[cpu] % private_lines
            walk[cpu] += 1
            is_write = rng.random() < 0.1
        addr = line * 64 + rng.choice((0, 8, 60))  # 60: straddles a line
        yield cpu, addr, 8, is_write, 0x1000 + rng.randrange(64), cycle


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_trace_equivalence(seed: int) -> None:
    """Access-by-access equivalence on a generated multi-core stream."""
    config = build_kernel(NCORES, seed=seed).machine.config.hierarchy_config()
    reference = ReferenceHierarchy(config)
    fast = MemoryHierarchy(config)
    for access in generated_stream(seed):
        assert outcome_of(fast.access(*access)) == outcome_of(
            reference.access(*access)
        ), access
    assert end_state(fast) == end_state(reference)
    # The stream must exercise every miss class to be a meaningful check.
    kinds = reference.stats.snapshot()["miss_kinds"]
    assert all(kinds.get(k, 0) > 0 for k in ("cold", "invalidation", "eviction"))


#: A small hierarchy (16 L1 / 32 L2 lines per core, 64 L3 lines) so the
#: per-access comparison of full LRU state stays cheap.
SMALL = HierarchyConfig(
    ncores=NCORES,
    l1_size=1024,
    l1_ways=2,
    l2_size=2048,
    l2_ways=2,
    l3_size=4096,
    l3_ways=4,
)


def shortcut_stream(seed: int, steps: int = 3_000):
    """Accesses aimed at the fused path's shortcuts.

    Most go to a few lines per core, so write hits on lines no other core
    holds are common; a shared pool turns other writes into invalidating
    upgrades; and a third of all accesses sit at ``addr % 64 == 60`` with
    size 8, straddling a line boundary.
    """
    rng = random.Random(seed)
    for cycle in range(steps):
        cpu = rng.randrange(NCORES)
        if rng.random() < 0.3:
            line = 1_000 + rng.randrange(6)
        else:
            line = cpu * 100 + rng.randrange(12)
        offset = 60 if rng.random() < 0.33 else rng.choice((0, 8, 32))
        is_write = rng.random() < 0.45
        yield cpu, line * 64 + offset, 8, is_write, 0x2000 + rng.randrange(32), cycle


def classify(reference: ReferenceHierarchy, cpu, addr, size, is_write) -> str:
    """Which fused-path case an access exercises, read off the reference
    state before it runs."""
    first, last = addr // 64, (addr + size - 1) // 64
    if first != last:
        return "straddle"
    if not is_write:
        return "read"
    if not reference.l1[cpu].contains(first):
        return "write-miss"
    if reference.directory.holders_of(first) == {cpu}:
        return "write-hit-private"
    return "write-hit-shared"


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_shortcuts_lockstep(seed: int) -> None:
    """Results, metrics counters and full LRU state agree after every
    access, on a stream that exercises each fused-path shortcut."""
    reference = ReferenceHierarchy(SMALL)
    fast = MemoryHierarchy(SMALL)
    cases: dict[str, int] = {}
    for access in shortcut_stream(seed):
        case = classify(reference, *access[:3], access[3])
        cases[case] = cases.get(case, 0) + 1
        assert outcome_of(fast.access(*access)) == outcome_of(
            reference.access(*access)
        ), (case, access)
        assert fast.stats.metrics_counters() == reference.stats.metrics_counters()
        assert replacement_snapshot(fast) == replacement_snapshot(reference)
    assert end_state(fast) == end_state(reference)
    for case in ("straddle", "write-miss", "write-hit-private", "write-hit-shared"):
        assert cases.get(case, 0) >= 20, cases


def straddling_watch_run(kind: str) -> tuple:
    """Two cores access a field straddling lines 100/101 while a watch
    covers only 4 bytes of line 101; returns the traps and what they
    cost."""
    base = 100 * 64
    field_addr = base + 60  # bytes 60..67: the last 4 sit in line 101
    with use_hierarchy(kind):
        machine = Machine(MachineConfig(ncores=2, seed=5))
    traps: list[tuple] = []
    machine.watches.arm_all_cores(
        base + 64,
        4,
        lambda cpu, instr, result, cycle: traps.append(
            (cpu, instr.addr, cycle, outcome_of(result))
        ),
    )

    def body(cpu: int):
        for i in range(200):
            op = "store" if (i + cpu) % 3 == 0 else "load"
            if i % 4 == 0:  # the straddling field: traps on its 2nd line
                yield Instr(op, "fn", 0x3000 + cpu, addr=field_addr, size=8)
            elif i % 4 == 1:  # line 100, clear of the watch: no trap
                yield Instr(op, "fn", 0x3100 + cpu, addr=base + 8, size=8)
            elif i % 4 == 2:  # the watched bytes themselves
                yield Instr(op, "fn", 0x3200 + cpu, addr=base + 64, size=4)
            else:
                yield Instr("exec", "fn", 0x3300 + cpu, work=3)

    for cpu in range(2):
        machine.spawn(f"t{cpu}", cpu, body(cpu))
    machine.run()
    return (
        traps,
        machine.watches.traps_delivered,
        machine.total_overhead_cycles(),
        [core.cycle for core in machine.cores],
        machine.hierarchy.stats.metrics_counters(),
    )


def test_watch_on_second_line_of_straddling_field() -> None:
    """The machine consults the watch manager for a split access whose
    watched line is its second one; traps and overhead match the
    reference hierarchy's run exactly."""
    fast = straddling_watch_run("fast")
    assert fast == straddling_watch_run("reference")
    traps, delivered, overhead, _cycles, _counters = fast
    # Per core: 50 straddling accesses plus 50 direct ones.
    assert delivered == len(traps) == 200
    assert overhead == delivered * DEFAULT_TRAP_CYCLES
    assert {addr for _cpu, addr, _cycle, _outcome in traps} == {100 * 64 + 60, 101 * 64}
