"""Differential tests: the machine's hierarchy must match the reference.

Every machine runs :class:`~repro.hw.fastpath.FastHierarchy`; the
readable :class:`~repro.hw.hierarchy.MemoryHierarchy` is kept as the
oracle.  Two layers of comparison:

1. *Live machines*: a full workload run (5 seeds x every scenario) on
   each hierarchy must agree on every per-access outcome (level, miss
   classification, latency, loss record), the hierarchy stats, cache
   counters, complete LRU state, residual loss records, invalidation
   count, and DProf's top-10 data-profile ranking.
2. *Generated streams*: a seeded multi-core access stream that exercises
   every miss class, driven through both hierarchies in lockstep, must
   agree access by access and in end state.

Any nonzero delta anywhere fails; there is no tolerance.
"""

from __future__ import annotations

import random
from dataclasses import astuple

import pytest

from repro.api import DProf, DProfConfig
from repro.hw.fastpath import FastHierarchy
from repro.hw.hierarchy import MemoryHierarchy
from repro.workloads import SCENARIOS, build_kernel
from tests.hierarchy_oracle import outcome_of, use_hierarchy

SEEDS = (3, 7, 11, 23, 42)
DURATION = 60_000
NCORES = 4
IBS_INTERVAL = 29  # runs are instruction-sparse; sample densely


def loss_records(hierarchy):
    """The directory's residual loss maps as plain tuples."""
    inv = [
        {line: astuple(rec) for line, rec in per_cpu.items()}
        for per_cpu in hierarchy.directory.invalidated
    ]
    ev = [
        {line: astuple(rec) for line, rec in per_cpu.items()}
        for per_cpu in hierarchy.directory.evicted
    ]
    return inv, ev


def end_state(hierarchy) -> dict:
    return {
        "stats": hierarchy.stats.snapshot(),
        "counters": hierarchy.cache_counters(),
        "lru": hierarchy.replacement_snapshot(),
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
    reference = MemoryHierarchy(config)
    fast = FastHierarchy(config)
    for access in generated_stream(seed):
        assert outcome_of(fast.access(*access)) == outcome_of(
            reference.access(*access)
        ), access
    assert end_state(fast) == end_state(reference)
    # The stream must exercise every miss class to be a meaningful check.
    kinds = reference.stats.snapshot()["miss_kinds"]
    assert all(kinds.get(k, 0) > 0 for k in ("cold", "invalidation", "eviction"))
