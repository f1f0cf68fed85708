"""Property-based coherence invariants, checked on both hierarchies in lockstep.

Hypothesis drives random (cpu, line, is_write) interleavings through a
deliberately tiny hierarchy (2-way 1 KiB L1s, 2-way 2 KiB L2s, 4-way
4 KiB L3) so that evictions, invalidations, and dirty-serve paths all
fire within a few dozen accesses.  After every access both the
machine's :class:`MemoryHierarchy` and the :class:`ReferenceHierarchy`
oracle (``tests/hierarchy_oracle.py``) must satisfy the MESI invariants,
and the machine's hierarchy must produce exactly the reference's
outcome.

Invariants (the ISSUE's contract, spelled out):

- *At most one Modified owner per line*, and the owner holds the line
  (``dirty_owner in holders``);
- *Shared implies directory membership*: a line resident in any private
  cache appears in the directory's holder set for that core, and vice
  versa (holders == actual private residency);
- *Occupancy never exceeds capacity*: per set (<= ways) and per cache;
- *Exclusive L1/L2*: a line is never in both of one core's private
  levels at once.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hw.hierarchy import MemoryHierarchy
from repro.hw.machine import MachineConfig
from tests.hierarchy_oracle import (
    ReferenceHierarchy,
    cache_counters,
    outcome_of,
    replacement_snapshot,
    set_occupancy,
)

NCORES = 4
LINE_SIZE = 64
#: 16 L1 lines / 32 L2 lines per core, 64 L3 lines: tiny on purpose.
TINY = dict(
    ncores=NCORES,
    line_size=LINE_SIZE,
    l1_size=1024,
    l1_ways=2,
    l2_size=2048,
    l2_ways=2,
    l3_size=4096,
    l3_ways=4,
)
#: More lines than any private cache holds, so evictions are routine.
NLINES = 48


def tiny_config() -> MachineConfig:
    return MachineConfig(**TINY)


def dirty_owner_of(directory, line: int) -> int | None:
    """The line's Modified owner, regardless of directory implementation."""
    dirty = getattr(directory, "_dirty", None)
    if dirty is not None:  # the machine's bitmask Directory
        return dirty.get(line)
    ent = directory.peek(line)
    return ent.dirty_owner if ent else None


def check_invariants(hierarchy) -> None:
    """Assert every MESI/capacity invariant on the hierarchy's state."""
    directory = hierarchy.directory
    resident: dict[int, set[int]] = {}
    for cpu in range(NCORES):
        l1, l2 = hierarchy.l1[cpu], hierarchy.l2[cpu]
        l1_lines = set(l1.lines())
        l2_lines = set(l2.lines())
        # Exclusive hierarchy: one core never holds a line at both levels.
        assert not (l1_lines & l2_lines), f"cpu{cpu} holds lines in L1 and L2"
        for line in l1_lines | l2_lines:
            resident.setdefault(line, set()).add(cpu)
        for cache in (l1, l2):
            geometry = cache.geometry
            assert cache.occupancy() <= geometry.num_lines
            for set_index in range(geometry.num_sets):
                assert set_occupancy(cache, set_index) <= geometry.ways
    assert hierarchy.l3.occupancy() <= hierarchy.l3.geometry.num_lines

    # Directory membership must equal actual private-cache residency, and
    # a Modified owner must be one of the holders (hence unique: the
    # directory stores at most one dirty owner per line by construction,
    # so the invariant to check is that it is never a non-holder).
    lines = set(resident)
    lines.update(line for line in range(NLINES + 2))
    for line in lines:
        holders = directory.holders_of(line)
        assert holders == resident.get(line, set()), (
            f"directory holders {holders} != residency "
            f"{resident.get(line, set())} for line {line}"
        )
        owner = dirty_owner_of(directory, line)
        if owner is not None:
            assert owner in holders, f"Modified owner {owner} not a holder"


accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NCORES - 1),
        st.integers(min_value=0, max_value=NLINES - 1),
        st.booleans(),  # is_write
        st.booleans(),  # straddle the next line boundary
    ),
    min_size=1,
    max_size=120,
)


@settings(deadline=None, max_examples=60)
@given(accesses)
def test_invariants_hold_on_both_engines(ops) -> None:
    """Every interleaving preserves the invariants; hierarchies agree exactly."""
    reference = ReferenceHierarchy(tiny_config())
    fast = MemoryHierarchy(tiny_config())
    for cycle, (cpu, line, is_write, straddle) in enumerate(ops):
        if straddle:
            addr, size = line * LINE_SIZE + LINE_SIZE - 8, 16
        else:
            addr, size = line * LINE_SIZE, 8
        ip = 0x1000 + cpu
        ref_result = reference.access(cpu, addr, size, is_write, ip, cycle)
        fast_result = fast.access(cpu, addr, size, is_write, ip, cycle)
        assert outcome_of(fast_result) == outcome_of(ref_result)
        check_invariants(reference)
        check_invariants(fast)
    # End states line up completely, LRU order included.
    assert fast.stats.snapshot() == reference.stats.snapshot()
    assert cache_counters(fast) == cache_counters(reference)
    assert replacement_snapshot(fast) == replacement_snapshot(reference)
    assert (
        fast.directory.invalidation_count
        == reference.directory.invalidation_count
    )


@settings(deadline=None, max_examples=30)
@given(accesses, st.integers(min_value=0, max_value=NCORES - 1))
def test_flush_resets_to_cold(ops, cpu) -> None:
    """After flush_all, both hierarchies classify the next miss as COLD again."""
    reference = ReferenceHierarchy(tiny_config())
    fast = MemoryHierarchy(tiny_config())
    for cycle, (c, line, is_write, _) in enumerate(ops):
        reference.access(c, line * LINE_SIZE, 8, is_write, 0x1000 + c, cycle)
        fast.access(c, line * LINE_SIZE, 8, is_write, 0x1000 + c, cycle)
    reference.flush_all()
    fast.flush_all()
    check_invariants(reference)
    check_invariants(fast)
    ref_result = reference.access(cpu, 0, 8, False, 0x2000, len(ops))
    fast_result = fast.access(cpu, 0, 8, False, 0x2000, len(ops))
    assert outcome_of(fast_result) == outcome_of(ref_result)
    assert ref_result.miss_kind is not None and ref_result.miss_kind.value == "cold"
