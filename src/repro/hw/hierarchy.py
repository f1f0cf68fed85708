"""Multi-level memory hierarchy with MESI coherence.

Models an AMD-style *exclusive* private hierarchy, matching the paper's
16-core AMD testbed: each core owns an L1 and an L2 (a line lives in one or
the other, and promotion/demotion moves it between them), backed by a
shared L3 that acts as a victim cache for private evictions, backed by
DRAM.  A MESI directory arbitrates ownership: a write invalidates every
other core's copy, and a read that hits a line dirty in another core's
private cache is served by a cache-to-cache ("foreign") transfer -- the
~200-cycle case DProf's data flow view exists to expose.

Every access returns an :class:`~repro.hw.events.AccessResult` carrying the
level served, the latency charged, and -- for local misses -- the
ground-truth cause (cold / invalidation / eviction) that real hardware
cannot report.

:class:`MemoryHierarchy` is the hierarchy every
:class:`~repro.hw.machine.Machine` builds, on
:class:`~repro.hw.cache.CacheArray` and
:class:`~repro.hw.coherence.Directory`.  Its :meth:`~MemoryHierarchy.access`
is fused: a single-line L1 hit is probed, counted and (for a write with no
other holder) marked dirty inline, without a per-line call, and returns
one of two shared, preallocated results.

The test suite keeps an independent, readable oracle of the same
hierarchy (``tests/hierarchy_oracle.py``) that shares no code with this
module's access path; the differential tests
(``tests/test_fastpath_equivalence.py``,
``tests/test_coherence_property.py``) check the two agree access by
access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.cache import CacheArray
from repro.hw.coherence import Directory
from repro.hw.events import AccessResult, CacheLevel, MissKind

if TYPE_CHECKING:
    from repro.hw.machine import MachineConfig

_L1 = CacheLevel.L1
_L2 = CacheLevel.L2
_L3 = CacheLevel.L3
_FOREIGN = CacheLevel.FOREIGN
_DRAM = CacheLevel.DRAM
_COLD = MissKind.COLD
_INVALIDATION = MissKind.INVALIDATION
_EVICTION = MissKind.EVICTION


@dataclass(frozen=True)
class Latencies:
    """Cycle cost of serving an access from each place.

    Defaults are scaled to the magnitudes the paper reports: ~3 ns local L1
    and ~200 ns foreign-cache loads (Table 4.1), treating one cycle as one
    nanosecond.  ``upgrade`` is the extra cost of a write hitting a line
    that other cores share (the invalidation round-trip).
    """

    l1: int = 3
    l2: int = 14
    l3: int = 40
    foreign: int = 200
    foreign_clean: int = 120
    dram: int = 250
    upgrade: int = 60


#: The latency table every hierarchy charges (the one place it is set).
LATENCIES = Latencies()


class HierarchyStats:
    """Aggregate hit/miss counters across the hierarchy.

    Beyond the level/miss-kind tallies the differential harness diffs,
    the stats also accumulate per-level latency sums and a per-line
    accessor bitmask -- the raw inputs :mod:`repro.metrics` derives MPKI,
    average miss latency, and the sharing ratio from.
    :class:`MemoryHierarchy` updates the counters inline on its fused
    path; the test suite's oracle hierarchy (``tests/hierarchy_oracle.py``)
    folds each access into its own instance, and the differential tests
    compare the two key for key.
    """

    def __init__(self) -> None:
        self.accesses = 0
        self.level_counts: dict[CacheLevel, int] = {level: 0 for level in CacheLevel}
        self.miss_kind_counts: dict[MissKind, int] = {kind: 0 for kind in MissKind}
        #: Cycles spent serving accesses, bucketed by the level that
        #: served them (a split access charges its summed latency to the
        #: worst level encountered, mirroring how the stall is reported).
        self.latency_by_level: dict[CacheLevel, int] = {
            level: 0 for level in CacheLevel
        }
        #: line index -> bitmask of cpus that ever touched the line.
        self._line_users: dict[int, int] = {}

    @property
    def l1_miss_rate(self) -> float:
        """Fraction of accesses not served by the issuing core's L1."""
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.level_counts[CacheLevel.L1] / self.accesses

    def snapshot(self) -> dict:
        """Plain-dict view of every counter, for comparison and JSON.

        The differential harness (tests/test_fastpath_equivalence.py)
        diffs the two hierarchies' snapshots; any key-for-key mismatch is
        an equivalence failure.
        """
        return {
            "accesses": self.accesses,
            "levels": {level.name: n for level, n in self.level_counts.items()},
            "miss_kinds": {
                kind.value: n for kind, n in self.miss_kind_counts.items()
            },
        }

    def metrics_counters(self) -> dict:
        """Raw counters for :mod:`repro.metrics`, superset of snapshot().

        Kept separate from :meth:`snapshot` so the differential
        harness's key-for-key comparison stays untouched.
        """
        lines_total = len(self._line_users)
        lines_shared = sum(
            1 for mask in self._line_users.values() if mask & (mask - 1)
        )
        counters = self.snapshot()
        counters["latency_by_level"] = {
            level.name: n for level, n in self.latency_by_level.items()
        }
        counters["lines_total"] = lines_total
        counters["lines_shared"] = lines_shared
        return counters


class MemoryHierarchy:
    """Per-core L1/L2 (exclusive), shared victim L3, MESI directory, with
    a fused per-access path.

    A single-line access probes its L1 inline, the stats are updated
    inline, and a write hit on a line no other core holds only marks the
    line dirty (no losers list, no ``record_write``).  Misses, split-line
    accesses and invalidating writes take the per-line helpers below.

    A single-line L1 hit returns one of two results preallocated per
    hierarchy, ``(L1, l1)`` or ``(L1, l1 + upgrade)``, instead of a new
    :class:`~repro.hw.events.AccessResult`.  Callers must read a result's
    fields before the next access and never mutate it; every consumer in
    the machine (IBS, PEBS, the watch manager, access and instruction
    observers) copies the fields it keeps.  Misses and split-line
    accesses still build a fresh result each time, because the split path
    folds the later lines into the first line's result.

    The hit path also skips the per-line accessor-mask update in
    :class:`HierarchyStats`.  That update cannot change anything there: a
    line enters cpu's L1 only through cpu's own access (a miss fill or an
    L2 promotion; evictions only move lines down to L2 and L3), and that
    access already set cpu's bit, which nothing ever clears.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.line_size = config.line_size
        self.l1 = [
            CacheArray(config.l1_geometry(), f"L1.{i}") for i in range(config.ncores)
        ]
        self.l2 = [
            CacheArray(config.l2_geometry(), f"L2.{i}") for i in range(config.ncores)
        ]
        self.l3 = CacheArray(config.l3_geometry(), "L3")
        self.directory = Directory(config.ncores)
        self.latencies = LATENCIES
        self.stats = HierarchyStats()
        self._l1_latency = LATENCIES.l1
        self._l1_hit = AccessResult(_L1, LATENCIES.l1)
        self._l1_upgrade_hit = AccessResult(_L1, LATENCIES.l1 + LATENCIES.upgrade)

    def flush_all(self) -> None:
        """Empty every cache and forget coherence state (run boundary)."""
        for cache in self.l1:
            cache.clear()
        for cache in self.l2:
            cache.clear()
        self.l3.clear()
        self.directory = Directory(self.config.ncores)

    def access(
        self,
        cpu: int,
        addr: int,
        size: int,
        is_write: bool,
        ip: int,
        cycle: int,
    ) -> AccessResult:
        """Run one access through the hierarchy and return its outcome.

        Accesses spanning multiple lines (a field straddling a line
        boundary) touch each line in turn; the reported level is the worst
        one encountered and latencies add up, mirroring how a split access
        stalls on its slowest half.  A single-line L1 hit returns a shared
        result (see the class docstring).
        """
        line_size = self.line_size
        first = addr // line_size
        last = (addr + size - 1) // line_size if size > 1 else first
        stats = self.stats
        if first == last:
            l1 = self.l1[cpu]
            bucket = l1._sets[first % l1._nsets]
            if first in bucket:
                del bucket[first]
                bucket[first] = None
                l1.hits += 1
                result = self._l1_hit
                if is_write:
                    directory = self.directory
                    if directory._holders.get(first, 0) == 1 << cpu:
                        directory._dirty[first] = cpu
                    elif self._write_upgrade(cpu, first, ip, addr, size, cycle):
                        result = self._l1_upgrade_hit
                stats.accesses += 1
                stats.level_counts[_L1] += 1
                stats.latency_by_level[_L1] += result.latency
                return result
            l1.misses += 1
            result = self._l1_miss(cpu, first, is_write, ip, addr, size, cycle)
            users = stats._line_users
            bit = 1 << cpu
            mask = users.get(first, 0)
            if not mask & bit:
                users[first] = mask | bit
        else:
            result = self._access_line(cpu, first, is_write, ip, addr, size, cycle)
            for line in range(first + 1, last + 1):
                extra = self._access_line(cpu, line, is_write, ip, addr, size, cycle)
                result.latency += extra.latency
                if extra.level > result.level:
                    result.level = extra.level
                    result.miss_kind = extra.miss_kind
                    result.invalidation = extra.invalidation
                    result.eviction = extra.eviction
            users = stats._line_users
            bit = 1 << cpu
            for line in range(first, last + 1):
                users[line] = users.get(line, 0) | bit
        level = result.level
        stats.accesses += 1
        stats.level_counts[level] += 1
        stats.latency_by_level[level] += result.latency
        if result.miss_kind is not None:
            stats.miss_kind_counts[result.miss_kind] += 1
        return result

    def _access_line(
        self,
        cpu: int,
        line: int,
        is_write: bool,
        ip: int,
        addr: int,
        size: int,
        cycle: int,
    ) -> AccessResult:
        """One line of a split access: L1 probe, then the miss path."""
        if not self.l1[cpu].lookup(line):
            return self._l1_miss(cpu, line, is_write, ip, addr, size, cycle)
        latency = self._l1_latency
        if is_write:
            latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
        return AccessResult(_L1, latency)

    def _l1_miss(
        self,
        cpu: int,
        line: int,
        is_write: bool,
        ip: int,
        addr: int,
        size: int,
        cycle: int,
    ) -> AccessResult:
        """Serve *line* after the L1 probe missed (L1 miss already counted)."""
        lat = self.latencies
        l2 = self.l2[cpu]
        if l2.lookup(line):
            # Exclusive hierarchy: promote to L1, demoting an L1 victim.
            l2.remove(line)
            self._insert_private(cpu, line, cycle)
            latency = lat.l2
            if is_write:
                latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
            return AccessResult(_L2, latency)

        # Local miss: recover the ground-truth cause before the directory
        # state is mutated by the fill below.
        directory = self.directory
        inv = directory.invalidated[cpu].pop(line, None)
        ev = directory.evicted[cpu].pop(line, None)
        if inv is not None:
            miss_kind = _INVALIDATION
            ev = None
        elif ev is not None:
            miss_kind = _EVICTION
        else:
            miss_kind = _COLD

        owner = directory._dirty.get(line)
        if owner is not None and owner != cpu:
            level = _FOREIGN
            latency = lat.foreign
            # Serving a dirty line writes it back into the shared L3.
            self.l3.insert(line)
        elif self.l3.lookup(line):
            level = _L3
            latency = lat.l3
        elif directory._holders.get(line, 0) & ~(1 << cpu):
            # Clean copy exists only in another core's private cache.
            level = _FOREIGN
            latency = lat.foreign_clean
        else:
            level = _DRAM
            latency = lat.dram

        if is_write:
            for loser in directory.record_write(cpu, line, ip, addr, size, cycle):
                self.l1[loser].remove(line)
                self.l2[loser].remove(line)
        else:
            directory.record_read(cpu, line)

        self._insert_private(cpu, line, cycle)
        return AccessResult(level, latency, miss_kind, inv, ev)

    def _write_upgrade(
        self, cpu: int, line: int, ip: int, addr: int, size: int, cycle: int
    ) -> int:
        """Invalidate other holders on a write hit; return the extra cost."""
        directory = self.directory
        if directory._holders.get(line, 0) == 1 << cpu:
            directory._dirty[line] = cpu
            return 0
        losers = directory.record_write(cpu, line, ip, addr, size, cycle)
        if not losers:
            return 0
        for loser in losers:
            self.l1[loser].remove(line)
            self.l2[loser].remove(line)
        return self.latencies.upgrade

    def _insert_private(self, cpu: int, line: int, cycle: int) -> None:
        """Insert *line* into the core's L1, cascading evictions downward."""
        victim = self.l1[cpu].insert(line)
        if victim is None:
            return
        l2 = self.l2[cpu]
        victim2 = l2.insert(victim)
        if victim2 is None:
            return
        # The line leaves the private domain entirely: record why (set
        # pressure), drop it into the shared victim L3, and release the
        # directory holder bit.
        self.directory.record_eviction(cpu, victim2, victim2 % l2._nsets, cycle)
        self.l3.insert(victim2)
