"""The reference hierarchy oracle, and a switch that builds machines on it.

Every :class:`~repro.hw.machine.Machine` builds a
:class:`~repro.hw.hierarchy.MemoryHierarchy`, whose access path is fused
for speed.  This module keeps an independent, readable implementation of
the same hierarchy -- :class:`ReferenceHierarchy` on
:class:`ReferenceCacheArray` (``OrderedDict`` LRU queues) and
:class:`ReferenceDirectory` (a Python set of holders per line) -- with
its own construction and its own per-line access path.  It shares no
access code with the machine's hierarchy, so the differential tests
check the split-line, write-upgrade and statistics logic of one against
the other.

:func:`use_hierarchy` substitutes the reference for the machines built
inside its block; :func:`outcome_of`, :func:`cache_counters` and
:func:`replacement_snapshot` make two hierarchies' results and state
comparable.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.hw.machine as machine_module
from repro.hw.cache import CacheGeometry
from repro.hw.events import (
    AccessResult,
    CacheLevel,
    EvictionRecord,
    InvalidationRecord,
    MissKind,
)
from repro.hw.hierarchy import HierarchyConfig, HierarchyStats

#: The two hierarchies: the reference oracle and the one machines run.
HIERARCHIES = ("reference", "fast")


class ReferenceCacheArray:
    """One level of cache for one core (or a shared level).

    Lines are identified by their global line index.  Each set is an
    ordered dict used as an LRU queue: most recently used at the end.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(geometry.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, line: int) -> bool:
        """Probe for *line*; refresh its LRU position on a hit."""
        bucket = self._sets[self.geometry.set_of(line)]
        if line in bucket:
            bucket.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Probe without disturbing LRU order or counters."""
        return line in self._sets[self.geometry.set_of(line)]

    def insert(self, line: int) -> int | None:
        """Insert *line*, returning the evicted victim line if the set was full."""
        bucket = self._sets[self.geometry.set_of(line)]
        if line in bucket:
            bucket.move_to_end(line)
            return None
        victim = None
        if len(bucket) >= self.geometry.ways:
            victim, _ = bucket.popitem(last=False)
            self.evictions += 1
        bucket[line] = None
        return victim

    def remove(self, line: int) -> bool:
        """Drop *line* if present (invalidation); returns whether it was there."""
        bucket = self._sets[self.geometry.set_of(line)]
        if line in bucket:
            del bucket[line]
            return True
        return False

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(bucket) for bucket in self._sets)

    def set_occupancy(self, set_index: int) -> int:
        """Number of lines resident in one associativity set."""
        return len(self._sets[set_index])

    def lines(self):
        """Iterate over every resident line index."""
        for bucket in self._sets:
            yield from bucket.keys()

    def lru_snapshot(self) -> tuple[tuple[int, ...], ...]:
        """Per-set lines in replacement order (next victim first)."""
        return tuple(tuple(bucket.keys()) for bucket in self._sets)

    def clear(self) -> None:
        """Empty the cache."""
        for bucket in self._sets:
            bucket.clear()


@dataclass(slots=True)
class ReferenceDirectoryEntry:
    """Coherence state for one line: its holders and dirty owner."""

    holders: set[int] = field(default_factory=set)
    dirty_owner: int | None = None


class ReferenceDirectory:
    """Tracks line ownership across cores plus ground-truth loss records."""

    def __init__(self, ncores: int) -> None:
        self.ncores = ncores
        self._entries: dict[int, ReferenceDirectoryEntry] = {}
        # Per-core maps: line -> why this core last lost the line.
        self.invalidated: list[dict[int, InvalidationRecord]] = [
            {} for _ in range(ncores)
        ]
        self.evicted: list[dict[int, EvictionRecord]] = [{} for _ in range(ncores)]
        self.invalidation_count = 0

    def entry(self, line: int) -> ReferenceDirectoryEntry:
        """Fetch (creating if needed) the entry for *line*."""
        ent = self._entries.get(line)
        if ent is None:
            ent = ReferenceDirectoryEntry()
            self._entries[line] = ent
        return ent

    def peek(self, line: int) -> ReferenceDirectoryEntry | None:
        """Fetch the entry for *line* without creating one."""
        return self._entries.get(line)

    def holders_of(self, line: int) -> set[int]:
        """Cores currently holding *line* in a private cache."""
        ent = self._entries.get(line)
        return ent.holders if ent else set()

    def record_read(self, cpu: int, line: int) -> None:
        """Note that *cpu* now holds *line* (shared)."""
        ent = self.entry(line)
        ent.holders.add(cpu)
        if ent.dirty_owner is not None and ent.dirty_owner != cpu:
            # Serving a dirty line to a reader demotes the owner to shared;
            # the write-back to L3 is handled by the hierarchy.
            ent.dirty_owner = None

    def record_write(
        self,
        cpu: int,
        line: int,
        ip: int,
        addr: int,
        size: int,
        cycle: int,
    ) -> list[int]:
        """Note that *cpu* wrote *line*; invalidate and return other holders."""
        ent = self.entry(line)
        losers = [c for c in ent.holders if c != cpu]
        for loser in losers:
            self.invalidated[loser][line] = InvalidationRecord(
                writer_cpu=cpu,
                writer_ip=ip,
                writer_addr=addr,
                writer_size=size,
                cycle=cycle,
            )
            self.invalidation_count += 1
        ent.holders = {cpu}
        ent.dirty_owner = cpu
        return losers

    def record_eviction(self, cpu: int, line: int, set_index: int, cycle: int) -> None:
        """Note that *cpu* lost *line* to set pressure in its private cache."""
        ent = self._entries.get(line)
        if ent is not None:
            ent.holders.discard(cpu)
            if ent.dirty_owner == cpu:
                ent.dirty_owner = None
        self.evicted[cpu][line] = EvictionRecord(set_index=set_index, cycle=cycle)

    def take_loss_record(
        self, cpu: int, line: int
    ) -> tuple[InvalidationRecord | None, EvictionRecord | None]:
        """Pop and return why *cpu* last lost *line*, if known.

        Invalidation wins over eviction when both are recorded (a line can
        be invalidated and the stale eviction record left behind); exactly
        one of the two return slots is non-None when the cause is known.
        """
        inv = self.invalidated[cpu].pop(line, None)
        ev = self.evicted[cpu].pop(line, None)
        if inv is not None:
            return inv, None
        if ev is not None:
            return None, ev
        return None, None

    def dirty_elsewhere(self, cpu: int, line: int) -> int | None:
        """Return the core holding *line* dirty, if it is not *cpu*."""
        ent = self._entries.get(line)
        if ent is None:
            return None
        if ent.dirty_owner is not None and ent.dirty_owner != cpu:
            return ent.dirty_owner
        return None


def record(
    stats: HierarchyStats, result: AccessResult, cpu: int, first: int, last: int
) -> None:
    """Fold one access outcome into *stats*, the way the oracle counts it."""
    stats.accesses += 1
    stats.level_counts[result.level] += 1
    stats.latency_by_level[result.level] += result.latency
    if result.miss_kind is not None:
        stats.miss_kind_counts[result.miss_kind] += 1
    bit = 1 << cpu
    users = stats._line_users
    for line in range(first, last + 1):
        users[line] = users.get(line, 0) | bit


class ReferenceHierarchy:
    """The readable oracle: the machine's hierarchy, one line at a time.

    Per-core L1/L2 (exclusive), shared victim L3, MESI directory, built
    from :class:`ReferenceCacheArray` and :class:`ReferenceDirectory`,
    with every access going through :meth:`_access_line` per line and
    :func:`record` per access.
    """

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.line_size = config.line_size
        self.l1 = [
            ReferenceCacheArray(config.l1_geometry(), f"L1.{i}")
            for i in range(config.ncores)
        ]
        self.l2 = [
            ReferenceCacheArray(config.l2_geometry(), f"L2.{i}")
            for i in range(config.ncores)
        ]
        self.l3 = ReferenceCacheArray(config.l3_geometry(), "L3")
        self.directory = ReferenceDirectory(config.ncores)
        self.latencies = config.latencies
        self.stats = HierarchyStats()

    def flush_all(self) -> None:
        """Empty every cache and forget coherence state (run boundary)."""
        for cache in [*self.l1, *self.l2, self.l3]:
            cache.clear()
        self.directory = ReferenceDirectory(self.config.ncores)

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

        Accesses spanning multiple lines touch each line in turn; the
        reported level is the worst one encountered and latencies add up.
        """
        first = addr // self.line_size
        last = (addr + max(size, 1) - 1) // self.line_size
        result = self._access_line(cpu, first, is_write, ip, addr, size, cycle)
        for line in range(first + 1, last + 1):
            extra = self._access_line(cpu, line, is_write, ip, addr, size, cycle)
            result.latency += extra.latency
            if extra.level > result.level:
                result.level = extra.level
                result.miss_kind = extra.miss_kind
                result.invalidation = extra.invalidation
                result.eviction = extra.eviction
        record(self.stats, result, cpu, first, last)
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
        lat = self.latencies
        l1 = self.l1[cpu]
        l2 = self.l2[cpu]

        if l1.lookup(line):
            latency = lat.l1
            if is_write:
                latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
            return AccessResult(level=CacheLevel.L1, latency=latency)

        if l2.lookup(line):
            # Exclusive hierarchy: promote to L1, demoting an L1 victim.
            l2.remove(line)
            self._insert_private(cpu, line, cycle)
            latency = lat.l2
            if is_write:
                latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
            return AccessResult(level=CacheLevel.L2, latency=latency)

        # Local miss: recover the ground-truth cause before the directory
        # state is mutated by the fill below.
        inv, ev = self.directory.take_loss_record(cpu, line)
        if inv is not None:
            miss_kind = MissKind.INVALIDATION
        elif ev is not None:
            miss_kind = MissKind.EVICTION
        else:
            miss_kind = MissKind.COLD

        dirty_owner = self.directory.dirty_elsewhere(cpu, line)
        if dirty_owner is not None:
            level = CacheLevel.FOREIGN
            latency = lat.foreign
            # Serving a dirty line writes it back into the shared L3.
            self.l3.insert(line)
        elif self.l3.lookup(line):
            level = CacheLevel.L3
            latency = lat.l3
        elif self.directory.holders_of(line) - {cpu}:
            # Clean copy exists only in another core's private cache.
            level = CacheLevel.FOREIGN
            latency = lat.foreign_clean
        else:
            level = CacheLevel.DRAM
            latency = lat.dram

        if is_write:
            losers = self.directory.record_write(cpu, line, ip, addr, size, cycle)
            for loser in losers:
                self.l1[loser].remove(line)
                self.l2[loser].remove(line)
        else:
            self.directory.record_read(cpu, line)

        self._insert_private(cpu, line, cycle)
        return AccessResult(
            level=level,
            latency=latency,
            miss_kind=miss_kind,
            invalidation=inv,
            eviction=ev,
        )

    def _write_upgrade(
        self, cpu: int, line: int, ip: int, addr: int, size: int, cycle: int
    ) -> int:
        """Invalidate other holders on a write hit; return the extra cost."""
        other = self.directory.holders_of(line) - {cpu}
        losers = self.directory.record_write(cpu, line, ip, addr, size, cycle)
        for loser in losers:
            self.l1[loser].remove(line)
            self.l2[loser].remove(line)
        return self.latencies.upgrade if other else 0

    def _insert_private(self, cpu: int, line: int, cycle: int) -> None:
        """Insert *line* into the core's L1, cascading evictions downward."""
        victim = self.l1[cpu].insert(line)
        if victim is None or victim == line:
            return
        victim2 = self.l2[cpu].insert(victim)
        if victim2 is None:
            return
        # The line leaves the private domain entirely: record why (set
        # pressure), drop it into the shared victim L3, and release the
        # directory holder bit.
        set_index = self.l2[cpu].geometry.set_of(victim2)
        self.directory.record_eviction(cpu, victim2, set_index, cycle)
        self.l3.insert(victim2)


def _caches(hierarchy) -> list:
    return [*hierarchy.l1, *hierarchy.l2, hierarchy.l3]


def cache_counters(hierarchy) -> dict[str, tuple[int, int, int]]:
    """Per-cache (hits, misses, evictions), keyed by cache name."""
    return {
        cache.name: (cache.hits, cache.misses, cache.evictions)
        for cache in _caches(hierarchy)
    }


def replacement_snapshot(hierarchy) -> dict[str, tuple]:
    """Full LRU state of every cache array, keyed by cache name.

    Two hierarchies that agree on this after a run agree on every future
    eviction decision -- the strongest equivalence short of diffing each
    access.
    """
    return {cache.name: cache.lru_snapshot() for cache in _caches(hierarchy)}


@contextmanager
def use_hierarchy(kind: str):
    """Build machines inside the block with the *kind* hierarchy."""
    if kind not in HIERARCHIES:
        raise ValueError(f"unknown hierarchy {kind!r}")
    if kind == "fast":
        yield
        return
    original = machine_module.MemoryHierarchy
    machine_module.MemoryHierarchy = ReferenceHierarchy
    try:
        yield
    finally:
        machine_module.MemoryHierarchy = original


def outcome_of(result) -> tuple:
    """An access outcome (level, latency, miss kind, loss record) as a
    plain, comparable tuple."""
    return (
        result.level,
        result.latency,
        result.miss_kind,
        tuple(result.invalidation) if result.invalidation else None,
        tuple(result.eviction) if result.eviction else None,
    )
