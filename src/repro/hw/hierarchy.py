"""Multi-level memory hierarchy with MESI coherence.

Models an AMD-style *exclusive* private hierarchy, matching the paper's
16-core AMD testbed: each core owns an L1 and an L2 (a line lives in one or
the other, and promotion/demotion moves it between them), backed by a
shared L3 that acts as a victim cache for private evictions, backed by
DRAM.  A :class:`~repro.hw.coherence.Directory` arbitrates ownership: a
write invalidates every other core's copy, and a read that hits a line
dirty in another core's private cache is served by a cache-to-cache
("foreign") transfer -- the ~200-cycle case DProf's data flow view exists
to expose.

Every access returns an :class:`~repro.hw.events.AccessResult` carrying the
level served, the latency charged, and -- for local misses -- the
ground-truth cause (cold / invalidation / eviction) that real hardware
cannot report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.hw.cache import CacheArray, CacheGeometry
from repro.hw.coherence import Directory
from repro.hw.events import AccessResult, CacheLevel, MissKind


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

    def for_level(self, level: CacheLevel) -> int:
        """Base latency for a given serve level (dirty-foreign for FOREIGN)."""
        return {
            CacheLevel.L1: self.l1,
            CacheLevel.L2: self.l2,
            CacheLevel.L3: self.l3,
            CacheLevel.FOREIGN: self.foreign,
            CacheLevel.DRAM: self.dram,
        }[level]


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latency configuration for the whole hierarchy.

    Cache sizes default to a scaled-down hierarchy (see DESIGN.md): the
    simulated workloads push thousands rather than millions of objects, so
    proportionally smaller caches reproduce the same capacity and conflict
    phenomena the paper observed at production traffic volumes.
    """

    ncores: int = 16
    line_size: int = 64
    l1_size: int = 16 * 1024
    l1_ways: int = 8
    l2_size: int = 64 * 1024
    l2_ways: int = 8
    l3_size: int = 512 * 1024
    l3_ways: int = 16
    latencies: Latencies = field(default_factory=Latencies)

    def __post_init__(self) -> None:
        if self.ncores <= 0:
            raise ConfigError("ncores must be positive")

    def l1_geometry(self) -> CacheGeometry:
        """Geometry of each private L1."""
        return CacheGeometry(self.l1_size, self.l1_ways, self.line_size)

    def l2_geometry(self) -> CacheGeometry:
        """Geometry of each private L2."""
        return CacheGeometry(self.l2_size, self.l2_ways, self.line_size)

    def l3_geometry(self) -> CacheGeometry:
        """Geometry of the shared L3."""
        return CacheGeometry(self.l3_size, self.l3_ways, self.line_size)


class HierarchyStats:
    """Aggregate hit/miss counters across the hierarchy.

    Beyond the level/miss-kind tallies the differential harness diffs,
    the stats also accumulate per-level latency sums and a per-line
    accessor bitmask -- the raw inputs :mod:`repro.metrics` derives MPKI,
    average miss latency, and the sharing ratio from.  The machine's
    :class:`~repro.hw.fastpath.FastHierarchy` and this reference oracle
    share the accounting because the former inherits
    :meth:`MemoryHierarchy.access`, so derived metrics agree by
    construction.
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

    def record(
        self,
        result: AccessResult,
        cpu: int | None = None,
        first_line: int | None = None,
        last_line: int | None = None,
    ) -> None:
        """Fold one access outcome into the counters."""
        self.accesses += 1
        self.level_counts[result.level] += 1
        self.latency_by_level[result.level] += result.latency
        if result.miss_kind is not None:
            self.miss_kind_counts[result.miss_kind] += 1
        if cpu is not None and first_line is not None:
            bit = 1 << cpu
            users = self._line_users
            for line in range(first_line, (last_line or first_line) + 1):
                users[line] = users.get(line, 0) | bit

    @property
    def l1_miss_rate(self) -> float:
        """Fraction of accesses not served by the issuing core's L1."""
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.level_counts[CacheLevel.L1] / self.accesses

    def snapshot(self) -> dict:
        """Plain-dict view of every counter, for comparison and JSON.

        The differential harness (tests/test_fastpath_equivalence.py)
        diffs the fast and reference hierarchies' snapshots; any
        key-for-key mismatch is an equivalence failure.
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
    """Per-core L1/L2 (exclusive), shared victim L3, MESI directory.

    Built from the readable reference structures.  The machine runs
    :class:`~repro.hw.fastpath.FastHierarchy`, which subclasses this and
    keeps :meth:`access`; this class is the oracle the differential tests
    compare it against.
    """

    def __init__(self, config: HierarchyConfig) -> None:
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
        self.latencies = config.latencies
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------
    # Main access path
    # ------------------------------------------------------------------

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
        stalls on its slowest half.
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
        self.stats.record(result, cpu=cpu, first_line=first, last_line=last)
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

    # ------------------------------------------------------------------
    # Introspection helpers (tests, working-set validation)
    # ------------------------------------------------------------------

    def cache_counters(self) -> dict[str, tuple[int, int, int]]:
        """Per-cache (hits, misses, evictions), keyed by cache name."""
        counters: dict[str, tuple[int, int, int]] = {}
        for cache in [*self.l1, *self.l2, self.l3]:
            counters[cache.name] = (cache.hits, cache.misses, cache.evictions)
        return counters

    def replacement_snapshot(self) -> dict[str, tuple]:
        """Full LRU state of every cache array, keyed by cache name.

        Two hierarchies that agree on this after a run agree on every future
        eviction decision -- the strongest equivalence short of diffing
        each access.
        """
        return {
            cache.name: cache.lru_snapshot()
            for cache in [*self.l1, *self.l2, self.l3]
        }

    def core_holds(self, cpu: int, addr: int) -> bool:
        """True when the line containing *addr* sits in cpu's L1 or L2."""
        line = addr // self.line_size
        return self.l1[cpu].contains(line) or self.l2[cpu].contains(line)

    def private_occupancy(self, cpu: int) -> int:
        """Lines resident across the core's private L1+L2."""
        return self.l1[cpu].occupancy() + self.l2[cpu].occupancy()

    def flush_all(self) -> None:
        """Empty every cache and forget coherence state (run boundary)."""
        for cache in self.l1:
            cache.clear()
        for cache in self.l2:
            cache.clear()
        self.l3.clear()
        self.directory = Directory(self.config.ncores)
