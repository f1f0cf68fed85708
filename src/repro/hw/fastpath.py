"""The simulator's memory hierarchy: array-backed caches and a bitmask
directory.

Every evaluation number in the reproduction derives from pushing memory
accesses through the MESI hierarchy.  :class:`FastHierarchy` is the
hierarchy every :class:`~repro.hw.machine.Machine` builds; it keeps the
access path of :class:`~repro.hw.hierarchy.MemoryHierarchy` (which it
subclasses) and swaps in cheaper structures:

- :class:`FastCacheArray` replaces the per-access ``OrderedDict`` LRU
  churn of :class:`~repro.hw.cache.CacheArray` with array-backed recency
  counters (parallel tag/stamp arrays per set; the victim is the minimum
  stamp);
- :class:`FastDirectory` keeps the holder sets of
  :class:`~repro.hw.coherence.Directory` as integer bitmasks.

The readable structures in :mod:`repro.hw.cache`, :mod:`repro.hw.coherence`
and :mod:`repro.hw.hierarchy` stay as the test oracle.  Equivalence
contract: for any access sequence, the fast structures make exactly the
replacement, coherence, and classification decisions the reference
structures make.  ``tests/test_fastpath_equivalence.py`` and
``tests/test_coherence_property.py`` enforce this.
"""

from __future__ import annotations

from repro.hw.cache import CacheGeometry
from repro.hw.events import (
    AccessResult,
    CacheLevel,
    EvictionRecord,
    InvalidationRecord,
    MissKind,
)
from repro.hw.hierarchy import HierarchyConfig, MemoryHierarchy


class FastCacheArray:
    """API-compatible :class:`~repro.hw.cache.CacheArray` replacement.

    Each set is a pair of parallel arrays -- resident tags and their
    recency stamps -- instead of an ``OrderedDict``.  A hit overwrites
    one stamp (no reordering); the victim on insert is the tag with the
    minimum stamp.  Stamps come from one per-cache monotonic clock, so
    victim choice is always unique and exactly matches the reference
    array's least-recently-used order.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._nsets = geometry.num_sets
        self._tags: list[list[int]] = [[] for _ in range(self._nsets)]
        self._stamps: list[list[int]] = [[] for _ in range(self._nsets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, line: int) -> bool:
        """Probe for *line*; refresh its recency stamp on a hit."""
        s = line % self._nsets
        tags = self._tags[s]
        try:
            i = tags.index(line)
        except ValueError:
            self.misses += 1
            return False
        self._clock += 1
        self._stamps[s][i] = self._clock
        self.hits += 1
        return True

    def contains(self, line: int) -> bool:
        """Probe without disturbing recency or counters."""
        return line in self._tags[line % self._nsets]

    def insert(self, line: int) -> int | None:
        """Insert *line*, returning the evicted victim line if the set was full."""
        s = line % self._nsets
        tags = self._tags[s]
        stamps = self._stamps[s]
        self._clock += 1
        try:
            i = tags.index(line)
        except ValueError:
            i = -1
        if i >= 0:
            stamps[i] = self._clock
            return None
        victim = None
        if len(tags) >= self.geometry.ways:
            i = stamps.index(min(stamps))
            victim = tags.pop(i)
            stamps.pop(i)
            self.evictions += 1
        tags.append(line)
        stamps.append(self._clock)
        return victim

    def remove(self, line: int) -> bool:
        """Drop *line* if present (invalidation); returns whether it was there."""
        s = line % self._nsets
        tags = self._tags[s]
        try:
            i = tags.index(line)
        except ValueError:
            return False
        tags.pop(i)
        self._stamps[s].pop(i)
        return True

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(tags) for tags in self._tags)

    def set_occupancy(self, set_index: int) -> int:
        """Number of lines resident in one associativity set."""
        return len(self._tags[set_index])

    def lines(self):
        """Iterate over resident lines, oldest-first per set (reference order)."""
        for s, tags in enumerate(self._tags):
            stamps = self._stamps[s]
            for _, line in sorted(zip(stamps, tags)):
                yield line

    def lru_snapshot(self) -> tuple[tuple[int, ...], ...]:
        """Per-set lines in replacement order (next victim first)."""
        return tuple(
            tuple(line for _, line in sorted(zip(self._stamps[s], tags)))
            for s, tags in enumerate(self._tags)
        )

    def clear(self) -> None:
        """Empty the cache (used between profiling runs)."""
        for s in range(self._nsets):
            self._tags[s].clear()
            self._stamps[s].clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FastCacheArray({self.name}, {self.geometry.size}B, "
            f"{self.geometry.ways}-way, occ={self.occupancy()})"
        )


class FastDirectory:
    """Bitmask-backed MESI directory, API-compatible with
    :class:`~repro.hw.coherence.Directory` for everything the hierarchy,
    profilers, and tests consume (``holders_of``, ``record_*``,
    ``take_loss_record``, ``dirty_elsewhere``, loss-record maps, and
    ``invalidation_count``)."""

    def __init__(self, ncores: int) -> None:
        self.ncores = ncores
        self._holders: dict[int, int] = {}
        self._dirty: dict[int, int] = {}
        self.invalidated: list[dict[int, InvalidationRecord]] = [
            {} for _ in range(ncores)
        ]
        self.evicted: list[dict[int, EvictionRecord]] = [{} for _ in range(ncores)]
        self.invalidation_count = 0

    def holders_of(self, line: int) -> set[int]:
        """Cores currently holding *line* in a private cache."""
        mask = self._holders.get(line, 0)
        out = set()
        while mask:
            bit = mask & -mask
            out.add(bit.bit_length() - 1)
            mask ^= bit
        return out

    def record_read(self, cpu: int, line: int) -> None:
        """Note that *cpu* now holds *line* (shared)."""
        self._holders[line] = self._holders.get(line, 0) | (1 << cpu)
        owner = self._dirty.get(line)
        if owner is not None and owner != cpu:
            del self._dirty[line]

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
        bit = 1 << cpu
        losers_mask = self._holders.get(line, 0) & ~bit
        losers = []
        mask = losers_mask
        while mask:
            low = mask & -mask
            loser = low.bit_length() - 1
            mask ^= low
            losers.append(loser)
            self.invalidated[loser][line] = InvalidationRecord(
                writer_cpu=cpu,
                writer_ip=ip,
                writer_addr=addr,
                writer_size=size,
                cycle=cycle,
            )
            self.invalidation_count += 1
        self._holders[line] = bit
        self._dirty[line] = cpu
        return losers

    def record_eviction(self, cpu: int, line: int, set_index: int, cycle: int) -> None:
        """Note that *cpu* lost *line* to set pressure in its private cache."""
        mask = self._holders.get(line)
        if mask is not None:
            self._holders[line] = mask & ~(1 << cpu)
            if self._dirty.get(line) == cpu:
                del self._dirty[line]
        self.evicted[cpu][line] = EvictionRecord(set_index=set_index, cycle=cycle)

    def take_loss_record(
        self, cpu: int, line: int
    ) -> tuple[InvalidationRecord | None, EvictionRecord | None]:
        """Pop and return why *cpu* last lost *line* (invalidation wins)."""
        inv = self.invalidated[cpu].pop(line, None)
        ev = self.evicted[cpu].pop(line, None)
        if inv is not None:
            return inv, None
        if ev is not None:
            return None, ev
        return None, None

    def dirty_elsewhere(self, cpu: int, line: int) -> int | None:
        """Return the core holding *line* dirty, if it is not *cpu*."""
        owner = self._dirty.get(line)
        if owner is not None and owner != cpu:
            return owner
        return None


class FastHierarchy(MemoryHierarchy):
    """The machine's hierarchy: :class:`MemoryHierarchy` built from the
    fast structures.

    It inherits :meth:`MemoryHierarchy.access` unchanged and overrides
    only the per-line steps.  Behaviour is
    bit-identical to the reference hierarchy -- same levels, latencies,
    miss classifications, loss records, and counter values -- it just
    avoids the per-access ``OrderedDict`` reorders and ``set``
    allocations on the hot path.
    """

    def __init__(self, config: HierarchyConfig) -> None:
        super().__init__(config)
        self.l1 = [
            FastCacheArray(config.l1_geometry(), f"L1.{i}")
            for i in range(config.ncores)
        ]
        self.l2 = [
            FastCacheArray(config.l2_geometry(), f"L2.{i}")
            for i in range(config.ncores)
        ]
        self.l3 = FastCacheArray(config.l3_geometry(), "L3")
        self.directory = FastDirectory(config.ncores)

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
        if self.l1[cpu].lookup(line):
            latency = lat.l1
            if is_write:
                latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
            return AccessResult(level=CacheLevel.L1, latency=latency)

        l2 = self.l2[cpu]
        if l2.lookup(line):
            l2.remove(line)
            self._insert_private(cpu, line, cycle)
            latency = lat.l2
            if is_write:
                latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
            return AccessResult(level=CacheLevel.L2, latency=latency)

        directory = self.directory
        inv = directory.invalidated[cpu].pop(line, None)
        ev = directory.evicted[cpu].pop(line, None)
        if inv is not None:
            miss_kind = MissKind.INVALIDATION
            ev = None
        elif ev is not None:
            miss_kind = MissKind.EVICTION
        else:
            miss_kind = MissKind.COLD

        owner = directory._dirty.get(line)
        if owner is not None and owner != cpu:
            level = CacheLevel.FOREIGN
            latency = lat.foreign
            self.l3.insert(line)
        elif self.l3.lookup(line):
            level = CacheLevel.L3
            latency = lat.l3
        elif directory._holders.get(line, 0) & ~(1 << cpu):
            level = CacheLevel.FOREIGN
            latency = lat.foreign_clean
        else:
            level = CacheLevel.DRAM
            latency = lat.dram

        if is_write:
            losers = directory.record_write(cpu, line, ip, addr, size, cycle)
            for loser in losers:
                self.l1[loser].remove(line)
                self.l2[loser].remove(line)
        else:
            directory.record_read(cpu, line)

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
        losers = self.directory.record_write(cpu, line, ip, addr, size, cycle)
        if not losers:
            return 0
        for loser in losers:
            self.l1[loser].remove(line)
            self.l2[loser].remove(line)
        return self.latencies.upgrade

    def flush_all(self) -> None:
        """Empty every cache and forget coherence state (run boundary)."""
        for cache in self.l1:
            cache.clear()
        for cache in self.l2:
            cache.clear()
        self.l3.clear()
        self.directory = FastDirectory(self.config.ncores)
