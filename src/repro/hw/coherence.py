"""MESI-style coherence directory.

The directory tracks, per cache line, which cores hold a copy in their
private caches and whether one of them owns it dirty.  It also keeps the
per-core bookkeeping DProf cannot see but the simulator can: why each core
lost each line (a remote write invalidated it, or set pressure evicted it).
That ground truth drives both the FOREIGN/latency modelling and the test
suite's validation of DProf's miss classification.

:class:`FastDirectory` is the directory the machine's
:class:`~repro.hw.hierarchy.MemoryHierarchy` builds: it keeps holder sets
as integer bitmasks.  :class:`Directory`, with a :class:`DirectoryEntry`
of Python sets per line, is the readable oracle the
:class:`~repro.hw.hierarchy.ReferenceHierarchy` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.events import EvictionRecord, InvalidationRecord


@dataclass(slots=True)
class DirectoryEntry:
    """Coherence state for one line: its holders and dirty owner."""

    holders: set[int] = field(default_factory=set)
    dirty_owner: int | None = None


class Directory:
    """Tracks line ownership across cores plus ground-truth loss records."""

    def __init__(self, ncores: int) -> None:
        self.ncores = ncores
        self._entries: dict[int, DirectoryEntry] = {}
        # Per-core maps: line -> why this core last lost the line.
        self.invalidated: list[dict[int, InvalidationRecord]] = [
            {} for _ in range(ncores)
        ]
        self.evicted: list[dict[int, EvictionRecord]] = [{} for _ in range(ncores)]
        self.invalidation_count = 0

    def entry(self, line: int) -> DirectoryEntry:
        """Fetch (creating if needed) the entry for *line*."""
        ent = self._entries.get(line)
        if ent is None:
            ent = DirectoryEntry()
            self._entries[line] = ent
        return ent

    def peek(self, line: int) -> DirectoryEntry | None:
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


class FastDirectory:
    """Bitmask-backed MESI directory, API-compatible with
    :class:`Directory` for everything the hierarchy, profilers, and tests
    consume (``holders_of``, ``record_*``, ``take_loss_record``,
    ``dirty_elsewhere``, loss-record maps, and ``invalidation_count``).

    ``_holders`` maps a line to the bitmask of cores holding it and
    ``_dirty`` a line to its Modified owner; the machine's hierarchy reads
    and writes both inline on its hot path.
    """

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
        if losers_mask:
            # One immutable record serves every loser of this write.
            record = InvalidationRecord(cpu, ip, addr, size, cycle)
            invalidated = self.invalidated
            mask = losers_mask
            while mask:
                low = mask & -mask
                loser = low.bit_length() - 1
                mask ^= low
                losers.append(loser)
                invalidated[loser][line] = record
            self.invalidation_count += len(losers)
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
        self.evicted[cpu][line] = EvictionRecord(set_index, cycle)

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
