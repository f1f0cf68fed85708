"""MESI-style coherence directory.

The directory tracks, per cache line, which cores hold a copy in their
private caches and whether one of them owns it dirty.  It also keeps the
per-core bookkeeping DProf cannot see but the simulator can: why each core
lost each line (a remote write invalidated it, or set pressure evicted it).
That ground truth drives both the FOREIGN/latency modelling and the test
suite's validation of DProf's miss classification.

:class:`Directory` keeps holder sets as integer bitmasks.  The test
suite checks it against an independent directory with a Python set of
holders per line (``tests/hierarchy_oracle.py``).
"""

from __future__ import annotations

from repro.hw.events import EvictionRecord, InvalidationRecord


class Directory:
    """Bitmask-backed MESI directory plus ground-truth loss records.

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
