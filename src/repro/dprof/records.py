"""DProf's raw and derived data structures.

Mirrors the paper's tables: :class:`AccessSample` is Table 5.1,
:class:`HistoryElement` is Table 5.2 (plus the access kind, which x86
debug-status reports), and :class:`PathTrace` rows are Table 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.events import CacheLevel
from repro.util.stats import OnlineStats


@dataclass(slots=True)
class AccessSample:
    """One resolved IBS sample (paper Table 5.1).

    ``type_name``/``offset`` locate the access within a data type;
    ``ip``/``cpu`` locate it in code; ``level``/``latency`` are the cache
    statistics the IBS hardware reported.
    """

    type_name: str
    offset: int
    ip: int
    cpu: int
    level: CacheLevel
    latency: int
    is_write: bool
    cycle: int
    size: int = 1

    @property
    def l1_miss(self) -> bool:
        """True when the sampled access missed the local L1."""
        return self.level != CacheLevel.L1

    @property
    def remote_miss(self) -> bool:
        """True when served by another core's cache or DRAM."""
        return self.level in (CacheLevel.FOREIGN, CacheLevel.DRAM)


@dataclass(slots=True)
class HistoryElement:
    """One access recorded by a debug-register trap (paper Table 5.2)."""

    offset: int
    ip: int
    cpu: int
    time: int  # cycles since the object's allocation (RDTSC delta)
    is_write: bool


@dataclass
class ObjectAccessHistory:
    """All trapped accesses to one watched slice of one object's lifetime.

    ``offsets`` is the watched chunk(s): a single (start, length) for plain
    sampling or two of them for pairwise sampling (Section 5.3).
    """

    type_name: str
    object_base: int
    object_cookie: int
    offsets: tuple[tuple[int, int], ...]
    alloc_cpu: int
    alloc_cycle: int
    elements: list[HistoryElement] = field(default_factory=list)
    free_cycle: int | None = None
    free_cpu: int | None = None
    #: Which history set this history belongs to (Figure 6-3 counts the
    #: unique paths captured as a function of sets collected).
    set_index: int = 0
    #: True when recording stopped before the object died (the watch was
    #: revoked mid-lifetime); the elements are a prefix of the real
    #: history and downstream consumers weight them accordingly.
    truncated: bool = False

    @property
    def complete(self) -> bool:
        """True once the object was freed with recording still active."""
        return self.free_cycle is not None and not self.truncated

    @property
    def is_pair(self) -> bool:
        """True for pairwise samples (two watched chunks)."""
        return len(self.offsets) == 2

    def signature(self) -> tuple:
        """The execution path this history observed.

        The paper defines an execution path as "the sequence of program
        counter values and CPU change flags"; the signature also carries
        each element's offset chunk so that projections per offset are
        meaningful during merging.
        """
        sig = []
        prev_cpu = self.alloc_cpu
        for el in self.elements:
            sig.append((el.offset, el.ip, el.cpu != prev_cpu))
            prev_cpu = el.cpu
        return tuple(sig)

    def projection(self, chunk: tuple[int, int]) -> tuple:
        """Signature restricted to elements inside one watched chunk."""
        lo, length = chunk
        sig = []
        prev_cpu = self.alloc_cpu
        for el in self.elements:
            changed = el.cpu != prev_cpu
            prev_cpu = el.cpu
            if lo <= el.offset < lo + length:
                sig.append((el.ip, changed))
        return tuple(sig)


@dataclass
class AccessStats:
    """Aggregated IBS statistics for one (type, offset-chunk, ip) key."""

    count: int = 0
    level_counts: dict[CacheLevel, int] = field(
        default_factory=lambda: {level: 0 for level in CacheLevel}
    )
    latency: OnlineStats = field(default_factory=OnlineStats)

    def add(self, sample: AccessSample) -> None:
        """Fold one sample in."""
        self.count += 1
        self.level_counts[sample.level] += 1
        self.latency.add(sample.latency)

    def hit_probability(self, level: CacheLevel) -> float:
        """Fraction of sampled accesses served at *level*."""
        if self.count == 0:
            return 0.0
        return self.level_counts[level] / self.count

    @property
    def miss_probability(self) -> float:
        """Fraction of sampled accesses that missed the local L1."""
        if self.count == 0:
            return 0.0
        return 1.0 - self.level_counts[CacheLevel.L1] / self.count

    @property
    def remote_probability(self) -> float:
        """Fraction served from a foreign cache or DRAM."""
        if self.count == 0:
            return 0.0
        far = self.level_counts[CacheLevel.FOREIGN] + self.level_counts[CacheLevel.DRAM]
        return far / self.count


@dataclass
class PathTraceEntry:
    """One row of a path trace (paper Table 4.1)."""

    ip: int
    fn: str
    cpu_changed: bool
    offsets: tuple[int, int]  # [lo, hi) byte range accessed at this pc
    is_write: bool
    mean_time: float  # cycles since allocation, averaged
    hit_probabilities: dict[CacheLevel, float] = field(default_factory=dict)
    mean_latency: float = 0.0
    sample_count: int = 0

    @property
    def miss_probability(self) -> float:
        """Probability this access missed the local L1."""
        return 1.0 - self.hit_probabilities.get(CacheLevel.L1, 0.0)

    @property
    def remote_probability(self) -> float:
        """Probability this access was served remotely (foreign/DRAM)."""
        return self.hit_probabilities.get(
            CacheLevel.FOREIGN, 0.0
        ) + self.hit_probabilities.get(CacheLevel.DRAM, 0.0)


@dataclass
class PathTrace:
    """An aggregated execution path for one data type (paper Table 4.1)."""

    type_name: str
    entries: list[PathTraceEntry]
    frequency: int  # how many observed histories followed this path

    @property
    def bounces(self) -> bool:
        """True when the path ever changes CPUs mid-lifetime."""
        return any(e.cpu_changed for e in self.entries)

    def path_key(self) -> tuple:
        """Hashable identity of the execution path."""
        return tuple((e.ip, e.cpu_changed) for e in self.entries)


@dataclass(slots=True)
class AddressSetEntry:
    """One allocation interval: the address set of Section 4.

    The paper notes storing addresses modulo the maximum cache size
    suffices; we keep full addresses (they're cheap here) plus lifetime
    endpoints so the working-set view can integrate live bytes over time.
    """

    type_name: str
    base: int
    size: int
    alloc_cycle: int
    alloc_cpu: int
    free_cycle: int | None = None
    free_cpu: int | None = None


class AddressSet:
    """Every allocation/free observed during profiling, by type.

    ``entries`` is the recording order; a per-type index of the same
    entry objects (in the same order) serves the per-type queries, so
    each reads only its own type's entries.
    """

    def __init__(self) -> None:
        self.entries: list[AddressSetEntry] = []
        self._open: dict[tuple[int, int], AddressSetEntry] = {}
        self._by_type: dict[str, list[AddressSetEntry]] = {}

    def _append(self, entry: AddressSetEntry) -> None:
        self.entries.append(entry)
        self._by_type.setdefault(entry.type_name, []).append(entry)

    def record_alloc(
        self, type_name: str, base: int, size: int, cookie: int, cpu: int, cycle: int
    ) -> None:
        """Open a lifetime interval for a fresh allocation."""
        entry = AddressSetEntry(type_name, base, size, cycle, cpu)
        self._append(entry)
        self._open[(base, cookie)] = entry

    def record_free(self, base: int, cookie: int, cpu: int, cycle: int) -> None:
        """Close the interval for a freed object (ignores unknown frees)."""
        entry = self._open.pop((base, cookie), None)
        if entry is not None:
            entry.free_cycle = cycle
            entry.free_cpu = cpu

    def record_interval(
        self,
        type_name: str,
        base: int,
        size: int,
        cpu: int,
        cycle: int,
        free_cpu: int | None,
        free_cycle: int | None,
    ) -> None:
        """Append one already-known lifetime interval (an archived entry).

        The interval is complete as given: it is never opened for a later
        :meth:`record_free`.  A ``free_cycle`` of ``None`` is an object
        still live at the end of recording.
        """
        entry = AddressSetEntry(type_name, base, size, cycle, cpu)
        if free_cycle is not None:
            entry.free_cycle = free_cycle
            entry.free_cpu = free_cpu
        self._append(entry)

    @classmethod
    def from_intervals(cls, entries: list[AddressSetEntry]) -> AddressSet:
        """An address set of complete intervals, in recording order.

        Takes ownership of *entries*; like :meth:`record_interval`, none
        of them is open for a later :meth:`record_free`.
        """
        aset = cls()
        aset.entries = entries
        by_type = aset._by_type
        for entry in entries:
            group = by_type.get(entry.type_name)
            if group is None:
                by_type[entry.type_name] = [entry]
            else:
                group.append(entry)
        return aset

    def by_type(self) -> dict[str, list[AddressSetEntry]]:
        """Entries grouped by type name."""
        return {name: list(group) for name, group in self._by_type.items()}

    def live_means(self, type_name: str, start: int, end: int) -> tuple[float, float]:
        """Average (bytes, objects) of *type_name* live over [start, end).

        The bytes are the "working set size" column of Tables 6.1/6.4/6.5:
        integrate each object's live interval against the window.  One
        pass serves both integrals; each clip is written out so that it
        picks the same operand ``max``/``min`` would, and each total
        sums the same products in the same order, float for float.
        """
        if end <= start:
            return 0.0, 0.0
        byte_cycles = 0.0
        object_cycles = 0.0
        for entry in self._by_type.get(type_name, ()):
            lo = entry.alloc_cycle
            if start > lo:
                lo = start
            hi = entry.free_cycle
            if hi is None or end < hi:
                hi = end
            if hi > lo:
                byte_cycles += (hi - lo) * entry.size
                object_cycles += hi - lo
        return byte_cycles / (end - start), object_cycles / (end - start)

    def mean_live_bytes(self, type_name: str, start: int, end: int) -> float:
        """Average bytes of *type_name* live over [start, end)."""
        return self.live_means(type_name, start, end)[0]

    def mean_live_objects(self, type_name: str, start: int, end: int) -> float:
        """Average count of live objects of *type_name* over the window."""
        return self.live_means(type_name, start, end)[1]

    def type_names(self) -> list[str]:
        """Every type with at least one recorded allocation."""
        return sorted(self._by_type)
