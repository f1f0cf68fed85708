"""Set-associative cache arrays with LRU replacement.

A cache array tracks only *which lines are present*, not their contents --
the simulation never needs data values, only presence, recency, and set
pressure.  Coherence state lives in the directory
(:mod:`repro.hw.coherence`); this module is purely about capacity and
associativity, the two properties behind the paper's conflict- and
capacity-miss classes.

:class:`CacheArray` keeps each set as a plain dict in LRU order by
insertion, so a hit deletes and re-inserts one key and the victim is the
first key.  The test suite checks it against an independent
``OrderedDict`` array (``tests/hierarchy_oracle.py``) that must make the
same replacement decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheGeometry:
    """Size/ways/line-size triple describing one cache array."""

    size: int
    ways: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.size <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ConfigError("cache size, ways, and line size must be positive")
        if self.size % (self.ways * self.line_size) != 0:
            raise ConfigError(
                f"cache size {self.size} is not a multiple of "
                f"ways*line_size ({self.ways * self.line_size})"
            )

    @property
    def num_sets(self) -> int:
        """Number of associativity sets."""
        return self.size // (self.ways * self.line_size)

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size // self.line_size

    def set_of(self, line: int) -> int:
        """Associativity set that *line* maps to."""
        return line % self.num_sets


class CacheArray:
    """One level of cache for one core (or a shared level).

    Lines are identified by their global line index.  Each set is a plain
    dict whose insertion order is the LRU order, least recent first: a
    hit or a re-insert deletes the line and re-inserts it at the end, and
    the victim on a full-set insert is the first key.  The machine's
    hierarchy probes ``_sets`` and ``_nsets`` inline on its L1-hit path;
    every other caller goes through the methods.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._nsets = geometry.num_sets
        self._ways = geometry.ways
        self._sets: list[dict[int, None]] = [{} for _ in range(self._nsets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, line: int) -> bool:
        """Probe for *line*; move it to most recent on a hit."""
        bucket = self._sets[line % self._nsets]
        if line in bucket:
            del bucket[line]
            bucket[line] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Probe without disturbing recency or counters."""
        return line in self._sets[line % self._nsets]

    def insert(self, line: int) -> int | None:
        """Insert *line*, returning the evicted victim line if the set was full."""
        bucket = self._sets[line % self._nsets]
        if line in bucket:
            del bucket[line]
            bucket[line] = None
            return None
        victim = None
        if len(bucket) >= self._ways:
            victim = next(iter(bucket))
            del bucket[victim]
            self.evictions += 1
        bucket[line] = None
        return victim

    def remove(self, line: int) -> bool:
        """Drop *line* if present (invalidation); returns whether it was there."""
        bucket = self._sets[line % self._nsets]
        if line in bucket:
            del bucket[line]
            return True
        return False

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(bucket) for bucket in self._sets)

    def lines(self):
        """Iterate over resident lines, least recent first per set."""
        for bucket in self._sets:
            yield from bucket

    def clear(self) -> None:
        """Empty the cache (used between profiling runs)."""
        for bucket in self._sets:
            bucket.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheArray({self.name}, {self.geometry.size}B, "
            f"{self.geometry.ways}-way, occ={self.occupancy()})"
        )
