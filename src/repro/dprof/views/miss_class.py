"""The miss classification view (Section 4.3).

Classifies each type's misses into invalidations (split into true and
false sharing), conflict misses, and capacity misses.  Following the
paper: compulsory misses are assumed away (all memory has been touched at
some point on a long-running system), invalidations are found by searching
backwards in a path trace for a write to the same cache line from a
different CPU, and conflict-vs-capacity is decided by the shape of the
associativity-set histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.dprof.cachesim import WorkingSetSimResult
from repro.dprof.records import PathTrace
from repro.util.tables import TextTable, format_percent

#: A path-trace entry whose local-L1 hit probability is below this is
#: treated as a "missing" access for classification purposes.
MISS_PROBABILITY_THRESHOLD = 0.05

#: Cache line size used to decide same-line relationships.
LINE_SIZE = 64


class MissClass(Enum):
    """The classification buckets of Section 4.3."""

    TRUE_SHARING = "true sharing"
    FALSE_SHARING = "false sharing"
    CONFLICT = "conflict"
    CAPACITY = "capacity"
    OTHER = "other"


@dataclass
class MissClassification:
    """Classified miss weight for one data type."""

    type_name: str
    weights: dict[MissClass, float] = field(default_factory=dict)
    #: Stamped by the profiler/offline session; None = not annotated.
    quality: object | None = None

    @property
    def total(self) -> float:
        """Total classified miss weight."""
        return sum(self.weights.values())

    def share(self, klass: MissClass) -> float:
        """Fraction of the type's misses in one bucket."""
        total = self.total
        if total == 0:
            return 0.0
        return self.weights.get(klass, 0.0) / total

    @property
    def dominant(self) -> MissClass:
        """The bucket with the most weight (OTHER when nothing classified)."""
        if not self.weights or self.total == 0:
            return MissClass.OTHER
        return max(self.weights, key=lambda k: self.weights[k])

    def render(self) -> str:
        """One-type table of class shares."""
        table = TextTable(
            ["Miss class", "Share"], title=f"Miss classification: {self.type_name}"
        )
        for klass in MissClass:
            if self.weights.get(klass, 0.0) > 0:
                table.add_row(klass.value, format_percent(self.share(klass)))
        rendered = table.render()
        if self.quality is not None and self.quality.degraded:
            rendered += f"\n[partial data] coverage: {self.quality.coverage_line()}"
        return rendered


class MissClassifier:
    """Classifies one type's misses from its path traces + the cache sim."""

    def __init__(self, sim: WorkingSetSimResult) -> None:
        self.sim = sim

    def classify(self, type_name: str, traces: list[PathTrace]) -> MissClassification:
        """Produce the classification for *type_name*."""
        result = MissClassification(type_name=type_name)
        weights = {klass: 0.0 for klass in MissClass}

        in_conflict_sets = self._type_in_conflict_sets(type_name)
        capacity_pressure = self.sim.capacity_pressured()

        for trace in traces:
            for index, entry in enumerate(trace.entries):
                miss_p = entry.miss_probability
                if miss_p < MISS_PROBABILITY_THRESHOLD:
                    continue
                weight = miss_p * trace.frequency
                klass = self._classify_entry(trace, index)
                if klass is None:
                    # Not an invalidation: attribute to conflict/capacity
                    # by the histogram heuristic.
                    if in_conflict_sets and not capacity_pressure:
                        klass = MissClass.CONFLICT
                    elif capacity_pressure:
                        klass = MissClass.CAPACITY
                    else:
                        klass = MissClass.OTHER
                weights[klass] += weight

        result.weights = {k: v for k, v in weights.items() if v > 0}
        return result

    # ------------------------------------------------------------------
    # Per-entry invalidation detection
    # ------------------------------------------------------------------

    def _classify_entry(self, trace: PathTrace, index: int) -> MissClass | None:
        """Invalidation check: backward search for a remote same-line write.

        CPU identity is tracked as *epochs*: every entry with the CPU-change
        flag starts a new epoch, so "a write from a different CPU" means "a
        write in a different epoch".  Returns TRUE/FALSE sharing, or None
        when the miss is not explained by an invalidation.
        """
        entries = trace.entries
        epochs = []
        epoch = 0
        for e in entries:
            if e.cpu_changed:
                epoch += 1
            epochs.append(epoch)

        target = entries[index]
        target_lines = _line_span(target.offsets)
        for back in range(index - 1, -1, -1):
            prev = entries[back]
            if not prev.is_write:
                continue
            if epochs[back] == epochs[index]:
                continue
            if not (target_lines & _line_span(prev.offsets)):
                continue
            if _ranges_overlap(prev.offsets, target.offsets):
                return MissClass.TRUE_SHARING
            return MissClass.FALSE_SHARING
        return None

    def _type_in_conflict_sets(self, type_name: str) -> bool:
        for set_index in self.sim.conflict_sets():
            for name, _count in self.sim.types_in_set(set_index):
                if name == type_name:
                    return True
        return False


def _line_span(offsets: tuple[int, int]) -> set[int]:
    lo, hi = offsets
    return set(range(lo // LINE_SIZE, max(hi - 1, lo) // LINE_SIZE + 1))


def _ranges_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]
