"""The working set view (Section 4.2).

Summarizes what lives in the cache: which types were most active, how
many of each were live at once, and how they spread over associativity
sets.  The associativity histogram is the input to conflict-miss
diagnosis; the per-type live sizes are the input to capacity-miss
diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dprof.cachesim import WorkingSetSimResult
from repro.util.tables import TextTable, format_bytes


@dataclass
class WorkingSetRow:
    """One type's working-set summary."""

    type_name: str
    mean_live_bytes: float
    mean_live_objects: float
    mean_resident_lines: float


class WorkingSetView:
    """Per-type working set plus the associativity-set histogram."""

    def __init__(
        self,
        rows: list[WorkingSetRow],
        sim: WorkingSetSimResult,
        window_cycles: int,
    ) -> None:
        self.rows = sorted(rows, key=lambda r: r.mean_live_bytes, reverse=True)
        self.sim = sim
        self.window_cycles = window_cycles
        #: Stamped by the profiler/offline session; None = not annotated.
        self.quality = None

    def row_for(self, type_name: str) -> WorkingSetRow | None:
        """Find one type's row, if present."""
        for row in self.rows:
            if row.type_name == type_name:
                return row
        return None

    def conflict_sets(self) -> list[int]:
        """Associativity sets suspected of conflict misses."""
        return self.sim.conflict_sets()

    def types_in_conflict_sets(self) -> dict[str, int]:
        """Types present in conflict-suspect sets, with instance counts.

        This answers the programmer's question "what data types are using
        highly-contended associativity sets".
        """
        result: dict[str, int] = {}
        for set_index in self.sim.conflict_sets():
            for type_name, instances in self.sim.types_in_set(set_index):
                result[type_name] = result.get(type_name, 0) + instances
        return result

    def render(self, n: int = 10) -> str:
        """Render the per-type table plus a histogram summary."""
        table = TextTable(
            ["Type name", "Mean live size", "Mean live objects", "Mean resident lines"],
            title="Working set view",
        )
        for row in self.rows[:n]:
            table.add_row(
                row.type_name,
                format_bytes(row.mean_live_bytes),
                f"{row.mean_live_objects:.1f}",
                f"{row.mean_resident_lines:.1f}",
            )
        lines = [table.render()]
        conflict = self.conflict_sets()
        lines.append("")
        lines.append(
            f"Associativity sets: {len(self.sim.distinct_lines_per_set)} populated, "
            f"mean {self.sim.mean_distinct_lines:.1f} distinct lines/set, "
            f"{len(conflict)} conflict-suspect"
        )
        if conflict:
            worst = max(conflict, key=lambda s: self.sim.distinct_lines_per_set[s])
            types = ", ".join(
                f"{t} x{c}" for t, c in self.sim.types_in_set(worst)[:4]
            )
            lines.append(
                f"Hottest set {worst}: "
                f"{self.sim.distinct_lines_per_set[worst]} distinct lines ({types})"
            )
        if self.quality is not None and self.quality.degraded:
            lines.append(f"[partial data] coverage: {self.quality.coverage_line()}")
        return "\n".join(lines)
