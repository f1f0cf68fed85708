"""Structured data-quality reporting for profiling sessions.

DProf's raw inputs are lossy -- IBS drops tagged ops, debug registers get
stolen, histories truncate against object lifetimes, archives tear -- so
every view carries a :class:`DataQuality` report saying how much of the
intended data actually arrived and how much to trust each view.  Views
built from partial data render with explicit coverage annotations and
emit :class:`~repro.errors.DegradedDataWarning` instead of raising or
silently reporting wrong numbers.

Confidence definitions (see DESIGN.md, "Robustness model"):

- the **data profile** ranks types from IBS samples, so its confidence is
  the sample delivery rate discounted by corrupt samples the sanity
  filter had to reject;
- the **working set** integrates exact allocator events, so it only
  degrades when an archive section failed to load;
- **miss classification** and **data flow** consume path traces merged
  from complete histories, so their confidence scales with the history
  completion rate (a partial history contributes evidence but not a
  path, and counts half).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.errors import DegradedDataWarning

#: Exit codes the CLI maps data quality onto.
EXIT_OK = 0
EXIT_DEGRADED = 3  # measurable loss; views annotated, results usable
EXIT_POOR = 4  # less than half the intended data survived

#: A view whose confidence is below this is considered degraded.
DEGRADED_CONFIDENCE = 0.999

#: A session whose worst view confidence is below this is considered poor.
POOR_CONFIDENCE = 0.5


@dataclass
class DataQuality:
    """How much of the intended profiling data actually arrived."""

    samples_delivered: int = 0
    samples_dropped: int = 0
    samples_corrupted: int = 0
    samples_rejected: int = 0
    histories_complete: int = 0
    histories_partial: int = 0
    histories_abandoned: int = 0
    history_retries: int = 0
    history_attempts: int = 0
    history_truncations: int = 0
    watch_trap_misses: int = 0
    debug_slot_steals: int = 0
    #: Archive sections that failed checksum/parse on offline load and
    #: were replaced with empty data (best-effort recovery).
    sections_failed: tuple[str, ...] = ()
    notes: tuple[str, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------

    @property
    def sample_delivery_rate(self) -> float:
        """Fraction of tagged ops that produced a delivered sample."""
        attempted = self.samples_delivered + self.samples_dropped
        if attempted == 0:
            return 1.0
        return self.samples_delivered / attempted

    @property
    def sample_drop_rate(self) -> float:
        """Observed IBS drop rate (compare against the injected rate)."""
        return 1.0 - self.sample_delivery_rate

    @property
    def history_truncation_rate(self) -> float:
        """Observed per-attempt truncation rate (compare against injected)."""
        if self.history_attempts == 0:
            return 0.0
        return self.history_truncations / self.history_attempts

    # ------------------------------------------------------------------
    # Confidence
    # ------------------------------------------------------------------

    def _sample_confidence(self) -> float:
        kept = self.samples_delivered - self.samples_rejected
        if self.samples_delivered == 0:
            return self.sample_delivery_rate
        return self.sample_delivery_rate * max(kept, 0) / self.samples_delivered

    def _history_confidence(self) -> float:
        finished = (
            self.histories_complete + self.histories_partial + self.histories_abandoned
        )
        if finished == 0:
            return 1.0
        # A partial history still carries usable evidence (bounce, prefix
        # accesses) but cannot contribute a path trace: weight it half.
        return (self.histories_complete + 0.5 * self.histories_partial) / finished

    def _section_penalty(self, *sections: str) -> float:
        return 0.0 if any(s in self.sections_failed for s in sections) else 1.0

    def confidences(self) -> dict[str, float]:
        """Per-view confidence in [0, 1]."""
        sample = self._sample_confidence()
        history = self._history_confidence()
        return {
            "data_profile": sample * self._section_penalty("stats"),
            "working_set": self._section_penalty("address_set"),
            "miss_classification": min(sample, history)
            * self._section_penalty("stats", "histories"),
            "data_flow": history * self._section_penalty("histories"),
        }

    def confidence(self, view: str) -> float:
        """Confidence for one named view (1.0 for unknown names)."""
        return self.confidences().get(view, 1.0)

    @property
    def degraded(self) -> bool:
        """True when any view's data is measurably incomplete."""
        if self.sections_failed:
            return True
        return min(self.confidences().values()) < DEGRADED_CONFIDENCE

    def exit_code(self) -> int:
        """CLI exit code: 0 full, 3 degraded, 4 poor."""
        worst = min(self.confidences().values())
        if worst < POOR_CONFIDENCE:
            return EXIT_POOR
        if self.degraded:
            return EXIT_DEGRADED
        return EXIT_OK

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def warn_if_degraded(self, context: str) -> None:
        """Emit a :class:`DegradedDataWarning` when data is partial."""
        if self.degraded:
            warnings.warn(
                f"{context} built from partial data: {self.coverage_line()}",
                DegradedDataWarning,
                stacklevel=3,
            )

    def coverage_line(self) -> str:
        """One-line coverage annotation appended to degraded views."""
        parts = [
            f"samples {self.sample_delivery_rate:.1%} delivered"
            + (f" ({self.samples_rejected} rejected)" if self.samples_rejected else "")
        ]
        finished = (
            self.histories_complete + self.histories_partial + self.histories_abandoned
        )
        if finished:
            parts.append(
                f"histories {self.histories_complete} complete"
                f" / {self.histories_partial} partial"
                f" / {self.histories_abandoned} abandoned"
            )
        if self.sections_failed:
            parts.append(f"archive sections lost: {', '.join(self.sections_failed)}")
        return "; ".join(parts)

    def render(self) -> str:
        """Full multi-line quality report (printed by the CLI)."""
        conf = self.confidences()
        lines = ["Data quality report"]
        lines.append(
            f"  samples:   {self.samples_delivered} delivered, "
            f"{self.samples_dropped} dropped ({self.sample_drop_rate:.1%}), "
            f"{self.samples_corrupted} corrupted, {self.samples_rejected} rejected"
        )
        lines.append(
            f"  histories: {self.histories_complete} complete, "
            f"{self.histories_partial} partial, "
            f"{self.histories_abandoned} abandoned, "
            f"{self.history_retries} retries "
            f"(truncation rate {self.history_truncation_rate:.1%})"
        )
        if self.watch_trap_misses or self.debug_slot_steals:
            lines.append(
                f"  watches:   {self.watch_trap_misses} traps missed, "
                f"{self.debug_slot_steals} registers stolen"
            )
        if self.sections_failed:
            lines.append(f"  archive:   failed sections {list(self.sections_failed)}")
        for note in self.notes:
            lines.append(f"  note:      {note}")
        lines.append(
            "  confidence: "
            + ", ".join(f"{view}={value:.2f}" for view, value in sorted(conf.items()))
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization (session archives carry their quality report)
    # ------------------------------------------------------------------

    def to_blob(self) -> dict:
        """JSON-compatible form for session archives."""
        return {
            "samples_delivered": self.samples_delivered,
            "samples_dropped": self.samples_dropped,
            "samples_corrupted": self.samples_corrupted,
            "samples_rejected": self.samples_rejected,
            "histories_complete": self.histories_complete,
            "histories_partial": self.histories_partial,
            "histories_abandoned": self.histories_abandoned,
            "history_retries": self.history_retries,
            "history_attempts": self.history_attempts,
            "history_truncations": self.history_truncations,
            "watch_trap_misses": self.watch_trap_misses,
            "debug_slot_steals": self.debug_slot_steals,
            "notes": list(self.notes),
        }

    @classmethod
    def from_blob(cls, blob: dict) -> "DataQuality":
        """Rebuild from an archive blob (tolerates missing keys)."""
        quality = cls()
        for key in cls().to_blob():
            if key == "notes":
                quality.notes = tuple(blob.get("notes", ()))
            elif key in blob and isinstance(blob[key], int):
                setattr(quality, key, blob[key])
        return quality
