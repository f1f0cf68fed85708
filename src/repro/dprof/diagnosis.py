"""Automated diagnosis: from DProf's views to actionable findings.

The paper's case studies follow a repeatable script by hand: read the
data profile top-down, classify each hot type's misses, and for sharing
problems walk the data flow view backwards from the first cross-CPU
transition to find the code that *decided* to share.  This module encodes
that script, producing one :class:`Finding` per hot type with the
evidence and the class-appropriate remedy (the strategies enumerated in
the paper's introduction: padding for false sharing, re-partitioning for
true sharing, re-allocation for conflicts, admission control / blocking
for capacity).

This goes one step beyond the thesis (which leaves interpretation to the
programmer), but every rule is lifted from the text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dprof.profiler import DProf
from repro.dprof.views import MissClass

#: Types below this share of all L1 misses are not worth a finding.
DEFAULT_MISS_SHARE_THRESHOLD = 0.03

#: Remedies, phrased after the paper's introduction.
REMEDIES = {
    MissClass.TRUE_SHARING: (
        "factor the data into pieces touched by a single CPU, or "
        "restructure the code so only one CPU needs it"
    ),
    MissClass.FALSE_SHARING: (
        "move the falsely-shared fields to different cache lines "
        "(pad or reorder the structure)"
    ),
    MissClass.CONFLICT: (
        "allocate the objects over a wider range of associativity sets"
    ),
    MissClass.CAPACITY: (
        "process the data in smaller batches to increase locality, or "
        "impose admission control on concurrent activity"
    ),
    MissClass.OTHER: "inspect the access pattern; no single cause dominates",
}


@dataclass
class Finding:
    """One diagnosed problem: a type, its miss class, and the evidence."""

    type_name: str
    miss_share: float
    working_set_bytes: float
    bounces: bool
    dominant_class: MissClass
    class_shares: dict[MissClass, float] = field(default_factory=dict)
    #: For sharing problems: the transitions where the data changes CPUs.
    cross_cpu_transitions: list[tuple[str, str]] = field(default_factory=list)
    #: For sharing problems: the functions upstream of the first
    #: transition -- the search scope for the decision point.
    suspect_functions: list[str] = field(default_factory=list)
    remedy: str = ""

    def render(self) -> str:
        """One finding as a short report paragraph."""
        lines = [
            f"{self.type_name}: {self.miss_share:.1%} of all L1 misses, "
            f"{self.working_set_bytes / 1024:.1f}KB live"
            + (", bounces between CPUs" if self.bounces else "")
        ]
        if self.dominant_class is not MissClass.OTHER or self.class_shares:
            shares = ", ".join(
                f"{klass.value} {share:.0%}"
                for klass, share in sorted(
                    self.class_shares.items(), key=lambda kv: kv[1], reverse=True
                )
            )
            lines.append(f"  miss classes: {shares or self.dominant_class.value}")
        for src, dst in self.cross_cpu_transitions[:4]:
            lines.append(f"  crosses CPUs at: {src} -> {dst}")
        if self.suspect_functions:
            shown = ", ".join(self.suspect_functions[:6])
            lines.append(f"  look upstream at: {shown}")
        lines.append(f"  remedy: {self.remedy}")
        return "\n".join(lines)


class Diagnosis:
    """A full diagnosis pass over one profiling session."""

    def __init__(self, dprof: DProf) -> None:
        self.dprof = dprof

    def findings(self, max_types: int = 8) -> list[Finding]:
        """Top-down findings for the hottest types, most misses first."""
        profile = self.dprof.data_profile()
        out = []
        for row in profile.top(max_types):
            if row.miss_share < DEFAULT_MISS_SHARE_THRESHOLD:
                continue
            out.append(self._diagnose_type(row))
        return out

    def _diagnose_type(self, row) -> Finding:
        classification = self.dprof.miss_classification(row.type_name)
        dominant = classification.dominant
        # A bouncing type with no classified misses still deserves the
        # sharing treatment: the bounce flag is the cheaper signal.
        if classification.total == 0 and row.bounce:
            dominant = MissClass.TRUE_SHARING
        finding = Finding(
            type_name=row.type_name,
            miss_share=row.miss_share,
            working_set_bytes=row.working_set_bytes,
            bounces=row.bounce,
            dominant_class=dominant,
            class_shares={
                klass: classification.share(klass)
                for klass in classification.weights
            },
            remedy=REMEDIES[dominant],
        )
        if row.bounce:
            self._add_sharing_evidence(finding)
        return finding

    def _add_sharing_evidence(self, finding: Finding) -> None:
        """The case-study move: find where the data changes CPUs, then
        bound the search to the functions upstream of that point."""
        flow = self.dprof.data_flow(finding.type_name)
        transitions = sorted(
            flow.cpu_change_edges(), key=lambda e: e.count, reverse=True
        )
        finding.cross_cpu_transitions = [(e.src, e.dst) for e in transitions]
        if transitions:
            first = transitions[0]
            upstream = flow.functions_before(first.src) | {first.src}
            upstream.discard("kalloc")
            # Rank suspects by how close they sit to the transition.
            finding.suspect_functions = sorted(upstream)

    def render(self, max_types: int = 8) -> str:
        """The whole report, one paragraph per finding."""
        findings = self.findings(max_types)
        if not findings:
            return "No significant data-type bottlenecks found."
        parts = [f"DProf diagnosis: {len(findings)} finding(s)", "=" * 50]
        for i, finding in enumerate(findings, 1):
            parts.append(f"[{i}] " + finding.render())
        return "\n".join(parts)
