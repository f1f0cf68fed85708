"""Extensions from the paper's Discussion (Section 7).

The thesis closes with two hardware wishes:

1. *"having a variable-size debug register would greatly help"* --
   whole-object watchpoints would replace the quadratic pairwise-sampling
   dance with one exact history per object lifetime;
2. *"Having hardware support for examining the contents of CPU caches
   would greatly simplify [working-set estimation], and improve its
   precision."*

The simulation can grant both wishes, so this module implements them as
optional extensions, and the ablation benchmarks quantify exactly how
much each would have bought the paper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.dprof.profiler import DProf
from repro.errors import ProfilingError
from repro.hw.machine import Machine
from repro.kernel.slab import SlabSystem

# ----------------------------------------------------------------------
# Wish 1: variable-size debug registers
# ----------------------------------------------------------------------


def collect_whole_object_histories(
    dprof: DProf, type_name: str, objects: int
) -> int:
    """Schedule whole-object history jobs (needs wide debug registers).

    Each job arms a single watch spanning the entire object, so one
    lifetime yields one *exact, totally ordered* full-object history --
    no pairwise merging, no path-family clustering heuristics.  Returns
    the number of jobs queued.
    """
    machine = dprof.machine
    if machine.watches.max_watch_bytes is not None:
        raise ProfilingError(
            "whole-object histories need variable_debug_registers=True "
            "in the MachineConfig (the paper's Section 7 hardware wish)"
        )
    size = dprof._type_sizes.get(type_name)
    if size is None:
        size = dprof._lookup_type_size(type_name)
    jobs = 0
    for set_index in range(objects):
        dprof.history.jobs.append(
            _whole_object_job(type_name, size, set_index)
        )
        jobs += 1
    dprof.history.start()
    return jobs


def _whole_object_job(type_name: str, size: int, set_index: int):
    from repro.dprof.history import HistoryJob

    return HistoryJob(type_name=type_name, chunks=((0, size),), set_index=set_index)


def pairwise_job_count(size: int, chunk: int = 4) -> int:
    """Jobs needed to cover a type once with pairwise sampling."""
    chunks = (size + chunk - 1) // chunk
    return chunks * (chunks - 1) // 2


def whole_object_job_count(size: int) -> int:
    """Jobs needed with a variable-size register: always one."""
    return 1


# ----------------------------------------------------------------------
# Wish 2: cache-contents inspection
# ----------------------------------------------------------------------


@dataclass
class CacheSnapshot:
    """Ground-truth cache contents, resolved to data types."""

    cycle: int
    per_type_lines: Counter = field(default_factory=Counter)
    unresolved_lines: int = 0

    def top(self, n: int | None = None) -> list[tuple[str, int]]:
        """Types ranked by resident line count."""
        return self.per_type_lines.most_common(n)

    def lines_for(self, type_name: str) -> int:
        """Resident lines of one type."""
        return self.per_type_lines.get(type_name, 0)


class CacheContentsInspector:
    """The Section 7 wish granted: read what is actually in the caches.

    Walks every resident line of every simulated cache, resolves line
    addresses to types through the allocator, and returns exact per-type
    residency -- the quantity DProf's working-set view can only
    *estimate* by offline simulation.
    """

    def __init__(self, machine: Machine, slab: SlabSystem) -> None:
        self.machine = machine
        self.slab = slab

    def snapshot(self, include_shared: bool = True) -> CacheSnapshot:
        """One instantaneous, machine-wide snapshot."""
        snap = CacheSnapshot(cycle=self.machine.elapsed_cycles())
        hierarchy = self.machine.hierarchy
        caches = list(hierarchy.l1) + list(hierarchy.l2)
        if include_shared:
            caches.append(hierarchy.l3)
        line_size = hierarchy.line_size
        for cache in caches:
            for line in cache.lines():
                obj = self.slab.find_object(line * line_size)
                if obj is None:
                    snap.unresolved_lines += 1
                else:
                    snap.per_type_lines[obj.otype.name] += 1
        return snap

    def mean_residency(self, snapshots: list[CacheSnapshot]) -> dict[str, float]:
        """Average per-type residency over several snapshots."""
        if not snapshots:
            return {}
        totals: Counter = Counter()
        for snap in snapshots:
            totals.update(snap.per_type_lines)
        return {name: count / len(snapshots) for name, count in totals.items()}


def estimation_error(
    estimated: dict[str, float], truth: dict[str, float]
) -> dict[str, float]:
    """Relative error of the working-set estimate per type.

    Returns |est - truth| / truth for types present in the ground truth;
    the cache-introspection ablation reports how much precision the
    hardware wish buys.
    """
    errors = {}
    for name, true_lines in truth.items():
        if true_lines <= 0:
            continue
        est = estimated.get(name, 0.0)
        errors[name] = abs(est - true_lines) / true_lines
    return errors
