"""Test-only oracle for DProf's offline cache simulation.

:class:`OracleCacheSim` is :class:`~repro.dprof.cachesim.DProfCacheSim`
with its event construction and replay swapped for the plain readable
versions: whole-line lists per event, and the replay driving a
:class:`~tests.hierarchy_oracle.ReferenceCacheArray` and recounting every resident line's
type at each occupancy snapshot.  Trace picking is the plain linear
walk over running frequency totals, with the same single draw per pick,
so for equal seeds both simulations draw the same objects and traces;
the differential tests then compare every field of the two results.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.dprof.cachesim import DProfCacheSim, WorkingSetSimResult
from tests.hierarchy_oracle import ReferenceCacheArray


class OracleCacheSim(DProfCacheSim):
    """The readable reference for :class:`DProfCacheSim`."""

    def _build_events(self, entries, traces_by_type) -> list[tuple]:
        line_size = self.geometry.line_size
        events: list[tuple] = []
        for obj_id, entry in enumerate(entries):
            all_lines = _lines(entry.base, entry.size, line_size)
            events.append((entry.alloc_cycle, "access", obj_id, entry, all_lines))
            trace = _pick_trace(self.rng, traces_by_type.get(entry.type_name))
            if trace is not None:
                for pt_entry in trace.entries:
                    lo, hi = pt_entry.offsets
                    lines = _lines(entry.base + lo, max(hi - lo, 1), line_size)
                    events.append(
                        (entry.alloc_cycle + pt_entry.mean_time, "access", obj_id, entry, lines)
                    )
            if entry.free_cycle is not None:
                events.append((entry.free_cycle, "free", obj_id, entry, all_lines))
        return events

    def _replay(self, events: list[tuple]) -> WorkingSetSimResult:
        cache = ReferenceCacheArray(self.geometry, "dprof-sim")
        result = WorkingSetSimResult(geometry=self.geometry)
        distinct: dict[int, set[int]] = defaultdict(set)
        set_instances: dict[int, dict[str, set[int]]] = defaultdict(
            lambda: defaultdict(set)
        )
        line_owner_type: dict[int, str] = {}
        resident_accumulator: Counter = Counter()
        snapshots = 0
        accesses = 0
        seen_objects: set[int] = set()

        for _time, kind, obj_id, entry, lines in events:
            seen_objects.add(obj_id)
            if kind == "free":
                for line in lines:
                    cache.remove(line)
                    line_owner_type.pop(line, None)
                continue
            for line in lines:
                set_index = self.geometry.set_of(line)
                distinct[set_index].add(line)
                set_instances[set_index][entry.type_name].add(obj_id)
                victim = cache.insert(line)
                if victim is not None:
                    line_owner_type.pop(victim, None)
                line_owner_type[line] = entry.type_name
                accesses += 1
                if accesses % self.SNAPSHOT_EVERY == 0:
                    snapshots += 1
                    resident_accumulator.update(Counter(line_owner_type.values()))

        result.objects_simulated = len(seen_objects)
        result.accesses_simulated = accesses
        result.distinct_lines_per_set = {
            idx: len(lines) for idx, lines in distinct.items()
        }
        result.set_type_instances = {
            idx: Counter({t: len(objs) for t, objs in per_type.items()})
            for idx, per_type in set_instances.items()
        }
        if snapshots:
            result.mean_resident_lines = {
                t: count / snapshots for t, count in resident_accumulator.items()
            }
        return result


def _pick_trace(rng, traces):
    if not traces:
        return None
    total = sum(t.frequency for t in traces)
    pick = rng.randint(1, max(total, 1))
    running = 0
    for trace in traces:
        running += trace.frequency
        if pick <= running:
            return trace
    return traces[-1]


def _lines(addr: int, size: int, line_size: int) -> list[int]:
    first = addr // line_size
    last = (addr + max(size, 1) - 1) // line_size
    return list(range(first, last + 1))
