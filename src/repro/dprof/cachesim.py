"""DProf's offline cache simulation for the working-set view (Section 4.2).

DProf "runs a simple cache simulation": it samples objects from the
address set (weighted by how common each is -- sampling entries uniformly
weights types by allocation frequency), replays the memory accesses their
path traces indicate, and removes an object's lines when it is freed.
From the simulation it derives:

- how many **distinct pieces of memory** were ever stored in each
  associativity set (the conflict histogram),
- which **types** occupy each set and with how many instances,
- the average number of lines of each type resident in the cache.

This is deliberately *not* the hardware model from :mod:`repro.hw` -- the
real DProf had no access to such a model either; the whole point of the
view is to estimate cache contents from the two raw data sets alone.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import itemgetter

from repro.dprof.records import AddressSet, AddressSetEntry, PathTrace
from repro.hw.cache import CacheGeometry
from repro.util.rng import DeterministicRng


@dataclass
class WorkingSetSimResult:
    """Everything the working-set and miss-classification views consume."""

    geometry: CacheGeometry
    #: set index -> count of distinct lines ever stored there.
    distinct_lines_per_set: dict[int, int] = field(default_factory=dict)
    #: set index -> {type -> distinct object instances seen in the set}.
    set_type_instances: dict[int, Counter] = field(default_factory=dict)
    #: type -> mean lines resident (averaged over occupancy snapshots).
    mean_resident_lines: dict[str, float] = field(default_factory=dict)
    objects_simulated: int = 0
    accesses_simulated: int = 0

    @property
    def mean_distinct_lines(self) -> float:
        """Average distinct-line count across all associativity sets."""
        if not self.distinct_lines_per_set:
            return 0.0
        return sum(self.distinct_lines_per_set.values()) / len(
            self.distinct_lines_per_set
        )

    def conflict_sets(self, factor: float = 2.0) -> list[int]:
        """Sets with far more distinct lines than average (Section 4.3).

        A set is conflict-suspect when it was asked to hold more lines
        than its ways *and* at least ``factor`` times the average set's
        count -- the paper's "factor of 2 more than average" check.
        """
        avg = self.mean_distinct_lines
        suspects = []
        for set_index, count in self.distinct_lines_per_set.items():
            if count > self.geometry.ways and count > factor * avg:
                suspects.append(set_index)
        return sorted(suspects)

    def capacity_pressured(self) -> bool:
        """True when most sets are uniformly oversubscribed (capacity).

        The paper distinguishes heuristically: few overloaded sets means
        conflicts; "most associativity sets have about the same number of
        conflicts" means the working set simply does not fit.
        """
        if not self.distinct_lines_per_set:
            return False
        overloaded = sum(
            1
            for count in self.distinct_lines_per_set.values()
            if count > self.geometry.ways
        )
        return overloaded > 0.5 * self.geometry.num_sets

    def types_in_set(self, set_index: int) -> list[tuple[str, int]]:
        """(type, instance count) pairs for one set, largest first."""
        counter = self.set_type_instances.get(set_index, Counter())
        return counter.most_common()


class DProfCacheSim:
    """Replays sampled address-set lifetimes through a model cache."""

    #: Occupancy snapshot cadence, in simulated accesses.
    SNAPSHOT_EVERY = 256

    def __init__(self, geometry: CacheGeometry, rng: DeterministicRng) -> None:
        self.geometry = geometry
        self.rng = rng

    def simulate(
        self,
        address_set: AddressSet,
        traces_by_type: dict[str, list[PathTrace]],
        max_objects: int = 4000,
    ) -> WorkingSetSimResult:
        """Run the simulation and return the aggregated result."""
        entries = address_set.entries
        if len(entries) > max_objects:
            entries = self.rng.sample(entries, max_objects)
        events = self._build_events(entries, traces_by_type)
        events.sort(key=itemgetter(0))
        return self._replay(events)

    # ------------------------------------------------------------------
    # Event construction
    # ------------------------------------------------------------------

    def _build_events(
        self,
        entries: list[AddressSetEntry],
        traces_by_type: dict[str, list[PathTrace]],
    ) -> list[tuple]:
        """(time, kind, obj_id, entry, lines) events for each sampled object."""
        line_size = self.geometry.line_size
        events: list[tuple] = []
        append = events.append
        # trace id -> (mean time, first byte offset, last byte offset)
        # per entry; a trace is picked for many objects.
        spans: dict[int, list[tuple[float, int, int]]] = {}
        for obj_id, entry in enumerate(entries):
            # Every sampled object occupies its full footprint from
            # allocation: the address set records whole objects, and the
            # working-set sizes the view reports (Table 6.1) are
            # whole-object sizes.  Path traces -- which only cover the
            # watched offsets -- refine *when* parts are re-touched.
            base = entry.base
            alloc = entry.alloc_cycle
            all_lines = _lines(base, entry.size, line_size)
            append((alloc, "access", obj_id, entry, all_lines))
            trace = self._pick_trace(traces_by_type.get(entry.type_name))
            if trace is not None:
                trace_spans = spans.get(id(trace))
                if trace_spans is None:
                    trace_spans = spans[id(trace)] = [
                        (pt.mean_time, pt.offsets[0], max(pt.offsets[1] - 1, pt.offsets[0]))
                        for pt in trace.entries
                    ]
                for mean_time, first, last in trace_spans:
                    lines = range(
                        (base + first) // line_size, (base + last) // line_size + 1
                    )
                    append((alloc + mean_time, "access", obj_id, entry, lines))
            if entry.free_cycle is not None:
                append((entry.free_cycle, "free", obj_id, entry, all_lines))
        return events

    def _pick_trace(self, traces: list[PathTrace] | None) -> PathTrace | None:
        if not traces:
            return None
        total = sum(t.frequency for t in traces)
        pick = self.rng.randint(1, max(total, 1))
        running = 0
        for trace in traces:
            running += trace.frequency
            if pick <= running:
                return trace
        return traces[-1]

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _replay(self, events: list[tuple]) -> WorkingSetSimResult:
        """Replay the events through a per-set LRU model cache.

        Each set is a dict from resident line to its owner type, in
        recency order: a hit moves the line to the end and a full set
        evicts its first line, exactly the decisions of
        :class:`~repro.hw.cache.CacheArray`.  Resident lines per type
        are counted as lines come and go, so an occupancy snapshot adds
        up the types rather than the lines.
        """
        nsets = self.geometry.num_sets
        ways = self.geometry.ways
        snapshot_every = self.SNAPSHOT_EVERY
        sets: list[dict[int, str]] = [{} for _ in range(nsets)]
        result = WorkingSetSimResult(geometry=self.geometry)
        distinct: dict[int, set[int]] = defaultdict(set)
        set_instances: dict[int, dict[str, set[int]]] = defaultdict(
            lambda: defaultdict(set)
        )
        resident: dict[str, int] = {}
        resident_accumulator: Counter = Counter()
        snapshots = 0
        accesses = 0
        seen_objects: set[int] = set()

        for _time, kind, obj_id, entry, lines in events:
            seen_objects.add(obj_id)
            if kind == "free":
                for line in lines:
                    owner = sets[line % nsets].pop(line, None)
                    if owner is not None:
                        resident[owner] -= 1
                continue
            type_name = entry.type_name
            for line in lines:
                set_index = line % nsets
                distinct[set_index].add(line)
                set_instances[set_index][type_name].add(obj_id)
                bucket = sets[set_index]
                owner = bucket.pop(line, None)
                if owner is not None:
                    resident[owner] -= 1
                elif len(bucket) >= ways:
                    resident[bucket.pop(next(iter(bucket)))] -= 1
                bucket[line] = type_name
                resident[type_name] = resident.get(type_name, 0) + 1
                accesses += 1
                if accesses % snapshot_every == 0:
                    snapshots += 1
                    for name, count in resident.items():
                        if count:
                            resident_accumulator[name] += count

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


def _lines(addr: int, size: int, line_size: int) -> range:
    first = addr // line_size
    last = (addr + max(size, 1) - 1) // line_size
    return range(first, last + 1)
