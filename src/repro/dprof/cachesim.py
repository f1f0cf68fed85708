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

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from repro.dprof.records import AddressSet, AddressSetEntry, PathTrace
from repro.hw.cache import CacheGeometry
from repro.util.collector import collector_paused
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


#: Event kinds (see :meth:`DProfCacheSim._build_events`).
#: ``_TOUCH_LINE`` is a ``_TOUCH`` span of exactly one line.
_TOUCH_LINE, _ALLOC, _FREE, _TOUCH, _ACCESS = range(5)


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
        """Run the simulation and return the aggregated result.

        The cyclic collector is paused throughout: the events and the
        model cache are acyclic, and freed by reference counting.  The
        events are freed before the pause ends, or the first collection
        after it would walk them all.
        """
        with collector_paused():
            entries = address_set.entries
            if len(entries) > max_objects:
                entries = self.rng.sample(entries, max_objects)
            events = self._build_events(entries, traces_by_type)
            events.sort(key=itemgetter(0))
            result = self._replay(events)
            del events
        return result

    # ------------------------------------------------------------------
    # Event construction
    # ------------------------------------------------------------------

    def _build_events(
        self,
        entries: list[AddressSetEntry],
        traces_by_type: dict[str, list[PathTrace]],
    ) -> list[tuple]:
        """(time, kind, who, lines) events for each sampled object.

        ``kind`` is one of the small integer codes above:

        - ``_ALLOC``: an object's first event, its whole footprint;
          ``who`` is its type.
        - ``_TOUCH``: a trace span inside the footprint that cannot
          precede the allocation; ``who`` is the type.  A span of one
          line is a ``_TOUCH_LINE`` whose ``lines`` is that line.
        - ``_ACCESS``: any other span; ``who`` is (type, object id,
          footprint).
        - ``_FREE``: the footprint leaves the cache; ``who`` is None.

        :meth:`_replay` does the conflict bookkeeping of an object once,
        from its ``_ALLOC`` event, and skips it for touches, which add no
        line, set or object the allocation has not already added.

        Every time is a float, so the sort compares floats only.  Cycle
        counts are exact as floats below 2**53, and the sort is stable,
        so the order is the one the integer cycle counts give.
        """
        line_size = self.geometry.line_size
        randint = self.rng.randint
        events: list[tuple] = []
        append = events.append
        # type -> (traces, running frequency totals, top of the draw),
        # for the trace picks: one draw per pick, and the pick is the
        # first trace whose running total reaches the draw.
        picks: dict[str, tuple[list[PathTrace], list[int], int]] = {}
        for name, traces in traces_by_type.items():
            if traces:
                totals = list(accumulate(t.frequency for t in traces))
                picks[name] = (traces, totals, max(totals[-1], 1))
        # (trace id, byte offset of the object in its first line, lines
        # in the footprint) -> (mean time, kind, first line, end line)
        # per trace entry, with lines relative to the object's first
        # line; a trace is picked for many objects of few shapes.
        spans: dict[tuple[int, int, int], list[tuple[float, int, int, int]]] = {}
        for obj_id, entry in enumerate(entries):
            # Every sampled object occupies its full footprint from
            # allocation: the address set records whole objects, and the
            # working-set sizes the view reports (Table 6.1) are
            # whole-object sizes.  Path traces -- which only cover the
            # watched offsets -- refine *when* parts are re-touched.
            base = entry.base
            alloc = entry.alloc_cycle
            type_name = entry.type_name
            all_lines = _lines(base, entry.size, line_size)
            append((float(alloc), _ALLOC, type_name, all_lines))
            pick = picks.get(type_name)
            if pick is not None:
                traces, totals, top = pick
                index = bisect_left(totals, randint(1, top))
                trace = traces[index] if index < len(traces) else traces[-1]
                offset, footprint = base % line_size, len(all_lines)
                key = (id(trace), offset, footprint)
                trace_spans = spans.get(key)
                if trace_spans is None:
                    trace_spans = spans[key] = _relative_spans(
                        trace, offset, footprint, line_size
                    )
                first_line = all_lines.start
                for mean_time, kind, start, stop in trace_spans:
                    if kind == _TOUCH_LINE:
                        append((alloc + mean_time, kind, type_name, first_line + start))
                        continue
                    lines = range(first_line + start, first_line + stop)
                    who = type_name if kind == _TOUCH else (type_name, obj_id, all_lines)
                    append((alloc + mean_time, kind, who, lines))
            if entry.free_cycle is not None:
                append((float(entry.free_cycle), _FREE, None, all_lines))
        return events

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _replay(self, events: list[tuple]) -> WorkingSetSimResult:
        """Replay the events through a per-set LRU model cache.

        Each set is a dict from resident line to its owner type, in
        recency order: a hit moves the line to the end and a full set
        evicts its first line, exactly the decisions of the machine's
        :class:`~repro.hw.cache.CacheArray` and of the ``OrderedDict``
        oracle array in ``tests/hierarchy_oracle.py``, which
        ``tests/cachesim_oracle.py`` replays through.  Resident lines per
        type are counted as lines come and go, so an occupancy snapshot
        adds up the types rather than the lines.

        Snapshots fall every ``SNAPSHOT_EVERY`` line accesses; ``left``
        counts the accesses before the next one.  A single-line touch
        takes its own short path.  Any other event with fewer lines than
        ``left`` cannot reach a snapshot, so its type's resident count is
        raised once for all its lines before they are walked (an eviction
        during the walk may lower it again).  An event that reaches a
        snapshot is walked line by line, counting as it goes.  A touch
        never sorts before its own allocation (see :func:`_relative_spans`),
        so its type is already a key of the resident counts.

        The conflict bookkeeping (distinct lines and object instances
        per set) is done per object, not per line.  An object's
        footprint is a contiguous line range, so the sets it covers are
        fixed by (first set, set count): objects are counted per such
        shape and each shape is spread over its sets at the end.  The
        lines of ``_ACCESS`` spans are walked one by one: they count
        the object in sets outside its footprint's, and may reach a set
        before the allocation does.  The order in which types first
        reach a set (which breaks ``Counter.most_common`` ties) is
        recovered from the order in which each shape or span pair first
        appeared among the alloc and access events.
        """
        nsets = self.geometry.num_sets
        ways = self.geometry.ways
        snapshot_every = self.SNAPSHOT_EVERY
        sets: list[dict[int, str]] = [{} for _ in range(nsets)]
        result = WorkingSetSimResult(geometry=self.geometry)
        touched_lines: set[int] = set()
        # (type, first set, set count) -> [first appearance, objects]
        shapes: dict[tuple[str, int, int], list[int]] = {}
        # (set, type) -> (first appearance, object ids) for the lines of
        # access spans; only objects outside their footprint's sets are
        # added, as the footprint shape already counts the rest.
        span_pairs: dict[tuple[int, str], tuple[int, set[int]]] = {}
        resident: dict[str, int] = {}
        resident_accumulator: Counter = Counter()
        snapshots = 0
        left = snapshot_every
        objects = 0
        order = 0

        for _time, kind, who, lines in events:
            if kind == _TOUCH_LINE:
                bucket = sets[lines % nsets]
                owner = bucket.pop(lines, None)
                if owner is None:
                    if len(bucket) >= ways:
                        resident[bucket.pop(next(iter(bucket)))] -= 1
                    resident[who] += 1
                elif owner != who:
                    resident[owner] -= 1
                    resident[who] += 1
                bucket[lines] = who
                left -= 1
                if not left:
                    snapshots += 1
                    left = snapshot_every
                    _add_snapshot(resident_accumulator, resident)
                continue
            if kind == _FREE:
                for line in lines:
                    owner = sets[line % nsets].pop(line, None)
                    if owner is not None:
                        resident[owner] -= 1
                continue
            if kind == _ALLOC:
                type_name = who
                objects += 1
                order += 1
                touched_lines.update(lines)
                count = len(lines)
                key = (
                    (type_name, lines.start % nsets, count)
                    if count < nsets
                    else (type_name, 0, nsets)
                )
                shape = shapes.get(key)
                if shape is None:
                    shapes[key] = [order, 1]
                else:
                    shape[1] += 1
            elif kind == _ACCESS:
                type_name, obj_id, footprint = who
                order += 1
                touched_lines.update(lines)
                first_set = footprint.start % nsets
                covered = len(footprint)
                for line in lines:
                    set_index = line % nsets
                    pair = span_pairs.get((set_index, type_name))
                    if pair is None:
                        pair = span_pairs[(set_index, type_name)] = (order, set())
                    if (set_index - first_set) % nsets >= covered:
                        pair[1].add(obj_id)
            else:
                type_name = who

            count = len(lines)
            if count < left:
                left -= count
                resident[type_name] = resident.get(type_name, 0) + count
                for line in lines:
                    bucket = sets[line % nsets]
                    owner = bucket.pop(line, None)
                    if owner is not None:
                        resident[owner] -= 1
                    elif len(bucket) >= ways:
                        resident[bucket.pop(next(iter(bucket)))] -= 1
                    bucket[line] = type_name
                continue
            for line in lines:
                bucket = sets[line % nsets]
                owner = bucket.pop(line, None)
                if owner is not None:
                    resident[owner] -= 1
                elif len(bucket) >= ways:
                    resident[bucket.pop(next(iter(bucket)))] -= 1
                bucket[line] = type_name
                resident[type_name] = resident.get(type_name, 0) + 1
                left -= 1
                if not left:
                    snapshots += 1
                    left = snapshot_every
                    _add_snapshot(resident_accumulator, resident)

        result.objects_simulated = objects
        result.accesses_simulated = (snapshots + 1) * snapshot_every - left
        distinct = Counter(map(nsets.__rmod__, touched_lines))
        result.distinct_lines_per_set = {idx: distinct[idx] for idx in sorted(distinct)}
        result.set_type_instances = _instances_per_set(shapes, span_pairs, nsets)
        if snapshots:
            result.mean_resident_lines = {
                t: count / snapshots for t, count in resident_accumulator.items()
            }
        return result


def _add_snapshot(accumulator: Counter, resident: dict[str, int]) -> None:
    """Add one occupancy snapshot: every type's resident line count."""
    for name, count in resident.items():
        if count:
            accumulator[name] += count


def _instances_per_set(
    shapes: dict[tuple[str, int, int], list[int]],
    span_pairs: dict[tuple[int, str], tuple[int, set[int]]],
    nsets: int,
) -> dict[int, Counter]:
    """Spread the footprint shapes over their sets and add the span pairs.

    Returns set index -> Counter of type -> object instances, with each
    set's types in the order they first reached it.
    """
    counts: dict[tuple[int, str], int] = {}
    first_seen: dict[tuple[int, str], int] = {}
    # Shapes are in order of first appearance, so the first shape to
    # reach a (set, type) pair is the earliest one.
    for (type_name, first_set, covered), (index, objects) in shapes.items():
        for set_index in range(first_set, first_set + covered):
            key = (set_index % nsets, type_name)
            if key in counts:
                counts[key] += objects
            else:
                counts[key] = objects
                first_seen[key] = index
    for key, (index, objects) in span_pairs.items():
        counts[key] = counts.get(key, 0) + len(objects)
        if index < first_seen.get(key, index + 1):
            first_seen[key] = index
    per_set: dict[int, Counter] = {}
    for set_index, type_name in sorted(first_seen, key=lambda k: (k[0], first_seen[k])):
        per_set.setdefault(set_index, Counter())[type_name] = counts[(set_index, type_name)]
    return per_set


def _relative_spans(
    trace: PathTrace, offset: int, footprint: int, line_size: int
) -> list[tuple[float, int, int, int]]:
    """(mean time, kind, first line, end line) of each trace entry.

    Lines count from the first line of an object that starts *offset*
    bytes into a line and spans *footprint* lines.  A span at a
    non-negative time sorts after the allocation (the sort is stable),
    so inside the footprint it is a touch: it only re-touches what
    the allocation already recorded.
    """
    spans = []
    for pt in trace.entries:
        first, end = pt.offsets
        start = (offset + first) // line_size
        stop = (offset + max(end - 1, first)) // line_size + 1
        if 0 <= start and stop <= footprint and pt.mean_time >= 0:
            kind = _TOUCH_LINE if stop - start == 1 else _TOUCH
        else:
            kind = _ACCESS
        spans.append((float(pt.mean_time), kind, start, stop))
    return spans


def _lines(addr: int, size: int, line_size: int) -> range:
    first = addr // line_size
    last = (addr + max(size, 1) - 1) // line_size
    return range(first, last + 1)
