"""Path trace generation (paper Section 5.4).

Combines the two raw data sets into per-(type, execution path) traces:

1. access samples are aggregated by (type, offset-chunk, ip) -- done
   incrementally by :class:`~repro.dprof.access_sampler.AccessSampleCollector`;
2. object access histories are **clustered into path families**: two
   histories belong to the same family when they agree on the (ip, cpu
   change) sequence of every watched chunk they share.  Pairwise histories
   share chunks with many others, so families stitch together into
   whole-object paths ("matching up common access patterns", Section 5.3);
3. within a family, the per-chunk event sequences are merged into a single
   total order -- pairwise histories contribute observed cross-chunk
   orderings (a precedence graph, topologically sorted), and mean
   time-since-allocation breaks remaining ties (and is the only signal in
   single-offset mode);
4. each merged event is augmented with the access-sample statistics of its
   (type, offset, ip) key, producing :class:`~repro.dprof.records.PathTrace`
   rows shaped like the paper's Table 4.1.

:class:`PathTraceBuilder` is the one implementation of these steps;
:func:`analyze_histories` runs it over every profiled type.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.dprof.access_sampler import AccessSampleCollector
from repro.dprof.records import (
    ObjectAccessHistory,
    PathTrace,
    PathTraceEntry,
)
from repro.hw.events import CacheLevel
from repro.kernel.symbols import SymbolTable
from repro.trace import NULL_TRACER
from repro.util.stats import OnlineStats

#: "No offset observed yet" sentinel for an event's low byte bound; far
#: above any real object offset.
OFFSET_SENTINEL = 1 << 62


def canonical_trace_order(traces) -> list[PathTrace]:
    """Path traces by descending frequency with a *stable* tie-break.

    Equal-frequency traces would otherwise keep whatever dict-insertion
    order the builder happened to produce; content-addressed view caching
    and the pinned view digests need a total order that depends only on
    the traces themselves, so ties break on (type name, path key).  Path
    keys are unique per trace after deduplication, so the result is fully
    determined.
    """
    return sorted(
        traces, key=lambda t: (-t.frequency, t.type_name, t.path_key())
    )


@dataclass
class _Event:
    """One position of one chunk's canonical sequence within a family."""

    chunk: tuple[int, int]
    position: int
    ip: int
    cpu_changed: bool
    is_write: bool
    times: OnlineStats = field(default_factory=OnlineStats)
    lo: int = OFFSET_SENTINEL
    hi: int = 0

    @property
    def key(self) -> tuple:
        return (self.chunk, self.position)


@dataclass
class _Family:
    """A path family: consistent per-chunk projections plus members."""

    projections: dict[tuple[int, int], tuple] = field(default_factory=dict)
    members: list[ObjectAccessHistory] = field(default_factory=list)

    def compatible(self, history: ObjectAccessHistory) -> bool:
        """True when the history agrees with the family on shared chunks."""
        shared = False
        for chunk in history.offsets:
            existing = self.projections.get(chunk)
            if existing is None:
                continue
            shared = True
            if existing != history.projection(chunk):
                return False
        # A history with no shared chunks is compatible by definition; the
        # caller prefers families it genuinely overlaps with.
        return True

    def shares_chunk(self, history: ObjectAccessHistory) -> bool:
        """True when the history watches a chunk the family already has."""
        return any(chunk in self.projections for chunk in history.offsets)

    def absorb(self, history: ObjectAccessHistory) -> None:
        """Add the history, extending the family's chunk coverage."""
        for chunk in history.offsets:
            self.projections.setdefault(chunk, history.projection(chunk))
        self.members.append(history)


class PathTraceBuilder:
    """Builds path traces for one type from histories plus sample stats."""

    def __init__(
        self,
        symbols: SymbolTable,
        sampler: AccessSampleCollector | None = None,
    ) -> None:
        self.symbols = symbols
        self.sampler = sampler

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def build(
        self, type_name: str, histories: list[ObjectAccessHistory]
    ) -> list[PathTrace]:
        """Cluster, merge, and augment; returns traces by descending frequency."""
        complete = [h for h in histories if h.complete and h.type_name == type_name]
        families = self._cluster(complete)
        traces: dict[tuple, PathTrace] = {}
        for family in families:
            trace = self._merge_family(type_name, family)
            if trace is None:
                continue
            existing = traces.get(trace.path_key())
            if existing is not None:
                existing.frequency += trace.frequency
            else:
                traces[trace.path_key()] = trace
        return canonical_trace_order(traces.values())

    @staticmethod
    def unique_paths(histories: list[ObjectAccessHistory]) -> set[tuple]:
        """Distinct execution-path signatures among the histories.

        This is the quantity Figure 6-3 tracks: how many distinct paths
        have been captured after collecting a given number of history
        sets.
        """
        return {h.signature() for h in histories if h.complete}

    # ------------------------------------------------------------------
    # Clustering
    # ------------------------------------------------------------------

    def _cluster(self, histories: list[ObjectAccessHistory]) -> list[_Family]:
        """Group histories into path families on *shared-chunk evidence*.

        Pairwise histories go first: they watch two chunks at once, so
        they stitch transitively into whole-object families ("matching up
        common access patterns to the same offset", Section 5.3).  Single
        -offset histories then join only a family whose projection of
        their chunk matches exactly; with no such evidence they form a
        per-chunk family of their own rather than being guessed into an
        unrelated path -- the merge is conservative because a wrong merge
        fabricates orderings that never happened.
        """
        pairs = [h for h in histories if h.is_pair]
        singles = [h for h in histories if not h.is_pair]
        families: list[_Family] = []
        for history in pairs:
            target = None
            for family in families:
                if family.shares_chunk(history) and family.compatible(history):
                    target = family
                    break
            if target is None:
                target = _Family()
                families.append(target)
            target.absorb(history)
        for history in singles:
            target = None
            for family in families:
                if family.shares_chunk(history) and family.compatible(history):
                    target = family
                    break
            if target is None:
                target = _Family()
                families.append(target)
            target.absorb(history)
        return families

    # ------------------------------------------------------------------
    # Merging one family into a total order
    # ------------------------------------------------------------------

    def _merge_family(self, type_name: str, family: _Family) -> PathTrace | None:
        events = self._collect_events(family)
        if not events:
            return None
        order = self._order_events(family, events)
        entries = [self._entry_for(type_name, events[key]) for key in order]
        return PathTrace(
            type_name=type_name, entries=entries, frequency=len(family.members)
        )

    def _collect_events(self, family: _Family) -> dict[tuple, _Event]:
        """Instantiate one event per (chunk, position) of the projections."""
        events: dict[tuple, _Event] = {}
        for chunk, projection in family.projections.items():
            for position, (ip, cpu_changed) in enumerate(projection):
                events[(chunk, position)] = _Event(
                    chunk=chunk,
                    position=position,
                    ip=ip,
                    cpu_changed=cpu_changed,
                    is_write=False,
                )
        # Fill in times / offsets / write flags from member histories.
        for history in family.members:
            counters: dict[tuple[int, int], int] = defaultdict(int)
            for el in history.elements:
                chunk = _chunk_of(history, el.offset)
                if chunk is None:
                    continue
                position = counters[chunk]
                counters[chunk] += 1
                event = events.get((chunk, position))
                if event is None:
                    continue
                event.times.add(el.time)
                event.lo = min(event.lo, el.offset)
                event.hi = max(event.hi, el.offset + 4)
                if el.is_write:
                    event.is_write = True
        return events

    def _order_events(
        self, family: _Family, events: dict[tuple, _Event]
    ) -> list[tuple]:
        """Topologically order events by pairwise precedence, then time."""
        succ: dict[tuple, set[tuple]] = defaultdict(set)
        pred_count: dict[tuple, int] = {key: 0 for key in events}
        # Within a chunk, positions are totally ordered by construction.
        for chunk, projection in family.projections.items():
            for position in range(len(projection) - 1):
                a, b = (chunk, position), (chunk, position + 1)
                if b not in succ[a]:
                    succ[a].add(b)
                    pred_count[b] += 1
        # Across chunks, pairwise histories supply observed orderings.
        for history in family.members:
            if not history.is_pair:
                continue
            counters: dict[tuple[int, int], int] = defaultdict(int)
            seq: list[tuple] = []
            for el in history.elements:
                chunk = _chunk_of(history, el.offset)
                if chunk is None:
                    continue
                key = (chunk, counters[chunk])
                counters[chunk] += 1
                if key in events:
                    seq.append(key)
            # Every observed ordering is a constraint, not just adjacent
            # ones: the history is a total order over its own elements.
            for i, a in enumerate(seq):
                for b in seq[i + 1 :]:
                    if a[0] != b[0] and b not in succ[a] and a not in succ[b]:
                        # Skip edges that would immediately conflict with
                        # an opposite observation from another object.
                        succ[a].add(b)
                        pred_count[b] += 1
        # Kahn's algorithm; mean time breaks ties (and orders everything
        # in single-offset mode, where there are no cross-chunk edges).
        ready = [key for key, count in pred_count.items() if count == 0]
        order: list[tuple] = []
        while ready:
            ready.sort(key=lambda key: (events[key].times.mean, key))
            key = ready.pop(0)
            order.append(key)
            for nxt in succ.get(key, ()):
                pred_count[nxt] -= 1
                if pred_count[nxt] == 0:
                    ready.append(nxt)
        if len(order) < len(events):
            # A cycle (conflicting pairwise observations): fall back to
            # time ordering for the remainder, as the paper concedes the
            # merge "is not perfect".
            remaining = [key for key in events if key not in set(order)]
            remaining.sort(key=lambda key: (events[key].times.mean, key))
            order.extend(remaining)
        return order

    def _entry_for(self, type_name: str, event: _Event) -> PathTraceEntry:
        fn = self.symbols.try_resolve(event.ip) or f"ip:{event.ip:#x}"
        hit_probs: dict[CacheLevel, float] = {}
        mean_latency = 0.0
        sample_count = 0
        if self.sampler is not None:
            stats = self.sampler.stats_for(type_name, event.lo, event.ip)
            if stats is None:
                # The chunk boundary may not align with the sampler's
                # binning; try the watched chunk's base offset.
                stats = self.sampler.stats_for(type_name, event.chunk[0], event.ip)
            if stats is not None and stats.count > 0:
                hit_probs = {
                    level: stats.hit_probability(level)
                    for level in CacheLevel
                    if stats.level_counts[level] > 0
                }
                mean_latency = stats.latency.mean
                sample_count = stats.count
        lo = event.lo if event.lo < OFFSET_SENTINEL else event.chunk[0]
        hi = event.hi if event.hi > 0 else event.chunk[0] + event.chunk[1]
        return PathTraceEntry(
            ip=event.ip,
            fn=fn,
            cpu_changed=event.cpu_changed,
            offsets=(lo, hi),
            is_write=event.is_write,
            mean_time=event.times.mean,
            hit_probabilities=hit_probs,
            mean_latency=mean_latency,
            sample_count=sample_count,
        )


def _chunk_of(history: ObjectAccessHistory, offset: int) -> tuple[int, int] | None:
    """The watched chunk of *history* containing *offset*, if any."""
    for chunk in history.offsets:
        lo, length = chunk
        if lo <= offset < lo + length:
            return chunk
    return None


def analyze_histories(
    symbols: SymbolTable,
    sampler,
    histories: list[ObjectAccessHistory] | dict[str, list[ObjectAccessHistory]],
    *,
    tracer=None,
) -> dict[str, list[PathTrace]]:
    """Path traces for every type, keyed (and ordered) by type name.

    ``histories`` is a flat list or an already-grouped ``{type: [...]}``
    dict; ``sampler`` may be a live collector, an offline sampler, or
    None.  When a :class:`repro.trace.Tracer` is passed, the whole call
    is wrapped in an ``analysis`` span.
    """
    if isinstance(histories, dict):
        by_type = histories
    else:
        by_type = {}
        for history in histories:
            by_type.setdefault(history.type_name, []).append(history)
    if tracer is None:
        tracer = NULL_TRACER
    builder = PathTraceBuilder(symbols, sampler)
    with tracer.span("analysis", types=len(by_type)):
        return {
            type_name: builder.build(type_name, by_type[type_name])
            for type_name in sorted(by_type)
        }
