"""The DProf analysis pipeline: indexed path-trace construction.

This module is the *analysis* half of DProf -- the Section 5.3/5.4
machinery that clusters object access histories into path families,
merges per-chunk sequences via a precedence graph, and feeds the four
views:

1. **Algorithmic** (:class:`IndexedPathTraceBuilder`): the reference
   :class:`~repro.dprof.pathtrace.PathTraceBuilder` scans every existing
   family per history and recomputes each history's per-chunk projection
   inside every compatibility check, which is O(histories x families x
   elements).  The indexed builder computes each history's projections
   exactly once, interns them as small integers, and keeps a
   (chunk, projection-id) -> families inverted index so a history only
   ever visits families it could actually join.  The precedence-graph
   merge runs over preallocated parallel arrays (ints and floats indexed
   by event id) instead of per-event dataclass instances.

2. **Driver** (:func:`analyze_histories`): builds every type's traces
   serially, in sorted type order, with one indexed builder.

3. **Bit-identical contract**: every float in every
   :class:`~repro.dprof.records.PathTraceEntry` is produced by the same
   arithmetic in the same order as the reference builder (Welford mean
   updates included), so ``indexed == reference`` holds under ``==`` on
   the dataclasses, with no tolerance.  The reference builder is kept as
   the oracle ``tests/test_analysis_equivalence.py`` checks this against,
   across seeds and scenarios.

The memoization layer (the content-addressed view cache) lives with the
session store in :mod:`repro.serve.store`; this module only guarantees
that re-running analysis is never *needed* for correctness.
"""

from __future__ import annotations

from repro.dprof.pathtrace import OFFSET_SENTINEL, canonical_trace_order
from repro.dprof.records import (
    HistoryElement,
    ObjectAccessHistory,
    PathTrace,
    PathTraceEntry,
)
from repro.hw.events import CacheLevel
from repro.kernel.symbols import SymbolTable
from repro.util.rng import DeterministicRng

#: ip displacement between amplified corpus variants; far above the fake
#: kernel text segment so shifted ips never collide with real symbols.
_VARIANT_IP_STRIDE = 1 << 44


class IndexedPathTraceBuilder:
    """Near-linear path-trace construction, bit-identical to the reference.

    Drop-in for :class:`~repro.dprof.pathtrace.PathTraceBuilder`: same
    constructor shape, same :meth:`build` signature, same output down to
    every float (asserted by ``tests/test_analysis_equivalence.py``).
    """

    def __init__(self, symbols: SymbolTable, sampler=None) -> None:
        self.symbols = symbols
        self.sampler = sampler

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def build(
        self, type_name: str, histories: list[ObjectAccessHistory]
    ) -> list[PathTrace]:
        """Cluster, merge, and augment; canonical descending-frequency order."""
        complete = [h for h in histories if h.complete and h.type_name == type_name]
        projections = [self._projections(h) for h in complete]
        interner: dict[tuple, int] = {}
        interned = [
            {chunk: interner.setdefault(proj, len(interner)) for chunk, proj in projs.items()}
            for projs in projections
        ]
        proj_tuples = list(interner)  # id -> projection tuple
        families = self._cluster(complete, interned)
        traces: dict[tuple, PathTrace] = {}
        for fam_proj, member_ids in families:
            members = [complete[i] for i in member_ids]
            trace = self._merge_family(type_name, fam_proj, proj_tuples, members)
            if trace is None:
                continue
            existing = traces.get(trace.path_key())
            if existing is not None:
                existing.frequency += trace.frequency
            else:
                traces[trace.path_key()] = trace
        return canonical_trace_order(traces.values())

    # ------------------------------------------------------------------
    # Projections (computed once per history, unlike the reference)
    # ------------------------------------------------------------------

    @staticmethod
    def _projections(history: ObjectAccessHistory) -> dict[tuple[int, int], tuple]:
        """Every watched chunk's (ip, cpu-changed) projection, in one pass."""
        offsets = history.offsets
        sigs: dict[tuple[int, int], list] = {chunk: [] for chunk in offsets}
        prev_cpu = history.alloc_cpu
        for el in history.elements:
            changed = el.cpu != prev_cpu
            prev_cpu = el.cpu
            off = el.offset
            for chunk in offsets:
                lo, length = chunk
                if lo <= off < lo + length:
                    sigs[chunk].append((el.ip, changed))
        return {chunk: tuple(sig) for chunk, sig in sigs.items()}

    # ------------------------------------------------------------------
    # Clustering via the (chunk, projection-id) inverted index
    # ------------------------------------------------------------------

    @staticmethod
    def _cluster(
        histories: list[ObjectAccessHistory],
        interned: list[dict[tuple[int, int], int]],
    ) -> list[tuple[dict[tuple[int, int], int], list[int]]]:
        """Group histories into families; same assignments as the reference.

        A family is eligible for a history exactly when it shares a chunk
        and agrees on every shared chunk's projection -- which implies it
        agrees on at least one, so the (chunk, projection-id) index lists
        every eligible family and the lowest family id among verified
        candidates is precisely the reference scan's first match.
        """
        fam_proj: list[dict[tuple[int, int], int]] = []
        fam_members: list[list[int]] = []
        index: dict[tuple[tuple[int, int], int], list[int]] = {}
        order = [i for i, h in enumerate(histories) if h.is_pair]
        order += [i for i, h in enumerate(histories) if not h.is_pair]
        for hist_idx in order:
            hp = interned[hist_idx]
            candidates: set[int] = set()
            for chunk_pid in hp.items():
                candidates.update(index.get(chunk_pid, ()))
            target = None
            for fid in sorted(candidates):
                proj = fam_proj[fid]
                for chunk, pid in hp.items():
                    fpid = proj.get(chunk)
                    if fpid is not None and fpid != pid:
                        break
                else:
                    target = fid
                    break
            if target is None:
                target = len(fam_proj)
                fam_proj.append({})
                fam_members.append([])
            proj = fam_proj[target]
            for chunk, pid in hp.items():
                if chunk not in proj:
                    proj[chunk] = pid
                    index.setdefault((chunk, pid), []).append(target)
            fam_members[target].append(hist_idx)
        return list(zip(fam_proj, fam_members))

    # ------------------------------------------------------------------
    # Merging one family over preallocated arrays
    # ------------------------------------------------------------------

    def _merge_family(
        self,
        type_name: str,
        fam_proj: dict[tuple[int, int], int],
        proj_tuples: list[tuple],
        members: list[ObjectAccessHistory],
    ) -> PathTrace | None:
        # One event per (chunk, position) of the family's projections.
        keys: list[tuple] = []  # event id -> (chunk, position)
        ev_chunk: list[tuple[int, int]] = []
        ev_ip: list[int] = []
        ev_changed: list[bool] = []
        key_to_id: dict[tuple, int] = {}
        for chunk, pid in fam_proj.items():
            for position, (ip, changed) in enumerate(proj_tuples[pid]):
                key_to_id[(chunk, position)] = len(keys)
                keys.append((chunk, position))
                ev_chunk.append(chunk)
                ev_ip.append(ip)
                ev_changed.append(changed)
        n = len(keys)
        if n == 0:
            return None

        # Each member element's event id, resolved once and reused by the
        # statistics fill and the precedence pass below.
        member_keys: list[list[int]] = []
        for history in members:
            counters: dict[tuple[int, int], int] = {}
            resolved: list[int] = []
            offsets = history.offsets
            for el in history.elements:
                off = el.offset
                chunk = None
                for cand in offsets:
                    if cand[0] <= off < cand[0] + cand[1]:
                        chunk = cand
                        break
                if chunk is None:
                    resolved.append(-1)
                    continue
                position = counters.get(chunk, 0)
                counters[chunk] = position + 1
                resolved.append(key_to_id.get((chunk, position), -1))
            member_keys.append(resolved)

        # Statistics fill: same Welford updates in the same order as the
        # reference's OnlineStats.add, so means are float-identical.
        cnt = [0] * n
        mean = [0.0] * n
        lo = [OFFSET_SENTINEL] * n
        hi = [0] * n
        is_write = [False] * n
        for history, resolved in zip(members, member_keys):
            for el, eid in zip(history.elements, resolved):
                if eid < 0:
                    continue
                c = cnt[eid] + 1
                cnt[eid] = c
                delta = el.time - mean[eid]
                mean[eid] += delta / c
                off = el.offset
                if off < lo[eid]:
                    lo[eid] = off
                if off + 4 > hi[eid]:
                    hi[eid] = off + 4
                if el.is_write:
                    is_write[eid] = True

        order = self._order_events(
            fam_proj, proj_tuples, members, member_keys, key_to_id,
            ev_chunk, mean, keys,
        )
        entries = [
            self._entry_for(
                type_name, ev_ip[eid], ev_changed[eid], ev_chunk[eid],
                lo[eid], hi[eid], is_write[eid], mean[eid],
            )
            for eid in order
        ]
        return PathTrace(type_name=type_name, entries=entries, frequency=len(members))

    def _order_events(
        self,
        fam_proj: dict[tuple[int, int], int],
        proj_tuples: list[tuple],
        members: list[ObjectAccessHistory],
        member_keys: list[list[int]],
        key_to_id: dict[tuple, int],
        ev_chunk: list[tuple[int, int]],
        mean: list[float],
        keys: list[tuple],
    ) -> list[int]:
        """Topological order by precedence, mean time breaking ties."""
        n = len(keys)
        succ: list[set[int]] = [set() for _ in range(n)]
        pred = [0] * n
        # Within a chunk, positions are totally ordered by construction.
        for chunk, pid in fam_proj.items():
            length = len(proj_tuples[pid])
            for position in range(length - 1):
                a = key_to_id[(chunk, position)]
                b = key_to_id[(chunk, position + 1)]
                if b not in succ[a]:
                    succ[a].add(b)
                    pred[b] += 1
        # Across chunks, pairwise histories supply observed orderings;
        # every observed ordering is a constraint, not just adjacent ones.
        for history, resolved in zip(members, member_keys):
            if not history.is_pair:
                continue
            seq = [eid for eid in resolved if eid >= 0]
            for i, a in enumerate(seq):
                chunk_a = ev_chunk[a]
                succ_a = succ[a]
                for b in seq[i + 1:]:
                    if ev_chunk[b] != chunk_a and b not in succ_a and a not in succ[b]:
                        succ_a.add(b)
                        pred[b] += 1
        # Kahn's algorithm; (mean time, key) picks among the ready set
        # exactly like the reference, so ties resolve identically.
        ready = [eid for eid in range(n) if pred[eid] == 0]
        order: list[int] = []
        while ready:
            ready.sort(key=lambda eid: (mean[eid], keys[eid]))
            eid = ready.pop(0)
            order.append(eid)
            for nxt in succ[eid]:
                pred[nxt] -= 1
                if pred[nxt] == 0:
                    ready.append(nxt)
        if len(order) < n:
            # A cycle (conflicting pairwise observations): fall back to
            # time ordering for the remainder, as the reference does.
            placed = set(order)
            remaining = [eid for eid in range(n) if eid not in placed]
            remaining.sort(key=lambda eid: (mean[eid], keys[eid]))
            order.extend(remaining)
        return order

    def _entry_for(
        self,
        type_name: str,
        ip: int,
        cpu_changed: bool,
        chunk: tuple[int, int],
        lo: int,
        hi: int,
        is_write: bool,
        mean_time: float,
    ) -> PathTraceEntry:
        fn = self.symbols.try_resolve(ip) or f"ip:{ip:#x}"
        hit_probs: dict[CacheLevel, float] = {}
        mean_latency = 0.0
        sample_count = 0
        if self.sampler is not None:
            stats = self.sampler.stats_for(type_name, lo, ip)
            if stats is None:
                stats = self.sampler.stats_for(type_name, chunk[0], ip)
            if stats is not None and stats.count > 0:
                hit_probs = {
                    level: stats.hit_probability(level)
                    for level in CacheLevel
                    if stats.level_counts[level] > 0
                }
                mean_latency = stats.latency.mean
                sample_count = stats.count
        lo = lo if lo < OFFSET_SENTINEL else chunk[0]
        hi = hi if hi > 0 else chunk[0] + chunk[1]
        return PathTraceEntry(
            ip=ip,
            fn=fn,
            cpu_changed=cpu_changed,
            offsets=(lo, hi),
            is_write=is_write,
            mean_time=mean_time,
            hit_probabilities=hit_probs,
            mean_latency=mean_latency,
            sample_count=sample_count,
        )


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


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
        from repro.trace import NULL_TRACER

        tracer = NULL_TRACER
    builder = IndexedPathTraceBuilder(symbols, sampler)
    with tracer.span("analysis", types=len(by_type)):
        return {
            type_name: builder.build(type_name, by_type[type_name])
            for type_name in sorted(by_type)
        }


# ----------------------------------------------------------------------
# Benchmark corpora: amplified real histories and generated ones
# ----------------------------------------------------------------------


def amplify_corpus(
    by_type: dict[str, list[ObjectAccessHistory]],
    *,
    shards: int = 4,
    variants: int = 4,
) -> dict[str, list[ObjectAccessHistory]]:
    """Scale a collected history corpus for analysis benchmarking.

    Each source type becomes *shards* independent type shards (so the
    corpus has several types, like a code base with more profiled
    types), and each shard holds *variants* ip-displaced copies of the source
    histories (so the family count grows the way a code base with more
    distinct execution paths would).  Variant 0 is the unmodified
    original; the displacement is deterministic, far outside the fake
    text segment, and identical for every pipeline under test.
    """
    amplified: dict[str, list[ObjectAccessHistory]] = {}
    for type_name in sorted(by_type):
        source = by_type[type_name]
        for shard in range(shards):
            shard_name = f"{type_name}@{shard}"
            clones: list[ObjectAccessHistory] = []
            for variant in range(variants):
                shift = (shard * variants + variant) * _VARIANT_IP_STRIDE
                for history in source:
                    clone = ObjectAccessHistory(
                        type_name=shard_name,
                        object_base=history.object_base,
                        object_cookie=history.object_cookie,
                        offsets=history.offsets,
                        alloc_cpu=history.alloc_cpu,
                        alloc_cycle=history.alloc_cycle,
                        set_index=history.set_index,
                        truncated=history.truncated,
                    )
                    clone.free_cycle = history.free_cycle
                    clone.free_cpu = history.free_cpu
                    clone.elements = [
                        HistoryElement(
                            offset=el.offset,
                            ip=el.ip + shift,
                            cpu=el.cpu,
                            time=el.time,
                            is_write=el.is_write,
                        )
                        for el in history.elements
                    ]
                    clones.append(clone)
            amplified[shard_name] = clones
    return amplified


def synthetic_history_corpus(
    seed: int,
    *,
    types: int = 4,
    histories_per_type: int = 48,
    chunks: int = 4,
    chunk_size: int = 4,
    paths_per_type: int = 6,
    pair_fraction: float = 0.5,
) -> dict[str, list[ObjectAccessHistory]]:
    """A generated multi-type history corpus (no machine required).

    A pure function of the seed, so the reference and indexed builders
    can be compared on a workload with a known shape -- several types, several distinct
    execution paths per type, a mix of pairwise and single-chunk
    histories.
    """
    rng = DeterministicRng(seed, "analysis-corpus")
    corpus: dict[str, list[ObjectAccessHistory]] = {}
    for t in range(types):
        type_name = f"synthetic_type_{t}"
        type_rng = rng.child(type_name)
        chunk_list = [(i * chunk_size, chunk_size) for i in range(chunks)]
        # Each path is a fixed (chunk, ip, cpu, write) script; histories
        # following the same path share projections and cluster together.
        paths = []
        for p in range(paths_per_type):
            length = type_rng.randint(3, 2 * chunks)
            script = []
            for step in range(length):
                chunk = chunk_list[type_rng.randint(0, chunks - 1)]
                ip = 0x1000_0000 + (t * paths_per_type + p) * 0x100 + step
                cpu = type_rng.randint(0, 3)
                script.append((chunk, ip, cpu, type_rng.random() < 0.3))
            paths.append(script)
        histories = []
        for i in range(histories_per_type):
            script = paths[type_rng.randint(0, paths_per_type - 1)]
            pair = type_rng.random() < pair_fraction
            if pair:
                watched = tuple(type_rng.sample(chunk_list, 2))
            else:
                watched = (chunk_list[type_rng.randint(0, chunks - 1)],)
            history = ObjectAccessHistory(
                type_name=type_name,
                object_base=0x10_0000 + i * 0x100,
                object_cookie=i,
                offsets=watched,
                alloc_cpu=script[0][2],
                alloc_cycle=0,
                set_index=i,
            )
            time = 0
            for chunk, ip, cpu, is_write in script:
                time += type_rng.randint(5, 60)
                if chunk not in watched:
                    continue
                history.elements.append(
                    HistoryElement(
                        offset=chunk[0], ip=ip, cpu=cpu, time=time, is_write=is_write
                    )
                )
            history.free_cycle = time + type_rng.randint(10, 100)
            history.free_cpu = script[-1][2]
            histories.append(history)
        corpus[type_name] = histories
    return corpus
