"""Tests for path trace construction: clustering, merging, augmentation."""

import random

import pytest

from repro.dprof.pathtrace import (
    PathTraceBuilder,
    analyze_histories,
    canonical_trace_order,
)
from repro.dprof.records import HistoryElement, ObjectAccessHistory
from repro.kernel.symbols import SymbolTable
from repro.trace import Tracer


def make_history(
    chunks, elements, base=0x1000, cookie=1, alloc_cpu=0, type_name="widget"
):
    h = ObjectAccessHistory(
        type_name=type_name,
        object_base=base,
        object_cookie=cookie,
        offsets=tuple(chunks),
        alloc_cpu=alloc_cpu,
        alloc_cycle=0,
    )
    h.elements = [
        HistoryElement(offset=off, ip=ip, cpu=cpu, time=t, is_write=w)
        for (off, ip, cpu, t, w) in elements
    ]
    h.free_cycle = 1000
    h.free_cpu = alloc_cpu
    return h


def make_builder():
    symbols = SymbolTable()
    ips = {
        "init": symbols.ip_for("init_fn", "w"),
        "use": symbols.ip_for("use_fn", "r"),
        "send": symbols.ip_for("send_fn", "r"),
    }
    return PathTraceBuilder(symbols), ips


class TestSingleOffsetMerge:
    def test_single_history_becomes_trace(self):
        builder, ips = make_builder()
        h = make_history(
            [(0, 4)],
            [(0, ips["init"], 0, 10, True), (0, ips["use"], 0, 50, False)],
        )
        traces = builder.build("widget", [h])
        assert len(traces) == 1
        trace = traces[0]
        assert [e.fn for e in trace.entries] == ["init_fn", "use_fn"]
        assert trace.frequency == 1
        assert not trace.bounces

    def test_identical_histories_aggregate_frequency(self):
        builder, ips = make_builder()
        histories = [
            make_history([(0, 4)], [(0, ips["init"], 0, 10 + i, True)], cookie=i)
            for i in range(5)
        ]
        traces = builder.build("widget", histories)
        assert len(traces) == 1
        assert traces[0].frequency == 5
        # Mean time averages across members.
        assert abs(traces[0].entries[0].mean_time - 12.0) < 1e-9

    def test_different_chunks_stay_separate_without_pair_evidence(self):
        # Two single-offset histories of different chunks carry no
        # evidence they belong to the same execution path, so the
        # conservative merge keeps them as separate partial traces
        # (pairwise sampling exists precisely to connect them).
        builder, ips = make_builder()
        h_a = make_history([(0, 4)], [(0, ips["use"], 0, 50, False)])
        h_b = make_history([(8, 4)], [(8, ips["init"], 0, 10, True)], cookie=2)
        traces = builder.build("widget", [h_a, h_b])
        assert len(traces) == 2

    def test_pair_evidence_connects_single_histories(self):
        # A pairwise history covering both chunks supplies the missing
        # evidence; the singles then reinforce the same family.
        builder, ips = make_builder()
        pair = make_history(
            [(0, 4), (8, 4)],
            [(8, ips["init"], 0, 10, True), (0, ips["use"], 0, 50, False)],
        )
        h_a = make_history([(0, 4)], [(0, ips["use"], 0, 55, False)], cookie=2)
        h_b = make_history([(8, 4)], [(8, ips["init"], 0, 12, True)], cookie=3)
        traces = builder.build("widget", [pair, h_a, h_b])
        assert len(traces) == 1
        assert traces[0].frequency == 3
        assert [e.fn for e in traces[0].entries] == ["init_fn", "use_fn"]

    def test_conflicting_projections_split_paths(self):
        builder, ips = make_builder()
        h1 = make_history([(0, 4)], [(0, ips["use"], 0, 10, False)])
        h2 = make_history(
            [(0, 4)],
            [(0, ips["use"], 0, 10, False), (0, ips["send"], 0, 20, False)],
            cookie=2,
        )
        traces = builder.build("widget", [h1, h2])
        assert len(traces) == 2
        lengths = sorted(len(t.entries) for t in traces)
        assert lengths == [1, 2]

    def test_incomplete_histories_ignored(self):
        builder, ips = make_builder()
        h = make_history([(0, 4)], [(0, ips["use"], 0, 10, False)])
        h.free_cycle = None
        assert builder.build("widget", [h]) == []


class TestPairwiseMerge:
    def test_pair_history_orders_across_chunks(self):
        builder, ips = make_builder()
        # Observed interleaving: init(8), use(0), send(8) -- time values
        # deliberately contradict the observed order to prove the pairwise
        # edges win.
        h = make_history(
            [(0, 4), (8, 4)],
            [
                (8, ips["init"], 0, 100, True),
                (0, ips["use"], 0, 5, False),
                (8, ips["send"], 0, 7, False),
            ],
        )
        traces = builder.build("widget", [h])
        fns = [e.fn for e in traces[0].entries]
        assert fns == ["init_fn", "use_fn", "send_fn"]

    def test_pairs_stitch_through_shared_chunk(self):
        builder, ips = make_builder()
        # Pair (0,8) from one object, pair (8,16) from another; chunk 8's
        # projection matches, so the family covers all three chunks.
        h1 = make_history(
            [(0, 4), (8, 4)],
            [(0, ips["init"], 0, 10, True), (8, ips["use"], 0, 20, False)],
        )
        h2 = make_history(
            [(8, 4), (16, 4)],
            [(8, ips["use"], 0, 21, False), (16, ips["send"], 0, 30, False)],
            cookie=2,
        )
        traces = builder.build("widget", [h1, h2])
        assert len(traces) == 1
        fns = [e.fn for e in traces[0].entries]
        assert fns == ["init_fn", "use_fn", "send_fn"]

    def test_cpu_change_flags_survive_merge(self):
        builder, ips = make_builder()
        h = make_history(
            [(0, 4), (8, 4)],
            [
                (0, ips["init"], 0, 10, True),
                (8, ips["send"], 3, 20, False),  # different core
            ],
        )
        traces = builder.build("widget", [h])
        assert traces[0].bounces
        assert [e.cpu_changed for e in traces[0].entries] == [False, True]

    def test_offsets_range_reported(self):
        builder, ips = make_builder()
        h = make_history(
            [(0, 4)],
            [(0, ips["use"], 0, 10, False), (2, ips["use"], 0, 30, False)],
        )
        # Two accesses at different offsets within the chunk and the same
        # ip are two positions; each reports its own offset span.
        traces = builder.build("widget", [h])
        entries = traces[0].entries
        assert entries[0].offsets[0] == 0
        assert entries[1].offsets[0] == 2


class TestCanonicalOrder:
    def test_equal_frequency_ties_break_on_path_key(self):
        # Two disconnected families, both frequency 1: frequency alone
        # cannot order them, so the output must fall back to the stable
        # (type name, path key) secondary key.
        builder, ips = make_builder()
        h_a = make_history([(0, 4)], [(0, ips["use"], 0, 50, False)])
        h_b = make_history([(8, 4)], [(8, ips["init"], 0, 10, True)], cookie=2)
        traces = builder.build("widget", [h_a, h_b])
        assert len(traces) == 2
        assert [t.path_key() for t in traces] == sorted(
            t.path_key() for t in traces
        )

    def test_output_order_independent_of_input_order(self):
        # The pre-fix builder sorted by frequency only; Python's stable
        # sort then leaked history *insertion* order into the output.
        builder, ips = make_builder()
        h_a = make_history([(0, 4)], [(0, ips["use"], 0, 50, False)])
        h_b = make_history([(8, 4)], [(8, ips["init"], 0, 10, True)], cookie=2)
        forward = builder.build("widget", [h_a, h_b])
        backward = builder.build("widget", [h_b, h_a])
        key = lambda t: (t.frequency, [(e.ip, e.fn) for e in t.entries])
        assert [key(t) for t in forward] == [key(t) for t in backward]

    def test_canonical_trace_order_sorts_frequency_then_key(self):
        builder, ips = make_builder()
        rare = make_history([(0, 4)], [(0, ips["use"], 0, 50, False)])
        common = [
            make_history(
                [(8, 4)], [(8, ips["init"], 0, 10, True)], cookie=10 + i
            )
            for i in range(3)
        ]
        traces = builder.build("widget", [rare, *common])
        assert [t.frequency for t in traces] == [3, 1]
        assert canonical_trace_order(reversed(traces)) == traces


class TestUniquePaths:
    def test_unique_paths_counts_signatures(self):
        builder, ips = make_builder()
        h1 = make_history([(0, 4)], [(0, ips["use"], 0, 10, False)])
        h2 = make_history([(0, 4)], [(0, ips["use"], 0, 99, False)], cookie=2)
        h3 = make_history([(0, 4)], [(0, ips["send"], 0, 10, False)], cookie=3)
        paths = PathTraceBuilder.unique_paths([h1, h2, h3])
        assert len(paths) == 2  # h1 and h2 share a signature


def multi_type_corpus(seed):
    """Pairwise and single-chunk histories of three types, keyed in
    unsorted order; a pure function of *seed*."""
    rng = random.Random(seed)
    symbols = SymbolTable()
    ips = [symbols.ip_for(f"step{i}_fn", "r") for i in range(8)]
    chunks = [(0, 4), (8, 4), (16, 4)]
    corpus = {}
    for type_name in ("zeta", "alpha", "mid"):
        histories = []
        for cookie in range(24):
            watched = tuple(rng.sample(chunks, rng.choice((1, 2))))
            path = rng.randrange(3)
            elements, time = [], 0
            for step in range(5):
                chunk = chunks[(path + step) % len(chunks)]
                time += rng.randint(5, 40)
                if chunk in watched:
                    elements.append(
                        (chunk[0], ips[path + step], step % 2, time, step == 0)
                    )
            histories.append(
                make_history(watched, elements, cookie=cookie, type_name=type_name)
            )
        corpus[type_name] = histories
    return symbols, corpus


@pytest.mark.parametrize("seed", (3, 7, 11, 23, 42))
def test_analyze_histories_flat_and_grouped_agree(seed):
    # Grouped or flat input, every type's traces are exactly what the
    # builder gives for that type alone, keyed in sorted type order, and
    # each call is one ``analysis`` span.
    symbols, corpus = multi_type_corpus(seed)
    builder = PathTraceBuilder(symbols)
    expected = {name: builder.build(name, corpus[name]) for name in sorted(corpus)}
    assert all(expected.values())
    # Types interleaved; each type's own histories keep their order
    # (family clustering is first-fit, so that order matters).
    flat = [h for group in zip(*corpus.values()) for h in group]
    for histories in (corpus, flat):
        tracer = Tracer(seed=seed)
        got = analyze_histories(symbols, None, histories, tracer=tracer)
        assert list(got) == ["alpha", "mid", "zeta"]
        assert got == expected
        assert [span.name for span in tracer.spans] == ["analysis"]
