"""Differential tests: the indexed analysis pipeline vs the reference.

The pipeline in :mod:`repro.dprof.analysis` (inverted chunk/projection
index, interned projection tuples, preallocated merge arrays) must be
*bit-identical* to the oracle
:class:`repro.dprof.pathtrace.PathTraceBuilder`: same floats, same
order.  Mirrors ``tests/test_fastpath_equivalence.py`` -- 5 seeds x 3
scenarios (memcached, apache, synthetic), comparing full path-trace
fingerprints and the rendered top-10 rows of all four views.  Any delta
anywhere fails; there is no tolerance.
"""

from __future__ import annotations

import functools
import json

import pytest

import repro.dprof.analysis as analysis
import repro.dprof.session_io as session_io
from repro.api import collect_history_session
from repro.dprof.analysis import (
    amplify_corpus,
    analyze_histories,
    synthetic_history_corpus,
)
from repro.dprof.pathtrace import PathTraceBuilder
from repro.dprof.session_io import OfflineSession, export_session
from repro.kernel.symbols import SymbolTable

SEEDS = (3, 7, 11, 23, 42)
SESSION_SCENARIOS = ("memcached", "apache")
TOP = 10


def fingerprint(traces):
    """Every field of every entry, in order -- exact equality or bust."""
    return [
        (
            t.type_name,
            t.frequency,
            [
                (
                    e.ip,
                    e.fn,
                    e.cpu_changed,
                    e.offsets,
                    e.is_write,
                    e.mean_time,
                    e.hit_probabilities,
                    e.mean_latency,
                    e.sample_count,
                )
                for e in t.entries
            ],
        )
        for t in traces
    ]


@functools.lru_cache(maxsize=None)
def session_blob(scenario: str, seed: int) -> str:
    """One collected pairwise-history session per (scenario, seed)."""
    dprof = collect_history_session(scenario, ncores=4, seed=seed)
    blob = export_session(dprof)
    assert blob["histories"], f"{scenario} seed {seed} collected no histories"
    return json.dumps(blob)


def open_session(scenario, seed):
    # A fresh parse per construction: OfflineSession may normalise the
    # blob in place, and sessions must not share state across builders.
    return OfflineSession(json.loads(session_blob(scenario, seed)))


def reference_traces(symbols, sampler, corpus):
    """Every type's traces from the oracle builder, in type order."""
    builder = PathTraceBuilder(symbols, sampler)
    return {name: builder.build(name, corpus[name]) for name in sorted(corpus)}


def session_fingerprint(session):
    """Path traces per type plus the rendered text of all four views."""
    types = sorted({h.type_name for h in session.histories})
    views = [
        session.data_profile().render(TOP),
        session.working_set().render(TOP),
    ]
    for type_name in types:
        views.append(session.miss_classification(type_name).render())
        views.append(session.data_flow(type_name).render_text())
    traces = {t: fingerprint(session.path_traces(t)) for t in types}
    return views, traces


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SESSION_SCENARIOS)
def test_offline_sessions_identical(scenario: str, seed: int, monkeypatch) -> None:
    """All four views and every path trace agree bit for bit."""
    with monkeypatch.context() as patch:
        # The oracle builder in place of the indexed one, everywhere the
        # offline session builds traces.
        patch.setattr(analysis, "IndexedPathTraceBuilder", PathTraceBuilder)
        patch.setattr(session_io, "IndexedPathTraceBuilder", PathTraceBuilder)
        ref_views, ref_traces = session_fingerprint(open_session(scenario, seed))
    assert any(ref_traces.values()), "reference builder built no traces"
    views, traces = session_fingerprint(open_session(scenario, seed))
    assert traces == ref_traces
    assert views == ref_views


@pytest.mark.parametrize("seed", SEEDS)
def test_synthetic_corpus_identical(seed: int) -> None:
    """Generated corpora (the synthetic scenario churns no collectable
    objects, so histories are generated) agree, grouped or flat."""
    corpus = synthetic_history_corpus(seed)
    symbols = SymbolTable()
    ref_fp = {
        t: fingerprint(tr)
        for t, tr in reference_traces(symbols, None, corpus).items()
    }
    assert any(ref_fp.values()), "synthetic corpus produced no traces"
    flat = [h for name in sorted(corpus) for h in corpus[name]]
    for histories in (corpus, flat):
        got = analyze_histories(symbols, None, histories)
        assert list(got) == sorted(corpus)
        assert {t: fingerprint(tr) for t, tr in got.items()} == ref_fp


def test_amplified_corpus_identical() -> None:
    """The benchmark's amplified corpus is equivalence-safe too."""
    corpus = synthetic_history_corpus(11, types=2, histories_per_type=24)
    amplified = amplify_corpus(corpus, shards=3, variants=2)
    assert len(amplified) == 6
    symbols = SymbolTable()
    ref = reference_traces(symbols, None, amplified)
    got = analyze_histories(symbols, None, amplified)
    assert {t: fingerprint(tr) for t, tr in got.items()} == {
        t: fingerprint(tr) for t, tr in ref.items()
    }
