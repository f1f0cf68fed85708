"""Session archives under concurrency: atomic writes, torn-write recovery.

``save_session`` (and the serve store built on it) writes to a temp file
in the destination directory and ``os.replace``s it into place, so a
reader racing any number of writers sees a complete old or new archive
-- never interleaved bytes.  A *torn* file (simulated crash via
``repro.faults.tear_file``) must fail loudly as SessionFormatError, not
parse as garbage.
"""

import json
import multiprocessing

import pytest

from repro.api import DProf, DProfConfig, JobSpec, SessionStore
from repro.dprof.session_io import load_session, save_session
from repro.util.files import atomic_write_text
from repro.errors import SessionFormatError
from repro.faults import tear_file
from repro.serve.workers import execute_job

WRITERS = 4
ROUNDS = 25


def _writer(path, marker, rounds, barrier):
    """Repeatedly atomic-write a parseable payload tagged with marker."""
    barrier.wait()
    payload = json.dumps({"marker": marker, "fill": "x" * 4096})
    for _ in range(rounds):
        atomic_write_text(path, payload)


def test_atomic_write_never_interleaves(tmp_path):
    """N processes hammering one path: every read parses whole."""
    path = tmp_path / "contended.json"
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(WRITERS + 1)
    procs = [
        ctx.Process(target=_writer, args=(path, w, ROUNDS, barrier))
        for w in range(WRITERS)
    ]
    for proc in procs:
        proc.start()
    barrier.wait()
    observed = set()
    while any(proc.is_alive() for proc in procs):
        if path.exists():
            # Any visible file must be one writer's complete payload.
            blob = json.loads(path.read_text())
            observed.add(blob["marker"])
    for proc in procs:
        proc.join()
        assert proc.exitcode == 0
    assert observed <= set(range(WRITERS))
    # No temp droppings left behind.
    assert list(tmp_path.glob(".tmp-*")) == []


def _profiled_session():
    from tests.test_dprof_profiler import build_udp_machine

    k, _stack = build_udp_machine()
    dprof = DProf(k, DProfConfig(ibs_interval=300))
    dprof.attach()
    k.run(until_cycle=100_000)
    dprof.detach()
    return dprof


def test_save_session_is_atomic_over_existing_archive(tmp_path):
    """Overwriting an archive can't leave a half-written hybrid."""
    dprof = _profiled_session()
    path = tmp_path / "session.json"
    save_session(dprof, path)
    before = path.read_text()
    save_session(dprof, path)  # deterministic -> byte-identical rewrite
    assert path.read_text() == before
    load_session(path)  # still a valid archive
    assert list(tmp_path.glob(".tmp-*")) == []


def test_torn_archive_fails_loudly(tmp_path):
    """A crash mid-write (torn file) raises SessionFormatError."""
    dprof = _profiled_session()
    path = tmp_path / "session.json"
    save_session(dprof, path)
    tear_file(path, keep_fraction=0.5)
    with pytest.raises(SessionFormatError):
        load_session(path)


def _store_worker(store_root, seed, result_q):
    try:
        spec = JobSpec.create(scenario="synthetic", duration=80_000, seed=seed)
        _status, text, _info = execute_job(spec)
        digest = SessionStore(store_root).put_text(text)
        result_q.put(("ok", seed, digest))
    except Exception as exc:  # pragma: no cover - failure reporting
        result_q.put(("err", seed, repr(exc)))


def test_store_concurrent_writers_round_trip(tmp_path):
    """Concurrent processes filling one store: all archives verify.

    Two writers share seed 1 on purpose: identical specs produce the
    identical archive, and the idempotent content-addressed put must let
    both "win" without corrupting the file.
    """
    ctx = multiprocessing.get_context("fork")
    result_q = ctx.Queue()
    seeds = [1, 1, 2, 3]
    procs = [
        ctx.Process(target=_store_worker, args=(tmp_path, seed, result_q))
        for seed in seeds
    ]
    for proc in procs:
        proc.start()
    results = [result_q.get(timeout=120) for _ in seeds]
    for proc in procs:
        proc.join()
    assert all(kind == "ok" for kind, _, _ in results), results
    digests = {seed: digest for _, seed, digest in results}
    store = SessionStore(tmp_path)
    assert len(store.digests()) == 3  # seed 1's twins deduplicated
    for digest in store.digests():
        assert store.verify(digest)
        store.open(digest).data_profile()
