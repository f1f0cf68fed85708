"""Tests for the content-addressed view cache layered on the store.

A cached view is keyed by (cache version, archive digest, view name,
params); the archive digest pins the raw input bytes, so a hit can never
be stale.  These tests pin the key discipline, hit/miss accounting, the
warm==cold text guarantee, temp-file sweeping, the metrics export, and
how often a render decodes its archive.
"""

import json

import pytest

from repro.api import DProf, DProfConfig, SessionStore
from repro.dprof.session_io import export_session
from repro.errors import ServeError
from repro.hw.events import Pause
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.kernel.net import NetStack
from repro.kernel.net.stack import Arrival
from repro.kernel.net.udp import udp_rcv, udp_recvmsg, udp_sendmsg, udp_sock_create
import repro.serve.store as store_module
from repro.serve.metrics import ServeMetrics
from repro.serve.store import TMP_PREFIX, VIEW_SUFFIX, ViewCache
from tests.test_golden_views import VIEWS


@pytest.fixture(scope="module")
def archive_text():
    """A small profiled UDP run with skbuff histories, as archive text."""
    k = Kernel(MachineConfig(ncores=4, seed=21))
    stack = NetStack(k)
    socks = {}

    def setup(cpu):
        socks[cpu] = yield from udp_sock_create(stack, cpu, 11211 + cpu)

    for cpu in range(4):
        k.spawn(f"s{cpu}", cpu, setup(cpu))
    k.run()

    def deliver(stack_, cpu, rxq, skb, arrival):
        yield from udp_rcv(stack_, cpu, socks[cpu], skb)

    stack.deliver = deliver

    def server(cpu):
        while True:
            skb = yield from udp_recvmsg(stack, cpu, socks[cpu])
            if skb is None:
                yield Pause(300)
                continue
            yield from udp_sendmsg(stack, cpu, socks[cpu], 512, flow_hash=skb.flow_hash)

    for cpu in range(4):
        for i in range(60):
            stack.dev.rx_queues[cpu].arrivals.append(
                Arrival(due=i * 600, flow_hash=cpu * 31 + i)
            )
    stack.spawn_softirq_threads()
    for cpu in range(4):
        k.spawn(f"srv{cpu}", cpu, server(cpu))

    dprof = DProf(k, DProfConfig(ibs_interval=200))
    dprof.attach()
    k.run(until_cycle=150_000)
    dprof.collect_histories("skbuff", sets=2, hot_chunks=4, member_offsets=[0])
    k.run(until_cycle=3_000_000, stop_when=lambda: dprof.histories_done)
    dprof.detach()
    return json.dumps(export_session(dprof))


@pytest.fixture
def store(tmp_path, archive_text):
    s = SessionStore(tmp_path / "store")
    digest = s.put_text(archive_text)
    return s, digest


class TestViewCacheKeys:
    def test_key_is_stable_and_param_sensitive(self, tmp_path):
        cache = ViewCache(tmp_path)
        base = cache.key("d1", "working-set", None, 8)
        assert base == cache.key("d1", "working-set", None, 8)
        others = {
            cache.key("d2", "working-set", None, 8),
            cache.key("d1", "data-profile", None, 8),
            cache.key("d1", "working-set", "skbuff", 8),
            cache.key("d1", "working-set", None, 10),
        }
        assert base not in others
        assert len(others) == 4

    def test_get_put_and_counters(self, tmp_path):
        cache = ViewCache(tmp_path)
        key = cache.key("d1", "working-set", None, 8)
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, "rendered")
        assert cache.get(key) == "rendered"
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.entry_count() == 1

    def test_put_is_idempotent(self, tmp_path):
        cache = ViewCache(tmp_path)
        key = cache.key("d1", "working-set", None, 8)
        cache.put(key, "first")
        cache.put(key, "second write must not clobber")
        assert cache.get(key) == "first"


class TestStoreMemoization:
    @pytest.mark.parametrize("view", ["data-profile", "working-set"])
    def test_warm_render_matches_cold(self, store, view):
        s, digest = store
        cold = s.render_view(digest, view, use_cache=False)
        assert s.views.hits == 0
        warm = s.render_view(digest, view)
        assert warm == cold
        # The uncached render above was memoized, so this was a hit.
        assert s.views.hits == 1

    def test_per_type_views_cache_too(self, store):
        s, digest = store
        cold = s.render_view(digest, "miss-class", type_name="skbuff")
        assert s.views.misses == 1
        warm = s.render_view(digest, "miss-class", type_name="skbuff")
        assert warm == cold
        assert s.views.hits == 1

    def test_archive_view_bypasses_cache(self, store, archive_text):
        s, digest = store
        assert s.render_view(digest, "archive") == archive_text
        assert (s.views.hits, s.views.misses) == (0, 0)
        assert s.views.entry_count() == 0

    def test_missing_type_argument_is_never_cached(self, store):
        s, digest = store
        with pytest.raises(ServeError):
            s.render_view(digest, "miss-class")
        assert s.views.entry_count() == 0

    def test_missing_archive_raises_before_cache(self, store):
        s, _digest = store
        with pytest.raises(ServeError):
            s.render_view("0" * 64, "working-set")
        assert (s.views.hits, s.views.misses) == (0, 0)

    def test_sweep_removes_view_temp_files(self, store):
        s, digest = store
        s.render_view(digest, "working-set")
        (s.views.root / f"{TMP_PREFIX}crashed").write_text("partial")
        assert s.sweep_tmp() == 1
        # The committed entry survives the sweep.
        assert s.views.entry_count() == 1
        assert not list(s.views.root.glob(f"{TMP_PREFIX}*"))

    def test_entries_use_view_suffix(self, store):
        s, digest = store
        s.render_view(digest, "working-set", top=5)
        entries = list(s.views.root.glob(f"*{VIEW_SUFFIX}"))
        assert len(entries) == 1
        assert entries[0].name == f"{s.views.key(digest, 'working-set', None, 5)}{VIEW_SUFFIX}"


def test_metrics_export_view_cache_counters():
    m = ServeMetrics()
    m.view_cache_hits = 7
    m.view_cache_misses = 3
    counters = m.counters(queue_depth=0, running=0)
    assert counters["view_cache_hits"] == 7
    assert counters["view_cache_misses"] == 3
    rendered = m.render(0, 0)
    assert "repro_serve_view_cache_hits 7" in rendered
    assert "repro_serve_view_cache_misses 3" in rendered


# ----------------------------------------------------------------------
# Decodes: one per full view set, never carried across digests
# ----------------------------------------------------------------------

@pytest.fixture
def decodes(monkeypatch):
    """Archive file names, one per ``load_session`` call by the store."""
    calls = []
    real = store_module.load_session

    def counting(path):
        calls.append(path.name)
        return real(path)

    monkeypatch.setattr(store_module, "load_session", counting)
    return calls


class TestDecodeSlot:
    def test_full_view_set_decodes_once(self, store, decodes):
        s, digest = store
        for view, type_name in VIEWS:
            s.render_view(digest, view, type_name=type_name, use_cache=False)
        assert len(decodes) == 1

    def test_other_digest_replaces_the_slot(self, store, archive_text, decodes):
        s, a = store
        # Same session, other bytes: a second digest.
        b = s.put_text(json.dumps(json.loads(archive_text), indent=1))
        assert b != a
        # A different view each time: only the digest forces the decode.
        for digest, view in ((a, "data-profile"), (b, "working-set"), (a, "quality")):
            s.render_view(digest, view, use_cache=False)
        assert decodes == [s.path_for(d).name for d in (a, b, a)]

    def test_repeated_cold_render_decodes_again(self, store, decodes):
        s, digest = store
        first = s.render_view(digest, "working-set", use_cache=False)
        again = s.render_view(digest, "working-set", use_cache=False)
        assert again == first
        assert len(decodes) == 2

    def test_view_cache_hit_does_not_decode(self, store, decodes):
        s, digest = store
        s.render_view(digest, "quality")
        s.render_view(digest, "quality")
        assert len(decodes) == 1

    def test_open_always_decodes(self, store, decodes):
        s, digest = store
        s.render_view(digest, "data-profile", use_cache=False)
        assert s.open(digest) is not s.open(digest)
        assert len(decodes) == 3


def _damaged(archive_text: str, section: str, value) -> str:
    """The archive with one core section replaced by *value*."""
    blob = json.loads(archive_text)
    blob[section] = value
    return json.dumps(blob)


class TestDamagedArchive:
    """A view of an archive that cannot be decoded fails the request with
    a ServeError, never an exception the server does not handle."""

    @pytest.mark.parametrize(
        ("section", "value"),
        [("window", 123), ("sim_geometry", [1000, 8, 64])],
    )
    def test_render_names_digest_and_section(self, tmp_path, archive_text, section, value):
        s = SessionStore(tmp_path / "store")
        digest = s.put_text(_damaged(archive_text, section, value))
        with pytest.raises(ServeError) as exc_info:
            s.render_view(digest, "working-set", use_cache=False)
        message = str(exc_info.value)
        assert digest in message
        assert f"[section: {section}]" in message
        assert s.views.entry_count() == 0

    def test_server_fetch_fails_and_the_server_keeps_answering(self, tmp_path, archive_text):
        from repro.serve.server import ProfilingServer

        server = ProfilingServer(tmp_path / "store", workers=1)
        digest = server.store.put_text(
            _damaged(archive_text, "sim_geometry", [1000, 8, 64])
        )
        reply = server._handle_line(
            json.dumps({"op": "fetch", "job_id": digest, "view": "working-set"})
        )
        assert reply["ok"] is False
        assert "sim_geometry" in reply["error"]
        assert server._handle_line(json.dumps({"op": "ping"}))["ok"] is True


class TestMalformedRequests:
    """A request whose fields have the wrong type, or whose digest is not
    one, answers ``ok: false``; the server keeps answering."""

    @pytest.fixture
    def server(self, tmp_path, archive_text):
        from repro.serve.server import ProfilingServer

        server = ProfilingServer(tmp_path / "store", workers=1)
        return server, server.store.put_text(archive_text)

    @pytest.mark.parametrize(
        "request_for",
        [
            lambda digest: {"op": "status", "job_id": ["x"]},
            lambda digest: {"op": "fetch", "job_id": ["x"]},
            lambda digest: {"op": "fetch", "digest": 5},
            lambda digest: {"op": "fetch", "job_id": digest, "top": "x"},
            lambda digest: {"op": "fetch", "job_id": digest, "top": [8]},
            lambda digest: {"op": "fetch", "digest": digest, "view": "miss-class",
                            "type": ["skbuff"]},
            lambda digest: {"op": "fetch", "digest": "../outside/x", "view": "archive"},
            lambda digest: {"op": "fetch", "digest": "../outside/x"},
            lambda digest: {"op": "fetch", "digest": digest.upper(), "view": "archive"},
        ],
        ids=["status-list-id", "fetch-list-id", "fetch-int-digest", "top-string",
             "top-list", "type-list", "escape-archive", "escape-view", "upper-hex"],
    )
    def test_answers_not_ok_then_ping_succeeds(self, server, request_for):
        server, digest = server
        outside = server.store.root.parent / "outside"
        outside.mkdir(exist_ok=True)
        (outside / "x.session.json").write_text("secret")
        reply = server._handle_line(json.dumps(request_for(digest)))
        assert reply["ok"] is False
        assert "secret" not in json.dumps(reply)
        assert server._handle_line(json.dumps({"op": "ping"}))["ok"] is True

    def test_well_formed_fetch_still_answers(self, server):
        server, digest = server
        reply = server._handle_line(
            json.dumps({"op": "fetch", "job_id": digest, "top": "3"})
        )
        assert reply["ok"] is True
        assert "Data profile view" in reply["rendered"]


class TestDigestCheck:
    @pytest.mark.parametrize(
        "digest",
        ["../x", "a" * 63, "a" * 65, "A" * 64, "g" * 64, "a" * 64 + "\n", "", 5, None],
    )
    def test_non_digests_are_refused(self, tmp_path, digest):
        s = SessionStore(tmp_path / "store")
        with pytest.raises(ServeError, match="not an archive digest"):
            s.path_for(digest)
        assert s.has(digest) is False

    def test_listing_skips_files_that_are_not_archives(self, tmp_path, archive_text):
        s = SessionStore(tmp_path / "store")
        digest = s.put_text(archive_text)
        (s.root / "notes.session.json").write_text("{}")
        assert s.digests() == [digest]
        assert [row["digest"] for row in s.listing()] == [digest]
