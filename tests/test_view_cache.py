"""Tests for the content-addressed view cache layered on the store.

A cached view is keyed by (cache version, archive digest, view name,
params); the archive digest pins the raw input bytes, so a hit can never
be stale.  These tests pin the key discipline, hit/miss accounting, the
warm==cold text guarantee, temp-file sweeping, and the metrics export.
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
from repro.serve.metrics import ServeMetrics
from repro.serve.store import TMP_PREFIX, VIEW_SUFFIX, ViewCache


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
