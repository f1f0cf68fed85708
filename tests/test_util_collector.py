"""Tests for the cyclic-collector pause and the two places that use it."""

import gc

import pytest

from repro.api import DProf, DProfConfig
from repro.dprof import cachesim
from repro.dprof.session_io import OfflineSession, load_session, save_session
from repro.util import collector_paused

from tests.test_dprof_profiler import build_udp_machine


@pytest.fixture
def collector_enabled():
    """Start with the collector enabled and leave it enabled."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture(scope="module")
def profiled():
    """A small detached UDP session with skbuff histories."""
    k, _stack = build_udp_machine()
    dprof = DProf(k, DProfConfig(ibs_interval=200))
    dprof.attach()
    k.run(until_cycle=120_000)
    dprof.collect_histories("skbuff", sets=1, hot_chunks=2)
    k.run(until_cycle=2_000_000, stop_when=lambda: dprof.histories_done)
    dprof.detach()
    return dprof


def test_pause_disables_and_restores_an_enabled_collector(collector_enabled):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_leaves_a_disabled_collector_disabled(collector_enabled):
    gc.disable()
    try:
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_pause_restores_the_collector_on_an_exception(collector_enabled):
    with pytest.raises(RuntimeError):
        with collector_paused():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_nested_pauses_restore_the_outer_state(collector_enabled):
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_decode_and_replay_run_paused(collector_enabled, profiled, tmp_path, monkeypatch):
    seen = {}
    history_from = OfflineSession._history_from
    replay = cachesim.DProfCacheSim._replay

    def recording_history_from(blob):
        seen["decode"] = gc.isenabled()
        return history_from(blob)

    def recording_replay(self, events):
        seen["replay"] = gc.isenabled()
        return replay(self, events)

    monkeypatch.setattr(OfflineSession, "_history_from", staticmethod(recording_history_from))
    monkeypatch.setattr(cachesim.DProfCacheSim, "_replay", recording_replay)
    path = save_session(profiled, tmp_path / "session.json")
    session = load_session(path)
    assert seen == {"decode": False}
    assert gc.isenabled()
    session.working_set_sim()
    assert seen == {"decode": False, "replay": False}
    assert gc.isenabled()
    del seen["replay"]
    profiled.working_set()  # the live view replays through the same simulation
    assert seen == {"decode": False, "replay": False}
    assert gc.isenabled()
