"""Tests for session serialization and offline view reconstruction."""

import json

import pytest

from repro.api import DProf, DProfConfig
from repro.dprof.session_io import (
    FORMAT_VERSION,
    OfflineSession,
    export_session,
    load_session,
    save_session,
)
from repro.errors import ProfilingError
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.kernel.net import NetStack
from repro.kernel.net.stack import Arrival
from repro.kernel.net.udp import udp_rcv, udp_recvmsg, udp_sendmsg, udp_sock_create
from repro.hw.events import Pause


@pytest.fixture(scope="module")
def profiled_session(tmp_path_factory):
    """A small profiled UDP run plus its saved archive."""
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

    path = tmp_path_factory.mktemp("session") / "session.json"
    save_session(dprof, path)
    return dprof, path


def test_archive_is_valid_json(profiled_session):
    _dprof, path = profiled_session
    blob = json.loads(path.read_text())
    assert blob["version"] == FORMAT_VERSION
    assert blob["stats"]
    assert blob["address_set"]
    assert blob["histories"]
    assert set(blob["checksums"]) == {"stats", "histories", "address_set", "symbols"}
    assert "data_quality" in blob


def test_offline_data_profile_matches_live(profiled_session):
    dprof, path = profiled_session
    offline = load_session(path)
    live = dprof.data_profile()
    restored = offline.data_profile()
    live_shares = {r.type_name: round(r.miss_share, 6) for r in live.rows}
    restored_shares = {r.type_name: round(r.miss_share, 6) for r in restored.rows}
    assert live_shares == restored_shares
    for row in live.rows:
        other = restored.row_for(row.type_name)
        assert other is not None
        assert abs(other.working_set_bytes - row.working_set_bytes) < 1.0
        assert other.bounce == row.bounce


def test_offline_path_traces_match_live(profiled_session):
    dprof, path = profiled_session
    offline = load_session(path)
    live = dprof.path_traces("skbuff")
    restored = offline.path_traces("skbuff")
    assert [t.path_key() for t in live] == [t.path_key() for t in restored]
    assert [t.frequency for t in live] == [t.frequency for t in restored]


def test_offline_data_flow_and_classification(profiled_session):
    _dprof, path = profiled_session
    offline = load_session(path)
    flow = offline.data_flow("skbuff")
    assert "kalloc" in flow.nodes
    mc = offline.miss_classification("skbuff")
    assert mc.type_name == "skbuff"


def test_version_check(profiled_session):
    dprof, _path = profiled_session
    blob = export_session(dprof)
    blob["version"] = 99
    with pytest.raises(ProfilingError):
        OfflineSession(blob)
