"""Tests for session serialization and offline view reconstruction."""

import json
from dataclasses import replace

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
    """Live and served views of one session agree field by field.

    Both are built by ``OfflineSession``, from inputs that differ in two
    ways a view shows:

    - the archive carries no static-object descriptions, so a
      static-only type's description is blank when served;
    - the cache simulation draws from another seed when served, so the
      working set's resident lines and conflict-suspect sets are not
      compared.
    """
    dprof, path = profiled_session
    live = dprof.data_profile()
    restored = load_session(path).data_profile()
    assert live.total_l1_misses == restored.total_l1_misses
    assert [r.type_name for r in live.rows] == [r.type_name for r in restored.rows]
    statics = dprof.kernel.slab.static_objects_by_type()
    static_only = set(statics) - set(dprof._type_descriptions)
    described = 0
    for row, other in zip(live.rows, restored.rows):
        if row.type_name in static_only:
            assert other.description == ""
            assert row.description == statics[row.type_name][0].otype.description
            described += bool(row.description)
            other = replace(other, description=row.description)
        assert row == other
    assert described, "no static-only type in the profile"


def test_offline_path_traces_match_live(profiled_session):
    dprof, path = profiled_session
    offline = load_session(path)
    types = {h.type_name for h in offline.histories}
    assert types
    for type_name in sorted(types):
        assert dprof.path_traces(type_name) == offline.path_traces(type_name)


def test_offline_working_set_live_sizes_match_live(profiled_session):
    dprof, path = profiled_session
    live = dprof.working_set()
    restored = load_session(path).working_set()
    assert live.window_cycles == restored.window_cycles

    def sizes(view):
        return [(r.type_name, r.mean_live_bytes, r.mean_live_objects) for r in view.rows]

    assert sizes(live) == sizes(restored)


def test_offline_per_type_renders_match_live(profiled_session):
    dprof, path = profiled_session
    offline = load_session(path)
    assert (
        dprof.miss_classification("skbuff").render()
        == offline.miss_classification("skbuff").render()
    )
    assert (
        dprof.data_flow("skbuff").render_text()
        == offline.data_flow("skbuff").render_text()
    )


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
