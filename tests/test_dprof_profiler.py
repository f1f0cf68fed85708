"""Integration tests for the DProf facade on a live workload."""

import pytest

from repro.api import DProf, DProfConfig
from repro.errors import ProfilingError
from repro.hw.events import Pause
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.kernel.net import NetStack
from repro.kernel.net.stack import Arrival
from repro.kernel.net.udp import udp_rcv, udp_recvmsg, udp_sendmsg, udp_sock_create


def build_udp_machine(ncores=4, requests_per_core=150):
    """A small closed-loop UDP echo machine used across profiler tests."""
    k = Kernel(MachineConfig(ncores=ncores, seed=21))
    stack = NetStack(k)
    socks = {}

    def setup(cpu):
        socks[cpu] = yield from udp_sock_create(stack, cpu, 11211 + cpu)

    for cpu in range(ncores):
        k.spawn(f"setup{cpu}", cpu, setup(cpu))
    k.run()

    def deliver(stack_, cpu, rxq, skb, arrival):
        yield from udp_rcv(stack_, cpu, socks[cpu], skb)

    stack.deliver = deliver

    def on_complete(skb, cpu):
        origin = skb.meta.get("origin")
        if origin is not None:
            rxq = stack.dev.rx_queues[origin]
            rxq.arrivals.append(
                Arrival(due=k.machine.cores[cpu].cycle + 500, flow_hash=skb.flow_hash + 13)
            )

    stack.on_tx_complete_cb = on_complete

    def server(cpu):
        while True:
            skb = yield from udp_recvmsg(stack, cpu, socks[cpu])
            if skb is None:
                yield Pause(300)
                continue
            resp = yield from udp_sendmsg(stack, cpu, socks[cpu], 512, flow_hash=skb.flow_hash)
            resp.meta["origin"] = cpu

    for cpu in range(ncores):
        for i in range(4):
            stack.dev.rx_queues[cpu].arrivals.append(
                Arrival(due=i * 211, flow_hash=cpu * 7 + i)
            )
    stack.spawn_softirq_threads()
    for cpu in range(ncores):
        k.spawn(f"srv{cpu}", cpu, server(cpu))
    return k, stack


class TestDProfSession:
    def test_attach_detach_lifecycle(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k, DProfConfig(ibs_interval=200))
        dprof.attach()
        with pytest.raises(ProfilingError):
            dprof.attach()
        k.run(until_cycle=100_000)
        dprof.detach()
        with pytest.raises(ProfilingError):
            dprof.detach()
        assert dprof.sampler.samples
        assert dprof.address_set.entries

    def test_data_profile_ranks_types(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k, DProfConfig(ibs_interval=150))
        dprof.attach()
        k.run(until_cycle=400_000)
        dprof.detach()
        profile = dprof.data_profile()
        names = [r.type_name for r in profile.rows]
        assert "size-1024" in names
        assert "skbuff" in names
        # Payload carries the bulk traffic: it must rank above the socket.
        assert names.index("size-1024") < names.index("udp_sock")
        # Static allocator bookkeeping gets a non-zero footprint.
        slab_row = profile.row_for("slab")
        if slab_row is not None:
            assert slab_row.working_set_bytes > 0

    def test_history_collection_to_path_traces(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k, DProfConfig(ibs_interval=150))
        dprof.attach()
        k.run(until_cycle=150_000)
        jobs = dprof.collect_histories("skbuff", sets=2, hot_chunks=4)
        assert jobs > 0
        k.run(until_cycle=3_000_000, stop_when=lambda: dprof.histories_done)
        dprof.detach()
        assert dprof.history.jobs_completed > 0
        traces = dprof.path_traces("skbuff")
        assert traces
        assert all(t.type_name == "skbuff" for t in traces)

    def test_data_flow_view_from_live_traces(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k, DProfConfig(ibs_interval=150))
        dprof.attach()
        k.run(until_cycle=150_000)
        dprof.collect_histories("skbuff", sets=2, hot_chunks=4)
        k.run(until_cycle=3_000_000, stop_when=lambda: dprof.histories_done)
        dprof.detach()
        flow = dprof.data_flow("skbuff")
        assert flow.nodes["kalloc"].visits > 0
        assert flow.edges

    def test_working_set_view_populates(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k, DProfConfig(ibs_interval=300))
        dprof.attach()
        k.run(until_cycle=300_000)
        dprof.detach()
        ws = dprof.working_set()
        row = ws.row_for("size-1024")
        assert row is not None
        assert row.mean_live_bytes > 0
        assert ws.window_cycles > 0

    def test_miss_classification_runs(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k, DProfConfig(ibs_interval=150))
        dprof.attach()
        k.run(until_cycle=150_000)
        dprof.collect_histories("size-1024", sets=1, hot_chunks=4)
        k.run(until_cycle=3_000_000, stop_when=lambda: dprof.histories_done)
        dprof.detach()
        mc = dprof.miss_classification("size-1024")
        assert mc.type_name == "size-1024"
        # Shares are a valid distribution when any misses classified.
        total = sum(mc.share(k_) for k_ in mc.weights)
        assert total == pytest.approx(1.0) or mc.total == 0

    def test_unknown_type_raises(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k)
        dprof.attach()
        with pytest.raises(ProfilingError):
            dprof.collect_histories("no_such_type", sets=1)
        dprof.detach()

    def test_overhead_scales_with_sampling_rate(self):
        def overhead(interval):
            k, _stack = build_udp_machine()
            dprof = DProf(k, DProfConfig(ibs_interval=interval))
            dprof.attach()
            k.run(until_cycle=200_000)
            dprof.detach()
            return k.machine.total_overhead_cycles()

        assert overhead(100) > 2 * overhead(1000)

    def test_views_need_a_detached_profiler(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k, DProfConfig(ibs_interval=300))
        dprof.attach()
        k.run(until_cycle=100_000)
        views = (
            dprof.data_profile,
            dprof.working_set,
            dprof.working_set_sim,
            lambda: dprof.path_traces("skbuff"),
            lambda: dprof.miss_classification("skbuff"),
            lambda: dprof.data_flow("skbuff"),
        )
        for view in views:
            with pytest.raises(ProfilingError, match="detach"):
                view()
        dprof.detach()
        assert dprof.data_profile().rows

    def test_each_detach_rebuilds_the_views(self):
        k, _stack = build_udp_machine()
        dprof = DProf(k, DProfConfig(ibs_interval=300))
        dprof.attach()
        k.run(until_cycle=100_000)
        dprof.detach()
        first = dprof.working_set()
        first_window = dprof.profile_end_cycle - dprof.profile_start_cycle
        assert first.window_cycles == first_window
        # Built once per detach: later views share the simulation.
        assert dprof.working_set_sim() is first.sim

        dprof.attach()
        k.run(until_cycle=400_000)
        dprof.detach()
        second = dprof.working_set()
        second_window = dprof.profile_end_cycle - dprof.profile_start_cycle
        assert second_window > first_window
        assert second.window_cycles == second_window
        assert second.sim is not first.sim
