"""Tests for the Section 7 extensions: wide registers + cache snapshots."""

import pytest

from repro.api import DProf, DProfConfig
from repro.dprof.extensions import (
    CacheContentsInspector,
    collect_whole_object_histories,
    estimation_error,
    pairwise_job_count,
    whole_object_job_count,
)
from repro.errors import ProfilingError, SimulationError
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel, StructType

WIDGET = StructType("xwidget", [("a", 8), ("b", 8), ("c", 8)], object_size=64)


def make_kernel(variable=False, ncores=2):
    return Kernel(
        MachineConfig(ncores=ncores, seed=41, variable_debug_registers=variable)
    )


def churn(kernel, cache, cpu, n):
    env = kernel.env

    def body():
        for _ in range(n):
            o = yield from cache.alloc(cpu)
            yield env.write("init_fn", o, "a")
            yield env.read("use_fn", o, "b")
            yield env.write("send_fn", o, "c")
            yield from cache.free(cpu, o)

    return body()


class TestVariableDebugRegisters:
    def test_wide_watch_rejected_on_stock_hardware(self):
        k = make_kernel(variable=False)
        with pytest.raises(SimulationError):
            k.machine.watches.arm_all_cores(0x1000, 64, lambda *a: None)

    def test_wide_watch_allowed_when_enabled(self):
        k = make_kernel(variable=True)
        hits = []
        k.machine.watches.arm_all_cores(
            0x100000, 4096, lambda c, i, r, cy: hits.append(i.addr)
        )
        env = k.env
        k.spawn(
            "t",
            0,
            iter(
                [
                    env.read_at("fn", "a", 0x100000, 8),
                    env.read_at("fn", "b", 0x100800, 8),
                    env.read_at("fn", "c", 0x200000, 8),  # outside
                ]
            ),
        )
        k.run()
        assert hits == [0x100000, 0x100800]

    def test_whole_object_history_is_exact_and_ordered(self):
        k = make_kernel(variable=True)
        cache = k.slab.create_cache(WIDGET)
        dprof = DProf(k, DProfConfig(ibs_interval=0 or 1000))
        dprof.attach()
        jobs = collect_whole_object_histories(dprof, "xwidget", objects=3)
        assert jobs == 3
        k.spawn("churn", 0, churn(k, cache, 0, 10))
        k.run()
        dprof.detach()
        histories = dprof.history.histories_for("xwidget")
        assert len(histories) == 3
        for h in histories:
            # Every access to the object was captured, in true order.
            fns = [k.symbols.resolve(el.ip) for el in h.elements]
            assert fns == ["init_fn", "use_fn", "send_fn"]
            offsets = [el.offset for el in h.elements]
            assert offsets == [0, 8, 16]

    def test_whole_object_requires_the_extension(self):
        k = make_kernel(variable=False)
        k.slab.create_cache(WIDGET)
        dprof = DProf(k)
        dprof.attach()
        with pytest.raises(ProfilingError):
            collect_whole_object_histories(dprof, "xwidget", objects=1)
        dprof.detach()

    def test_job_count_comparison(self):
        # The quantitative content of the Section 7 wish: one job instead
        # of thousands (skbuff: 2016 pairs; tcp_sock: 79800).
        assert pairwise_job_count(256) == 2016
        assert pairwise_job_count(1600) == 79800
        assert whole_object_job_count(256) == 1


class TestCacheContentsInspector:
    def test_snapshot_resolves_resident_types(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        held = []

        def body():
            for _ in range(8):
                o = yield from cache.alloc(0)
                yield k.env.write("touch", o, "a")
                held.append(o)

        k.spawn("t", 0, body())
        k.run()
        snap = CacheContentsInspector(k.machine, k.slab).snapshot()
        assert snap.lines_for("xwidget") >= 8
        # Ranked output includes the widget near the top.
        assert "xwidget" in dict(snap.top(5))

    def test_snapshot_counts_unresolved_lines(self):
        k = make_kernel()
        base = k.machine.address_space.alloc_region(4096, label="raw")
        k.spawn(
            "t", 0, iter([k.env.read_at("fn", "x", base, 8)])
        )
        k.run()
        snap = CacheContentsInspector(k.machine, k.slab).snapshot()
        assert snap.unresolved_lines >= 1

    def test_mean_residency_averages(self):
        k = make_kernel()
        inspector = CacheContentsInspector(k.machine, k.slab)
        cache = k.slab.create_cache(WIDGET)
        held = []

        def body():
            for _ in range(4):
                o = yield from cache.alloc(0)
                yield k.env.write("touch", o, "a")
                held.append(o)

        k.spawn("t", 0, body())
        k.run()
        snaps = [inspector.snapshot(), inspector.snapshot()]
        mean = inspector.mean_residency(snaps)
        assert mean["xwidget"] == snaps[0].lines_for("xwidget")

    def test_estimation_error_metric(self):
        errors = estimation_error({"a": 8.0, "b": 0.0}, {"a": 10.0, "b": 4.0})
        assert errors["a"] == pytest.approx(0.2)
        assert errors["b"] == pytest.approx(1.0)
        assert estimation_error({}, {"z": 0.0}) == {}
