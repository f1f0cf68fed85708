"""Tests for debug-register object access history collection."""

from repro.dprof.history import HistoryCollector, all_pairs, chunks_for_type
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel, StructType

WIDGET = StructType("widget", [("a", 8), ("b", 8)], object_size=64)


def make_kernel(ncores=2):
    return Kernel(MachineConfig(ncores=ncores, seed=9))


def churn_body(kernel, cache, cpu, n, touches=3):
    env = kernel.env

    def body():
        for _ in range(n):
            o = yield from cache.alloc(cpu)
            for _ in range(touches):
                yield env.read("user_fn", o, "a")
                yield env.write("user_fn", o, "b")
            yield from cache.free(cpu, o)

    return body()


class TestChunking:
    def test_chunks_cover_type_exactly(self):
        chunks = chunks_for_type(256)
        assert len(chunks) == 64  # the paper's skbuff: 64 histories/set
        assert chunks[0] == (0, 4)
        assert chunks[-1] == (252, 4)
        assert sum(length for _off, length in chunks) == 256

    def test_chunks_handle_non_multiple_sizes(self):
        chunks = chunks_for_type(10)
        assert chunks == [(0, 4), (4, 4), (8, 2)]

    def test_all_pairs_count(self):
        chunks = chunks_for_type(256)
        pairs = all_pairs(chunks)
        assert len(pairs) == 64 * 63 // 2  # 2016, the paper's 2017/1 row


class TestCollection:
    def test_single_offset_history_records_accesses(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.schedule_sets("widget", 64, num_sets=1, chunks=[(0, 4)])
        collector.start()
        k.spawn("churn", 0, churn_body(k, cache, 0, n=5))
        k.run()
        collector.finalize()
        assert collector.jobs_completed == 1
        [history] = collector.histories
        assert history.complete
        assert history.type_name == "widget"
        # Only offset-0 (field a) accesses are recorded for chunk (0, 4).
        assert history.elements
        assert all(el.offset == 0 for el in history.elements)
        assert all(not el.is_write for el in history.elements)

    def test_histories_capture_write_flag_and_time(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.schedule_sets("widget", 64, num_sets=1, chunks=[(8, 4)])
        collector.start()
        k.spawn("churn", 0, churn_body(k, cache, 0, n=5))
        k.run()
        collector.finalize()
        [history] = collector.histories
        assert all(el.is_write for el in history.elements)
        times = [el.time for el in history.elements]
        assert times == sorted(times)
        assert times[0] >= 0

    def test_sets_jobs_queued_and_drained_in_order(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        jobs = collector.schedule_sets("widget", 64, num_sets=2)
        assert jobs == 2 * 16  # 64/4 chunks per set
        collector.start()
        k.spawn("churn", 0, churn_body(k, cache, 0, n=80))
        k.run()
        collector.finalize()
        assert collector.jobs_completed == jobs
        assert collector.done

    def test_pair_jobs_watch_two_chunks(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.schedule_sets(
            "widget", 64, num_sets=1, pair=True, chunks=[(0, 4), (8, 4)]
        )
        collector.start()
        k.spawn("churn", 0, churn_body(k, cache, 0, n=5))
        k.run()
        collector.finalize()
        [history] = collector.histories
        assert history.is_pair
        offsets = {el.offset for el in history.elements}
        assert offsets == {0, 8}
        # Interleaving is preserved: reads of a and writes of b alternate.
        kinds = [el.offset for el in history.elements]
        assert kinds[:4] == [0, 8, 0, 8]

    def test_overhead_breakdown_accounted(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.schedule_sets("widget", 64, num_sets=1, chunks=[(0, 4)])
        collector.start()
        k.spawn("churn", 0, churn_body(k, cache, 0, n=3))
        k.run()
        collector.finalize()
        ov = collector.overhead
        assert ov.memory_cycles == k.machine.interconnect.reserve_object
        assert ov.communication_cycles == k.machine.interconnect.broadcast_cost(2)
        assert ov.interrupt_cycles == 1000 * collector.total_elements
        shares = ov.shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        # All profiling overhead was charged to cores as overhead cycles.
        assert k.machine.total_overhead_cycles() >= ov.total

    def test_memory_accounting_32_bytes_per_element(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.schedule_sets("widget", 64, num_sets=1, chunks=[(0, 4)])
        collector.start()
        k.spawn("churn", 0, churn_body(k, cache, 0, n=3))
        k.run()
        collector.finalize()
        assert collector.memory_bytes == 32 * collector.total_elements

    def test_finalize_releases_debug_registers(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.schedule_sets("widget", 64, num_sets=3)
        collector.start()
        k.spawn("churn", 0, churn_body(k, cache, 0, n=2))
        k.run()  # only ~2 jobs can complete
        collector.finalize()
        assert not k.machine.watches.any_armed

    def test_cross_core_accesses_recorded_with_cpu(self):
        k = make_kernel()
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.schedule_sets("widget", 64, num_sets=1, chunks=[(0, 4)])
        collector.start()
        env = k.env
        shared = []

        def alloc_and_touch():
            o = yield from cache.alloc(0)
            shared.append(o)
            yield env.read("fn0", o, "a")
            while not shared or len(shared) < 2:
                yield env.work("fn0", 50)
            yield from cache.free(0, o)

        def remote_touch():
            while not shared:
                yield env.work("fn1", 50)
            yield env.write("fn1", shared[0], "a")
            shared.append("done")

        k.spawn("a", 0, alloc_and_touch())
        k.spawn("b", 1, remote_touch())
        k.run()
        collector.finalize()
        [history] = collector.histories
        cpus = {el.cpu for el in history.elements}
        assert cpus == {0, 1}
