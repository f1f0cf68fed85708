"""Tests for address resolution and IBS-driven access sampling."""

from repro.dprof.access_sampler import AccessSampleCollector
from repro.dprof.resolver import TypeResolver
from repro.hw.machine import Machine, MachineConfig
from repro.kernel import Kernel, StructType

WIDGET = StructType("widget", [("a", 8), ("b", 8), ("big", 100)], object_size=128)


def alloc_one(kernel, cache, cpu=0):
    out = []

    def body():
        o = yield from cache.alloc(cpu)
        out.append(o)

    kernel.spawn("alloc", cpu, body())
    kernel.run()
    return out[0]


class TestResolver:
    def test_resolves_slab_object_with_offset(self):
        k = Kernel(MachineConfig(ncores=2, seed=1))
        cache = k.slab.create_cache(WIDGET)
        obj = alloc_one(k, cache)
        resolver = TypeResolver(k.slab)
        res = resolver.resolve(obj.base + 24)
        assert res is not None
        assert res.type_name == "widget"
        assert res.offset == 24
        assert res.base == obj.base
        assert res.live

    def test_resolves_freed_memory_to_its_pool_type(self):
        k = Kernel(MachineConfig(ncores=2, seed=1))
        cache = k.slab.create_cache(WIDGET)
        obj = alloc_one(k, cache)
        k.spawn("free", 0, cache.free(0, obj))
        k.run()
        res = TypeResolver(k.slab).resolve(obj.base + 4)
        assert res is not None
        assert res.type_name == "widget"
        assert not res.live

    def test_unknown_address_counts_unresolved(self):
        k = Kernel(MachineConfig(ncores=2, seed=1))
        resolver = TypeResolver(k.slab)
        assert resolver.resolve(0x5) is None
        assert resolver.unresolved == 1


class TestAccessSampler:
    def make_setup(self):
        k = Kernel(MachineConfig(ncores=2, seed=1))
        cache = k.slab.create_cache(WIDGET)
        obj = alloc_one(k, cache)
        sampler = AccessSampleCollector(k.machine, TypeResolver(k.slab))
        return k, obj, sampler

    def spin_accesses(self, k, obj, n=3000):
        env = k.env

        def body():
            for _ in range(n):
                yield env.read("reader_fn", obj, "a")
                yield env.write("writer_fn", obj, "b")

        k.spawn("traffic", 0, body())
        k.run()

    def test_samples_resolved_and_typed(self):
        k, obj, sampler = self.make_setup()
        sampler.start(interval=20)
        self.spin_accesses(k, obj)
        sampler.stop()
        assert len(sampler.samples) > 50
        assert all(s.type_name == "widget" for s in sampler.samples)
        offsets = {s.offset for s in sampler.samples}
        assert offsets <= {0, 8}

    def test_stats_keyed_by_type_chunk_ip(self):
        k, obj, sampler = self.make_setup()
        sampler.start(interval=10)
        self.spin_accesses(k, obj)
        sampler.stop()
        read_ip = k.symbols.ip_for("reader_fn", "R.widget.a")
        stats = sampler.stats_for("widget", 0, read_ip)
        assert stats is not None
        assert stats.count > 10
        # After the first touch everything is an L1 hit on one core.
        assert stats.miss_probability < 0.1

    def test_miss_share_tracks_types(self):
        k, obj, sampler = self.make_setup()
        sampler.start(interval=10)
        self.spin_accesses(k, obj)
        sampler.stop()
        assert 0.0 <= sampler.miss_share("widget") <= 1.0
        assert sampler.miss_share("nonexistent") == 0.0

    def test_popular_chunks_ranked(self):
        k, obj, sampler = self.make_setup()
        sampler.start(interval=10)
        self.spin_accesses(k, obj)
        sampler.stop()
        chunks = sampler.popular_chunks("widget", 2)
        assert set(chunks) <= {0, 8}

    def test_stop_ends_collection(self):
        k, obj, sampler = self.make_setup()
        sampler.start(interval=10)
        self.spin_accesses(k, obj, n=200)
        sampler.stop()
        count = len(sampler.samples)
        self.spin_accesses(k, obj, n=200)
        assert len(sampler.samples) == count

    def test_memory_accounting_88_bytes_per_sample(self):
        k, obj, sampler = self.make_setup()
        sampler.start(interval=10)
        self.spin_accesses(k, obj, n=500)
        sampler.stop()
        assert sampler.memory_bytes == 88 * len(sampler.samples)
