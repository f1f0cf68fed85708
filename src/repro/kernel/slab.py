"""Typed SLAB allocator with per-core array caches and NUMA-node lists.

This mirrors the Linux SLAB design the paper instruments:

- one :class:`KmemCache` per object type, carved into page-backed slabs;
- a per-core ``array_cache`` of free objects for lock-free fast paths;
- per-NUMA-node shared lists, each protected by its own list lock taken on
  refill (``cache_alloc_refill``) and flush (``cache_flusharray``) -- the
  paper's 16-core AMD testbed had four nodes of four cores;
- an *alien* path for objects freed on a different **node** than allocated
  them: remote frees buffer in per-node alien arrays and drain in batches
  (``__drain_alien_cache``) under the home node's list lock.  This is
  precisely the cross-core behaviour the memcached case study exposes.

Crucially for DProf, the allocator's own bookkeeping is made of real typed
objects: every ``array_cache``, every per-slab ``slab`` descriptor, and
every node's ``kmem_list3`` is a :class:`~repro.kernel.layout.KObject`
with an address, so allocator-induced cache misses show up in the data
profile attributed to the ``array_cache`` and ``slab`` types -- exactly as
in the paper's Table 6.1.

The allocator also implements DProf's two integration points (Section 5):
it records every allocation and free (the *address set*), and it lets a
profiler reserve the next allocation of a type (used to arm debug
registers on a fresh object for access-history collection).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import AllocationError, ResolveError
from repro.hw.addr import PAGE_SIZE
from repro.kernel.kenv import KernelEnv
from repro.kernel.layout import KObject, StructType
from repro.kernel.locks import SpinLock
from repro.kernel.lockstat import LockStatRegistry

#: Free objects kept per core before flushing back to the shared lists.
ARRAY_CACHE_LIMIT = 96

#: Objects moved between the shared lists and an array cache at once.
BATCH_COUNT = 64

#: Remote frees buffered per alien array before draining under the home
#: node's list lock (Linux's alien array_cache batching).
ALIEN_BATCH = 32

#: Cores per NUMA node (the paper's testbed: 16 cores = 4 nodes of 4).
CORES_PER_NODE = 4

#: Layout of the per-core free-object cache (a real 128-byte object).
ARRAY_CACHE_TYPE = StructType(
    "array_cache",
    [("avail", 4), ("limit", 4), ("batchcount", 4), ("touched", 4), ("entries", 112)],
    object_size=128,
    description="SLAB per-core bookkeeping structure",
)

#: Layout of the per-slab descriptor (one per slab of objects).
SLAB_TYPE = StructType(
    "slab",
    [("list_next", 8), ("list_prev", 8), ("s_mem", 8), ("inuse", 4), ("free", 4)],
    object_size=64,
    description="SLAB bookkeeping structure",
)

#: Layout of a node's shared-list head holding the list lock.
KMEM_LIST_TYPE = StructType(
    "kmem_list3",
    [("list_lock", 4), ("free_objects", 4), ("slabs_partial", 8), ("slabs_free", 8)],
    object_size=64,
    description="SLAB per-node shared lists",
)

AllocListener = Callable[[KObject, int, int], None]
FreeListener = Callable[[KObject, int, int], None]


@dataclass
class Slab:
    """One contiguous slab of objects plus its descriptor object."""

    base: int
    cache: "KmemCache"
    descriptor: KObject
    objects: list[KObject]

    @property
    def end(self) -> int:
        """Address one past the slab's object area."""
        return self.base + len(self.objects) * self.cache.obj_size


class KmemCache:
    """A typed object cache (one per kernel data type)."""

    def __init__(self, system: "SlabSystem", otype: StructType) -> None:
        self.system = system
        self.otype = otype
        self.name = otype.name
        self.obj_size = otype.size
        self.objs_per_slab = max(1, PAGE_SIZE // self.obj_size)
        self.slabs: list[Slab] = []
        self.total_allocs = 0
        self.total_frees = 0
        self.alien_frees = 0
        nodes = system.num_nodes
        # Per-node shared lists, locks, and alien arrays.  Every node lock
        # shares the "SLAB cache lock" class name for lock-stat purposes.
        self.shared_free: list[deque[KObject]] = [deque() for _ in range(nodes)]
        self.list3: list[KObject] = []
        self.list_lock: list[SpinLock] = []
        self.alien_caches: list[KObject] = []
        self.alien_pending: list[list[KObject]] = []
        for node in range(nodes):
            list3 = system.new_static(KMEM_LIST_TYPE, f"kmem_list3.{self.name}.{node}")
            self.list3.append(list3)
            self.list_lock.append(
                SpinLock(
                    f"SLAB cache lock ({self.name}/{node})",
                    list3,
                    "list_lock",
                    system.lockstat,
                )
            )
            alien = system.new_static(
                ARRAY_CACHE_TYPE, f"alien_cache.{self.name}.{node}"
            )
            self.alien_caches.append(alien)
            self.alien_pending.append([])
        # Per-core fast-path caches; each is backed by a real array_cache
        # object so its memory traffic is attributable.
        self.array_caches: list[KObject] = []
        self.local_free: list[deque[KObject]] = []
        for cpu in range(system.ncores):
            ac = system.new_static(ARRAY_CACHE_TYPE, f"array_cache.{self.name}.{cpu}")
            self.array_caches.append(ac)
            self.local_free.append(deque())

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------

    #: Distinct slab colours (successive slabs start at staggered line
    #: offsets, spreading objects over associativity sets -- the real
    #: SLAB's cache colouring).  One full page of colours makes
    #: consecutive slabs cover every associativity set.
    NUM_COLOURS = 64

    def _grow(self, node: int) -> None:
        """Add one slab of fresh objects to a node's shared list."""
        size = self.objs_per_slab * self.obj_size
        colour = (len(self.slabs) % self.NUM_COLOURS) * 64
        base = self.system.env.machine.address_space.alloc_region(
            size + colour, align=PAGE_SIZE, label=f"slab.{self.name}"
        ) + colour
        descriptor = self.system.new_static(
            SLAB_TYPE, f"slab.{self.name}.{len(self.slabs)}"
        )
        objects = [
            KObject(self.otype, base + i * self.obj_size)
            for i in range(self.objs_per_slab)
        ]
        slab = Slab(base=base, cache=self, descriptor=descriptor, objects=objects)
        self.slabs.append(slab)
        self.system.register_slab(slab)
        self.shared_free[node].extend(objects)

    # ------------------------------------------------------------------
    # Allocation / free paths (kernel generators)
    # ------------------------------------------------------------------

    def alloc(self, cpu: int) -> Iterator:
        """Allocate one object on *cpu*; ``obj = yield from cache.alloc(cpu)``."""
        env = self.system.env
        fn = "kmem_cache_alloc_node"
        ac = self.array_caches[cpu]
        free = self.local_free[cpu]
        yield env.read(fn, ac, "avail")
        # Re-check after each refill: another thread on this core may have
        # consumed the refilled batch between our yields.
        while not free:
            yield from self._refill(cpu)
        # Fast path: pop from the per-core cache.
        obj = free.pop()
        slot = len(free) % 14
        yield env.read_range(fn, ac, 16 + slot * 8, 8)
        yield env.write(fn, ac, "avail")
        obj.alive = True
        obj.home_cpu = cpu
        obj.cookie += 1
        obj.alloc_cycle = env.cycle(cpu)
        self.total_allocs += 1
        self.system.notify_alloc(obj, cpu, obj.alloc_cycle)
        return obj

    def _refill(self, cpu: int) -> Iterator:
        """``cache_alloc_refill``: pull a batch under the node's list lock."""
        env = self.system.env
        fn = "cache_alloc_refill"
        node = self.system.node_of(cpu)
        lock = self.list_lock[node]
        list3 = self.list3[node]
        shared = self.shared_free[node]
        yield from lock.acquire(env, fn, cpu)
        yield env.read(fn, list3, "free_objects")
        if len(shared) < BATCH_COUNT:
            self._grow(node)
        moved = 0
        free = self.local_free[cpu]
        touched_slabs: set[int] = set()
        while moved < BATCH_COUNT and shared:
            obj = shared.popleft()
            touched_slabs.add(self.system.slab_of(obj.base).base)
            free.append(obj)
            moved += 1
        # Bookkeeping traffic attributed to the ``slab`` type: one
        # read/update per distinct slab descriptor in the batch.
        for slab_base in sorted(touched_slabs):
            slab = self.system.slab_of(slab_base)
            yield env.read(fn, slab.descriptor, "free")
            yield env.write(fn, slab.descriptor, "inuse")
        yield env.write(fn, list3, "free_objects")
        yield from lock.release(env, fn, cpu)

    def free(self, cpu: int, obj: KObject, fn: str = "kmem_cache_free") -> Iterator:
        """Free *obj* on *cpu*; takes the alien path for cross-node frees."""
        env = self.system.env
        if not obj.alive:
            raise AllocationError(f"double free of {obj!r}")
        obj.alive = False
        obj.free_cycle = env.cycle(cpu)
        self.total_frees += 1
        self.system.notify_free(obj, cpu, obj.free_cycle)
        if self.system.node_of(obj.home_cpu) != self.system.node_of(cpu):
            yield from self._alien_free(cpu, obj)
            return
        ac = self.array_caches[cpu]
        free = self.local_free[cpu]
        yield env.read(fn, ac, "avail")
        slot = len(free) % 14
        yield env.write_range(fn, ac, 16 + slot * 8, 8)
        yield env.write(fn, ac, "avail")
        free.append(obj)
        if len(free) > ARRAY_CACHE_LIMIT:
            yield from self._flusharray(cpu)

    def _flusharray(self, cpu: int) -> Iterator:
        """``cache_flusharray``: push a batch back under the node's lock."""
        env = self.system.env
        fn = "cache_flusharray"
        node = self.system.node_of(cpu)
        lock = self.list_lock[node]
        yield from lock.acquire(env, fn, cpu)
        free = self.local_free[cpu]
        # Bound by the live deque, not a pre-computed count: same-core
        # threads may allocate from it between our yields.
        moved = 0
        touched_slabs: set[int] = set()
        while free and moved < BATCH_COUNT:
            moved += 1
            obj = free.popleft()
            touched_slabs.add(self.system.slab_of(obj.base).base)
            self.shared_free[node].append(obj)
        for slab_base in sorted(touched_slabs):
            slab = self.system.slab_of(slab_base)
            yield env.write(fn, slab.descriptor, "inuse")
            yield env.write(fn, slab.descriptor, "free")
        yield env.write(fn, self.list3[node], "free_objects")
        yield from lock.release(env, fn, cpu)

    def _alien_free(self, cpu: int, obj: KObject) -> Iterator:
        """Cross-node free: buffer in the home node's alien array.

        Each remote free writes into the home node's alien array (cheap,
        but it bounces that ``array_cache`` line between nodes -- the
        bounce Table 6.1 shows); every :data:`ALIEN_BATCH` frees,
        ``__drain_alien_cache`` returns the batch to the home node's
        shared list under its list lock -- the "SLAB cache lock"
        contention with ``__drain_alien_cache`` in its caller list
        (Table 6.2).
        """
        env = self.system.env
        fn = "kmem_cache_free"
        self.alien_frees += 1
        home_node = self.system.node_of(obj.home_cpu)
        alien = self.alien_caches[home_node]
        pending = self.alien_pending[home_node]
        yield env.read(fn, alien, "avail")
        slot = len(pending) % 14
        yield env.write_range(fn, alien, 16 + slot * 8, 8)
        yield env.write(fn, alien, "avail")
        pending.append(obj)
        if len(pending) < ALIEN_BATCH:
            return
        drain_fn = "__drain_alien_cache"
        lock = self.list_lock[home_node]
        yield from lock.acquire(env, drain_fn, cpu)
        touched_slabs: set[int] = set()
        while pending:
            drained = pending.pop()
            touched_slabs.add(self.system.slab_of(drained.base).base)
            self.shared_free[home_node].append(drained)
        for slab_base in sorted(touched_slabs):
            slab = self.system.slab_of(slab_base)
            yield env.write(drain_fn, slab.descriptor, "inuse")
        yield env.write(drain_fn, alien, "touched")
        yield env.write(drain_fn, self.list3[home_node], "free_objects")
        yield from lock.release(env, drain_fn, cpu)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_objects(self) -> int:
        """Objects currently allocated (alive)."""
        return self.total_allocs - self.total_frees

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KmemCache({self.name}, {self.obj_size}B, live={self.live_objects()})"


class SlabSystem:
    """All kmem caches plus the address-to-object index DProf resolves with."""

    def __init__(self, env: KernelEnv, lockstat: LockStatRegistry) -> None:
        self.env = env
        self.lockstat = lockstat
        self.ncores = env.machine.config.ncores
        self.num_nodes = (self.ncores + CORES_PER_NODE - 1) // CORES_PER_NODE
        self.caches: dict[str, KmemCache] = {}
        self._page_map: dict[int, Slab] = {}
        self._static_pages: dict[int, list[KObject]] = {}
        self._static_by_type: dict[str, list[KObject]] = {}
        self._alloc_listeners: list[AllocListener] = []
        self._free_listeners: list[FreeListener] = []
        self._reservations: dict[str, deque[AllocListener]] = {}

    def node_of(self, cpu: int) -> int:
        """NUMA node containing *cpu*."""
        return cpu // CORES_PER_NODE

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def create_cache(self, otype: StructType) -> KmemCache:
        """Create (or return the existing) cache for a struct type."""
        cache = self.caches.get(otype.name)
        if cache is None:
            cache = KmemCache(self, otype)
            self.caches[otype.name] = cache
        return cache

    def cache(self, name: str) -> KmemCache:
        """Look up a cache by type name."""
        try:
            return self.caches[name]
        except KeyError:
            raise AllocationError(f"no kmem cache named {name!r}") from None

    def kfree(self, cpu: int, obj: KObject) -> Iterator:
        """Generic free: route *obj* back to its owning cache."""
        cache = self.caches.get(obj.otype.name)
        if cache is None:
            raise AllocationError(f"{obj!r} was not slab-allocated")
        yield from cache.free(cpu, obj, fn="kfree")

    # ------------------------------------------------------------------
    # Static objects (allocator bookkeeping, devices, ...)
    # ------------------------------------------------------------------

    def new_static(self, otype: StructType, label: str) -> KObject:
        """Allocate a statically-lived typed object outside any slab."""
        base = self.env.machine.address_space.alloc_region(
            otype.size, align=64, label=label
        )
        obj = KObject(otype, base)
        obj.alive = True
        obj.home_cpu = 0
        self.register_static(obj)
        return obj

    def register_static(self, obj: KObject) -> None:
        """Make *obj* resolvable by address."""
        for page in range(obj.base // PAGE_SIZE, (obj.end - 1) // PAGE_SIZE + 1):
            self._static_pages.setdefault(page, []).append(obj)
        self._static_by_type.setdefault(obj.otype.name, []).append(obj)

    def static_objects_by_type(self) -> dict[str, list[KObject]]:
        """Every registered static object, grouped by type name."""
        return dict(self._static_by_type)

    def static_bytes(self, type_name: str) -> int:
        """Total footprint of static objects of one type.

        This is what the thesis reports as the "working set size" of
        never-freed types like ``net_device`` (128B, one instance) and
        ``slab`` (megabytes: one descriptor per slab).
        """
        return sum(o.otype.size for o in self._static_by_type.get(type_name, ()))

    def register_slab(self, slab: Slab) -> None:
        """Index a new slab's pages for address resolution."""
        for page in range(slab.base // PAGE_SIZE, (slab.end - 1) // PAGE_SIZE + 1):
            self._page_map[page] = slab

    # ------------------------------------------------------------------
    # Address resolution (DProf's Section 5.2)
    # ------------------------------------------------------------------

    def slab_of(self, addr: int) -> Slab:
        """The slab containing *addr* (must be a slab address)."""
        slab = self._page_map.get(addr // PAGE_SIZE)
        if slab is None or not slab.base <= addr < slab.end:
            raise ResolveError(f"address {addr:#x} is not in any slab")
        return slab

    def find_object(self, addr: int) -> KObject | None:
        """Resolve *addr* to the typed object containing it, if any.

        Works for both slab-allocated and static objects; returns the
        object even when it is currently free (the type of recycled memory
        is still meaningful to DProf).
        """
        page = addr // PAGE_SIZE
        slab = self._page_map.get(page)
        if slab is not None and slab.base <= addr < slab.end:
            index = (addr - slab.base) // slab.cache.obj_size
            return slab.objects[index]
        for obj in self._static_pages.get(page, ()):
            if obj.base <= addr < obj.end:
                return obj
        return None

    # ------------------------------------------------------------------
    # DProf integration: address-set events and reservations
    # ------------------------------------------------------------------

    def add_alloc_listener(self, listener: AllocListener) -> None:
        """Observe every allocation (obj, cpu, cycle)."""
        self._alloc_listeners.append(listener)

    def remove_alloc_listener(self, listener: AllocListener) -> None:
        """Stop observing allocations."""
        self._alloc_listeners.remove(listener)

    def add_free_listener(self, listener: FreeListener) -> None:
        """Observe every free (obj, cpu, cycle)."""
        self._free_listeners.append(listener)

    def remove_free_listener(self, listener: FreeListener) -> None:
        """Stop observing frees."""
        self._free_listeners.remove(listener)

    def reserve_next(self, type_name: str, callback: AllocListener) -> None:
        """Deliver the *next* allocation of *type_name* to *callback*.

        This is DProf's hook for access-history collection: it waits for a
        fresh object of the chosen type, then arms debug registers on it
        (Section 5.3).
        """
        self._reservations.setdefault(type_name, deque()).append(callback)

    def cancel_reservations(self, type_name: str | None = None) -> None:
        """Drop pending reservations (all types when *type_name* is None)."""
        if type_name is None:
            self._reservations.clear()
        else:
            self._reservations.pop(type_name, None)

    def notify_alloc(self, obj: KObject, cpu: int, cycle: int) -> None:
        """Fan an allocation event out to listeners and reservations."""
        for listener in self._alloc_listeners:
            listener(obj, cpu, cycle)
        pending = self._reservations.get(obj.otype.name)
        if pending:
            callback = pending.popleft()
            callback(obj, cpu, cycle)

    def notify_free(self, obj: KObject, cpu: int, cycle: int) -> None:
        """Fan a free event out to listeners."""
        for listener in self._free_listeners:
            listener(obj, cpu, cycle)
