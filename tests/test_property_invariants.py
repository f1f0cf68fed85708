"""Property-based tests on cross-cutting system invariants.

These drive random sequences through the allocator, the hierarchy, and
the path-trace builder, checking invariants that must hold regardless of
the sequence.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dprof.pathtrace import PathTraceBuilder
from repro.dprof.records import HistoryElement, ObjectAccessHistory
from repro.hw.hierarchy import MemoryHierarchy
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel, StructType
from repro.kernel.symbols import SymbolTable

WIDGET = StructType("pwidget", [("a", 8), ("b", 8)], object_size=64)

slow = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Hierarchy invariants
# ----------------------------------------------------------------------


@slow
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # cpu
            st.integers(min_value=0, max_value=255),  # line index
            st.booleans(),  # write?
        ),
        min_size=1,
        max_size=400,
    )
)
def test_hierarchy_coherence_invariants(accesses):
    h = MemoryHierarchy(
        MachineConfig(
            ncores=4,
            l1_size=1024,
            l1_ways=2,
            l2_size=4096,
            l2_ways=4,
            l3_size=16384,
            l3_ways=8,
        )
    )
    for i, (cpu, line, write) in enumerate(accesses):
        h.access(cpu, line * 64, 8, write, ip=i, cycle=i)
        # Invariant 1: a line is never in both L1 and L2 of one core
        # (exclusive hierarchy).
        for c in range(4):
            assert not (h.l1[c].contains(line) and h.l2[c].contains(line))
        # Invariant 2: after a write, no *other* core holds the line.
        if write:
            for c in range(4):
                if c != cpu:
                    assert not h.l1[c].contains(line)
                    assert not h.l2[c].contains(line)
        # Invariant 3: the writer holds the line it just accessed.
        assert h.l1[cpu].contains(line)
    # Invariant 4: directory holders are consistent with cache contents.
    for line in {line for _c, line, _w in accesses}:
        holders = h.directory.holders_of(line)
        for c in range(4):
            present = h.l1[c].contains(line) or h.l2[c].contains(line)
            if present:
                assert c in holders


@slow
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1), st.booleans()),
        min_size=1,
        max_size=200,
    )
)
def test_slab_alloc_free_invariants(ops):
    """Random alloc/free interleavings: liveness and address uniqueness."""
    kernel = Kernel(MachineConfig(ncores=2, seed=77))
    cache = kernel.slab.create_cache(WIDGET)
    live: list = []

    def body():
        for cpu_choice, do_alloc in ops:
            if do_alloc or not live:
                obj = yield from cache.alloc(0)
                assert obj.alive
                live.append(obj)
            else:
                obj = live.pop()
                yield from cache.free(0, obj)
                assert not obj.alive

    kernel.spawn("ops", 0, body())
    kernel.run()
    # Live objects all distinct and resolvable.
    bases = [o.base for o in live]
    assert len(set(bases)) == len(bases)
    for obj in live:
        assert kernel.slab.find_object(obj.base + 3) is obj
    assert cache.live_objects() == len(live)


# ----------------------------------------------------------------------
# Path-trace builder invariants
# ----------------------------------------------------------------------


@st.composite
def history_strategy(draw):
    chunk_pool = [(0, 4), (8, 4), (16, 4)]
    n_chunks = draw(st.integers(min_value=1, max_value=2))
    chunks = tuple(sorted(draw(st.permutations(chunk_pool))[:n_chunks]))
    n_elements = draw(st.integers(min_value=0, max_value=6))
    elements = []
    t = 0
    for _ in range(n_elements):
        chunk = draw(st.sampled_from(list(chunks)))
        t += draw(st.integers(min_value=1, max_value=20))
        elements.append(
            HistoryElement(
                offset=chunk[0],
                ip=draw(st.integers(min_value=1, max_value=4)),
                cpu=draw(st.integers(min_value=0, max_value=1)),
                time=t,
                is_write=draw(st.booleans()),
            )
        )
    h = ObjectAccessHistory(
        type_name="t",
        object_base=0x1000,
        object_cookie=draw(st.integers(min_value=1, max_value=10**6)),
        offsets=chunks,
        alloc_cpu=0,
        alloc_cycle=0,
    )
    h.elements = elements
    h.free_cycle = t + 1
    return h


@slow
@given(st.lists(history_strategy(), min_size=0, max_size=12))
def test_pathtrace_builder_conservation(histories):
    """Merging conserves events: total trace weight matches members."""
    symbols = SymbolTable()
    for ip in range(1, 5):
        symbols._ip_to_sym[ip] = (f"fn{ip}", "s")  # register fake symbols
    builder = PathTraceBuilder(symbols)
    traces = builder.build("t", histories)
    nonempty = [h for h in histories if h.complete and h.elements]
    # Frequencies sum to the number of non-empty member histories (empty
    # histories produce no events and merge into empty families).
    assert sum(t.frequency for t in traces) <= len(histories)
    if nonempty:
        assert traces, "non-empty histories must yield at least one trace"
    for trace in traces:
        # Entries are well-formed.
        for entry in trace.entries:
            assert entry.offsets[0] <= entry.offsets[1]
            assert entry.mean_time >= 0
        # Within any chunk, merged mean times are non-decreasing.
        per_chunk: dict = {}
        for entry in trace.entries:
            per_chunk.setdefault(entry.offsets[0] // 8, []).append(entry.mean_time)


@slow
@given(st.lists(history_strategy(), min_size=1, max_size=10))
def test_pathtrace_builder_deterministic(histories):
    symbols = SymbolTable()
    for ip in range(1, 5):
        symbols._ip_to_sym[ip] = (f"fn{ip}", "s")
    a = PathTraceBuilder(symbols).build("t", histories)
    b = PathTraceBuilder(symbols).build("t", histories)
    assert [t.path_key() for t in a] == [t.path_key() for t in b]
    assert [t.frequency for t in a] == [t.frequency for t in b]


# ----------------------------------------------------------------------
# Machine determinism
# ----------------------------------------------------------------------


def test_full_stack_determinism_with_profiling():
    """Two identical profiled runs produce identical observable state."""

    def run_once():
        from repro.api import DProf, DProfConfig
        from repro.workloads import MemcachedWorkload

        kernel = Kernel(MachineConfig(ncores=4, seed=123))
        workload = MemcachedWorkload(kernel)
        workload.setup()
        dprof = DProf(kernel, DProfConfig(ibs_interval=300))
        dprof.attach()
        workload.start()
        kernel.run(until_cycle=200_000)
        dprof.detach()
        return (
            workload.counter.total,
            len(dprof.sampler.samples),
            kernel.machine.total_instructions,
            [c.cycle for c in kernel.machine.cores],
        )

    assert run_once() == run_once()
