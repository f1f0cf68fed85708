"""Shared machinery for the reproduction benchmarks.

Each benchmark regenerates one table or figure from the paper's evaluation
(Section 6).  The expensive full-system runs -- a profiled memcached, the
two Apache operating points, the history-collection sessions -- are built
once per pytest session and shared by every benchmark that reads from
them.  Each benchmark then times a cheap, deterministic piece of DProf
itself (view construction, trace merging, report rendering) through
pytest-benchmark, and asserts the paper's *shape* claims on the shared
data.

Rendered tables/figures are written to ``benchmarks/out/`` so they can be
inspected and diffed against the paper.  Every artifact is a pure
function of the code: ``benchmarks/artifact_hashes.csv`` pins the
SHA-256 of each one, and :func:`write_artifact` fails the benchmark that
writes different bytes (after writing them, so the diff can be read).
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.baselines import OProfile
from repro.api import DProf, DProfConfig
from repro.dprof.history import OverheadBreakdown
from repro.dprof.records import ObjectAccessHistory
from repro.fixes import apply_admission_control, install_local_queue_selection
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.workloads import (
    ApacheConfig,
    ApacheWorkload,
    MemcachedConfig,
    MemcachedWorkload,
)

OUT_DIR = Path(__file__).parent / "out"

#: ``artifact,sha256`` rows: the pinned bytes of every file in OUT_DIR.
ARTIFACT_HASHES = Path(__file__).parent / "artifact_hashes.csv"


def pytest_collection_modifyitems(items) -> None:
    """Mark everything in this directory ``bench``.

    Tier-1 CI runs ``-m "not bench"`` over tests/; the benchmark job
    selects ``-m bench`` explicitly (see .github/workflows/ci.yml).
    """
    for item in items:
        item.add_marker(pytest.mark.bench)

#: Apache operating points (cycles between arrivals per core), found by
#: the calibration sweep: throughput peaks near PEAK and falls past it.
APACHE_PEAK_PERIOD = 22_000
APACHE_DROPOFF_PERIOD = 11_000


def pinned_artifact_hashes() -> dict[str, str]:
    """Artifact file name -> pinned SHA-256 hex digest."""
    with ARTIFACT_HASHES.open(newline="") as fh:
        return {row["artifact"]: row["sha256"] for row in csv.DictReader(fh)}


def artifact_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_artifact(name: str, content: str) -> Path:
    """Persist one rendered table/figure under benchmarks/out/.

    Fails when the bytes differ from the pinned digest: a change that
    means to move an artifact regenerates it and updates its row in
    ``artifact_hashes.csv`` in the same commit.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(content + "\n")
    pinned = pinned_artifact_hashes().get(name)
    assert pinned is not None, f"{name} has no row in {ARTIFACT_HASHES.name}"
    assert artifact_digest(path) == pinned, (
        f"{path} differs from its pinned digest in {ARTIFACT_HASHES.name}"
    )
    return path


# ----------------------------------------------------------------------
# History-collection bookkeeping
# ----------------------------------------------------------------------


@dataclass
class TypeCollection:
    """Per-type history collection statistics (for Tables 6.7-6.10)."""

    type_name: str
    pair: bool
    jobs_scheduled: int
    jobs_completed: int = 0
    histories: list[ObjectAccessHistory] = field(default_factory=list)
    collection_cycles: int = 0
    overhead: OverheadBreakdown = field(default_factory=OverheadBreakdown)
    window_cycles: int = 0
    requests_during: int = 0

    @property
    def total_elements(self) -> int:
        return sum(len(h.elements) for h in self.histories)

    @property
    def overhead_fraction(self) -> float:
        """Profiling cycles as a share of machine time during collection.

        The paper reports overhead as % throughput reduction; charged
        profiling cycles over total cycles is the same quantity in a
        closed system.
        """
        if self.window_cycles == 0:
            return 0.0
        return min(1.0, self.overhead.total / self.window_cycles)

    @property
    def histories_per_second(self) -> float:
        """Completed histories per million cycles (the paper's 'per
        second', in simulation time units)."""
        if self.collection_cycles == 0:
            return 0.0
        return self.jobs_completed * 1e6 / self.collection_cycles

    @property
    def elements_per_history(self) -> float:
        if not self.histories:
            return 0.0
        return self.total_elements / len(self.histories)


def collect_type(
    kernel: Kernel,
    dprof: DProf,
    type_name: str,
    sets: int,
    hot_chunks: int | None,
    pair: bool = False,
    max_extra_cycles: int = 40_000_000,
    member_offsets: list[int] | None = None,
) -> TypeCollection:
    """Collect history sets for one type on a live machine, with deltas."""
    collector = dprof.history
    jobs_before = collector.jobs_completed
    elements_before = len(collector.histories)
    overhead_before = OverheadBreakdown(
        collector.overhead.interrupt_cycles,
        collector.overhead.memory_cycles,
        collector.overhead.communication_cycles,
    )
    start_cycle = kernel.elapsed_cycles()
    jobs = dprof.collect_histories(
        type_name,
        sets=sets,
        pair=pair,
        hot_chunks=hot_chunks,
        member_offsets=member_offsets,
    )
    kernel.run(
        until_cycle=start_cycle + max_extra_cycles,
        stop_when=lambda: dprof.histories_done,
    )
    end_cycle = kernel.elapsed_cycles()
    stats = TypeCollection(
        type_name=type_name,
        pair=pair,
        jobs_scheduled=jobs,
        jobs_completed=collector.jobs_completed - jobs_before,
        histories=collector.histories[elements_before:],
        collection_cycles=end_cycle - start_cycle,
        window_cycles=(end_cycle - start_cycle) * kernel.ncores,
    )
    stats.overhead = OverheadBreakdown(
        collector.overhead.interrupt_cycles - overhead_before.interrupt_cycles,
        collector.overhead.memory_cycles - overhead_before.memory_cycles,
        collector.overhead.communication_cycles - overhead_before.communication_cycles,
    )
    # Abandon any unfinished work so the next type starts clean (a stale
    # reservation must not deliver an old-type object to the next job).
    collector.jobs.clear()
    collector.abandon_current()
    return stats


# ----------------------------------------------------------------------
# Session: profiled memcached (stock kernel) -- T4.1, T6.1-6.3, F6.1
# ----------------------------------------------------------------------


@dataclass
class MemcachedSession:
    kernel: Kernel
    workload: MemcachedWorkload
    dprof: DProf
    oprofile: OProfile
    throughput: float
    collections: dict[str, TypeCollection]


@pytest.fixture(scope="session")
def memcached_session() -> MemcachedSession:
    """The paper's Section 6.1 run: 16 pinned instances, stock TX path."""
    kernel = Kernel(MachineConfig(ncores=16, seed=101))
    workload = MemcachedWorkload(kernel)
    workload.setup()
    oprofile = OProfile(kernel.machine)
    oprofile.attach()
    workload.start()
    kernel.run(until_cycle=200_000)  # warm up

    dprof = DProf(kernel, DProfConfig(ibs_interval=400))
    dprof.attach()
    base = workload.counter.total
    start = kernel.elapsed_cycles()
    kernel.run(until_cycle=start + 1_000_000)
    throughput = (
        (workload.counter.total - base) * 1e6 / (kernel.elapsed_cycles() - start)
    )
    collections = {
        # skb->next (offset 0) is pinned into the watched set: it is the
        # queue-linkage member the enqueue/dequeue transition shows up on.
        "skbuff": collect_type(
            kernel, dprof, "skbuff", sets=3, hot_chunks=6, member_offsets=[0]
        ),
        # Pairwise sets order accesses *across* members -- the paper's
        # prerequisite for building the data flow view (Section 6.4).
        # Multiple sets are needed because each pair job samples one
        # object, which may take either the rx or the tx path (the
        # coverage effect Figure 6-3 measures).
        "skbuff-pairs": collect_type(
            kernel,
            dprof,
            "skbuff",
            sets=6,
            hot_chunks=4,
            member_offsets=[0],
            pair=True,
        ),
        "size-1024": collect_type(kernel, dprof, "size-1024", sets=3, hot_chunks=6),
    }
    dprof.detach()
    oprofile.detach()
    return MemcachedSession(
        kernel=kernel,
        workload=workload,
        dprof=dprof,
        oprofile=oprofile,
        throughput=throughput,
        collections=collections,
    )


# ----------------------------------------------------------------------
# Session: memcached case study (stock vs fixed, unprofiled) -- CS1
# ----------------------------------------------------------------------


@dataclass
class CaseStudyResult:
    stock_throughput: float
    fixed_throughput: float
    stock_kernel: Kernel
    fixed_kernel: Kernel
    stock_workload: MemcachedWorkload
    fixed_workload: MemcachedWorkload

    @property
    def improvement(self) -> float:
        return self.fixed_throughput / self.stock_throughput - 1


@pytest.fixture(scope="session")
def memcached_case_study() -> CaseStudyResult:
    """Stock vs local-queue-selection memcached at full (paper) scale."""

    def run(fixed: bool):
        kernel = Kernel(MachineConfig(ncores=16, seed=11))
        workload = MemcachedWorkload(kernel)
        workload.setup()
        if fixed:
            install_local_queue_selection(workload.stack.dev)
        result = workload.run(1_500_000, warmup_cycles=300_000)
        return result.throughput, kernel, workload

    stock_thr, stock_k, stock_w = run(False)
    fixed_thr, fixed_k, fixed_w = run(True)
    return CaseStudyResult(
        stock_throughput=stock_thr,
        fixed_throughput=fixed_thr,
        stock_kernel=stock_k,
        fixed_kernel=fixed_k,
        stock_workload=stock_w,
        fixed_workload=fixed_w,
    )


# ----------------------------------------------------------------------
# Sessions: Apache peak / drop-off (profiled) and admission fix -- CS2
# ----------------------------------------------------------------------


@dataclass
class ApacheSession:
    kernel: Kernel
    workload: ApacheWorkload
    dprof: DProf
    throughput: float


def _profiled_apache(period: int, seed: int, warmup: int = 2_000_000) -> ApacheSession:
    kernel = Kernel(MachineConfig(ncores=16, seed=seed))
    workload = ApacheWorkload(kernel, config=ApacheConfig(arrival_period=period))
    workload.setup()
    workload.start()
    start = kernel.elapsed_cycles()
    workload.schedule_arrivals(warmup + 6_000_000, start_cycle=start)
    kernel.run(until_cycle=start + warmup)  # reach steady state
    dprof = DProf(kernel, DProfConfig(ibs_interval=150))
    dprof.attach()
    base = workload.counter.total
    measure_start = kernel.elapsed_cycles()
    kernel.run(until_cycle=measure_start + 4_000_000)
    throughput = (
        (workload.counter.total - base)
        * 1e6
        / (kernel.elapsed_cycles() - measure_start)
    )
    dprof.detach()
    return ApacheSession(kernel=kernel, workload=workload, dprof=dprof, throughput=throughput)


@pytest.fixture(scope="session")
def apache_peak_session() -> ApacheSession:
    """Apache at peak load (Table 6.4)."""
    return _profiled_apache(APACHE_PEAK_PERIOD, seed=61)


@pytest.fixture(scope="session")
def apache_dropoff_session() -> ApacheSession:
    """Apache past the drop-off point (Tables 6.5, 6.6)."""
    # Deep-backlog steady state takes longer to fill (the accept
    # queues hold 128 connections each before the first drop).
    return _profiled_apache(APACHE_DROPOFF_PERIOD, seed=62, warmup=3_500_000)


@pytest.fixture(scope="session")
def apache_case_study() -> CaseStudyResult:
    """Drop-off load, stock vs admission control (the paper's 16% fix)."""

    def run(admission: int | None):
        kernel = Kernel(MachineConfig(ncores=16, seed=63))
        workload = ApacheWorkload(
            kernel, config=ApacheConfig(arrival_period=APACHE_DROPOFF_PERIOD)
        )
        workload.setup()
        if admission is not None:
            apply_admission_control(workload.listeners.values(), admission)
        result = workload.run(3_000_000, warmup_cycles=3_500_000)
        return result.throughput, kernel, workload

    stock_thr, stock_k, stock_w = run(None)
    fixed_thr, fixed_k, fixed_w = run(8)
    return CaseStudyResult(
        stock_throughput=stock_thr,
        fixed_throughput=fixed_thr,
        stock_kernel=stock_k,
        fixed_kernel=fixed_k,
        stock_workload=stock_w,
        fixed_workload=fixed_w,
    )


# ----------------------------------------------------------------------
# Sessions: history-collection measurements (8-core, Tables 6.7-6.10,
# Figure 6-3).  Absolute times differ from the 16-core testbed; the
# tables' structure (per-type costs, overhead split) is what reproduces.
# ----------------------------------------------------------------------


@dataclass
class HistoryStudy:
    kernel: Kernel
    dprof: DProf
    collections: dict[str, TypeCollection]
    pair_collections: dict[str, TypeCollection]


@pytest.fixture(scope="session")
def memcached_history_study() -> HistoryStudy:
    """Per-type history collection costs on memcached (8 cores)."""
    kernel = Kernel(MachineConfig(ncores=8, seed=71))
    workload = MemcachedWorkload(kernel)
    workload.setup()
    workload.start()
    kernel.run(until_cycle=150_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=400))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + 500_000)
    collections = {
        "size-1024": collect_type(kernel, dprof, "size-1024", sets=2, hot_chunks=8),
        "skbuff": collect_type(kernel, dprof, "skbuff", sets=2, hot_chunks=8),
    }
    pair_collections = {
        "size-1024": collect_type(
            kernel, dprof, "size-1024", sets=1, hot_chunks=4, pair=True
        ),
        "skbuff": collect_type(kernel, dprof, "skbuff", sets=1, hot_chunks=4, pair=True),
    }
    dprof.detach()
    return HistoryStudy(kernel, dprof, collections, pair_collections)


@pytest.fixture(scope="session")
def apache_history_study() -> HistoryStudy:
    """Per-type history collection costs on Apache.

    Runs at the paper's 16 cores: the Table 6.9 breakdown depends on the
    all-core debug-register broadcast dominating the per-object setup,
    which is a property of the core count.  Load is kept comfortably
    below saturation: profiling overhead itself slows the server, and at
    the peak operating point that feedback deepens the accept queues and
    stretches every watched object's lifetime (an effect worth knowing
    about, but one that would let a single type eat the whole budget).
    """
    kernel = Kernel(MachineConfig(ncores=16, seed=72))
    workload = ApacheWorkload(
        kernel, config=ApacheConfig(arrival_period=30_000)
    )
    workload.setup()
    workload.start()
    start = kernel.elapsed_cycles()
    workload.schedule_arrivals(250_000_000, start_cycle=start)
    kernel.run(until_cycle=start + 500_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=400))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + 400_000)
    collections = {
        "size-1024": collect_type(
            kernel, dprof, "size-1024", sets=2, hot_chunks=6, max_extra_cycles=25_000_000
        ),
        "skbuff": collect_type(
            kernel, dprof, "skbuff", sets=2, hot_chunks=6, max_extra_cycles=25_000_000
        ),
        "skbuff_fclone": collect_type(
            kernel, dprof, "skbuff_fclone", sets=2, hot_chunks=6, max_extra_cycles=25_000_000
        ),
        "tcp_sock": collect_type(
            kernel, dprof, "tcp_sock", sets=2, hot_chunks=6, max_extra_cycles=25_000_000
        ),
    }
    pair_collections = {
        "skbuff_fclone": collect_type(
            kernel, dprof, "skbuff_fclone", sets=1, hot_chunks=4, pair=True,
            max_extra_cycles=25_000_000,
        ),
        "tcp_sock": collect_type(
            kernel, dprof, "tcp_sock", sets=1, hot_chunks=4, pair=True,
            max_extra_cycles=25_000_000,
        ),
    }
    dprof.detach()
    return HistoryStudy(kernel, dprof, collections, pair_collections)


@pytest.fixture(scope="session")
def path_coverage_study() -> HistoryStudy:
    """Many small skbuff history sets for the Figure 6-3 coverage curve."""
    kernel = Kernel(MachineConfig(ncores=8, seed=73))
    workload = MemcachedWorkload(kernel)
    workload.setup()
    workload.start()
    kernel.run(until_cycle=150_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=400))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + 400_000)
    collections = {
        "skbuff": collect_type(
            kernel, dprof, "skbuff", sets=24, hot_chunks=3, max_extra_cycles=60_000_000
        ),
    }
    dprof.detach()
    return HistoryStudy(kernel, dprof, collections, {})
