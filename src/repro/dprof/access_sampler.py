"""Access-sample collection via IBS (paper Section 5.1).

Programs the machine's IBS units and turns each delivered
:class:`~repro.hw.ibs.IbsSample` into a typed
:class:`~repro.dprof.records.AccessSample` through the resolver.  The
~2,000-cycle interrupt cost is charged by the IBS unit itself, so the
overhead curves of Figure 6-2 fall out of the collection run.

The collector also maintains the (type, offset-chunk, ip) aggregation the
path-trace builder consumes (Section 5.4, first step: "DProf aggregates
all access samples that have the same type, offset, and ip values").
"""

from __future__ import annotations

from repro.dprof.history import DEFAULT_CHUNK_SIZE
from repro.dprof.records import AccessSample, AccessStats
from repro.dprof.resolver import TypeResolver
from repro.hw.ibs import IbsSample
from repro.hw.machine import Machine
from repro.util.stats import Histogram

#: Latency sanity bound: no real memory access costs this much, so a
#: sample above it is a corrupted register read (racy MSR, injected
#: fault) and is rejected rather than poisoning the latency means.
MAX_PLAUSIBLE_LATENCY = 50_000


class AccessSampleCollector:
    """Collects and aggregates typed access samples from IBS."""

    def __init__(self, machine: Machine, resolver: TypeResolver) -> None:
        self.machine = machine
        self.resolver = resolver
        #: Every raw sample, kept in RAM as the paper's DProf does.
        self.samples: list[AccessSample] = []
        self.samples_rejected = 0
        self.stats: dict[tuple[str, int, int], AccessStats] = {}
        self.type_misses = Histogram()
        self.type_samples = Histogram()
        self.total_l1_misses = 0
        self._active = False

    # ------------------------------------------------------------------
    # Collection control
    # ------------------------------------------------------------------

    def start(self, interval: int) -> None:
        """Enable IBS on every core at one tag per *interval* instructions."""
        self.machine.configure_ibs(interval, self._on_sample)
        self._active = True

    def stop(self) -> None:
        """Disable IBS sampling."""
        self.machine.disable_ibs()
        self._active = False

    def _on_sample(self, sample: IbsSample) -> None:
        if not sample.is_memory:
            return
        if sample.latency > MAX_PLAUSIBLE_LATENCY or sample.latency < 0:
            self.samples_rejected += 1
            return
        res = self.resolver.resolve(sample.addr)
        if res is None:
            return
        access = AccessSample(
            type_name=res.type_name,
            offset=res.offset,
            ip=sample.ip,
            cpu=sample.cpu,
            level=sample.level,
            latency=sample.latency,
            is_write=sample.kind == "store",
            cycle=sample.cycle,
            size=sample.size,
        )
        self.samples.append(access)
        # Offsets are binned to the debug-register chunk width so access
        # samples line up with history elements during augmentation.
        chunk = (access.offset // DEFAULT_CHUNK_SIZE) * DEFAULT_CHUNK_SIZE
        key = (access.type_name, chunk, access.ip)
        stats = self.stats.get(key)
        if stats is None:
            stats = AccessStats()
            self.stats[key] = stats
        stats.add(access)
        self.type_samples.add(access.type_name)
        if access.l1_miss:
            self.type_misses.add(access.type_name)
            self.total_l1_misses += 1

    # ------------------------------------------------------------------
    # Aggregation queries
    # ------------------------------------------------------------------

    def stats_for(self, type_name: str, offset: int, ip: int) -> AccessStats | None:
        """Aggregated stats for one (type, offset, ip), chunk-binned."""
        chunk = (offset // DEFAULT_CHUNK_SIZE) * DEFAULT_CHUNK_SIZE
        return self.stats.get((type_name, chunk, ip))

    def miss_share(self, type_name: str) -> float:
        """Fraction of all sampled L1 misses attributed to *type_name*.

        This is the "% of all L1 misses" column of Tables 6.1/6.4/6.5.
        """
        return self.type_misses.share(type_name)

    def popular_chunks(self, type_name: str, n: int | None = None) -> list[int]:
        """Most-accessed offset chunks of a type, by sample count.

        Used to focus pairwise history collection on the hot members
        (Section 6.4: "DProf analyzes the access samples to find the most
        used members").
        """
        counts = Histogram()
        for (tname, chunk, _ip), stats in self.stats.items():
            if tname == type_name:
                counts.add(chunk, stats.count)
        return [int(chunk) for chunk, _count in counts.top(n)]

    @property
    def memory_bytes(self) -> int:
        """Profiling memory footprint: 88 bytes per access sample (paper)."""
        return 88 * len(self.samples)
