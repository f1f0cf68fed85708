"""The DProf profiler facade.

Typical session, mirroring how the paper's case studies use the tool::

    dprof = DProf(kernel)
    dprof.attach()                      # address set + IBS sampling on
    ... run the workload ...            # machine.run(...)
    dprof.collect_histories("skbuff", sets=40)
    ... keep the workload running until dprof.histories_done ...
    dprof.detach()

    profile = dprof.data_profile()      # Table 6.1-style ranking
    ws      = dprof.working_set()       # live sizes + assoc histogram
    classes = dprof.miss_classification("skbuff")
    flow    = dprof.data_flow("skbuff") # Figure 6-1-style graph

``DProf`` collects: the address set, IBS access samples and object
access histories.  It builds no view itself.  Once detached, each view
method delegates to an
:class:`~repro.dprof.session_io.OfflineSession` over the profiler's
in-memory records -- the class that also rebuilds views from a stored
archive -- built at the first view and dropped at the next
:meth:`DProf.detach`.  A view asked of a still-attached profiler raises
:class:`~repro.errors.ProfilingError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dprof.access_sampler import AccessSampleCollector
from repro.dprof.cachesim import WorkingSetSimResult
from repro.dprof.history import DEFAULT_CHUNK_SIZE, HistoryCollector
from repro.dprof.quality import DataQuality
from repro.dprof.records import AddressSet, PathTrace
from repro.dprof.resolver import TypeResolver
from repro.dprof.session_io import OfflineSession
from repro.dprof.views import (
    DataFlowView,
    DataProfileView,
    MissClassification,
    WorkingSetView,
)
from repro.errors import ProfilingError
from repro.faults import FaultPlan
from repro.kernel.kernel import Kernel
from repro.kernel.layout import KObject

#: Foreign-cache share of a type's samples above which the profiler marks
#: the type as bouncing even without collected histories.
BOUNCE_FOREIGN_SHARE = 0.01


@dataclass(frozen=True)
class DProfConfig:
    """Profiler knobs.

    ``ibs_interval`` is instructions between IBS tags (lower = more
    samples = more overhead, Figure 6-2).  Histories watch
    :data:`~repro.dprof.history.DEFAULT_CHUNK_SIZE`-byte chunks.
    """

    ibs_interval: int = 1000


class DProf:
    """Data-oriented profiler over a simulated kernel."""

    def __init__(
        self,
        kernel: Kernel,
        config: DProfConfig | None = None,
        faults: FaultPlan | None = None,
        tracer=None,
    ) -> None:
        self.kernel = kernel
        self.config = config or DProfConfig()
        #: Span tracer (repro.trace); NULL_TRACER when tracing is off.
        if tracer is None:
            from repro.trace import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self._collection_span = None
        self.machine = kernel.machine
        self.resolver = TypeResolver(kernel.slab)
        self.sampler = AccessSampleCollector(self.machine, self.resolver)
        self.history = HistoryCollector(self.machine, kernel.slab)
        #: Active fault plan (None = perfect hardware).  The injector is
        #: built once per profiler so its counters cover the whole session.
        self.fault_plan = faults
        self.fault_injector = faults.build() if faults is not None else None
        self.address_set = AddressSet()
        self.attached = False
        self.profile_start_cycle = 0
        self.profile_end_cycle = 0
        self._ibs_base = (0, 0, 0)
        self._type_descriptions: dict[str, str] = {}
        self._type_sizes: dict[str, int] = {}
        #: The views' analysis session; built at the first view after
        #: a detach.
        self._analysis: OfflineSession | None = None

    # ------------------------------------------------------------------
    # Session control
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Start recording the address set and IBS access samples."""
        if self.attached:
            raise ProfilingError("DProf already attached")
        self.attached = True
        if self.fault_injector is not None:
            self.machine.install_faults(self.fault_injector)
            self.history.faults = self.fault_injector
        # Baseline the hardware counters so quality reports cover only
        # this session even when the machine was profiled before.
        self._ibs_base = self.machine.ibs_delivery_counts()
        self.profile_start_cycle = self.machine.elapsed_cycles()
        self._snapshot_live_objects()
        self.kernel.slab.add_alloc_listener(self._on_alloc)
        self.kernel.slab.add_free_listener(self._on_free)
        self.sampler.start(self.config.ibs_interval)

    def _snapshot_live_objects(self) -> None:
        """Seed the address set with objects already live at attach time.

        The allocator knows every outstanding allocation, so objects that
        predate the profiling session (worker task_structs, long-lived
        sockets) still contribute to the working-set view; their lifetime
        is counted from the start of the profiling window.
        """
        now = self.profile_start_cycle
        for cache in self.kernel.slab.caches.values():
            for slab in cache.slabs:
                for obj in slab.objects:
                    if obj.alive:
                        self._on_alloc(obj, obj.home_cpu, now)

    def detach(self) -> None:
        """Stop all collection and freeze the profiling window."""
        if not self.attached:
            raise ProfilingError("DProf not attached")
        self.attached = False
        self.profile_end_cycle = self.machine.elapsed_cycles()
        self.sampler.stop()
        self.history.finalize()
        if self.fault_injector is not None:
            self.machine.clear_faults()
            self.history.faults = None
        self.kernel.slab.remove_alloc_listener(self._on_alloc)
        self.kernel.slab.remove_free_listener(self._on_free)
        self._analysis = None
        if self._collection_span is not None:
            self.tracer.end(
                self._collection_span,
                completed=self.history.jobs_completed,
                partial=self.history.histories_partial,
            )
            self._collection_span = None

    def _on_alloc(self, obj: KObject, cpu: int, cycle: int) -> None:
        name = obj.otype.name
        self._type_descriptions.setdefault(name, obj.otype.description)
        self._type_sizes.setdefault(name, obj.otype.size)
        self.address_set.record_alloc(name, obj.base, obj.otype.size, obj.cookie, cpu, cycle)

    def _on_free(self, obj: KObject, cpu: int, cycle: int) -> None:
        self.address_set.record_free(obj.base, obj.cookie, cpu, cycle)

    # ------------------------------------------------------------------
    # History collection
    # ------------------------------------------------------------------

    def collect_histories(
        self,
        type_name: str,
        sets: int,
        pair: bool = False,
        hot_chunks: int | None = None,
        member_offsets: list[int] | None = None,
    ) -> int:
        """Schedule history sets for a type and start the collector.

        ``hot_chunks`` limits coverage to the N most-sampled members, and
        ``member_offsets`` adds explicitly chosen offsets ("the programmer
        can tune which members are in this set", Section 6.4); when both
        are None the whole type is covered.  Returns the jobs queued.
        """
        size = self._type_sizes.get(type_name)
        if size is None:
            size = self._lookup_type_size(type_name)
        chunk = DEFAULT_CHUNK_SIZE
        offsets: set[int] = set()
        if hot_chunks is not None:
            offsets.update(self.sampler.popular_chunks(type_name, hot_chunks))
        if member_offsets is not None:
            offsets.update((off // chunk) * chunk for off in member_offsets)
        chunks = None
        if offsets:
            chunks = [
                (off, min(chunk, size - off))
                for off in sorted(offsets)
                if off < size
            ]
        jobs = self.history.schedule_sets(type_name, size, sets, pair=pair, chunks=chunks)
        self.history.start()
        if self.tracer.enabled:
            if self._collection_span is None:
                self._collection_span = self.tracer.begin("history-collection")
            self._collection_span.add(jobs=jobs, types=1)
        return jobs

    def _lookup_type_size(self, type_name: str) -> int:
        cache = self.kernel.slab.caches.get(type_name)
        if cache is not None:
            return cache.obj_size
        raise ProfilingError(f"unknown type {type_name!r}: no allocations observed")

    @property
    def histories_done(self) -> bool:
        """True once every scheduled history job completed."""
        return self.history.done

    # ------------------------------------------------------------------
    # Data quality
    # ------------------------------------------------------------------

    def data_quality(self) -> DataQuality:
        """The session's structured loss/confidence report.

        Counts only this session's samples (hardware counters are
        baselined at attach) and folds in the history collector's retry
        bookkeeping plus the fault injector's own counters when a plan is
        active.
        """
        delivered, dropped, corrupted = self.machine.ibs_delivery_counts()
        base_delivered, base_dropped, base_corrupted = self._ibs_base
        history = self.history
        quality = DataQuality(
            samples_delivered=delivered - base_delivered,
            samples_dropped=dropped - base_dropped,
            samples_corrupted=corrupted - base_corrupted,
            samples_rejected=self.sampler.samples_rejected,
            histories_complete=history.jobs_completed - history.histories_partial,
            histories_partial=history.histories_partial,
            histories_abandoned=history.jobs_abandoned,
            history_retries=history.jobs_retried,
            history_attempts=history.arm_attempts,
            watch_trap_misses=self.machine.watches.traps_missed,
            debug_slot_steals=self.machine.watches.arm_steals,
        )
        if self.fault_injector is not None:
            quality.history_truncations = (
                self.fault_injector.counters.history_truncations
            )
            quality.notes = (self.fault_plan.describe(),)
        return quality

    # ------------------------------------------------------------------
    # The four views
    # ------------------------------------------------------------------

    def bounce_flag(self, type_name: str) -> bool:
        """Does this type's data move between cores during its lifetime?"""
        for history in self.history.histories_for(type_name):
            cpus = {el.cpu for el in history.elements}
            cpus.add(history.alloc_cpu)
            if len(cpus) > 1:
                return True
        # Fall back to the sampling signal: foreign-cache loads imply the
        # data was last written by another core.
        samples = self.sampler.type_samples.count(type_name)
        if samples == 0:
            return False
        foreign = sum(
            1
            for s in self.sampler.samples
            if s.type_name == type_name and s.level.name == "FOREIGN"
        )
        return foreign / samples > BOUNCE_FOREIGN_SHARE

    def _session(self) -> OfflineSession:
        """The analysis session over this profiler's records."""
        if self.attached:
            raise ProfilingError("DProf still attached: detach() before building views")
        if self._analysis is None:
            self._analysis = OfflineSession.from_profiler(self)
        return self._analysis

    def path_traces(self, type_name: str) -> list[PathTrace]:
        """Path traces for one type (built lazily, cached)."""
        return self._session().path_traces(type_name)

    def working_set_sim(self) -> WorkingSetSimResult:
        """DProf's offline cache simulation result (cached)."""
        return self._session().working_set_sim()

    def data_profile(self) -> DataProfileView:
        """The ranked data profile (Tables 6.1/6.4/6.5)."""
        return self._session().data_profile()

    def working_set(self) -> WorkingSetView:
        """The working set view (Section 4.2)."""
        return self._session().working_set()

    def miss_classification(self, type_name: str) -> MissClassification:
        """The miss classification view for one type (Section 4.3)."""
        return self._session().miss_classification(type_name)

    def data_flow(self, type_name: str) -> DataFlowView:
        """The data flow view for one type (Section 4.4 / Figure 6-1)."""
        return self._session().data_flow(type_name)
