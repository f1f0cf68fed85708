"""Object access history collection via debug registers (Section 5.3).

DProf monitors **one object at a time**: it reserves the next allocation of
the chosen type with the memory subsystem, arms the same debug-register
range on *every* core (the object may be touched anywhere), records every
trapped access until the object is freed, then moves to the next job.

A *job* watches one chunk (or, in pairwise mode, two chunks) of one
object's lifetime; a *history set* is a collection of histories covering
every scheduled chunk of the type once (paper Section 6.4).  Costs follow
the paper's measurements:

- each trap costs ~1,000 cycles (charged by the watch manager);
- reserving an object with the memory subsystem costs ~90,000 cycles;
- arming debug registers on all cores costs an IPI broadcast
  (~130,000 cycles on 16 cores);

giving the ~220,000-cycle per-object setup the paper reports, and the
overhead structure of Tables 6.7-6.10.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.dprof.records import HistoryElement, ObjectAccessHistory
from repro.errors import SimulationError
from repro.hw.debugreg import DEFAULT_TRAP_CYCLES
from repro.hw.machine import Machine
from repro.kernel.layout import KObject
from repro.kernel.slab import SlabSystem

#: Default watched-chunk width; the paper uses 4-byte debug registers
#: (a 256-byte skbuff needs "64 histories with debug register configured
#: to monitor length of 4 bytes").
DEFAULT_CHUNK_SIZE = 4


#: How many times an incomplete job (stolen register, truncated history)
#: is retried before its partial data is accepted as-is.
DEFAULT_MAX_RETRIES = 2

#: Base retry backoff in simulated cycles; attempt N waits N times this
#: long before re-reserving, so a persistently contended register does
#: not livelock the collector.
DEFAULT_RETRY_BACKOFF_CYCLES = 50_000


@dataclass(slots=True)
class HistoryJob:
    """One scheduled monitoring job: chunks of the next object of a type."""

    type_name: str
    chunks: tuple[tuple[int, int], ...]  # (offset, length) per debug register
    set_index: int
    attempt: int = 0


@dataclass
class OverheadBreakdown:
    """Cycle cost split the way Table 6.9 reports it."""

    interrupt_cycles: int = 0
    memory_cycles: int = 0
    communication_cycles: int = 0

    @property
    def total(self) -> int:
        """All profiling cycles charged."""
        return self.interrupt_cycles + self.memory_cycles + self.communication_cycles

    def shares(self) -> dict[str, float]:
        """Fractional split (interrupts / memory / communication)."""
        total = self.total
        if total == 0:
            return {"interrupts": 0.0, "memory": 0.0, "communication": 0.0}
        return {
            "interrupts": self.interrupt_cycles / total,
            "memory": self.memory_cycles / total,
            "communication": self.communication_cycles / total,
        }


def chunks_for_type(size: int) -> list[tuple[int, int]]:
    """Full chunk coverage of a type: (offset, length) per debug register."""
    width = DEFAULT_CHUNK_SIZE
    return [(off, min(width, size - off)) for off in range(0, size, width)]


def all_pairs(chunks: list[tuple[int, int]]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every unordered pair of chunks (pairwise sampling, Section 5.3)."""
    pairs = []
    for i in range(len(chunks)):
        for j in range(i + 1, len(chunks)):
            pairs.append((chunks[i], chunks[j]))
    return pairs


class HistoryCollector:
    """Runs history jobs against the live machine, one object at a time."""

    def __init__(self, machine: Machine, slab: SlabSystem) -> None:
        self.machine = machine
        self.slab = slab
        #: Consulted per armed object when a fault plan is active.
        self.faults = None
        self.histories: list[ObjectAccessHistory] = []
        self.jobs: deque[HistoryJob] = deque()
        self.overhead = OverheadBreakdown()
        self.jobs_completed = 0
        self.jobs_abandoned = 0
        self.jobs_retried = 0
        self.histories_partial = 0
        self.arm_attempts = 0
        self.arm_failures = 0
        self.started_cycle: int | None = None
        self.finished_cycle: int | None = None
        self._current_job: HistoryJob | None = None
        self._current_history: ObjectAccessHistory | None = None
        self._current_obj: KObject | None = None
        self._truncate_after: int | None = None
        self._retry_queue: list[tuple[HistoryJob, int]] = []
        self._watches: list = []
        self._free_listener_installed = False
        self._reservation_pending = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_sets(
        self,
        type_name: str,
        type_size: int,
        num_sets: int,
        pair: bool = False,
        chunks: list[tuple[int, int]] | None = None,
    ) -> int:
        """Queue *num_sets* history sets for a type; returns jobs queued.

        ``chunks`` restricts coverage to chosen members (the paper tunes
        pairwise collection to "just the bytes that cover the chosen
        members"); by default every chunk of the type is covered.
        """
        cover = chunks if chunks is not None else chunks_for_type(type_size)
        jobs = 0
        for set_index in range(num_sets):
            if pair:
                for pair_chunks in all_pairs(cover):
                    self.jobs.append(HistoryJob(type_name, pair_chunks, set_index))
                    jobs += 1
            else:
                for chunk in cover:
                    self.jobs.append(HistoryJob(type_name, (chunk,), set_index))
                    jobs += 1
        return jobs

    @property
    def done(self) -> bool:
        """True once every scheduled job has completed (retries included)."""
        return (
            not self.jobs
            and not self._retry_queue
            and self._current_job is None
        )

    # ------------------------------------------------------------------
    # Collection lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin working the job queue (reserves the first object).

        Safe to call again after queueing more jobs: an in-flight job (a
        pending reservation or an armed object) keeps running and the new
        jobs wait their turn behind it.
        """
        if self.started_cycle is None:
            self.started_cycle = self.machine.elapsed_cycles()
        if not self._free_listener_installed:
            self.slab.add_free_listener(self._on_free)
            self._free_listener_installed = True
        if self._current_job is None:
            self._next_job()

    def abandon_current(self) -> None:
        """Drop the in-flight job: disarm, cancel reservations, reset.

        Used when a caller gives up on the current job (collection window
        expired) so the next ``start()`` begins cleanly; without this, a
        stale reservation would deliver an object of the *old* type to
        the *next* job.
        """
        if self._current_job is None:
            return
        self.slab.cancel_reservations(self._current_job.type_name)
        self._reservation_pending = False
        self._disarm()
        if self._current_history is not None:
            self.jobs_abandoned += 1
        self._current_history = None
        self._current_obj = None
        self._current_job = None
        self._truncate_after = None

    def finalize(self) -> None:
        """Stop collecting: disarm watches, drop incomplete state."""
        self.abandon_current()
        self.jobs.clear()
        self._retry_queue.clear()
        self.slab.cancel_reservations()
        if self._free_listener_installed:
            self.slab.remove_free_listener(self._on_free)
            self._free_listener_installed = False
        self.finished_cycle = self.machine.elapsed_cycles()

    def _next_job(self) -> None:
        self._promote_ready_retries()
        if not self.jobs:
            self._current_job = None
            if (
                self.finished_cycle is None
                and self.jobs_completed
                and not self._retry_queue
            ):
                self.finished_cycle = self.machine.elapsed_cycles()
            return
        job = self.jobs.popleft()
        self._current_job = job
        self._reservation_pending = True
        self.slab.reserve_next(job.type_name, self._on_reserved_alloc)

    def _promote_ready_retries(self) -> None:
        """Move retry jobs whose backoff has expired back onto the queue."""
        if not self._retry_queue:
            return
        now = self.machine.elapsed_cycles()
        still_waiting = []
        for job, ready_cycle in self._retry_queue:
            if ready_cycle <= now:
                self.jobs.append(job)
            else:
                still_waiting.append((job, ready_cycle))
        self._retry_queue = still_waiting

    def _requeue_or_finish(self, job: HistoryJob, cycle: int, partial) -> None:
        """Retry an incomplete job, or accept what it gathered.

        Bounded retry-with-backoff: attempt N waits N * backoff simulated
        cycles before re-reserving.  Once retries are exhausted, a partial
        history (if any) is kept -- marked truncated, counted in
        ``histories_partial`` -- rather than silently discarded; with no
        partial data the job counts as abandoned.
        """
        if job.attempt < DEFAULT_MAX_RETRIES:
            self.jobs_retried += 1
            retry = HistoryJob(
                job.type_name, job.chunks, job.set_index, attempt=job.attempt + 1
            )
            backoff = DEFAULT_RETRY_BACKOFF_CYCLES * (job.attempt + 1)
            self._retry_queue.append((retry, cycle + backoff))
            return
        if partial is not None:
            partial.truncated = True
            self.histories.append(partial)
            self.histories_partial += 1
            self.jobs_completed += 1
        else:
            self.jobs_abandoned += 1

    def _on_reserved_alloc(self, obj: KObject, cpu: int, cycle: int) -> None:
        job = self._current_job
        if job is None:  # finalized while a reservation was pending
            return
        self._reservation_pending = False
        if obj.otype.name != job.type_name:  # stale reservation
            return
        # Cost of coordinating with the memory subsystem to reserve the
        # object (Table 6.9 "Memory" column).
        reserve = self.machine.interconnect.reserve_object
        self.machine.cores[cpu].charge(reserve, overhead=True)
        self.overhead.memory_cycles += reserve
        # Cost of broadcasting debug-register setup to every core
        # (Table 6.9 "Communication" column).
        broadcast = self.machine.interconnect.broadcast_cost(self.machine.config.ncores)
        self.machine.cores[cpu].charge(broadcast, overhead=True)
        self.overhead.communication_cycles += broadcast

        history = ObjectAccessHistory(
            type_name=job.type_name,
            object_base=obj.base,
            object_cookie=obj.cookie,
            offsets=job.chunks,
            alloc_cpu=cpu,
            alloc_cycle=cycle,
            set_index=job.set_index,
        )
        self.arm_attempts += 1
        self._truncate_after = (
            self.faults.truncation_point() if self.faults is not None else None
        )
        try:
            for offset, length in job.chunks:
                watch = self.machine.watches.arm_all_cores(
                    obj.base + offset, length, self._on_trap
                )
                self._watches.append(watch)
        except SimulationError:
            # Register stolen (or none free): give the job back to the
            # scheduler instead of crashing the collection run.
            self._disarm()
            self.arm_failures += 1
            self._current_history = None
            self._current_obj = None
            self._current_job = None
            self._truncate_after = None
            self._requeue_or_finish(job, cycle, None)
            self._next_job()
            return
        self._current_history = history
        self._current_obj = obj

    def _on_trap(self, cpu: int, instr, result, cycle: int) -> None:
        history = self._current_history
        obj = self._current_obj
        if history is None or obj is None:
            return
        self.overhead.interrupt_cycles += DEFAULT_TRAP_CYCLES
        history.elements.append(
            HistoryElement(
                offset=instr.addr - obj.base,
                ip=instr.ip,
                cpu=cpu,
                time=cycle - history.alloc_cycle,
                is_write=instr.is_write,
            )
        )
        if (
            self._truncate_after is not None
            and len(history.elements) >= self._truncate_after
        ):
            # Injected truncation: the watch is revoked mid-lifetime.  Stop
            # recording but keep tracking the object so its free still
            # closes the job (and decides retry vs keep-partial).
            history.truncated = True
            self._truncate_after = None
            self._disarm()

    def _on_free(self, obj: KObject, cpu: int, cycle: int) -> None:
        current = self._current_obj
        if current is None or obj is not current:
            # Every free is also the collector's clock pulse: it is the
            # only callback guaranteed to keep firing, so use it to kick
            # off retry jobs whose backoff has expired.
            if self._current_job is None and (self.jobs or self._retry_queue):
                self._next_job()
            return
        history = self._current_history
        job = self._current_job
        history.free_cycle = cycle
        history.free_cpu = cpu
        self._disarm()
        self._current_history = None
        self._current_obj = None
        self._current_job = None
        self._truncate_after = None
        if history.truncated:
            self._requeue_or_finish(job, cycle, history)
        else:
            self.histories.append(history)
            self.jobs_completed += 1
        self._next_job()

    def _disarm(self) -> None:
        for watch in self._watches:
            self.machine.watches.disarm(watch)
        self._watches.clear()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def collection_cycles(self) -> int:
        """Cycles between collection start and last completed job."""
        if self.started_cycle is None:
            return 0
        end = (
            self.finished_cycle
            if self.finished_cycle is not None
            else self.machine.elapsed_cycles()
        )
        return max(0, end - self.started_cycle)

    @property
    def total_elements(self) -> int:
        """History elements recorded across all completed histories."""
        return sum(len(h.elements) for h in self.histories)

    @property
    def memory_bytes(self) -> int:
        """Profiling memory footprint: 32 bytes per element (paper)."""
        return 32 * self.total_elements

    def histories_for(self, type_name: str) -> list[ObjectAccessHistory]:
        """All completed histories of one type."""
        return [h for h in self.histories if h.type_name == type_name]
