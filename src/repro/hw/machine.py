"""The simulated machine: cores, hierarchy, profiling units, event loop.

Threads are Python generators that yield :class:`~repro.hw.events.Instr`
(execute one instruction) or :class:`~repro.hw.events.Pause` (sleep for
some cycles).  Each thread is pinned to one core -- matching the paper's
experimental setup, where every memcached/Apache instance and every NIC
queue was pinned.  The event loop always advances the core whose clock is
furthest behind, so cross-core interactions (lock contention, cache-line
bouncing) interleave consistently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.errors import ConfigError, SimulationError
from repro.hw.core import Core
from repro.hw.debugreg import MAX_WATCH_BYTES, WatchManager
from repro.hw.events import AccessResult, Instr, Pause
from repro.hw.fastpath import FastHierarchy
from repro.hw.hierarchy import HierarchyConfig, Latencies, MemoryHierarchy
from repro.hw.interconnect import InterconnectCosts
from repro.hw.memory import AddressSpace
from repro.util.rng import DeterministicRng

ThreadBody = Generator["Instr | Pause", None, None]
AccessObserver = Callable[[int, Instr, AccessResult, int], None]
InstrObserver = Callable[[int, Instr, "AccessResult | None", int], None]


@dataclass(frozen=True)
class MachineConfig:
    """Top-level machine configuration.

    Defaults model the paper's testbed shape: 16 cores, private L1/L2,
    shared L3.  ``quantum`` is how many instructions a thread runs before
    the scheduler re-picks a core; small values interleave cores finely at
    some simulation-speed cost.
    """

    ncores: int = 16
    seed: int = 42
    quantum: int = 16
    line_size: int = 64
    l1_size: int = 16 * 1024
    l1_ways: int = 8
    l2_size: int = 64 * 1024
    l2_ways: int = 8
    l3_size: int = 512 * 1024
    l3_ways: int = 16
    latencies: Latencies = field(default_factory=Latencies)
    interconnect: InterconnectCosts = field(default_factory=InterconnectCosts)
    #: Model the paper's Section 7 wish: debug registers that can watch a
    #: whole object instead of 8 bytes.  Off by default (real x86).
    variable_debug_registers: bool = False

    def __post_init__(self) -> None:
        if self.ncores <= 0:
            raise ConfigError("ncores must be positive")
        if self.quantum <= 0:
            raise ConfigError("quantum must be positive")

    def hierarchy_config(self) -> HierarchyConfig:
        """Derive the memory-hierarchy configuration."""
        return HierarchyConfig(
            ncores=self.ncores,
            line_size=self.line_size,
            l1_size=self.l1_size,
            l1_ways=self.l1_ways,
            l2_size=self.l2_size,
            l2_ways=self.l2_ways,
            l3_size=self.l3_size,
            l3_ways=self.l3_ways,
            latencies=self.latencies,
        )


class Thread:
    """A kernel thread pinned to one core."""

    RUNNABLE = "runnable"
    PAUSED = "paused"
    DONE = "done"

    def __init__(self, name: str, cpu: int, body: ThreadBody) -> None:
        self.name = name
        self.cpu = cpu
        self.body = body
        self.state = Thread.RUNNABLE
        self.wake_at = 0

    @property
    def done(self) -> bool:
        """True once the generator has been exhausted."""
        return self.state == Thread.DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Thread({self.name}, cpu={self.cpu}, {self.state})"


class Machine:
    """Assembles cores, caches, and profiling units; runs threads."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.rng = DeterministicRng(self.config.seed, "machine")
        self.cores = [
            Core(cpu, self.rng.child(f"core{cpu}")) for cpu in range(self.config.ncores)
        ]
        self.hierarchy: MemoryHierarchy = FastHierarchy(
            self.config.hierarchy_config()
        )
        self.address_space = AddressSpace()
        self.watches = WatchManager(
            self.config.ncores,
            self.config.line_size,
            max_watch_bytes=(
                None if self.config.variable_debug_registers else MAX_WATCH_BYTES
            ),
        )
        self.interconnect = self.config.interconnect
        self._run_queues: list[deque[Thread]] = [
            deque() for _ in range(self.config.ncores)
        ]
        self.threads: list[Thread] = []
        self.access_observers: list[AccessObserver] = []
        self.instr_observers: list[InstrObserver] = []
        self.total_instructions = 0
        #: Optional :class:`repro.trace.SimProbe`; ticked once per
        #: scheduler step (a quantum of instructions), never per event.
        self.trace_probe = None

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------

    def spawn(self, name: str, cpu: int, body: ThreadBody) -> Thread:
        """Create a thread pinned to *cpu* and make it runnable."""
        if not 0 <= cpu < self.config.ncores:
            raise SimulationError(f"cpu {cpu} out of range")
        thread = Thread(name, cpu, body)
        self.threads.append(thread)
        self._run_queues[cpu].append(thread)
        return thread

    def add_access_observer(self, observer: AccessObserver) -> None:
        """Observe every memory access (cpu, instr, result, cycle)."""
        self.access_observers.append(observer)

    def remove_access_observer(self, observer: AccessObserver) -> None:
        """Stop observing memory accesses."""
        self.access_observers.remove(observer)

    def add_instr_observer(self, observer: InstrObserver) -> None:
        """Observe every instruction, memory or not."""
        self.instr_observers.append(observer)

    def remove_instr_observer(self, observer: InstrObserver) -> None:
        """Stop observing instructions."""
        self.instr_observers.remove(observer)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(
        self,
        until_cycle: int | None = None,
        stop_when: Callable[[], bool] | None = None,
        max_steps: int | None = None,
    ) -> None:
        """Run threads until a bound is hit or every thread finishes.

        ``until_cycle`` stops scheduling a core once its clock passes the
        bound; ``stop_when`` is polled between quanta; ``max_steps`` bounds
        scheduler iterations as a runaway backstop.
        """
        steps = 0
        probe = self.trace_probe
        while True:
            if stop_when is not None and stop_when():
                return
            if max_steps is not None and steps >= max_steps:
                return
            steps += 1
            if probe is not None:
                probe.tick(self)
            core = self._pick_core(until_cycle)
            if core is None:
                return
            thread = self._next_thread(core)
            if thread is None:
                # Every thread on this core sleeps: jump to the next wake.
                self._advance_to_wake(core, until_cycle)
                continue
            self._run_quantum(core, thread)

    def elapsed_cycles(self) -> int:
        """Wall-clock proxy: the furthest-ahead core's cycle count."""
        return max(core.cycle for core in self.cores)

    def _pick_core(self, until_cycle: int | None) -> Core | None:
        best: Core | None = None
        for core in self.cores:
            queue = self._run_queues[core.cpu]
            if not any(not t.done for t in queue):
                continue
            if until_cycle is not None and core.cycle >= until_cycle:
                continue
            if best is None or core.cycle < best.cycle:
                best = core
        return best

    def _next_thread(self, core: Core) -> Thread | None:
        queue = self._run_queues[core.cpu]
        for _ in range(len(queue)):
            thread = queue[0]
            queue.rotate(-1)
            if thread.done:
                queue.remove(thread)
                continue
            if thread.state == Thread.PAUSED:
                if thread.wake_at <= core.cycle:
                    thread.state = Thread.RUNNABLE
                else:
                    continue
            return thread
        return None

    def _advance_to_wake(self, core: Core, until_cycle: int | None) -> None:
        queue = self._run_queues[core.cpu]
        wakes = [t.wake_at for t in queue if t.state == Thread.PAUSED]
        if not wakes:
            return
        target = min(wakes)
        if until_cycle is not None:
            target = min(target, until_cycle)
        if target > core.cycle:
            core.cycle = target

    def _run_quantum(self, core: Core, thread: Thread) -> None:
        for _ in range(self.config.quantum):
            try:
                item = next(thread.body)
            except StopIteration:
                thread.state = Thread.DONE
                return
            if isinstance(item, Pause):
                thread.state = Thread.PAUSED
                thread.wake_at = core.cycle + max(item.cycles, 1)
                return
            self.execute(core, item)

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------

    def execute(self, core: Core, instr: Instr) -> AccessResult | None:
        """Execute one instruction on *core*, firing all attached units."""
        core.instructions += 1
        self.total_instructions += 1
        cost = instr.work
        result: AccessResult | None = None
        if instr.is_memory:
            core.mem_accesses += 1
            result = self.hierarchy.access(
                core.cpu, instr.addr, instr.size, instr.is_write, instr.ip, core.cycle
            )
            cost += result.latency
        core.cycle += cost

        if result is not None and self.watches.any_armed:
            trap_cost = self.watches.check(core.cpu, instr, result, core.cycle)
            if trap_cost:
                core.charge(trap_cost, overhead=True)

        ibs_cost = core.ibs.on_instruction(instr, result, core.cycle)
        if ibs_cost:
            core.charge(ibs_cost, overhead=True)

        for observer in self.instr_observers:
            observer(core.cpu, instr, result, core.cycle)
        if result is not None:
            for observer in self.access_observers:
                observer(core.cpu, instr, result, core.cycle)
        return result

    # ------------------------------------------------------------------
    # Profiling support
    # ------------------------------------------------------------------

    def configure_ibs(self, interval: int, handler) -> None:
        """Program IBS on every core with a shared delivery handler."""
        for core in self.cores:
            core.ibs.configure(interval, handler)

    def install_faults(self, injector) -> None:
        """Attach a fault injector to every lossy hardware unit.

        The injector (see :class:`repro.faults.plan.FaultInjector`) is
        consulted by each core's IBS unit and by the watch manager; pass
        the same object to the profiler layers that need it so one plan
        drives the whole pipeline.
        """
        for core in self.cores:
            core.ibs.faults = injector
        self.watches.faults = injector

    def clear_faults(self) -> None:
        """Detach any installed fault injector (hardware becomes perfect)."""
        for core in self.cores:
            core.ibs.faults = None
        self.watches.faults = None

    def ibs_delivery_counts(self) -> tuple[int, int, int]:
        """(delivered, dropped, corrupted) IBS samples across all cores."""
        delivered = sum(core.ibs.samples_taken for core in self.cores)
        dropped = sum(core.ibs.samples_dropped for core in self.cores)
        corrupted = sum(core.ibs.samples_corrupted for core in self.cores)
        return delivered, dropped, corrupted

    def disable_ibs(self) -> None:
        """Stop IBS sampling on every core."""
        for core in self.cores:
            core.ibs.configure(0, None)

    def total_overhead_cycles(self) -> int:
        """Profiling overhead accumulated across all cores."""
        return sum(core.overhead_cycles for core in self.cores)

    def total_cycles(self) -> int:
        """Sum of all core clocks (busy time proxy)."""
        return sum(core.cycle for core in self.cores)

    def reset_counters(self) -> None:
        """Zero per-core counters without touching caches or threads."""
        for core in self.cores:
            core.instructions = 0
            core.mem_accesses = 0
            core.overhead_cycles = 0
