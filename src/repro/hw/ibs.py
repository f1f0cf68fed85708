"""Instruction-Based Sampling (IBS) unit.

AMD IBS randomly tags roughly every Nth instruction entering the pipeline;
when the tagged instruction retires, the hardware raises an interrupt and
reports the instruction address, the data address for memory operations,
whether the access hit in the cache, where it was served from, and the
load latency.  DProf builds its access samples (Table 5.1) from exactly
this record.

The simulated unit reproduces the interface and the cost: each delivered
sample charges the interrupted core ~2,000 cycles (the paper's measured
interrupt cost -- half reading IBS registers, half interrupt entry/exit
plus address-to-type resolution), which is what makes profiling overhead
proportional to the sampling rate (Figure 6-2).

It also reproduces the lossiness: real IBS discards tagged ops that never
retire, and racy MSR reads can return garbage latencies.  When a
:class:`~repro.faults.plan.FaultInjector` is installed (see
:meth:`repro.hw.machine.Machine.install_faults`), tagged ops may be
dropped before the interrupt fires (no sample, no cost) or have their
latency field corrupted, with ``samples_dropped`` / ``samples_corrupted``
counting both so data-quality reports can quantify the loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.hw.events import AccessResult, CacheLevel, Instr
from repro.util.rng import DeterministicRng

#: Cycle cost of one IBS interrupt on the paper's test machine.
DEFAULT_IBS_INTERRUPT_CYCLES = 2_000


@dataclass(slots=True)
class IbsSample:
    """One tagged-instruction record, as the hardware would report it."""

    cycle: int
    cpu: int
    ip: int
    fn: str
    kind: str
    addr: int
    size: int
    level: CacheLevel | None
    latency: int

    @property
    def is_memory(self) -> bool:
        """True when the tagged instruction was a load or store."""
        return self.kind != "exec"

    @property
    def l1_miss(self) -> bool:
        """True when the tagged memory access missed the local L1."""
        return self.level is not None and self.level != CacheLevel.L1


IbsHandler = Callable[[IbsSample], None]


class IbsUnit:
    """Per-core IBS sampling engine.

    ``interval`` is the mean number of instructions between tags; real
    hardware randomizes the exact count, which the unit reproduces with
    deterministic jitter so experiments replay exactly.  An interval of 0
    disables sampling.
    """

    def __init__(
        self,
        cpu: int,
        rng: DeterministicRng,
        interval: int = 0,
        interrupt_cycles: int = DEFAULT_IBS_INTERRUPT_CYCLES,
    ) -> None:
        self.cpu = cpu
        self.rng = rng
        self.interval = interval
        self.interrupt_cycles = interrupt_cycles
        self.handler: IbsHandler | None = None
        self.samples_taken = 0
        self.samples_dropped = 0
        self.samples_corrupted = 0
        #: Installed by the machine when a fault plan is active.
        self.faults = None
        #: Instructions left until the next tag: positive exactly while
        #: sampling is enabled, 0 while it is disabled.  The machine
        #: decrements it inline and calls :meth:`on_instruction` only for
        #: the instruction that brings it to zero, so the unit costs one
        #: attribute update per untagged instruction.
        self.countdown = 0
        self.configure(interval, None)

    @property
    def enabled(self) -> bool:
        """Sampling happens only with a positive interval and a handler."""
        return self.interval > 0 and self.handler is not None

    def configure(self, interval: int, handler: IbsHandler | None) -> None:
        """(Re)program the sampling interval and delivery handler."""
        self.interval = interval
        self.handler = handler
        countdown = self.rng.jitter(interval) if interval > 0 else 0
        self.countdown = countdown if handler is not None else 0

    def on_instruction(
        self, instr: Instr, result: AccessResult | None, cycle: int
    ) -> int:
        """Advance the tag counter; deliver a sample when it expires.

        Returns the overhead cycles the interrupt cost the core (0 when no
        sample fired).  Sampling and fault consultation happen here only;
        the machine skips the call while :attr:`countdown` stays above 1.
        """
        if not self.enabled:
            return 0
        self.countdown -= 1
        if self.countdown > 0:
            return 0
        self.countdown = self.rng.jitter(self.interval)
        if self.faults is not None and self.faults.drop_ibs_sample(self.cpu):
            # The tagged op never retired: no interrupt, no sample, no cost.
            self.samples_dropped += 1
            return 0
        self.samples_taken += 1
        latency = result.latency if result is not None else 0
        if self.faults is not None and result is not None:
            corrupted = self.faults.corrupt_ibs_latency(self.cpu, latency)
            if corrupted is not None:
                latency = corrupted
                self.samples_corrupted += 1
        sample = IbsSample(
            cycle=cycle,
            cpu=self.cpu,
            ip=instr.ip,
            fn=instr.fn,
            kind=instr.kind,
            addr=instr.addr,
            size=instr.size,
            level=result.level if result is not None else None,
            latency=latency,
        )
        self.handler(sample)  # type: ignore[misc]  # enabled implies handler
        return self.interrupt_cycles
