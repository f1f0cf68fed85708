"""Intel PEBS-style precise event-based sampling.

The paper notes DProf is hardware-portable: "Both Intel PEBS and AMD IBS
can capture the addresses used by load and store instructions and access
latencies for load instructions.  DProf can use PEBS on Intel hardware to
collect statistics."  PEBS differs from IBS in ways that matter to a
profiler:

- it samples only instructions matching a *programmed event* (e.g. loads
  whose latency exceeds a threshold -- Intel's load-latency facility),
  rather than tagging arbitrary instructions;
- Intel's counter set is richer: it can count lines fetched in the
  Modified state from remote caches (HITM), which is how Intel PTU
  detects false sharing.

The simulated unit is built as a machine observer (no core changes): it
filters memory accesses by event, applies a sampling interval with
jitter, charges an interrupt per delivered sample, and maintains per-line
HITM counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.hw.events import AccessResult, CacheLevel, Instr
from repro.hw.machine import Machine
from repro.util.rng import DeterministicRng

#: Cycle cost of one PEBS assist (comparable to an IBS interrupt).
DEFAULT_PEBS_INTERRUPT_CYCLES = 1_800


@dataclass(frozen=True)
class PebsEvent:
    """What the counter is programmed to sample.

    ``kind`` selects loads, stores, or both; ``latency_threshold`` models
    the load-latency facility (only accesses at least this slow match);
    ``hitm_only`` restricts to remote-modified fetches (the PTU
    false-sharing event).
    """

    kind: str = "loads"  # 'loads' | 'stores' | 'all'
    latency_threshold: int = 0
    hitm_only: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("loads", "stores", "all"):
            raise ConfigError(f"unknown PEBS event kind {self.kind!r}")

    def matches(self, instr: Instr, result: AccessResult) -> bool:
        """Does this access match the programmed event?"""
        if self.kind == "loads" and instr.is_write:
            return False
        if self.kind == "stores" and not instr.is_write:
            return False
        if result.latency < self.latency_threshold:
            return False
        if self.hitm_only and result.level != CacheLevel.FOREIGN:
            return False
        return True


@dataclass(slots=True)
class PebsSample:
    """One precise sample: like an IBS record, plus the HITM flag."""

    cycle: int
    cpu: int
    ip: int
    fn: str
    addr: int
    size: int
    is_write: bool
    level: CacheLevel
    latency: int

    @property
    def hitm(self) -> bool:
        """Line was supplied by a remote cache (Modified-state fetch)."""
        return self.level == CacheLevel.FOREIGN

    @property
    def l1_miss(self) -> bool:
        """The access missed the local L1."""
        return self.level != CacheLevel.L1


PebsHandler = Callable[[PebsSample], None]


class PebsUnit:
    """Machine-wide PEBS sampling plus HITM line counters.

    Unlike the per-core IBS units (which the machine owns), PEBS attaches
    as an access observer; ``attach``/``detach`` control its lifetime.
    """

    def __init__(
        self,
        machine: Machine,
        event: PebsEvent,
        interval: int,
        handler: PebsHandler,
        seed: int = 7,
    ) -> None:
        if interval <= 0:
            raise ConfigError("PEBS interval must be positive")
        self.machine = machine
        self.event = event
        self.interval = interval
        self.handler = handler
        self.interrupt_cycles = DEFAULT_PEBS_INTERRUPT_CYCLES
        self.rng = DeterministicRng(seed, "pebs")
        self.samples_taken = 0
        #: line index -> HITM fetch count (always-on counter, free).
        self.hitm_by_line: Counter = Counter()
        #: line index -> L1-miss count (the PTU pairing counter).
        self.miss_by_line: Counter = Counter()
        self._countdown = self.rng.jitter(interval)
        self._attached = False

    def attach(self) -> None:
        """Start observing memory accesses."""
        if not self._attached:
            self.machine.add_access_observer(self._on_access)
            self._attached = True

    def detach(self) -> None:
        """Stop observing."""
        if self._attached:
            self.machine.remove_access_observer(self._on_access)
            self._attached = False

    def _on_access(
        self, cpu: int, instr: Instr, result: AccessResult, cycle: int
    ) -> None:
        line = instr.addr // self.machine.config.line_size
        if result.level == CacheLevel.FOREIGN:
            self.hitm_by_line[line] += 1
        if result.l1_miss:
            self.miss_by_line[line] += 1
        if not self.event.matches(instr, result):
            return
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.rng.jitter(self.interval)
        self.samples_taken += 1
        self.machine.cores[cpu].charge(self.interrupt_cycles, overhead=True)
        self.handler(
            PebsSample(
                cycle=cycle,
                cpu=cpu,
                ip=instr.ip,
                fn=instr.fn,
                addr=instr.addr,
                size=instr.size,
                is_write=instr.is_write,
                level=result.level,
                latency=result.latency,
            )
        )

    # ------------------------------------------------------------------
    # The Intel-counter analysis PTU performs
    # ------------------------------------------------------------------

    def sharing_suspect_lines(self, min_hitm: int = 4) -> list[tuple[int, int, int]]:
        """Cache lines that look falsely/truly shared.

        Intel PTU's recipe: combine local-miss counts with remote
        Modified-state fetches; lines with both are sharing suspects.
        Returns (line, hitm_count, miss_count) ranked by HITM.
        """
        out = []
        for line, hitm in self.hitm_by_line.most_common():
            if hitm < min_hitm:
                break
            out.append((line, hitm, self.miss_by_line.get(line, 0)))
        return out
