"""A simulated CPU core: cycle clock, counters, and attached units."""

from __future__ import annotations

from repro.hw.ibs import IbsUnit
from repro.util.rng import DeterministicRng


class Core:
    """One core's execution state.

    Each core advances its own cycle clock; the machine's event loop always
    runs the core whose clock is furthest behind, which gives a consistent
    global interleaving without simulating pipeline detail.  ``overhead_cycles``
    separately accumulates profiling costs (IBS interrupts, debug-register
    traps) so experiments can report profiling overhead exactly.
    """

    def __init__(self, cpu: int, rng: DeterministicRng) -> None:
        self.cpu = cpu
        self.cycle = 0
        self.instructions = 0
        self.mem_accesses = 0
        self.overhead_cycles = 0
        self.ibs = IbsUnit(cpu, rng.child(f"ibs{cpu}"))

    def charge(self, cycles: int, overhead: bool = False) -> None:
        """Advance the clock by *cycles*; optionally book it as overhead."""
        self.cycle += cycles
        if overhead:
            self.overhead_cycles += cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Core({self.cpu}, cycle={self.cycle}, instrs={self.instructions})"
