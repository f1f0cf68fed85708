"""x86-style hardware debug registers (watchpoints).

Each core exposes four debug registers; each register watches a 1-8 byte
range and traps every load/store that touches it.  DProf uses them to
record *object access histories*: it arms the same range on every core
(any core might touch the object), traps each access at ~1,000 cycles, and
pieces together whole-object histories from these narrow windows
(Section 5.3).  The 4-register / 8-byte limits are faithfully enforced
because they are what force DProf's pairwise-sampling design.

Debug registers are also a contended, lossy resource: other kernel agents
steal them, and traps can be swallowed.  With a fault injector installed
(:meth:`repro.hw.machine.Machine.install_faults`), arming can fail with a
steal and armed watches can misfire, counted in ``arm_steals`` /
``traps_missed`` for data-quality reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import SimulationError
from repro.hw.events import AccessResult, Instr

#: Number of debug address registers per core (DR0-DR3).
NUM_DEBUG_REGISTERS = 4

#: Widest range one debug register can watch, in bytes.
MAX_WATCH_BYTES = 8

#: Cycle cost of taking one debug-register trap (paper's measurement).
DEFAULT_TRAP_CYCLES = 1_000

WatchHandler = Callable[[int, "Instr", "AccessResult", int], None]


@dataclass(slots=True)
class Watch:
    """An armed watchpoint: [lo, hi) plus the trap handler."""

    watch_id: int
    lo: int
    hi: int
    slot: int
    handler: WatchHandler

    def overlaps(self, addr: int, size: int) -> bool:
        """True when [addr, addr+size) intersects the watched range."""
        return addr < self.hi and addr + max(size, 1) > self.lo


class DebugRegisterFile:
    """The four debug registers of one core."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.slots: list[Watch | None] = [None] * NUM_DEBUG_REGISTERS

    def free_slot(self) -> int | None:
        """Lowest unused register index, or None when all four are busy."""
        for i, slot in enumerate(self.slots):
            if slot is None:
                return i
        return None

    def arm(self, slot: int, watch: Watch) -> None:
        """Install *watch* in register *slot*."""
        if not 0 <= slot < NUM_DEBUG_REGISTERS:
            raise SimulationError(f"debug register slot {slot} out of range")
        if self.slots[slot] is not None:
            raise SimulationError(f"debug register {slot} on cpu {self.cpu} busy")
        self.slots[slot] = watch

    def disarm(self, slot: int) -> None:
        """Clear register *slot*."""
        self.slots[slot] = None


class WatchManager:
    """Machine-wide watchpoint coordination.

    DProf always arms the same range on *every* core simultaneously (an
    object may be touched from any core), so the manager allocates one slot
    index common to all cores per watch and keeps a line-indexed lookup
    table for a cheap hot-path check: the executor consults
    :attr:`watched_lines` before paying for a full overlap test.
    """

    def __init__(
        self,
        ncores: int,
        line_size: int,
        max_watch_bytes: int | None = MAX_WATCH_BYTES,
    ) -> None:
        self.line_size = line_size
        #: Widest armable range; None models the paper's wished-for
        #: "variable-size debug register" (Section 7), which removes the
        #: need for pairwise sampling entirely.
        self.max_watch_bytes = max_watch_bytes
        self.files = [DebugRegisterFile(cpu) for cpu in range(ncores)]
        self.watched_lines: dict[int, list[Watch]] = {}
        self.traps_delivered = 0
        self.traps_missed = 0
        self.arm_steals = 0
        #: Installed by the machine when a fault plan is active.
        self.faults = None
        self._next_id = 1

    @property
    def any_armed(self) -> bool:
        """True while at least one watch is armed."""
        return bool(self.watched_lines)

    def free_slot(self) -> int | None:
        """A slot index free on every core, or None."""
        for i in range(NUM_DEBUG_REGISTERS):
            if all(f.slots[i] is None for f in self.files):
                return i
        return None

    def arm_all_cores(self, lo: int, length: int, handler: WatchHandler) -> Watch:
        """Arm [lo, lo+length) on every core; returns the watch handle.

        Raises :class:`SimulationError` when the range is wider than one
        debug register allows or no slot is free on all cores.
        """
        limit = self.max_watch_bytes
        if length < 1 or (limit is not None and length > limit):
            raise SimulationError(
                f"debug registers watch 1-{limit} bytes, asked {length}"
            )
        slot = self.free_slot()
        if slot is None:
            raise SimulationError("no debug register slot free on all cores")
        if self.faults is not None and self.faults.steal_debug_slot():
            # Another agent (kgdb, perf, ...) grabbed the register between
            # the free-slot check and the arm broadcast.
            self.arm_steals += 1
            raise SimulationError(
                f"debug register slot {slot} stolen by another agent"
            )
        watch = Watch(
            watch_id=self._next_id, lo=lo, hi=lo + length, slot=slot, handler=handler
        )
        self._next_id += 1
        for f in self.files:
            f.arm(slot, watch)
        for line in range(lo // self.line_size, (lo + length - 1) // self.line_size + 1):
            self.watched_lines.setdefault(line, []).append(watch)
        return watch

    def disarm(self, watch: Watch) -> None:
        """Remove *watch* from every core and the lookup table."""
        for f in self.files:
            if f.slots[watch.slot] is watch:
                f.disarm(watch.slot)
        for line in list(self.watched_lines.keys()):
            entries = self.watched_lines[line]
            entries = [w for w in entries if w.watch_id != watch.watch_id]
            if entries:
                self.watched_lines[line] = entries
            else:
                del self.watched_lines[line]

    def check(
        self, cpu: int, instr: Instr, result: AccessResult, cycle: int
    ) -> int:
        """Fire handlers for watches overlapping the access.

        Returns the total trap overhead charged to the issuing core.
        """
        first = instr.addr // self.line_size
        last = (instr.addr + max(instr.size, 1) - 1) // self.line_size
        overhead = 0
        seen: set[int] = set()
        for line in range(first, last + 1):
            for watch in self.watched_lines.get(line, ()):
                if watch.watch_id in seen:
                    continue
                if watch.overlaps(instr.addr, instr.size):
                    seen.add(watch.watch_id)
                    if self.faults is not None and self.faults.miss_watch_trap():
                        # Watchpoint misfire: the access goes untrapped, so
                        # the history silently loses this element.
                        self.traps_missed += 1
                        continue
                    self.traps_delivered += 1
                    overhead += DEFAULT_TRAP_CYCLES
                    watch.handler(cpu, instr, result, cycle)
        return overhead
