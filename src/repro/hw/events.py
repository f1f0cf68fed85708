"""Core event types exchanged between the machine, caches, and profilers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple


class CacheLevel(IntEnum):
    """Where a memory access was ultimately served from.

    ``FOREIGN`` means another core's private cache supplied the line via a
    cache-to-cache transfer -- the expensive case the paper's data flow view
    is designed to expose.
    """

    L1 = 1
    L2 = 2
    L3 = 3
    FOREIGN = 4
    DRAM = 5


class MissKind(Enum):
    """Ground-truth cause of an L1/L2 miss, known only to the simulator.

    Real hardware does not report this; DProf has to infer it from path
    traces (Section 4.3 of the paper).  The simulator records it so tests
    can check DProf's inference against the truth.
    """

    COLD = "cold"
    INVALIDATION = "invalidation"
    EVICTION = "eviction"

    # Identity hash: Enum's default hashes the member name in Python code,
    # and the hierarchy counts misses in a ``MissKind``-keyed dict on its
    # hot path.  Members are singletons, so identity is the same relation.
    __hash__ = object.__hash__


class InvalidationRecord(NamedTuple):
    """Why a core lost a line: a remote write invalidated its copy."""

    writer_cpu: int
    writer_ip: int
    writer_addr: int
    writer_size: int
    cycle: int


class EvictionRecord(NamedTuple):
    """Why a core lost a line: set pressure evicted it from its L2."""

    set_index: int
    cycle: int


@dataclass(slots=True)
class AccessResult:
    """Outcome of one memory access through the hierarchy.

    Mutable, unlike the records above: a split-line access folds the
    outcome of each later line into its first line's result.
    """

    level: CacheLevel
    latency: int
    miss_kind: MissKind | None = None
    invalidation: InvalidationRecord | None = None
    eviction: EvictionRecord | None = None

    @property
    def l1_miss(self) -> bool:
        """True when the access missed the issuing core's L1."""
        return self.level != CacheLevel.L1

    @property
    def l2_miss(self) -> bool:
        """True when the access missed both private levels."""
        return self.level not in (CacheLevel.L1, CacheLevel.L2)


class Instr(NamedTuple):
    """One simulated instruction.

    ``kind`` is ``'load'``, ``'store'``, or ``'exec'`` (pure compute).
    ``fn`` is the symbolic name of the kernel function containing the
    instruction and ``ip`` its fake instruction pointer; profilers resolve
    ``ip`` back to ``fn`` through the symbol table.  ``work`` is the compute
    cost in cycles, charged in addition to any memory latency.

    Threads may yield an ``Instr`` or any plain 6-tuple in this field
    order; :class:`~repro.kernel.kenv.KernelEnv` yields plain tuples,
    which are far cheaper to build.  The machine builds an ``Instr`` view
    only where an instruction is kept or inspected (IBS samples, watch
    traps, observers), so those consumers see named fields either way.
    """

    kind: str
    fn: str
    ip: int
    addr: int = 0
    size: int = 0
    work: int = 1

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.kind != "exec"

    @property
    def is_write(self) -> bool:
        """True for stores."""
        return self.kind == "store"


@dataclass(slots=True)
class Pause:
    """Yielded by a thread to sleep for a number of cycles.

    Models blocking: a polling device loop, a spinlock backoff, or a server
    waiting for requests.  The machine wakes the thread once the owning
    core's clock passes the deadline.
    """

    cycles: int
