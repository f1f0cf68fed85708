"""Simulated multicore hardware.

The paper's DProf implementation relies on three hardware facilities:

1. a multicore cache hierarchy whose misses it wants to explain,
2. AMD Instruction-Based Sampling (IBS), which randomly tags instructions
   and reports their data address, cache level served, and access latency,
3. x86 debug registers, which trap every load/store to a watched range.

This package simulates all three.  The simulation is event-accurate rather
than cycle-accurate: each core owns a cycle clock that advances by the
compute and memory cost of every instruction it executes, and a MESI
directory arbitrates line ownership between cores.  Unlike real hardware,
the simulation also records the *ground-truth cause* of every miss
(cold / invalidation / eviction), which the test suite uses to validate
DProf's statistical inference.

There is one hierarchy, :class:`MemoryHierarchy`, on one cache array and
one directory.  The independent oracle the differential tests check it
against is test code (``tests/hierarchy_oracle.py``), not part of this
package.
"""

from repro.hw.events import AccessResult, CacheLevel, Instr, MissKind, Pause
from repro.hw.cache import CacheArray, CacheGeometry
from repro.hw.coherence import Directory
from repro.hw.hierarchy import HierarchyConfig, Latencies, MemoryHierarchy
from repro.hw.machine import Machine, MachineConfig, Thread

__all__ = [
    "AccessResult",
    "CacheLevel",
    "Instr",
    "MissKind",
    "Pause",
    "CacheArray",
    "CacheGeometry",
    "Directory",
    "HierarchyConfig",
    "Latencies",
    "MemoryHierarchy",
    "Machine",
    "MachineConfig",
    "Thread",
]
