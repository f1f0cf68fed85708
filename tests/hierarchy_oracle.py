"""Test-only switch between the machine's hierarchy and the reference oracle.

Every :class:`~repro.hw.machine.Machine` builds a
:class:`~repro.hw.hierarchy.MemoryHierarchy`.  The differential tests also
run the readable :class:`~repro.hw.hierarchy.ReferenceHierarchy` and
compare the two; :func:`use_hierarchy` substitutes the reference for the
machines built inside its block, and :func:`outcome_of` makes two
hierarchies' access results comparable.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.hw.machine as machine_module
from repro.hw.hierarchy import ReferenceHierarchy

#: The two hierarchies: the reference oracle and the one machines run.
HIERARCHIES = ("reference", "fast")


@contextmanager
def use_hierarchy(kind: str):
    """Build machines inside the block with the *kind* hierarchy."""
    if kind not in HIERARCHIES:
        raise ValueError(f"unknown hierarchy {kind!r}")
    if kind == "fast":
        yield
        return
    original = machine_module.MemoryHierarchy
    machine_module.MemoryHierarchy = ReferenceHierarchy
    try:
        yield
    finally:
        machine_module.MemoryHierarchy = original


def outcome_of(result) -> tuple:
    """An access outcome (level, latency, miss kind, loss record) as a
    plain, comparable tuple."""
    return (
        result.level,
        result.latency,
        result.miss_kind,
        tuple(result.invalidation) if result.invalidation else None,
        tuple(result.eviction) if result.eviction else None,
    )
