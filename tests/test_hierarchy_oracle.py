"""The oracle switch must really swap hierarchies.

The differential tests build one machine inside ``use_hierarchy("reference")``
and one outside and compare them.  If the switch silently did nothing,
both would run :class:`MemoryHierarchy` and every comparison would pass
vacuously.
"""

from repro.hw.hierarchy import MemoryHierarchy
from repro.hw.machine import Machine, MachineConfig
from tests.hierarchy_oracle import ReferenceHierarchy, use_hierarchy


def test_use_hierarchy_builds_machines_on_the_reference():
    assert not issubclass(ReferenceHierarchy, MemoryHierarchy)
    with use_hierarchy("reference"):
        inside = Machine(MachineConfig(ncores=2, seed=1)).hierarchy
    assert type(inside) is ReferenceHierarchy
    outside = Machine(MachineConfig(ncores=2, seed=1)).hierarchy
    assert type(outside) is MemoryHierarchy
