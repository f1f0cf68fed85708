"""Cross-core communication cost model.

DProf's object-access-history collection is dominated by cross-core
communication: arming debug registers requires an IPI broadcast to every
core (the paper measures ~130,000 cycles on 16 cores), and reserving a
to-be-allocated object with the memory subsystem costs further cross-core
round trips (part of the ~220,000-cycle per-object setup).  This module
centralizes those costs so the overhead benchmarks (Tables 6.7-6.10) and
the profiler share one model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InterconnectCosts:
    """Cycle costs of cross-core coordination.

    Defaults reproduce the paper's measurements on 16 cores:
    ``ipi_base + 16 * ipi_per_core`` ~= 130,000 cycles for a debug-register
    broadcast, and ``reserve_object`` ~= 90,000 cycles to coordinate with
    the memory subsystem, summing to the paper's ~220,000-cycle object
    setup.
    """

    ipi_base: int = 2_000
    ipi_per_core: int = 8_000
    reserve_object: int = 90_000

    def broadcast_cost(self, ncores: int) -> int:
        """Cost of notifying every core to update its debug registers."""
        return self.ipi_base + self.ipi_per_core * ncores

    def object_setup_cost(self, ncores: int) -> int:
        """Total cost of reserving an object and arming all cores."""
        return self.reserve_object + self.broadcast_cost(ncores)


#: The cost model every machine charges (the one place it is set).
INTERCONNECT = InterconnectCosts()
