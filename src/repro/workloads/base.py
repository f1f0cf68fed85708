"""Workload plumbing: results, throughput accounting, run helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.machine import MachineConfig
from repro.kernel.kernel import Kernel


def build_kernel(ncores: int, seed: int) -> Kernel:
    """A kernel on a fresh machine, parameterised the way the service,
    the benchmark harness and the tests need: core count and root seed."""
    return Kernel(MachineConfig(ncores=ncores, seed=seed))


@dataclass
class WorkloadResult:
    """Outcome of one measured workload run."""

    requests_completed: int
    elapsed_cycles: int
    per_core_completed: dict[int, int] = field(default_factory=dict)
    overhead_cycles: int = 0

    @property
    def throughput(self) -> float:
        """Requests completed per million cycles (the paper's 'connection
        throughput', scaled to simulation units)."""
        if self.elapsed_cycles == 0:
            return 0.0
        return self.requests_completed * 1_000_000 / self.elapsed_cycles


class RequestCounter:
    """Shared per-core completion counter used by all workloads."""

    def __init__(self, ncores: int) -> None:
        self.per_core = {cpu: 0 for cpu in range(ncores)}
        self.total = 0

    def bump(self, cpu: int) -> None:
        """Count one completed request on *cpu*."""
        self.per_core[cpu] = self.per_core.get(cpu, 0) + 1
        self.total += 1
