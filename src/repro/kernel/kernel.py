"""The Kernel facade: wires the substrate onto a simulated machine."""

from __future__ import annotations

from repro.hw.machine import Machine, MachineConfig
from repro.kernel.kenv import KernelEnv
from repro.kernel.lockstat import LockStatRegistry
from repro.kernel.slab import SlabSystem
from repro.kernel.symbols import SymbolTable


class Kernel:
    """Bundles machine + symbols + env + lock stats + slab allocator.

    Everything above this layer (the network stack, the workloads, the
    profilers) reaches the substrate through a ``Kernel`` instance::

        kernel = Kernel(MachineConfig(ncores=16))
        cache = kernel.slab.create_cache(SKBUFF_TYPE)
        kernel.machine.spawn("worker", 0, some_kernel_generator(kernel, 0))
        kernel.machine.run(until_cycle=1_000_000)
    """

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.machine = Machine(config)
        self.symbols = SymbolTable()
        self.env = KernelEnv(self.machine, self.symbols)
        self.lockstat = LockStatRegistry()
        self.slab = SlabSystem(self.env, self.lockstat)

    @property
    def ncores(self) -> int:
        """Number of cores on the underlying machine."""
        return self.machine.config.ncores

    def spawn(self, name: str, cpu: int, body):
        """Spawn a kernel thread pinned to *cpu*."""
        return self.machine.spawn(name, cpu, body)

    def run(self, **kwargs) -> None:
        """Run the machine (see :meth:`repro.hw.machine.Machine.run`)."""
        self.machine.run(**kwargs)

    def elapsed_cycles(self) -> int:
        """Wall-clock proxy for the run so far."""
        return self.machine.elapsed_cycles()
