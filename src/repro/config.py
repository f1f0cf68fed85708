"""``RunConfig`` -- the knobs shared by every pipeline layer.

The machine seed and the trace flag are accepted by
:class:`~repro.dprof.profiler.DProf`, the CLI, and
:meth:`~repro.serve.jobs.JobSpec.create` alike; :class:`RunConfig`
states them once.  The per-layer configs keep working unchanged via the
adapter methods (:meth:`RunConfig.machine_config`,
:meth:`RunConfig.dprof_config`, :meth:`RunConfig.job_kwargs`), which are
tested to produce bit-identical sessions to the per-layer kwargs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    """The knobs every layer shares, stated once.

    ``seed`` drives the machine RNG, the workload, and deterministic
    trace ids; ``trace`` turns on span tracing for the run.
    """

    seed: int = 42
    trace: bool = False

    def __post_init__(self) -> None:
        # Validated here so a bad RunConfig fails at construction, not
        # deep inside the machine's RNG.
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")

    # ------------------------------------------------------------------
    # Adapters to the per-layer configs
    # ------------------------------------------------------------------

    def machine_config(self, **overrides):
        """A :class:`~repro.hw.machine.MachineConfig` with this seed.

        Extra machine-only kwargs (``ncores``, cache geometry, ...) pass
        through unchanged.
        """
        from repro.hw.machine import MachineConfig

        kwargs = {"seed": self.seed}
        kwargs.update(overrides)
        return MachineConfig(**kwargs)

    def dprof_config(self, **overrides):
        """A :class:`~repro.dprof.profiler.DProfConfig` with *overrides*.

        Note: DProfConfig's ``seed`` is the *profiler* seed (defaults to
        99, independent of the machine seed) so it is NOT overridden
        here unless passed explicitly -- matching how every existing
        call site builds the two configs.
        """
        from repro.dprof.profiler import DProfConfig

        return DProfConfig(**overrides)

    def job_kwargs(self) -> dict:
        """The :meth:`~repro.serve.jobs.JobSpec.create` kwargs this
        config implies."""
        return {"seed": self.seed, "trace": self.trace}
