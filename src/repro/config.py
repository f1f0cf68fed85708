"""The per-scenario defaults.

:data:`SCENARIO_DEFAULTS` holds the knobs a job or command falls back on
per scenario.  It lives here, away from the simulator, so a command that
only lists or submits scenarios (``repro list-scenarios``, ``repro
submit``) never imports the machine, the kernel or the workloads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScenarioDefaults:
    """Per-scenario defaults used when a job or CLI omits a knob."""

    cores: int
    duration: int
    interval: int
    description: str
    #: One-line parameter schema shown by ``repro list-scenarios``.
    params: str = "cores duration interval seed"


#: The scenario duration that maps to each generated-kernel family's
#: default iteration count.  Kernel scenarios treat ``duration_cycles`` as
#: a work budget (iterations scale linearly with it, see
#: :func:`repro.workloads.kernels.spec_for_duration`) and always run to
#: completion, so their metrics stay analytically exact under every
#: entry point.
KERNEL_DEFAULT_DURATION = 100_000


def _kernel_defaults(cores: int, description: str, params: str) -> ScenarioDefaults:
    return ScenarioDefaults(
        cores=cores,
        duration=KERNEL_DEFAULT_DURATION,
        interval=400,
        description=description,
        params=params,
    )


#: Defaults per registered scenario, consumed by ``repro.serve`` job
#: validation and the CLI's ``list-scenarios`` subcommand.  Keys must
#: match :data:`repro.workloads.SCENARIOS` exactly, and a kernel family's
#: cores must cover its default spec (both enforced by
#: tests/test_workloads.py).
SCENARIO_DEFAULTS = {
    "memcached": ScenarioDefaults(
        cores=4,
        duration=150_000,
        interval=400,
        description="pinned UDP memcached instances, closed-loop clients (Section 6.1)",
    ),
    "apache": ScenarioDefaults(
        cores=4,
        duration=150_000,
        interval=400,
        description="pinned Apache instances over TCP, open-loop arrivals (Section 6.2)",
    ),
    "synthetic": ScenarioDefaults(
        cores=4,
        duration=200_000,
        interval=400,
        description="all four miss-class microworkloads running together",
    ),
    "kernel-strided": _kernel_defaults(
        2,
        "single-core strided walk, L2-steady after one cold pass",
        "footprint=32768 stride=64 iterations=4",
    ),
    "kernel-stream": _kernel_defaults(
        2,
        "single-core streaming walk past every cache level",
        "footprint=1048576 stride=64 iterations=2",
    ),
    "kernel-chase": _kernel_defaults(
        2,
        "pointer chase over a seeded L1-resident permutation cycle",
        "footprint=8192 iterations=8",
    ),
    "kernel-pingpong": _kernel_defaults(
        4,
        "per-core slots falsely sharing one cache line",
        "cores=4 iterations=200",
    ),
    "kernel-ring": _kernel_defaults(
        2,
        "producer/consumer ring, one line per slot",
        "ring_slots=16 cores=2 iterations=50",
    ),
    "kernel-counters": _kernel_defaults(
        4,
        "per-core counters at configurable padding (64B = private)",
        "cores=4 padding=64 iterations=200",
    ),
}
