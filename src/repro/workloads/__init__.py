"""Workloads: the paper's two case studies plus synthetic microworkloads.

- :mod:`repro.workloads.memcached` -- 16 UDP memcached instances pinned
  one per core, closed-loop clients (Section 6.1's true-sharing study);
- :mod:`repro.workloads.apache` -- 16 Apache instances serving a 1 KiB
  mmap'd file over TCP, open-loop arrivals (Section 6.2's working-set
  study);
- :mod:`repro.workloads.synthetic` -- targeted generators for each cache
  miss class, used to validate DProf's classification against the
  simulator's ground truth;
- :mod:`repro.workloads.kernels` -- generated access-stream kernels with
  closed-form expected-metrics models (the ground-truth families).
"""

from dataclasses import dataclass

from repro.workloads.base import WorkloadResult, build_kernel
from repro.workloads.memcached import MemcachedConfig, MemcachedWorkload
from repro.workloads.apache import ApacheConfig, ApacheWorkload
from repro.workloads import apache as _apache
from repro.workloads import kernels as _kernels
from repro.workloads import memcached as _memcached
from repro.workloads import synthetic as _synthetic
from repro.workloads.kernels import KERNEL_FAMILIES, KernelSpec

#: Uniform scenario entry points: name -> drive(kernel, duration_cycles).
#: Used by ``repro.bench``, ``repro.serve``, and the hierarchy-equivalence
#: tests to run each workload identically everywhere.
SCENARIOS = {
    "memcached": _memcached.drive,
    "apache": _apache.drive,
    "synthetic": _synthetic.drive,
}
SCENARIOS.update(_kernels.scenario_entries())


@dataclass(frozen=True)
class ScenarioDefaults:
    """Per-scenario defaults used when a job or CLI omits a knob."""

    cores: int
    duration: int
    interval: int
    description: str
    #: One-line parameter schema shown by ``repro list-scenarios``.
    params: str = "cores duration interval seed"


#: Defaults per registered scenario, consumed by ``repro.serve`` job
#: validation and the CLI's ``list-scenarios`` subcommand.  Keys must
#: match :data:`SCENARIOS` exactly (enforced by tests/test_workloads.py).
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
}
SCENARIO_DEFAULTS.update(
    {
        name: ScenarioDefaults(**raw)
        for name, raw in _kernels.scenario_defaults().items()
    }
)



def collect_history_session(name: str, *, ncores: int, seed: int):
    """Run one case-study workload under DProf and collect pairwise
    skbuff histories (the same attach/collect pattern the ``diagnose``
    command uses); returns the detached profiler.

    *name* is ``"memcached"`` or ``"apache"``.
    """
    from repro.dprof.profiler import DProf, DProfConfig

    kernel = build_kernel(ncores, seed=seed)
    workload = (
        MemcachedWorkload(kernel) if name == "memcached" else ApacheWorkload(kernel)
    )
    workload.setup()
    workload.start()
    if name == "apache":
        # Apache traffic is arrival-driven (memcached's clients are
        # self-sustaining); push a schedule long enough to cover history
        # collection or no skbuffs ever churn.  Its packet rate is also
        # lower, so sample denser and warm up longer before arming the
        # collector -- every seed then fills all three history sets.
        workload.schedule_arrivals(
            30_000_000, start_cycle=kernel.elapsed_cycles()
        )
    ibs_interval = 200 if name == "apache" else 400
    warmup = 1_200_000 if name == "apache" else 600_000
    kernel.run(until_cycle=150_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=ibs_interval))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + warmup)
    dprof.collect_histories(
        "skbuff", sets=3, hot_chunks=4, member_offsets=[0], pair=True
    )
    kernel.run(
        until_cycle=kernel.elapsed_cycles() + 20_000_000,
        stop_when=lambda: dprof.histories_done,
    )
    dprof.detach()
    return dprof


__all__ = [
    "WorkloadResult",
    "build_kernel",
    "collect_history_session",
    "SCENARIOS",
    "SCENARIO_DEFAULTS",
    "ScenarioDefaults",
    "KERNEL_FAMILIES",
    "KernelSpec",
    "MemcachedConfig",
    "MemcachedWorkload",
    "ApacheConfig",
    "ApacheWorkload",
]
