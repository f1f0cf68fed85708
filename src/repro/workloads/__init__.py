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

from repro.config import SCENARIO_DEFAULTS, ScenarioDefaults
from repro.workloads.base import WorkloadResult, build_kernel
from repro.workloads.memcached import MemcachedConfig, MemcachedWorkload
from repro.workloads.apache import ApacheConfig, ApacheWorkload
from repro.workloads import apache as _apache
from repro.workloads import kernels as _kernels
from repro.workloads import memcached as _memcached
from repro.workloads import synthetic as _synthetic
from repro.workloads.kernels import KERNEL_FAMILIES, KernelSpec

#: Uniform scenario entry points: name -> drive(kernel, duration_cycles).
#: Used by ``repro.serve``, the CLI and the hierarchy-equivalence tests
#: to run each workload identically everywhere.
SCENARIOS = {
    "memcached": _memcached.drive,
    "apache": _apache.drive,
    "synthetic": _synthetic.drive,
}
SCENARIOS.update(_kernels.scenario_entries())


def collect_history_session(
    name: str,
    *,
    ncores: int,
    seed: int,
    ibs_interval: int | None = None,
    faults=None,
):
    """Run one case-study workload under DProf and collect pairwise
    skbuff histories; returns the detached profiler.  The ``diagnose``
    command runs its session through here.

    *name* is ``"memcached"`` or ``"apache"``.  *ibs_interval* defaults
    to this session's own choice, 400 for memcached and 200 for Apache
    (not the scenario's ``SCENARIO_DEFAULTS`` interval, 400 for both);
    *faults* is an optional :class:`~repro.faults.FaultPlan` for the
    profiler.
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
    if ibs_interval is None:
        ibs_interval = 200 if name == "apache" else 400
    warmup = 1_200_000 if name == "apache" else 600_000
    kernel.run(until_cycle=150_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=ibs_interval), faults=faults)
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
