#!/usr/bin/env python3
"""Case study 2 (paper Section 6.2): Apache's working-set drop-off.

Reproduces the investigation:

1. run Apache at its peak load, then past the drop-off point, and watch
   throughput *fall* as offered load rises;
2. profile both operating points with DProf and diff the views: the
   tcp_sock working set explodes and its access latency rises -- the
   accept queue lets sockets go cold before Apache touches them
   (differential analysis, Tables 6.4 vs 6.5);
3. check lock-stat on the same run: it blames futexes, which have nothing
   to do with it (Table 6.6);
4. apply admission control (cap the accept backlog) and re-measure at
   the same offered load (paper: +16%).

Run:  python examples/apache_case_study.py      (takes a few minutes)
"""

from repro.api import DProf, DProfConfig, MachineConfig
from repro.baselines import LockStatReport
from repro.fixes import apply_admission_control
from repro.kernel import Kernel
from repro.workloads import ApacheWorkload

NCORES = 16
PEAK_PERIOD = 22_000
DROPOFF_PERIOD = 11_000


def profiled_run(period, seed, warmup, admission=None):
    """One profiled Apache run; returns (kernel, workload, dprof, thr)."""
    kernel = Kernel(MachineConfig(ncores=NCORES, seed=seed))
    workload = ApacheWorkload(kernel, arrival_period=period)
    workload.setup()
    if admission is not None:
        apply_admission_control(workload.listeners.values(), admission)
    workload.start()
    start = kernel.elapsed_cycles()
    workload.schedule_arrivals(warmup + 4_000_000, start_cycle=start)
    kernel.run(until_cycle=start + warmup)
    dprof = DProf(kernel, DProfConfig(ibs_interval=200))
    dprof.attach()
    base = workload.counter.total
    measure_start = kernel.elapsed_cycles()
    kernel.run(until_cycle=measure_start + 3_000_000)
    throughput = (workload.counter.total - base) * 1e6 / (
        kernel.elapsed_cycles() - measure_start
    )
    dprof.detach()
    return kernel, workload, dprof, throughput


def tcp_sock_latency(dprof):
    samples = [s for s in dprof.sampler.samples if s.type_name == "tcp_sock"]
    if not samples:
        return 0.0
    return sum(s.latency for s in samples) / len(samples)


def tcp_sock_lifetime(dprof):
    lifetimes = [
        e.free_cycle - e.alloc_cycle
        for e in dprof.address_set.by_type().get("tcp_sock", [])
        if e.free_cycle is not None
    ]
    if not lifetimes:
        return 0.0
    return sum(lifetimes) / len(lifetimes)


def main():
    print("Running Apache at peak load...")
    _k1, peak_wl, peak_dprof, peak_thr = profiled_run(
        PEAK_PERIOD, seed=61, warmup=2_000_000
    )
    print("Running Apache past the drop-off point...")
    drop_kernel, drop_wl, drop_dprof, drop_thr = profiled_run(
        DROPOFF_PERIOD, seed=62, warmup=3_500_000
    )

    print()
    print("=" * 72)
    print("THE SYMPTOM: more offered load, less throughput")
    print("=" * 72)
    print(f"peak load    (1 conn / {PEAK_PERIOD} cycles/core): {peak_thr:8.1f} req/Mcycle")
    print(f"overloaded   (1 conn / {DROPOFF_PERIOD} cycles/core): {drop_thr:8.1f} req/Mcycle")

    print()
    print("=" * 72)
    print("DPROF DIFFERENTIAL ANALYSIS (compare Tables 6.4 and 6.5)")
    print("=" * 72)
    print("-- at peak --")
    print(peak_dprof.data_profile().render(6))
    print()
    print("-- at drop-off --")
    print(drop_dprof.data_profile().render(6))

    peak_tcp = peak_dprof.data_profile().row_for("tcp_sock")
    drop_tcp = drop_dprof.data_profile().row_for("tcp_sock")
    print()
    print(
        f"tcp_sock working set: {peak_tcp.working_set_bytes / 1e6:.2f}MB -> "
        f"{drop_tcp.working_set_bytes / 1e6:.2f}MB "
        f"({drop_tcp.working_set_bytes / peak_tcp.working_set_bytes:.1f}x)"
    )
    print(
        f"tcp_sock mean access latency: {tcp_sock_latency(peak_dprof):.0f} -> "
        f"{tcp_sock_latency(drop_dprof):.0f} cycles (paper: 50 -> 150)"
    )
    print(
        f"tcp_sock mean lifetime: {tcp_sock_lifetime(peak_dprof):,.0f} -> "
        f"{tcp_sock_lifetime(drop_dprof):,.0f} cycles"
    )
    print(
        f"mean accept-queue wait: {peak_wl.mean_accept_wait():,.0f} -> "
        f"{drop_wl.mean_accept_wait():,.0f} cycles"
    )
    print("\n-> The accept queue is the culprit: by the time Apache accepts a")
    print("   connection, its tcp_sock lines have been flushed from the caches")
    print("   close to the core.")

    print()
    print("=" * 72)
    print("WHAT LOCK-STAT SAYS (compare Table 6.6)")
    print("=" * 72)
    report = LockStatReport(drop_kernel.lockstat, drop_kernel.machine.total_cycles())
    print(report.render(4))
    print("\n-> futexes: Apache's worker handoff. True, but irrelevant.")

    print()
    print("=" * 72)
    print("THE FIX: admission control (accept backlog capped at 8)")
    print("=" * 72)
    _k3, fixed_wl, _d3, fixed_thr = profiled_run(
        DROPOFF_PERIOD, seed=63, warmup=3_500_000, admission=8
    )
    improvement = fixed_thr / drop_thr - 1
    print(f"drop-off throughput:   {drop_thr:8.1f} req/Mcycle")
    print(f"admission throughput:  {fixed_thr:8.1f} req/Mcycle")
    print(f"improvement:           {improvement:8.1%}   (paper: +16%)")
    print(f"connections shed early: {fixed_wl.total_dropped()}")
    assert improvement > 0.05


if __name__ == "__main__":
    main()
