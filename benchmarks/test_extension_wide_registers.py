"""Extension ablation (Section 7): variable-size debug registers.

The thesis: "DProf is also limited by having access to only four debug
registers ... computing object access histories requires pairwise tracing
of all offset pairs in a data structure. ... having a variable-size debug
register would greatly help DProf."

The simulation grants the wish and measures what it buys on the memcached
workload: one whole-object job replaces thousands of pairwise jobs, the
recovered path is exact rather than heuristically merged, and collection
cycles drop by orders of magnitude.
"""

from __future__ import annotations

from benchmarks.conftest import write_artifact
from repro.api import DProf, DProfConfig
from repro.dprof.extensions import (
    collect_whole_object_histories,
    pairwise_job_count,
)
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.workloads import MemcachedWorkload

NCORES = 8


def run_wide_register_collection(objects=12):
    kernel = Kernel(
        MachineConfig(ncores=NCORES, seed=81, variable_debug_registers=True)
    )
    workload = MemcachedWorkload(kernel)
    workload.setup()
    workload.start()
    kernel.run(until_cycle=150_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=400))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + 300_000)
    start = kernel.elapsed_cycles()
    jobs = collect_whole_object_histories(dprof, "skbuff", objects=objects)
    kernel.run(
        until_cycle=start + 30_000_000, stop_when=lambda: dprof.histories_done
    )
    cycles = kernel.elapsed_cycles() - start
    dprof.detach()
    return kernel, dprof, jobs, cycles


def test_extension_wide_registers(benchmark, memcached_history_study):
    kernel, dprof, jobs, cycles = run_wide_register_collection()
    histories = dprof.history.histories_for("skbuff")
    assert len(histories) == jobs

    # Exactness: every whole-object history is a complete, totally
    # ordered record -- path traces need no cross-chunk inference.
    traces = benchmark(dprof.path_traces, "skbuff")
    assert traces
    for h in histories:
        # Element order is the true access order.  Timestamps from one
        # core are strictly monotone; across cores the per-core clocks
        # (like unsynchronized RDTSC reads) may disagree by at most a
        # scheduling quantum's worth of drift.
        per_cpu: dict = {}
        for el in h.elements:
            per_cpu.setdefault(el.cpu, []).append(el.time)
        for times in per_cpu.values():
            assert times == sorted(times)
        all_times = [el.time for el in h.elements]
        for a, b in zip(all_times, all_times[1:]):
            assert b >= a - 5_000, "cross-core clock drift exceeded bound"

    # Economy: jobs per covered object collapse from C(chunks, 2) to 1.
    pairwise_jobs = pairwise_job_count(256)
    assert pairwise_jobs == 2016

    # Compare cycles per *fully ordered object* against the stock
    # pairwise study (which needed many jobs for partial coverage).
    stock = memcached_history_study.pair_collections["skbuff"]
    stock_cycles_per_object_equivalent = (
        stock.collection_cycles / max(stock.jobs_completed, 1)
    )
    wide_cycles_per_object = cycles / max(jobs, 1)
    # One wide job costs about as much as one pair job (setup dominates
    # both) -- but it delivers the *entire* object, not one pair.
    assert wide_cycles_per_object < 10 * stock_cycles_per_object_equivalent

    write_artifact(
        "extension_wide_registers.txt",
        "\n".join(
            [
                "Extension: variable-size debug registers (Section 7)",
                "",
                f"stock hardware: full skbuff pairwise coverage = {pairwise_jobs}"
                " jobs (one object lifetime + ~setup each)",
                f"wide registers: 1 job per object; {jobs} objects collected in"
                f" {cycles / 1e6:.2f} Mcycles",
                f"cycles per fully-ordered object history: {wide_cycles_per_object:,.0f}",
                f"(vs {stock_cycles_per_object_equivalent:,.0f} cycles per"
                " *single pair* job on stock hardware)",
                "",
                f"paths recovered exactly, no pairwise merge heuristics: "
                f"{len(traces)} distinct paths from {len(histories)} objects",
            ]
        ),
    )


def test_extension_wide_registers_capture_everything():
    _kernel, dprof, _jobs, _cycles = run_wide_register_collection(objects=6)
    for h in dprof.history.histories_for("skbuff"):
        # A whole-object watch sees every access the machine made to the
        # object: at minimum the allocation-side writes and the free-side
        # reads (rx path: ~20+ accesses).
        assert len(h.elements) >= 8
        offsets = {el.offset for el in h.elements}
        assert len(offsets) >= 4  # multiple members, one history
