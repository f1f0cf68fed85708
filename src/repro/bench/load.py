"""Open-loop load generation against the profiling service.

Closed-loop load generators (submit, wait, submit again) famously lie
about saturated servers: the generator slows down with the server, so
latency looks flat right up to the cliff ("coordinated omission").  This
module drives a live :class:`~repro.serve.server.ProfilingServer` the
honest way -- **open loop**: job arrival times are drawn from a Poisson
process at a target offered rate *before* the run starts, and each job
is submitted at its scheduled instant whether or not earlier jobs have
finished.  Queueing delay therefore accumulates in the measurement
instead of silently throttling the generator.

Per offered rate the sweep records:

- acceptance/reject counts (rejects are the server's ``queue_full``
  backpressure -- counted, not retried: an open-loop client models
  traffic, not a polite CLI);
- end-to-end latency percentiles (p50/p95/p99), measured from each
  job's *scheduled arrival* to the server-stamped completion time, so
  backlog waits count;
- achieved completion rate vs offered rate.

The **saturation knee** is the first rate where the server visibly
stops keeping up: achieved rate falls below ``KNEE_EFFICIENCY`` of
offered, or the reject fraction crosses ``KNEE_REJECT_FRAC``.  Arrival
schedules come from :class:`repro.util.rng.DeterministicRng`, so a
sweep's offered traffic is exactly reproducible run to run.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import contextmanager
from typing import Any

from repro.errors import BenchFormatError
from repro.serve.jobs import TERMINAL_STATES
from repro.serve.protocol import request_once
from repro.util.rng import DeterministicRng
from repro.util.stats import percentile

#: Default offered rates (jobs/second) swept in ascending order.
DEFAULT_RATES = (2.0, 4.0, 8.0, 16.0, 32.0)

#: Achieved/offered below this at any rate marks the saturation knee.
KNEE_EFFICIENCY = 0.9

#: Reject fraction above this at any rate marks the saturation knee.
KNEE_REJECT_FRAC = 0.05

#: Simulated window per load-sweep job (small: each job ~0.1 s wall).
LOAD_JOB_DURATION = 60_000


def poisson_arrivals(rate_per_s: float, jobs: int, rng: DeterministicRng) -> list[float]:
    """Cumulative arrival offsets (seconds) for a Poisson process.

    Inter-arrival gaps are exponential with mean ``1/rate``; the
    schedule is drawn up front so submission-time jitter cannot thin
    the offered load.
    """
    if rate_per_s <= 0:
        raise BenchFormatError(f"rate must be positive, got {rate_per_s!r}")
    offsets, t = [], 0.0
    for _ in range(jobs):
        t += rng.expovariate(rate_per_s)
        offsets.append(t)
    return offsets


@contextmanager
def local_server(store_root, workers: int = 4, queue_size: int = 16):
    """A real ProfilingServer on a background thread's event loop.

    Same server class, worker pool, and TCP path as ``repro.cli serve``
    -- only the process boundary is skipped so the sweep needs no
    subprocess scaffolding.
    """
    from repro.serve.server import ProfilingServer

    server = ProfilingServer(
        store_root, workers=workers, queue_size=queue_size, port=0
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner() -> None:
        asyncio.set_event_loop(loop)

        async def main() -> None:
            await server.start()
            started.set()
            await server.finished.wait()

        loop.run_until_complete(main())

    thread = threading.Thread(target=runner, name="repro-bench-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise BenchFormatError("load-sweep server did not start")
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(server.request_drain)
        thread.join(timeout=60.0)
        loop.close()


def _await_jobs(host, port, job_ids, timeout_s: float) -> dict[str, dict]:
    """Poll until every listed job is terminal; returns id -> wire job."""
    deadline = time.monotonic() + timeout_s
    jobs: dict[str, dict] = {}
    pending = set(job_ids)
    while pending and time.monotonic() < deadline:
        response = request_once(host, port, {"op": "status"})
        jobs = {j["job_id"]: j for j in response.get("jobs", [])}
        pending = {
            job_id
            for job_id in job_ids
            if jobs.get(job_id, {}).get("state") not in TERMINAL_STATES
        }
        if pending:
            time.sleep(0.05)
    return jobs


def run_load_step(
    host: str,
    port: int,
    *,
    rate_per_s: float,
    jobs: int,
    scenario: str = "synthetic",
    duration_cycles: int = LOAD_JOB_DURATION,
    seed0: int = 9000,
    rng: DeterministicRng,
    settle_timeout_s: float = 120.0,
) -> dict[str, Any]:
    """Offer *jobs* submissions at *rate_per_s*, open loop; one report row.

    Latency is ``finished_s - scheduled arrival`` (both wall clock, same
    host), so time spent queued behind a backlog is charged to the job
    that had to wait -- the whole point of open-loop measurement.
    """
    offsets = poisson_arrivals(rate_per_s, jobs, rng)
    scheduled: dict[str, float] = {}
    rejected = 0
    start_mono = time.monotonic()
    start_wall = time.time()
    for index, offset in enumerate(offsets):
        delay = (start_mono + offset) - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        response = request_once(
            host,
            port,
            {
                "op": "submit",
                "scenario": scenario,
                "seed": seed0 + index,
                "duration": duration_cycles,
            },
        )
        if response.get("ok"):
            scheduled[response["job_id"]] = start_wall + offset
        else:
            rejected += 1
    finished = _await_jobs(host, port, list(scheduled), settle_timeout_s)
    latencies = []
    last_finish = start_wall
    completed = 0
    for job_id, sched in scheduled.items():
        job = finished.get(job_id, {})
        if job.get("state") == "done" and job.get("finished_s"):
            completed += 1
            latencies.append(max(0.0, job["finished_s"] - sched))
            last_finish = max(last_finish, job["finished_s"])
    latencies.sort()
    span_s = max(last_finish - start_wall, 1e-9)
    return {
        "offered_rate_per_s": rate_per_s,
        # The rate the drawn schedule *actually* offered (24 Poisson
        # samples can run well above or below nominal); saturation is
        # judged against this, not the nominal target, so schedule
        # variance at low rates cannot fake a knee.
        "realized_rate_per_s": round(jobs / max(offsets[-1], 1e-9), 3),
        "jobs": jobs,
        "accepted": len(scheduled),
        "rejected": rejected,
        "completed": completed,
        "achieved_rate_per_s": round(completed / span_s, 3),
        "p50_s": round(percentile(latencies, 50.0), 4) if latencies else 0.0,
        "p95_s": round(percentile(latencies, 95.0), 4) if latencies else 0.0,
        "p99_s": round(percentile(latencies, 99.0), 4) if latencies else 0.0,
    }


def locate_knee(
    steps: list[dict],
    *,
    efficiency: float = KNEE_EFFICIENCY,
    reject_frac: float = KNEE_REJECT_FRAC,
) -> dict[str, Any] | None:
    """The first swept rate where the server stops keeping up, or None.

    Two independent saturation signals: completion throughput falling
    behind the offered rate, or backpressure rejects appearing.  Either
    marks the knee; the reason string records which fired.
    """
    for step in steps:
        offered = step["offered_rate_per_s"]
        realized = step.get("realized_rate_per_s", offered)
        reasons = []
        if step["achieved_rate_per_s"] < efficiency * realized:
            reasons.append(
                f"achieved {step['achieved_rate_per_s']}/s < "
                f"{efficiency:.0%} of realized {realized}/s "
                f"(nominal {offered}/s)"
            )
        if step["jobs"] and step["rejected"] / step["jobs"] > reject_frac:
            reasons.append(
                f"rejected {step['rejected']}/{step['jobs']} submissions"
            )
        if reasons:
            return {
                "offered_rate_per_s": offered,
                "reason": "; ".join(reasons),
            }
    return None


def run_load_sweep(
    host: str,
    port: int,
    *,
    rates: tuple[float, ...] = DEFAULT_RATES,
    jobs_per_rate: int = 24,
    scenario: str = "synthetic",
    duration_cycles: int = LOAD_JOB_DURATION,
    seed: int = 11,
    workers: int = 0,
    settle_timeout_s: float = 120.0,
) -> dict[str, Any]:
    """Sweep ascending offered rates against one live server."""
    rng = DeterministicRng(seed, "load-sweep")
    steps = []
    for index, rate in enumerate(rates):
        steps.append(
            run_load_step(
                host,
                port,
                rate_per_s=rate,
                jobs=jobs_per_rate,
                scenario=scenario,
                duration_cycles=duration_cycles,
                # Distinct seeds per step and per job: no two submissions
                # share a spec, so store dedup cannot flatter throughput.
                seed0=seed * 100_000 + index * 1_000,
                rng=rng.child(f"rate-{index}"),
                settle_timeout_s=settle_timeout_s,
            )
        )
    return {
        "scenario": scenario,
        "duration_cycles": duration_cycles,
        "workers": workers,
        "jobs_per_rate": jobs_per_rate,
        "arrivals": "poisson-open-loop",
        "rates": steps,
        "knee": locate_knee(steps),
    }


def bench_load_sweep(
    *,
    rates: tuple[float, ...] = DEFAULT_RATES,
    jobs_per_rate: int = 24,
    workers: int = 4,
    queue_size: int = 16,
    scenario: str = "synthetic",
    duration_cycles: int = LOAD_JOB_DURATION,
    seed: int = 11,
) -> dict[str, Any]:
    """Boot a throwaway server, sweep it, return the ``load_sweep``
    section for BENCH_dprof.json."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-load-") as store_root:
        with local_server(
            store_root, workers=workers, queue_size=queue_size
        ) as server:
            return run_load_sweep(
                server.host,
                server.port,
                rates=rates,
                jobs_per_rate=jobs_per_rate,
                scenario=scenario,
                duration_cycles=duration_cycles,
                seed=seed,
                workers=workers,
            )
