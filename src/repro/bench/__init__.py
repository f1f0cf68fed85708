"""Benchmark harness for the DProf pipeline: ``python -m repro.bench``.

Each section of the report is opt-in and measures one part of the
pipeline end to end:

- ``service_throughput``: N concurrent profiling jobs through the serve
  worker pool (jobs/minute, archives landed in a throwaway store);
- ``analysis``: path-trace construction over collected (amplified) and
  generated history corpora -- the reference
  :class:`~repro.dprof.pathtrace.PathTraceBuilder` oracle against
  :func:`~repro.dprof.analysis.analyze_histories` -- plus the store's
  cold-vs-warm view cache;
- ``self_profile``: the tracing subsystem's own overhead;
- ``load_sweep``: open-loop Poisson load against a live server.

Every write goes through :func:`validate_report` and appends a
``trajectory`` entry, so ``BENCH_dprof.json`` keeps its own history.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from typing import Any

from repro.dprof.analysis import (
    amplify_corpus,
    analyze_histories,
    synthetic_history_corpus,
)
from repro.dprof.pathtrace import PathTraceBuilder
from repro.errors import BenchFormatError
from repro.hw.machine import MachineConfig
from repro.kernel.symbols import SymbolTable
from repro.workloads import collect_history_session

#: Per-job measured windows (cycles): full runs and --smoke runs.
DEFAULT_DURATION = 150_000
SMOKE_DURATION = 30_000

#: History corpora of the analysis section, in report order.
SCENARIO_ORDER = ("memcached", "apache", "synthetic")


def bench_service_throughput(
    *,
    scenario: str = "memcached",
    jobs: int = 8,
    workers: int = 4,
    ncores: int = 4,
    seed: int = 11,
    duration_cycles: int = DEFAULT_DURATION,
) -> dict[str, Any]:
    """Service-throughput scenario: N concurrent jobs through a worker pool.

    Boots a :class:`repro.serve.workers.WorkerPool` (the same execution
    path ``python -m repro.cli serve`` uses), submits *jobs* profiling
    jobs -- distinct seeds, so the pool does *jobs* different sessions
    concurrently -- and measures jobs/minute end to end, archives landed
    in a throwaway content-addressed store included.  This is the
    baseline for "how much profiling traffic can one server sustain".
    """
    from repro.serve.jobs import JobSpec
    from repro.serve.workers import WorkerPool

    specs = [
        JobSpec.create(
            scenario=scenario,
            cores=ncores,
            seed=seed + i,
            duration=duration_cycles,
        )
        for i in range(jobs)
    ]
    statuses: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store_root:
        pool = WorkerPool(workers, store_root)
        pool.start()
        try:
            t0 = time.perf_counter()
            for i, spec in enumerate(specs):
                pool.submit(f"bench-{i:03d}", spec)
            finished = 0
            while finished < jobs:
                kind, _worker, payload = pool.result_q.get(timeout=300)
                if kind == "done":
                    finished += 1
                    status = payload[1]["status"]
                    statuses[status] = statuses.get(status, 0) + 1
                elif kind == "failed":
                    finished += 1
                    statuses["failed"] = statuses.get("failed", 0) + 1
            wall_s = time.perf_counter() - t0
        finally:
            pool.stop(grace_s=2.0)
    return {
        "scenario": scenario,
        "jobs": jobs,
        "workers": workers,
        "duration_cycles": duration_cycles,
        "wall_s": round(wall_s, 4),
        "jobs_per_minute": round(jobs * 60.0 / wall_s, 2) if wall_s else 0.0,
        "statuses": statuses,
    }


def _reference_traces(symbols, sampler, corpus):
    """Every type's traces from the reference builder, in type order."""
    builder = PathTraceBuilder(symbols, sampler)
    return {name: builder.build(name, corpus[name]) for name in sorted(corpus)}


def _time_analysis(build, symbols, sampler, corpus, *, repeats):
    """Min-of-repeats wall time plus the result (for the equality check)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = build(symbols, sampler, corpus)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_analysis_scenario(
    name: str,
    *,
    ncores: int = 4,
    seed: int = 11,
    repeats: int = 3,
    shards: int = 4,
    variants: int = 32,
) -> tuple[dict[str, Any], Any]:
    """Time the reference and indexed builders on one history corpus.

    memcached/apache corpora are *real* collected pairwise skbuff
    histories, amplified (type shards x ip-shifted variants) to the
    family counts a richer code base would produce; synthetic uses the
    generated multi-type corpus (its workload allocates only static
    objects, so there is no slab churn to collect).  Returns the report
    row plus, for memcached, the session's archive text (reused by the
    view-cache benchmark so the archive carries real histories).
    """
    archive_text = None
    if name == "synthetic":
        symbols = SymbolTable()
        sampler = None
        corpus = synthetic_history_corpus(
            seed,
            types=shards,
            histories_per_type=48 * variants,
            paths_per_type=4 + variants,
        )
    else:
        from repro.dprof.session_io import export_session

        dprof = collect_history_session(name, ncores=ncores, seed=seed)
        symbols = dprof.kernel.symbols
        sampler = dprof.sampler
        corpus = amplify_corpus(
            dprof.history.histories_by_type(), shards=shards, variants=variants
        )
        if name == "memcached":
            archive_text = json.dumps(export_session(dprof))
    reference_s, ref_result = _time_analysis(
        _reference_traces, symbols, sampler, corpus, repeats=repeats
    )
    indexed_s, idx_result = _time_analysis(
        analyze_histories, symbols, sampler, corpus, repeats=repeats
    )
    row = {
        "name": name,
        "histories": sum(len(h) for h in corpus.values()),
        "types": len(corpus),
        "repeats": repeats,
        "reference_s": round(reference_s, 6),
        "indexed_s": round(indexed_s, 6),
        "speedup": round(reference_s / indexed_s, 3) if indexed_s else 0.0,
        "identical": ref_result == idx_result,
    }
    return row, archive_text


def bench_view_cache(
    archive_text: str, *, view: str = "working-set", repeats: int = 3
) -> dict[str, Any]:
    """Cold-vs-warm view rendering through the store's memoization layer.

    Cold renders recompute the full offline analysis (clustering, merge,
    cache simulation); warm ones are a single cache-file read.  Both are
    min-of-repeats.  The hit rate comes from the cache's own counters.
    """
    from repro.serve.store import SessionStore

    with tempfile.TemporaryDirectory(prefix="repro-bench-views-") as root:
        store = SessionStore(root)
        digest = store.put_text(archive_text)
        cold_best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            cold_text = store.render_view(digest, view, use_cache=False)
            cold_best = min(cold_best, time.perf_counter() - t0)
        warm_best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            warm_text = store.render_view(digest, view)
            warm_best = min(warm_best, time.perf_counter() - t0)
        assert warm_text == cold_text
        hits, misses = store.views.hits, store.views.misses
    total = hits + misses
    return {
        "view": view,
        "repeats": repeats,
        "cold_s": round(cold_best, 6),
        "warm_s": round(warm_best, 6),
        "speedup": round(cold_best / warm_best, 3) if warm_best else 0.0,
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / total, 4) if total else 0.0,
    }


def bench_analysis(
    *,
    scenarios: tuple[str, ...] = SCENARIO_ORDER,
    ncores: int = 4,
    seed: int = 11,
    repeats: int = 3,
    shards: int = 4,
    variants: int = 32,
) -> dict[str, Any]:
    """The report's ``analysis`` section: builder timings + view cache."""
    rows = []
    memcached_archive = None
    for name in scenarios:
        row, archive_text = bench_analysis_scenario(
            name,
            ncores=ncores,
            seed=seed,
            repeats=repeats,
            shards=shards,
            variants=variants,
        )
        rows.append(row)
        if archive_text is not None:
            memcached_archive = archive_text
    section: dict[str, Any] = {
        "scenarios": rows,
        "all_identical": all(row["identical"] for row in rows),
    }
    if memcached_archive is not None:
        section["view_cache"] = bench_view_cache(
            memcached_archive, repeats=repeats
        )
    return section


def bench_self_profile(
    *,
    scenario: str = "synthetic",
    ncores: int = 4,
    seed: int = 11,
    duration_cycles: int = 100_000,
    repeats: int = 5,
) -> dict[str, Any]:
    """The tracing subsystem benchmarking *itself*: overhead + stage totals.

    Runs the same job spec through :func:`repro.serve.workers.execute_job`
    with tracing off and on and reports the wall overhead tracing adds,
    plus the traced run's per-stage wall/cpu totals -- the
    ``self_profile`` section of BENCH_dprof.json.  The overhead gate
    (<5% on smoke scenarios) is asserted by ``tests/test_trace.py``
    against this same measurement.

    Traced and untraced repeats are *interleaved* (and both take the
    minimum) so slow machine-load drift hits both sides equally instead
    of biasing whichever ran second.
    """
    from repro.serve.jobs import JobSpec
    from repro.serve.workers import execute_job
    from repro.trace import Tracer

    spec = JobSpec.create(
        scenario=scenario,
        cores=ncores,
        seed=seed,
        duration=duration_cycles,
    )
    execute_job(spec)  # warmup: imports, interned symbols, allocator
    untraced_best = float("inf")
    traced_best = float("inf")
    tracer = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        execute_job(spec)
        untraced_best = min(untraced_best, time.perf_counter() - t0)
        candidate = Tracer(seed=spec.seed)
        t0 = time.perf_counter()
        execute_job(spec, tracer=candidate)
        elapsed = time.perf_counter() - t0
        if elapsed < traced_best:
            traced_best = elapsed
            tracer = candidate
    overhead = (
        (traced_best - untraced_best) / untraced_best * 100.0
        if untraced_best
        else 0.0
    )
    assert tracer is not None
    return {
        "scenario": scenario,
        "duration_cycles": duration_cycles,
        "repeats": repeats,
        "untraced_s": round(untraced_best, 6),
        "traced_s": round(traced_best, 6),
        "overhead_pct": round(overhead, 3),
        "spans": len(tracer.spans),
        "stages": tracer.stage_totals(),
    }


def run_benchmarks(
    *,
    scenarios: tuple[str, ...] = SCENARIO_ORDER,
    ncores: int = 4,
    seed: int = 11,
    duration_cycles: int = DEFAULT_DURATION,
    repeats: int = 3,
    service_jobs: int = 0,
    service_workers: int = 4,
    analysis: bool = False,
    analysis_variants: int = 32,
    self_profile: bool = False,
    load_sweep: bool = False,
    load_rates: tuple[float, ...] | None = None,
    load_jobs: int = 24,
) -> dict[str, Any]:
    """Run the requested sections and assemble the BENCH_dprof.json document.

    ``service_jobs`` > 0 adds the service-throughput block (N concurrent
    memcached jobs through a worker pool, jobs/minute).  ``analysis``
    adds the analysis section (reference vs indexed builder timings on
    the *scenarios*' history corpora plus the view-cache cold/warm
    comparison).
    ``self_profile`` adds the tracing-overhead section (traced vs
    untraced smoke run plus the traced run's span stage totals).
    ``load_sweep`` adds the open-loop Poisson load sweep (latency
    percentiles vs offered rate, saturation knee) against a live server.
    """
    config = MachineConfig(ncores=ncores, seed=seed)
    document: dict[str, Any] = {
        "benchmark": "dprof-pipeline",
        "python": sys.version.split()[0],
        "machine": {
            "ncores": ncores,
            "seed": seed,
            "line_size": config.line_size,
            "l1_size": config.l1_size,
            "l2_size": config.l2_size,
            "l3_size": config.l3_size,
        },
    }
    if service_jobs > 0:
        document["service_throughput"] = bench_service_throughput(
            jobs=service_jobs,
            workers=service_workers,
            ncores=ncores,
            seed=seed,
            duration_cycles=duration_cycles,
        )
    if analysis:
        document["analysis"] = bench_analysis(
            scenarios=scenarios,
            ncores=ncores,
            seed=seed,
            repeats=repeats,
            variants=analysis_variants,
        )
    if self_profile:
        document["self_profile"] = bench_self_profile(
            ncores=ncores,
            seed=seed,
            duration_cycles=min(duration_cycles, 100_000),
            repeats=max(repeats, 5),
        )
    if load_sweep:
        from repro.bench.load import DEFAULT_RATES, bench_load_sweep

        document["load_sweep"] = bench_load_sweep(
            rates=load_rates or DEFAULT_RATES,
            jobs_per_rate=load_jobs,
            workers=service_workers,
            seed=seed,
        )
    return document


def format_table(document: dict[str, Any]) -> str:
    """Human-readable summary of a benchmark document."""
    lines: list[str] = []
    analysis = document.get("analysis")
    if analysis:
        lines.append("")
        lines.append(
            f"{'analysis':<12} {'histories':>9} {'ref (s)':>9} {'idx (s)':>9} "
            f"{'speedup':>8} {'identical':>10}"
        )
        for row in analysis["scenarios"]:
            lines.append(
                f"{row['name']:<12} {row['histories']:>9} "
                f"{row['reference_s']:>9.4f} {row['indexed_s']:>9.4f} "
                f"{row['speedup']:>7.2f}x {str(row['identical']):>10}"
            )
        cache = analysis.get("view_cache")
        if cache:
            lines.append(
                f"view-cache   {cache['view']}: cold {cache['cold_s']:.4f}s, "
                f"warm {cache['warm_s']:.6f}s ({cache['speedup']:.0f}x), "
                f"hit rate {cache['hit_rate']:.2f}"
            )
    sweep = document.get("load_sweep")
    if sweep:
        lines.append("")
        lines.append(
            f"{'load sweep':<12} {'offered/s':>9} {'accepted':>8} "
            f"{'rejected':>8} {'achieved/s':>10} {'p50 (s)':>8} "
            f"{'p95 (s)':>8} {'p99 (s)':>8}"
        )
        for step in sweep["rates"]:
            lines.append(
                f"{sweep['scenario']:<12} {step['offered_rate_per_s']:>9.1f} "
                f"{step['accepted']:>8} {step['rejected']:>8} "
                f"{step['achieved_rate_per_s']:>10.2f} {step['p50_s']:>8.3f} "
                f"{step['p95_s']:>8.3f} {step['p99_s']:>8.3f}"
            )
        knee = sweep.get("knee")
        lines.append(
            f"knee: {knee['offered_rate_per_s']}/s ({knee['reason']})"
            if knee
            else "knee: not reached in swept rates"
        )
    profile = document.get("self_profile")
    if profile:
        lines.append("")
        lines.append(
            f"self-profile {profile['scenario']}: untraced "
            f"{profile['untraced_s']:.4f}s, traced {profile['traced_s']:.4f}s "
            f"({profile['overhead_pct']:+.2f}%, {profile['spans']} spans)"
        )
        for stage, totals in sorted(profile["stages"].items()):
            lines.append(
                f"  {stage:<22} x{totals['count']:<3} "
                f"wall {totals['wall_s']:.4f}s cpu {totals['cpu_s']:.4f}s"
            )
    return "\n".join(lines).strip("\n")


# Schema for BENCH_dprof.json: field name -> required type(s).  A
# benchmark run that crashed midway (missing sections, half-built rows)
# must not overwrite the committed baseline; validate_report refuses it.
_NUMBER = (int, float)
_TOP_LEVEL_SCHEMA = {
    "benchmark": str,
    "python": str,
    "machine": dict,
}
_MACHINE_SCHEMA = {
    "ncores": int,
    "seed": int,
    "line_size": int,
    "l1_size": int,
    "l2_size": int,
    "l3_size": int,
}
_SERVICE_SCHEMA = {
    "scenario": str,
    "jobs": int,
    "workers": int,
    "duration_cycles": int,
    "wall_s": _NUMBER,
    "jobs_per_minute": _NUMBER,
    "statuses": dict,
}
_ANALYSIS_SCHEMA = {
    "scenarios": list,
    "all_identical": bool,
}
_ANALYSIS_SCENARIO_SCHEMA = {
    "name": str,
    "histories": int,
    "types": int,
    "repeats": int,
    "reference_s": _NUMBER,
    "indexed_s": _NUMBER,
    "speedup": _NUMBER,
    "identical": bool,
}
_SELF_PROFILE_SCHEMA = {
    "scenario": str,
    "duration_cycles": int,
    "repeats": int,
    "untraced_s": _NUMBER,
    "traced_s": _NUMBER,
    "overhead_pct": _NUMBER,
    "spans": int,
    "stages": dict,
}
_VIEW_CACHE_SCHEMA = {
    "view": str,
    "repeats": int,
    "cold_s": _NUMBER,
    "warm_s": _NUMBER,
    "speedup": _NUMBER,
    "hits": int,
    "misses": int,
    "hit_rate": _NUMBER,
}
_LOAD_SWEEP_SCHEMA = {
    "scenario": str,
    "duration_cycles": int,
    "workers": int,
    "jobs_per_rate": int,
    "arrivals": str,
    "rates": list,
    "knee": (dict, type(None)),
}
_LOAD_STEP_SCHEMA = {
    "offered_rate_per_s": _NUMBER,
    "realized_rate_per_s": _NUMBER,
    "jobs": int,
    "accepted": int,
    "rejected": int,
    "completed": int,
    "achieved_rate_per_s": _NUMBER,
    "p50_s": _NUMBER,
    "p95_s": _NUMBER,
    "p99_s": _NUMBER,
}
#: One entry per write_report call: which sections that run refreshed.
#: The list is append-only, so BENCH_dprof.json carries its own
#: per-commit history instead of losing it to each overwrite.
_TRAJECTORY_ENTRY_SCHEMA = {
    "recorded_at": str,
    "python": str,
    "commit": (str, type(None)),
    "sections": list,
}


def _check_fields(blob: dict, schema: dict, where: str) -> None:
    for name, types in schema.items():
        if name not in blob:
            raise BenchFormatError(f"{where}: missing field {name!r}")
        if not isinstance(blob[name], types):
            raise BenchFormatError(
                f"{where}: field {name!r} has type "
                f"{type(blob[name]).__name__}, expected {types}"
            )


def validate_report(document: Any) -> None:
    """Schema-check a benchmark document; raises :class:`BenchFormatError`.

    Called by :func:`write_report` before any bytes hit disk, so a
    crashed or truncated benchmark run can never commit a partial
    baseline file.
    """
    if not isinstance(document, dict):
        raise BenchFormatError("report root is not an object")
    _check_fields(document, _TOP_LEVEL_SCHEMA, "report")
    _check_fields(document["machine"], _MACHINE_SCHEMA, "machine")
    if not any(key not in _NON_SECTION_KEYS for key in document):
        raise BenchFormatError("report has no benchmark sections")
    service = document.get("service_throughput")
    if service is not None:
        if not isinstance(service, dict):
            raise BenchFormatError("service_throughput is not an object")
        _check_fields(service, _SERVICE_SCHEMA, "service_throughput")
    analysis = document.get("analysis")
    if analysis is not None:
        if not isinstance(analysis, dict):
            raise BenchFormatError("analysis is not an object")
        _check_fields(analysis, _ANALYSIS_SCHEMA, "analysis")
        if not analysis["scenarios"]:
            raise BenchFormatError("analysis has no scenario rows")
        for index, row in enumerate(analysis["scenarios"]):
            where = f"analysis.scenarios[{index}]"
            if not isinstance(row, dict):
                raise BenchFormatError(f"{where}: row is not an object")
            _check_fields(row, _ANALYSIS_SCENARIO_SCHEMA, where)
        cache = analysis.get("view_cache")
        if cache is not None:
            if not isinstance(cache, dict):
                raise BenchFormatError("analysis.view_cache is not an object")
            _check_fields(cache, _VIEW_CACHE_SCHEMA, "analysis.view_cache")
    profile = document.get("self_profile")
    if profile is not None:
        if not isinstance(profile, dict):
            raise BenchFormatError("self_profile is not an object")
        _check_fields(profile, _SELF_PROFILE_SCHEMA, "self_profile")
        for stage, totals in profile["stages"].items():
            if not isinstance(totals, dict) or "wall_s" not in totals:
                raise BenchFormatError(
                    f"self_profile.stages[{stage!r}] lacks 'wall_s'"
                )
    sweep = document.get("load_sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise BenchFormatError("load_sweep is not an object")
        _check_fields(sweep, _LOAD_SWEEP_SCHEMA, "load_sweep")
        if not sweep["rates"]:
            raise BenchFormatError("load_sweep has no rate steps")
        for index, step in enumerate(sweep["rates"]):
            where = f"load_sweep.rates[{index}]"
            if not isinstance(step, dict):
                raise BenchFormatError(f"{where}: step is not an object")
            _check_fields(step, _LOAD_STEP_SCHEMA, where)
        knee = sweep["knee"]
        if knee is not None and "offered_rate_per_s" not in knee:
            raise BenchFormatError("load_sweep.knee lacks 'offered_rate_per_s'")
    trajectory = document.get("trajectory")
    if trajectory is not None:
        if not isinstance(trajectory, list):
            raise BenchFormatError("trajectory is not a list")
        for index, entry in enumerate(trajectory):
            where = f"trajectory[{index}]"
            if not isinstance(entry, dict):
                raise BenchFormatError(f"{where}: entry is not an object")
            _check_fields(entry, _TRAJECTORY_ENTRY_SCHEMA, where)


#: Bookkeeping keys that never count as benchmark "sections".
_NON_SECTION_KEYS = ("benchmark", "python", "machine", "trajectory")


def _git_commit() -> str | None:
    """The repo's short HEAD sha, or None outside a checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def merge_report(document: dict[str, Any], previous: dict[str, Any]) -> dict[str, Any]:
    """Overlay *document* on an earlier report, preserving history.

    Sections the new run produced win; sections only the old file has
    (say, an ``analysis`` block from a fuller past run) are carried
    forward, so a targeted re-run -- analysis only, or load-sweep only --
    never erases the rest of the baseline.  The ``trajectory`` list
    gains one entry naming exactly which sections this run refreshed.
    """
    merged = dict(document)
    for key, value in previous.items():
        if key not in merged and key != "trajectory":
            merged[key] = value
    sections = sorted(k for k in document if k not in _NON_SECTION_KEYS)
    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": document.get("python", sys.version.split()[0]),
        "commit": _git_commit(),
        "sections": sections,
    }
    merged["trajectory"] = list(previous.get("trajectory", [])) + [entry]
    return merged


def write_report(document: dict[str, Any], path: str) -> None:
    """Validate and write a benchmark document (refuses partial runs).

    Append-aware: when *path* already holds a valid report, the new
    document is merged over it (old-only sections survive) and a
    trajectory entry records the run; a corrupt existing file raises
    rather than being silently clobbered.
    """
    validate_report(document)
    import os

    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                previous = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BenchFormatError(
                f"existing report {path} is unreadable ({exc}); refusing to "
                "overwrite -- delete it to start fresh"
            ) from exc
        if isinstance(previous, dict):
            document = merge_report(document, previous)
    else:
        document = merge_report(document, {})
    validate_report(document)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=False)
        fh.write("\n")
