"""Benchmark ledger for the DProf pipeline: ``python -m repro.bench``.

End-to-end and per-layer timings come from ``perfbench/run.py``; their
medians live in the ``end_to_end`` and ``layers`` sections of
``BENCH_dprof.json``.  This module owns the ledger file itself --
:func:`validate_report`, :func:`merge_report`, :func:`write_report` --
and measures the one section perfbench does not: ``load_sweep``,
open-loop Poisson load against a live server (:mod:`repro.bench.load`).

Every write goes through :func:`validate_report` and appends a
``trajectory`` entry, so ``BENCH_dprof.json`` keeps its own history.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any

from repro.errors import BenchFormatError
from repro.hw.machine import MachineConfig


def run_benchmarks(
    *,
    seed: int = 11,
    workers: int = 4,
    load_rates: tuple[float, ...] | None = None,
    load_jobs: int = 24,
) -> dict[str, Any]:
    """Run the open-loop load sweep and assemble its BENCH_dprof.json document.

    The sweep offers Poisson arrivals at each of *load_rates* against a
    live server with *workers* worker processes and records latency
    percentiles vs offered rate plus the saturation knee.
    """
    from repro.bench.load import DEFAULT_RATES, bench_load_sweep

    # The swept jobs run the synthetic scenario at its default 4 cores.
    config = MachineConfig(ncores=4, seed=seed)
    return {
        "benchmark": "dprof-pipeline",
        "python": sys.version.split()[0],
        "machine": {
            "ncores": config.ncores,
            "seed": seed,
            "line_size": config.line_size,
            "l1_size": config.l1_size,
            "l2_size": config.l2_size,
            "l3_size": config.l3_size,
        },
        "load_sweep": bench_load_sweep(
            rates=load_rates or DEFAULT_RATES,
            jobs_per_rate=load_jobs,
            workers=workers,
            seed=seed,
        ),
    }


def format_table(document: dict[str, Any]) -> str:
    """Human-readable summary of a report's load sweep."""
    sweep = document["load_sweep"]
    lines = [
        f"{'load sweep':<12} {'offered/s':>9} {'accepted':>8} "
        f"{'rejected':>8} {'achieved/s':>10} {'p50 (s)':>8} "
        f"{'p95 (s)':>8} {'p99 (s)':>8}"
    ]
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
    return "\n".join(lines)


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
#: ``end_to_end``: medians of alternating parent/change pairs of
#: ``perfbench/run.py``, per workload and gated metric.
_END_TO_END_SCHEMA = {
    "benchmark": str,
    "parent_commit": str,
    "seconds": _NUMBER,
    "pairs": int,
    "seeds": list,
    "host": str,
    "workloads": dict,
}
_END_TO_END_METRIC_SCHEMA = {
    "unit": str,
    "parent": dict,
    "change": dict,
    "change_wins": int,
}
_QUARTILES_SCHEMA = {"median": _NUMBER, "q1": _NUMBER, "q3": _NUMBER}
#: ``layers``: per workload, one traced run's per-layer rows, before
#: and after.  The section maps each workload name to one such entry.
_LAYERS_SCHEMA = {
    "seed": int,
    "seconds": _NUMBER,
    "parent_commit": str,
    "rows": dict,
}
_LAYER_ROW_SCHEMA = {"unit": str, "parent": _NUMBER, "change": _NUMBER}
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
    baseline file.  Every top-level key is either bookkeeping or a
    section with a schema; an unknown key (a misspelled or retired
    section) is refused rather than counted as a section.
    """
    if not isinstance(document, dict):
        raise BenchFormatError("report root is not an object")
    _check_fields(document, _TOP_LEVEL_SCHEMA, "report")
    _check_fields(document["machine"], _MACHINE_SCHEMA, "machine")
    unknown = sorted(
        key for key in document if key not in _SECTIONS and key not in _BOOKKEEPING_KEYS
    )
    if unknown:
        raise BenchFormatError(f"report has sections with no schema: {unknown}")
    if not any(key in _SECTIONS for key in document):
        raise BenchFormatError("report has no benchmark sections")
    for key, check in _SECTIONS.items():
        if key in document:
            check(document[key])
    trajectory = document.get("trajectory")
    if trajectory is not None:
        if not isinstance(trajectory, list):
            raise BenchFormatError("trajectory is not a list")
        for index, entry in enumerate(trajectory):
            where = f"trajectory[{index}]"
            if not isinstance(entry, dict):
                raise BenchFormatError(f"{where}: entry is not an object")
            _check_fields(entry, _TRAJECTORY_ENTRY_SCHEMA, where)


def _check_load_sweep(section: Any) -> None:
    if not isinstance(section, dict):
        raise BenchFormatError("load_sweep is not an object")
    _check_fields(section, _LOAD_SWEEP_SCHEMA, "load_sweep")
    if not section["rates"]:
        raise BenchFormatError("load_sweep has no rate steps")
    for index, step in enumerate(section["rates"]):
        where = f"load_sweep.rates[{index}]"
        if not isinstance(step, dict):
            raise BenchFormatError(f"{where}: step is not an object")
        _check_fields(step, _LOAD_STEP_SCHEMA, where)
    knee = section["knee"]
    if knee is not None and "offered_rate_per_s" not in knee:
        raise BenchFormatError("load_sweep.knee lacks 'offered_rate_per_s'")


def _check_end_to_end(section: Any) -> None:
    if not isinstance(section, dict):
        raise BenchFormatError("end_to_end is not an object")
    _check_fields(section, _END_TO_END_SCHEMA, "end_to_end")
    if not section["workloads"]:
        raise BenchFormatError("end_to_end has no workloads")
    for workload, metrics in section["workloads"].items():
        where = f"end_to_end.workloads[{workload!r}]"
        if not isinstance(metrics, dict) or not metrics:
            raise BenchFormatError(f"{where}: no metric rows")
        for name, row in metrics.items():
            row_where = f"{where}[{name!r}]"
            if not isinstance(row, dict):
                raise BenchFormatError(f"{row_where}: row is not an object")
            _check_fields(row, _END_TO_END_METRIC_SCHEMA, row_where)
            for side in ("parent", "change"):
                _check_fields(row[side], _QUARTILES_SCHEMA, f"{row_where}.{side}")
            if not 0 <= row["change_wins"] <= section["pairs"]:
                raise BenchFormatError(
                    f"{row_where}: change_wins {row['change_wins']} outside "
                    f"0..{section['pairs']} pairs"
                )


def _check_layers(section: Any) -> None:
    if not isinstance(section, dict):
        raise BenchFormatError("layers is not an object")
    if not section:
        raise BenchFormatError("layers has no workloads")
    for workload, entry in section.items():
        where = f"layers[{workload!r}]"
        if not isinstance(entry, dict):
            raise BenchFormatError(f"{where}: entry is not an object")
        _check_fields(entry, _LAYERS_SCHEMA, where)
        if not entry["rows"]:
            raise BenchFormatError(f"{where} has no rows")
        for name, row in entry["rows"].items():
            row_where = f"{where}.rows[{name!r}]"
            if not isinstance(row, dict):
                raise BenchFormatError(f"{row_where}: row is not an object")
            _check_fields(row, _LAYER_ROW_SCHEMA, row_where)


#: Every benchmark section a report may carry, with its checker.
_SECTIONS = {
    "end_to_end": _check_end_to_end,
    "layers": _check_layers,
    "load_sweep": _check_load_sweep,
}

#: Bookkeeping keys that never count as benchmark "sections".
_BOOKKEEPING_KEYS = ("benchmark", "python", "machine", "trajectory")


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
    (say, the ``end_to_end`` medians from a perfbench run) are carried
    forward, so a targeted re-run -- load-sweep only -- never erases the
    rest of the baseline.  The ``trajectory`` list gains one entry naming
    exactly which sections this run refreshed.
    """
    merged = dict(document)
    for key, value in previous.items():
        if key not in merged and key != "trajectory":
            merged[key] = value
    sections = sorted(k for k in document if k in _SECTIONS)
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
