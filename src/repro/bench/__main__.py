"""CLI for the pipeline benchmark: ``python -m repro.bench [--out FILE]``."""

from __future__ import annotations

import argparse
import sys

from repro.bench import (
    DEFAULT_DURATION,
    SCENARIO_ORDER,
    SMOKE_DURATION,
    format_table,
    run_benchmarks,
    write_report,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the DProf pipeline: service throughput, "
        "analysis, tracing overhead, open-loop load.",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the JSON report to FILE"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short windows and one repeat (CI smoke: checks the report "
        "and the builders' equivalence, not timing quality)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats per measurement"
    )
    parser.add_argument("--ncores", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--duration", type=int, default=None, metavar="CYCLES",
        help=f"measured window per profiling job (default {DEFAULT_DURATION})",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=SCENARIO_ORDER,
        help="analysis corpus to benchmark (repeatable; default all)",
    )
    parser.add_argument(
        "--service-jobs",
        type=int,
        default=8,
        metavar="N",
        help="concurrent jobs for the service-throughput scenario "
        "(0 disables it; default 8)",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=4,
        metavar="N",
        help="worker processes for the service-throughput scenario",
    )
    parser.add_argument(
        "--analysis",
        action="store_true",
        help="also benchmark path-trace construction (reference vs "
        "indexed builder) and the store's view cache",
    )
    parser.add_argument(
        "--analysis-variants",
        type=int,
        default=32,
        metavar="N",
        help="corpus amplification factor for the analysis benchmark",
    )
    parser.add_argument(
        "--self-profile",
        action="store_true",
        help="also measure tracing overhead (traced vs untraced smoke run) "
        "and report span stage totals",
    )
    parser.add_argument(
        "--load-sweep",
        action="store_true",
        help="also run the open-loop Poisson load sweep against a live "
        "server (latency percentiles vs offered rate, saturation knee)",
    )
    parser.add_argument(
        "--load-rates",
        metavar="R1,R2,...",
        default=None,
        help="offered rates (jobs/s) for --load-sweep, ascending CSV",
    )
    parser.add_argument(
        "--load-jobs",
        type=int,
        default=24,
        metavar="N",
        help="jobs offered per swept rate",
    )
    args = parser.parse_args(argv)

    load_rates = None
    if args.load_rates:
        try:
            load_rates = tuple(float(r) for r in args.load_rates.split(","))
        except ValueError:
            parser.error(f"--load-rates: not a CSV of numbers: {args.load_rates!r}")

    duration = args.duration
    repeats = args.repeats
    service_jobs = args.service_jobs
    service_workers = args.service_workers
    analysis_variants = args.analysis_variants
    load_jobs = args.load_jobs
    if args.smoke:
        duration = duration or SMOKE_DURATION
        repeats = 1
        service_jobs = min(service_jobs, 4)
        service_workers = min(service_workers, 2)
        analysis_variants = min(analysis_variants, 3)
        load_jobs = min(load_jobs, 8)
        load_rates = load_rates or (4.0, 16.0)
    duration = duration or DEFAULT_DURATION
    scenarios = tuple(args.scenario) if args.scenario else SCENARIO_ORDER

    document = run_benchmarks(
        scenarios=scenarios,
        ncores=args.ncores,
        seed=args.seed,
        duration_cycles=duration,
        repeats=repeats,
        service_jobs=service_jobs,
        service_workers=service_workers,
        analysis=args.analysis,
        analysis_variants=analysis_variants,
        self_profile=args.self_profile,
        load_sweep=args.load_sweep,
        load_rates=load_rates,
        load_jobs=load_jobs,
    )
    print(format_table(document))
    service = document.get("service_throughput")
    if service:
        print(
            f"service     {service['jobs']} x {service['scenario']} jobs on "
            f"{service['workers']} workers: {service['jobs_per_minute']} "
            f"jobs/min ({service['wall_s']:.2f}s, statuses {service['statuses']})"
        )
    if args.out:
        write_report(document, args.out)
        print(f"wrote {args.out}")
    analysis = document.get("analysis")
    if analysis and not analysis["all_identical"]:
        print(
            "ERROR: analysis builders diverged; benchmark invalid",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
