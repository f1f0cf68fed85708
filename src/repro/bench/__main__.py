"""CLI for the load sweep: ``python -m repro.bench --load-sweep [--out FILE]``."""

from __future__ import annotations

import argparse

from repro.bench import format_table, run_benchmarks, write_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the open-loop load sweep against a live profiling "
        "server and optionally record it in a BENCH_dprof.json ledger.",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the JSON report to FILE"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two workers and few jobs at low rates (CI smoke: checks the "
        "report, not timing quality)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--load-sweep",
        action="store_true",
        help="run the open-loop Poisson load sweep against a live server "
        "(latency percentiles vs offered rate, saturation knee)",
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
    if not args.load_sweep:
        parser.error("nothing to run: pass --load-sweep")

    load_rates = None
    if args.load_rates:
        try:
            load_rates = tuple(float(r) for r in args.load_rates.split(","))
        except ValueError:
            parser.error(f"--load-rates: not a CSV of numbers: {args.load_rates!r}")

    workers = 4
    load_jobs = args.load_jobs
    if args.smoke:
        workers = 2
        load_jobs = min(load_jobs, 8)
        load_rates = load_rates or (4.0, 16.0)

    document = run_benchmarks(
        seed=args.seed,
        workers=workers,
        load_rates=load_rates,
        load_jobs=load_jobs,
    )
    print(format_table(document))
    if args.out:
        write_report(document, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
