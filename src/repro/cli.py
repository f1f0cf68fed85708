"""Command-line interface: run the reproduction's workloads and views.

Usage::

    python -m repro.cli memcached [--cores N] [--fixed] [--duration CYCLES]
    python -m repro.cli apache    [--cores N] [--period CYCLES] [--admission N]
    python -m repro.cli diagnose  [--cores N]
    python -m repro.cli list-scenarios

    python -m repro.cli serve     [--workers N] [--port P] [--store DIR]
    python -m repro.cli cluster   [--node-id NAME] [--store DIR] [...]
    python -m repro.cli submit    --scenario NAME [--wait] [...]
    python -m repro.cli status    [JOB_ID]
    python -m repro.cli fetch     JOB_ID [--view NAME] [--type TYPE]
    python -m repro.cli run-once  --scenario NAME [--store DIR]

``memcached`` and ``apache`` run the case-study workloads under DProf and
print the data profile plus throughput (with or without the paper's
fixes); ``diagnose`` runs the automated diagnosis pipeline against the
misconfigured memcached workload.

``serve`` turns the process into a long-running profiling service
(:mod:`repro.serve`); ``submit``/``status``/``fetch`` are its client
trio, and ``run-once`` executes one job spec inline through the exact
code path the service workers use -- its stored archive is bit-identical
to what a server produces for the same spec.

Every profiling command accepts ``--inject-faults SPEC`` (e.g.
``--inject-faults ibs_drop=0.1,history_truncation=0.2,seed=7``) to run
the pipeline over deterministically lossy hardware; one-shot runs then
print a data-quality report and exit 0/3/4 (full/degraded/poor), while
service jobs report status ok/degraded/failed instead.

Import rule: a command imports the subsystem it drives (the simulated
machine, kernel and workloads, the profiler, diagnosis, baselines, fixes,
the server's ``asyncio`` stack) inside its own function, so a command
pays only for what it runs.  Scenario defaults come from
:mod:`repro.config`, which imports no simulator.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING

from repro import __version__
from repro.config import SCENARIO_DEFAULTS, VIEW_NAMES
from repro.dprof.quality import DataQuality
from repro.errors import FaultInjectionError, ProtocolError, ServeError, TraceError
from repro.faults import FaultPlan

if TYPE_CHECKING:
    from repro.dprof.profiler import DProf


def _fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    """Parse --inject-faults; exits with a usage error on a bad spec."""
    spec = getattr(args, "inject_faults", None)
    if not spec:
        return None
    try:
        return FaultPlan.parse(spec)
    except FaultInjectionError as exc:
        raise SystemExit(f"--inject-faults: {exc}")


def _int_at_least(minimum: int):
    """An argparse type: an int >= *minimum*, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _report_quality(dprof: DProf, plan: FaultPlan | None) -> int:
    """Print the quality report when faulted; return the session exit code."""
    quality: DataQuality = dprof.data_quality()
    if plan is not None or quality.degraded:
        print()
        print(quality.render())
    return quality.exit_code()


def cmd_memcached(args: argparse.Namespace) -> int:
    from repro.baselines import LockStatReport
    from repro.dprof.profiler import DProf, DProfConfig
    from repro.fixes import install_local_queue_selection
    from repro.workloads import MemcachedWorkload, build_kernel

    plan = _fault_plan(args)
    kernel = build_kernel(args.cores, seed=11)
    workload = MemcachedWorkload(kernel)
    workload.setup()
    if args.fixed:
        install_local_queue_selection(workload.stack.dev)
    dprof = DProf(kernel, DProfConfig(ibs_interval=args.interval), faults=plan)
    dprof.attach()
    result = workload.run(args.duration, warmup_cycles=args.duration // 5)
    dprof.detach()
    label = "fixed (local TX queues)" if args.fixed else "stock (skb_tx_hash)"
    print(f"memcached on {args.cores} cores, {label}")
    print(f"throughput: {result.throughput:.1f} requests/Mcycle")
    print()
    print(dprof.data_profile().render(args.top))
    print()
    print(LockStatReport(kernel.lockstat, kernel.machine.total_cycles()).render(5))
    return _report_quality(dprof, plan)


def cmd_apache(args: argparse.Namespace) -> int:
    from repro.dprof.profiler import DProf, DProfConfig
    from repro.fixes import apply_admission_control
    from repro.workloads import ApacheWorkload, build_kernel

    plan = _fault_plan(args)
    kernel = build_kernel(args.cores, seed=11)
    workload = ApacheWorkload(kernel, arrival_period=args.period)
    workload.setup()
    if args.admission:
        apply_admission_control(workload.listeners.values(), args.admission)
    dprof = DProf(kernel, DProfConfig(ibs_interval=args.interval), faults=plan)
    dprof.attach()
    result = workload.run(args.duration, warmup_cycles=args.duration)
    dprof.detach()
    mode = f"admission={args.admission}" if args.admission else "stock backlog"
    print(
        f"apache on {args.cores} cores, 1 conn / {args.period} cycles/core, {mode}"
    )
    print(f"throughput: {result.throughput:.1f} requests/Mcycle")
    print(f"mean accept wait: {workload.mean_accept_wait():,.0f} cycles")
    print(f"connections dropped: {workload.total_dropped()}")
    print()
    print(dprof.data_profile().render(args.top))
    return _report_quality(dprof, plan)


def cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.dprof.diagnosis import Diagnosis
    from repro.workloads import collect_history_session

    plan = _fault_plan(args)
    dprof = collect_history_session(
        "memcached",
        ncores=args.cores,
        seed=52,
        ibs_interval=args.interval,
        faults=plan,
    )
    print(Diagnosis(dprof).render(args.top))
    return _report_quality(dprof, plan)


def cmd_list_scenarios(_args: argparse.Namespace) -> int:
    """Print the SCENARIOS registry: defaults, description, parameters.

    Kernel families are parameterized, so each scenario also lists its
    parameter schema (the spec knobs and their defaults) on an indented
    ``params:`` line.
    """
    print(
        f"{'scenario':<16} {'cores':>5} {'duration':>9} {'interval':>8}  description"
    )
    for name in sorted(SCENARIO_DEFAULTS):
        defaults = SCENARIO_DEFAULTS[name]
        print(
            f"{name:<16} {defaults.cores:>5} {defaults.duration:>9} "
            f"{defaults.interval:>8}  {defaults.description}"
        )
        print(f"{'':<16} params: {defaults.params}")
    return 0


# ----------------------------------------------------------------------
# Profiling-as-a-service commands (repro.serve)
# ----------------------------------------------------------------------


def _spec_from_args(args: argparse.Namespace):
    """A validated JobSpec from submit/run-once flags (SystemExit on junk)."""
    from repro.serve.jobs import JobSpec

    try:
        return JobSpec.create(
            scenario=args.scenario,
            cores=args.cores,
            seed=args.seed,
            duration=args.duration,
            interval=args.interval,
            fault_spec=args.inject_faults,
            priority=getattr(args, "priority", 0),
            trace=args.trace,
        )
    except ServeError as exc:
        raise SystemExit(f"bad job spec: {exc}")


def _rpc(args: argparse.Namespace, message: dict) -> dict:
    """One request to the server named by --host/--port; SystemExit on
    connection or protocol trouble so scripts get a clean error."""
    from repro.serve.protocol import request_once

    try:
        return request_once(args.host, args.port, message, timeout=args.timeout)
    except (ConnectionError, OSError, ProtocolError) as exc:
        raise SystemExit(f"cannot reach server at {args.host}:{args.port}: {exc}")


def _rpc_resilient(
    args: argparse.Namespace,
    message: dict,
    *,
    sleep=time.sleep,
    clock=time.monotonic,
    rng=None,
) -> dict:
    """:func:`_rpc` plus client-side resilience (``--retry N``).

    Connection failures and ``queue_full`` backpressure rejects are
    retried by :meth:`~repro.serve.retry.RetryPolicy.call`: capped
    exponential backoff and full jitter, a server ``retry_after_s`` hint
    overriding the exponential term.  ``--retry 0`` keeps the old
    fail-fast behavior.  The overall budget is ``--timeout`` per
    attempt, bounded by one shared monotonic deadline.
    """
    from repro.errors import QueueFullError
    from repro.serve.protocol import request_once
    from repro.serve.retry import RetryExhaustedError, RetryPolicy

    retries = max(0, args.retry)
    if retries == 0:
        return _rpc(args, message)
    kwargs = {"rng": rng} if rng is not None else {}
    policy = RetryPolicy(
        attempts=retries + 1,
        timeout_s=args.timeout * (retries + 1),
        **kwargs,
    )

    def attempt() -> dict:
        response = request_once(args.host, args.port, message, timeout=args.timeout)
        if not response.get("ok") and response.get("code") == "queue_full":
            raise QueueFullError(
                response.get("error", "queue full"),
                retry_after_s=response.get("retry_after_s"),
            )
        # Success, or a reject retrying cannot fix (bad spec, draining):
        # hand it straight back to the caller.
        return response

    try:
        return policy.call(
            attempt,
            retry_on=(ConnectionError, OSError, ProtocolError, QueueFullError),
            sleep=sleep,
            clock=clock,
        )
    except RetryExhaustedError as exc:
        last = exc.__cause__
        if not isinstance(last, QueueFullError):
            last = f"cannot reach server at {args.host}:{args.port}: {last}"
        raise SystemExit(f"giving up after {exc.attempts} attempt(s): {last}")


def _serve_forever(server, args: argparse.Namespace, banner: str) -> int:
    """Boot a server, announce it, and block until it drains."""
    import asyncio

    async def main() -> None:
        await server.start()
        server.install_signal_handlers()
        print(
            f"{banner}: listening on "
            f"{server.host}:{server.port}, {args.workers} workers, "
            f"store {args.store}",
            flush=True,
        )
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{server.port}\n")
        await server.finished.wait()
        print(f"{banner}: drained and stopped", flush=True)

    asyncio.run(main())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ProfilingServer

    server = ProfilingServer(
        args.store,
        workers=args.workers,
        queue_size=args.queue_size,
        host=args.host,
        port=args.port,
        drain_grace_s=args.drain_grace,
        trace=args.trace,
    )
    return _serve_forever(server, args, f"repro.serve v{__version__}")


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run one federated node; peers share the same --store."""
    import os

    from repro.serve.cluster import ClusterConfig, ClusterServer

    node_id = args.node_id or f"node-{os.getpid()}"
    try:
        config = ClusterConfig(
            node_id=node_id,
            heartbeat_interval_s=args.heartbeat_interval,
            suspect_after_s=args.suspect_after,
            dead_after_s=args.dead_after,
            lease_timeout_s=args.lease_timeout,
        )
    except ServeError as exc:
        raise SystemExit(f"bad cluster config: {exc}")
    server = ClusterServer(
        args.store,
        config,
        workers=args.workers,
        queue_size=args.queue_size,
        host=args.host,
        port=args.port,
        drain_grace_s=args.drain_grace,
        trace=args.trace,
    )
    return _serve_forever(
        server, args, f"repro.serve.cluster v{__version__} [{node_id}]"
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.jobs import TERMINAL_STATES

    spec = _spec_from_args(args)
    response = _rpc_resilient(args, {"op": "submit", **spec.to_wire()})
    if not response.get("ok"):
        retry = response.get("retry_after_s")
        suffix = f" (retry after {retry}s)" if retry is not None else ""
        print(f"rejected: {response.get('error')}{suffix}", file=sys.stderr)
        return 1
    job_id = response["job_id"]
    print(f"submitted {job_id} ({spec.scenario}, seed={spec.seed})")
    if not args.wait:
        return 0
    while True:
        status = _rpc(args, {"op": "status", "job_id": job_id})
        if not status.get("ok"):
            # E.g. "unknown job" from a restarted server: no poll fixes it.
            print(status.get("error"), file=sys.stderr)
            return 1
        job = status["job"]
        if job.get("state") in TERMINAL_STATES:
            print(
                f"{job_id}: {job['state']}"
                + (f" ({job['status']})" if job.get("status") else "")
                + (f" error: {job['error']}" if job.get("error") else "")
            )
            return 0 if job["state"] == "done" else 1
        time.sleep(args.poll_interval)


def cmd_status(args: argparse.Namespace) -> int:
    if args.job_id:
        response = _rpc(args, {"op": "status", "job_id": args.job_id})
        if not response.get("ok"):
            print(response.get("error"), file=sys.stderr)
            return 1
        print(json.dumps(response["job"], indent=2))
        return 0
    response = _rpc(args, {"op": "status"})
    jobs = response.get("jobs", [])
    print(
        f"{len(jobs)} jobs, queue depth {response.get('queue_depth')}, "
        f"running {response.get('running')}"
    )
    for job in jobs:
        line = (
            f"{job['job_id']}  {job['spec']['scenario']:<10} "
            f"{job['state']:<9}"
        )
        if job.get("status"):
            line += f" {job['status']}"
        if job.get("wall_s") is not None:
            line += f" ({job['wall_s']:.2f}s)"
        print(line)
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    message = {
        "op": "fetch",
        "job_id": args.job_id,
        "view": args.view,
        "top": args.top,
    }
    if args.type:
        message["type"] = args.type
    response = _rpc_resilient(args, message)
    if not response.get("ok"):
        print(response.get("error"), file=sys.stderr)
        return 1
    body = response.get("archive") or response.get("rendered") or ""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
            if not body.endswith("\n"):
                fh.write("\n")
        print(f"wrote {args.view} ({response['digest'][:12]}...) to {args.out}")
    else:
        print(body)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Top-down derived metrics from an archive, or service counters.

    - target is an archive file: offline metrics via ``load_session``;
    - no target, ``--port``: the server's service counters.

    A served job's metrics are ``repro fetch JOB --view metrics``, and an
    inline run is ``repro run-once`` followed by ``repro metrics
    ARCHIVE``; all paths derive from identical archive bytes, so the
    numbers agree exactly.
    """
    from pathlib import Path

    if args.target is None:
        if args.port is None:
            raise SystemExit(
                "metrics needs --port (server counters) or an archive path"
            )
        response = _rpc(args, {"op": "metrics"})
        print(response["rendered"])
        return 0
    if not Path(args.target).is_file():
        raise SystemExit(
            f"metrics: no archive file {args.target!r}; for a served job "
            "use `repro fetch JOB --view metrics`"
        )
    from repro.dprof.session_io import load_session

    summary = load_session(args.target).metrics()
    if summary is None:
        print(
            f"{args.target}: archive predates hardware-counter export",
            file=sys.stderr,
        )
        return 1
    print(summary.render(), end="")
    return 0


def cmd_run_once(args: argparse.Namespace) -> int:
    """Execute one job spec inline, through the service's worker path."""
    from repro.serve.workers import execute_job_to_store

    spec = _spec_from_args(args)
    outcome = execute_job_to_store(spec, args.store)
    print(
        f"{spec.scenario} seed={spec.seed}: "
        f"{outcome['status']} in {outcome['wall_s']:.2f}s, "
        f"throughput {outcome['throughput']}, archive {outcome['digest']}"
    )
    print(f"quality: {outcome['quality']}")
    if outcome.get("trace_path"):
        print(f"trace: {outcome['trace_path']}")
    return 0 if outcome["status"] != "failed" else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Render a recorded span trace as a stage-time tree."""
    from pathlib import Path

    from repro.trace import TRACE_SUFFIX, load_trace, render_tree

    target = Path(args.session)
    if target.is_dir():
        # A store directory: pick the trace by digest prefix; without a
        # digest, prefer the server's own trace, else a sole job trace.
        if args.digest:
            matches = sorted(target.glob(f"{args.digest}*{TRACE_SUFFIX}"))
            if not matches:
                raise SystemExit(
                    f"no trace matching {args.digest!r} in {target}"
                )
            target = matches[0]
        elif (target / "server.trace.jsonl").exists():
            target = target / "server.trace.jsonl"
        else:
            matches = sorted(target.glob(f"*{TRACE_SUFFIX}"))
            if len(matches) == 1:
                target = matches[0]
            elif matches:
                names = "\n  ".join(m.name for m in matches)
                raise SystemExit(
                    f"multiple traces in {target}; pick one with "
                    f"--digest:\n  {names}"
                )
            else:
                target = target / "server.trace.jsonl"
    elif target.suffixes[-2:] == [".session", ".json"]:
        # A session archive: its trace sits next to it.
        target = target.with_name(
            target.name[: -len(".session.json")] + TRACE_SUFFIX
        )
    if not target.exists():
        raise SystemExit(f"no trace file at {target}")
    try:
        manifest, spans = load_trace(target)
    except TraceError as exc:
        raise SystemExit(f"cannot read trace: {exc}")
    print(render_tree(spans, manifest, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DProf reproduction workloads"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The one definition of --inject-faults, attached to every profiling
    # subcommand via ``parents=`` so its help text cannot drift.
    fault_flags = argparse.ArgumentParser(add_help=False)
    fault_flags.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help=(
            "deterministic fault plan, e.g. "
            "ibs_drop=0.1,history_truncation=0.2,seed=7 "
            "(models: ibs_drop, ibs_latency, debugreg_steal, "
            "trap_miss, history_truncation)"
        ),
    )

    mc = sub.add_parser(
        "memcached", help="run the Section 6.1 workload", parents=[fault_flags]
    )
    mc.add_argument("--cores", type=_int_at_least(1), default=8)
    mc.add_argument("--fixed", action="store_true", help="apply the +57%% fix")
    mc.add_argument("--duration", type=_int_at_least(1), default=600_000)
    mc.add_argument("--interval", type=_int_at_least(1), default=400)
    mc.add_argument("--top", type=int, default=8)
    mc.set_defaults(func=cmd_memcached)

    ap = sub.add_parser(
        "apache", help="run the Section 6.2 workload", parents=[fault_flags]
    )
    ap.add_argument("--cores", type=_int_at_least(1), default=8)
    ap.add_argument("--period", type=_int_at_least(1), default=22_000)
    ap.add_argument(
        "--admission", type=_int_at_least(0), default=0,
        help="backlog cap (0=off)",
    )
    ap.add_argument("--duration", type=_int_at_least(1), default=1_000_000)
    ap.add_argument("--interval", type=_int_at_least(1), default=400)
    ap.add_argument("--top", type=int, default=8)
    ap.set_defaults(func=cmd_apache)

    dg = sub.add_parser(
        "diagnose", help="automated diagnosis on memcached", parents=[fault_flags]
    )
    dg.add_argument("--cores", type=_int_at_least(1), default=8)
    dg.add_argument("--interval", type=_int_at_least(1), default=300)
    dg.add_argument("--top", type=int, default=6)
    dg.set_defaults(func=cmd_diagnose)

    ls = sub.add_parser(
        "list-scenarios", help="list service scenarios and their defaults"
    )
    ls.set_defaults(func=cmd_list_scenarios)

    def add_client_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--host", default="127.0.0.1")
        sub_parser.add_argument("--port", type=int, required=True)
        sub_parser.add_argument(
            "--timeout", type=float, default=10.0, help="socket timeout (s)"
        )
        sub_parser.add_argument(
            "--retry", type=int, default=0, metavar="N",
            help=(
                "retry connection failures and queue-full rejects up to N "
                "times with exponential backoff + jitter (honors the "
                "server's retry_after_s hint; 0 = fail fast)"
            ),
        )

    def add_spec_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "scenario", choices=sorted(SCENARIO_DEFAULTS)
        )
        sub_parser.add_argument(
            "--cores", type=int, default=None,
            help="cores (default: scenario default)",
        )
        sub_parser.add_argument(
            "--duration", type=int, default=None, metavar="CYCLES",
            help="measured window (default: scenario default)",
        )
        sub_parser.add_argument("--interval", type=int, default=None)
        sub_parser.add_argument("--seed", type=int, default=11)
        sub_parser.add_argument(
            "--trace", action="store_true",
            help="record a span trace next to the session archive",
        )

    def add_serve_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--host", default="127.0.0.1")
        sub_parser.add_argument(
            "--port", type=int, default=0, help="TCP port (0 = pick a free one)"
        )
        sub_parser.add_argument("--workers", type=int, default=2)
        sub_parser.add_argument("--queue-size", type=int, default=32)
        sub_parser.add_argument(
            "--store", default="serve-store", help="session archive directory"
        )
        sub_parser.add_argument(
            "--drain-grace", type=float, default=30.0, metavar="SECONDS",
            help="how long SIGTERM waits for in-flight jobs before requeueing",
        )
        sub_parser.add_argument(
            "--port-file", default=None, metavar="FILE",
            help="write the bound port here once listening",
        )
        sub_parser.add_argument(
            "--trace", action="store_true",
            help="record server-side spans (written to the store at drain)",
        )

    sv = sub.add_parser(
        "serve", help="run the profiling-as-a-service server"
    )
    add_serve_flags(sv)
    sv.set_defaults(func=cmd_serve)

    cl = sub.add_parser(
        "cluster",
        help="run one federated cluster node (peers share one --store)",
    )
    add_serve_flags(cl)
    cl.add_argument(
        "--node-id", default=None,
        help="unique node name (default: node-<pid>)",
    )
    cl.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="SECONDS",
        help="heartbeat + lease renewal cadence",
    )
    cl.add_argument(
        "--suspect-after", type=float, default=2.0, metavar="SECONDS",
        help="silence before a peer is suspected",
    )
    cl.add_argument(
        "--dead-after", type=float, default=5.0, metavar="SECONDS",
        help="silence before a peer is declared dead (leaves the ring)",
    )
    cl.add_argument(
        "--lease-timeout", type=float, default=8.0, metavar="SECONDS",
        help="unrenewed-lease age before a dead peer's jobs are reclaimed",
    )
    cl.set_defaults(func=cmd_cluster)

    sm = sub.add_parser(
        "submit", help="submit a job to a running server", parents=[fault_flags]
    )
    add_client_flags(sm)
    add_spec_flags(sm)
    sm.add_argument("--priority", type=int, default=0)
    sm.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    sm.add_argument("--poll-interval", type=float, default=0.2)
    sm.set_defaults(func=cmd_submit)

    st = sub.add_parser("status", help="job status from a running server")
    add_client_flags(st)
    st.add_argument("job_id", nargs="?", default=None)
    st.set_defaults(func=cmd_status)

    ft = sub.add_parser(
        "fetch", help="fetch a finished job's profile from the server"
    )
    add_client_flags(ft)
    ft.add_argument("job_id", help="job id or archive digest")
    ft.add_argument(
        "--view",
        choices=VIEW_NAMES,
        default="data-profile",
    )
    ft.add_argument(
        "--type", default=None, help="type name for miss-class / data-flow"
    )
    ft.add_argument("--top", type=int, default=8)
    ft.add_argument(
        "--out", default=None, metavar="FILE", help="write to FILE not stdout"
    )
    ft.set_defaults(func=cmd_fetch)

    mt = sub.add_parser(
        "metrics",
        help="top-down session metrics from an archive, or service "
        "counters from a server",
    )
    mt.add_argument(
        "target", nargs="?", default=None,
        help="an archive path; omit for the server's service counters",
    )
    mt.add_argument("--host", default="127.0.0.1")
    mt.add_argument(
        "--port", type=int, default=None,
        help="server to query for service counters",
    )
    mt.add_argument(
        "--timeout", type=float, default=10.0, help="socket timeout (s)"
    )
    mt.set_defaults(func=cmd_metrics)

    ro = sub.add_parser(
        "run-once",
        help="execute one job spec inline via the service worker path",
        parents=[fault_flags],
    )
    add_spec_flags(ro)
    ro.add_argument(
        "--store", default="serve-store", help="session archive directory"
    )
    ro.set_defaults(func=cmd_run_once)

    tr = sub.add_parser(
        "trace",
        help="render a recorded span trace (stage tree + critical path)",
    )
    tr.add_argument(
        "session",
        help=(
            "a .trace.jsonl file, a .session.json archive (reads the "
            "trace next to it), or a store directory"
        ),
    )
    tr.add_argument(
        "--digest", default=None,
        help="archive digest prefix when SESSION is a store directory",
    )
    tr.add_argument(
        "--top", type=int, default=0,
        help="show only the N slowest children per span (0 = all)",
    )
    tr.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
