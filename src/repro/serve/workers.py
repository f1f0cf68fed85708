"""Job execution and the multiprocessing worker pool.

:func:`execute_job` is the single definition of "run one profiling
session": build a kernel with the job's cores and seed, attach DProf
(with the job's fault plan, if any), drive the scenario from the
``SCENARIOS`` registry, detach, and serialize the session.  Everything
that runs jobs -- pool workers, the CLI's one-shot ``run-once``, and the
benchmark's service-throughput scenario -- goes through this function,
which is what makes service results bit-identical to one-shot runs.

The pool is N long-lived forked processes with one pipe each.  The
server owns scheduling: it sends a ``(job_id, spec)`` tuple only to an
idle worker, which answers with one ``(kind, job_id, payload)`` message.
EOF is the only lifecycle signal: on the server's end it means the
worker died (its job is requeued and a replacement forked), and on the
worker's end that the server closed the pipe or died.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import time

from repro.dprof.profiler import DProf, DProfConfig
from repro.dprof.session_io import export_session
from repro.serve.jobs import JobSpec, status_from_exit_code
from repro.serve.store import SessionStore
from repro.trace import (
    TRACE_SUFFIX,
    NULL_TRACER,
    SimProbe,
    Tracer,
    config_fingerprint,
)
from repro.workloads import SCENARIOS, build_kernel

def execute_job(spec: JobSpec, tracer=None) -> tuple[str, str, dict]:
    """Run one profiling session; returns (status, archive_text, info).

    Deterministic: equal specs yield byte-identical ``archive_text``
    (the simulation, fault plans, and JSON encoding are all seed-driven
    and order-stable).  ``status`` maps the session's
    :class:`~repro.dprof.quality.DataQuality` to ok/degraded/failed the
    same way the one-shot CLI maps it to exit codes 0/3/4.

    ``spec.trace`` (or an explicit *tracer*) records run -> scenario ->
    machine-sim spans; the simulator is observed through a cheap sampled
    :class:`~repro.trace.SimProbe`, never per-event spans, so tracing
    does not perturb the archive bytes.
    """
    if tracer is None:
        tracer = Tracer(seed=spec.seed) if spec.trace else NULL_TRACER
    with tracer.span("run", scenario=spec.scenario):
        kernel = build_kernel(spec.cores, seed=spec.seed)
        dprof = DProf(
            kernel,
            DProfConfig(ibs_interval=spec.interval),
            faults=spec.fault_plan(),
            tracer=tracer,
        )
        dprof.attach()
        try:
            with tracer.span("scenario", scenario=spec.scenario):
                probe = SimProbe() if tracer.enabled else None
                kernel.machine.trace_probe = probe
                try:
                    with tracer.span("machine-sim"):
                        result = SCENARIOS[spec.scenario](kernel, spec.duration)
                        if probe is not None:
                            tracer.add(**probe.counters())
                finally:
                    kernel.machine.trace_probe = None
        finally:
            dprof.detach()
        quality = dprof.data_quality()
        archive_text = json.dumps(export_session(dprof))
        code = quality.exit_code()
        tracer.add(
            instructions=kernel.machine.total_instructions,
            archive_bytes=len(archive_text),
        )
    info = {
        "throughput": round(result.throughput, 3),
        "quality": quality.coverage_line(),
        "exit_code": code,
    }
    return status_from_exit_code(code), archive_text, info


def execute_job_to_store(spec: JobSpec, store_root) -> dict:
    """Execute *spec* and land its archive in the store; returns the
    outcome blob the service attaches to the job record.

    With ``spec.trace`` set, the span trace is written next to the
    archive as ``<digest>.trace.jsonl`` (manifest first line) and the
    raw span blobs ride along in the outcome so the server can adopt
    them into its own trace.
    """
    t0 = time.perf_counter()
    tracer = Tracer(seed=spec.seed) if spec.trace else NULL_TRACER
    status, archive_text, info = execute_job(spec, tracer=tracer)
    store = SessionStore(store_root)
    put = tracer.begin("store-put")
    digest = store.put_text(archive_text)
    if put is not None:
        tracer.end(put, bytes=len(archive_text))
    outcome = {
        "status": status,
        "digest": digest,
        "wall_s": time.perf_counter() - t0,
        **info,
    }
    if tracer.enabled:
        manifest = tracer.manifest(
            fingerprint=config_fingerprint(spec.canonical()),
            quality=info.get("quality", ""),
            scenario=spec.scenario,
            digest=digest,
        )
        trace_path = store.path_for(digest).with_name(digest + TRACE_SUFFIX)
        tracer.write_jsonl(trace_path, manifest)
        outcome["trace_path"] = str(trace_path)
        outcome["spans"] = tracer.to_blobs()
    return outcome


def worker_main(conn, store_root: str, inherited) -> None:
    """One pool worker's loop (runs in a forked child process).

    SIGTERM gets its default back, even in a worker forked after the
    server installed its handlers, so drain can terminate a stuck worker;
    SIGINT is ignored (Ctrl-C belongs to the server, which drains).  The
    *inherited* server-side pipe ends are closed, so a dead worker reads
    as EOF on the server and a dead server as EOF here.
    ``execute_job_to_store`` is looked up per job, so a wrapper patched
    in before the pool forks runs here.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.set_wakeup_fd(-1)
    for pool_end in inherited:
        pool_end.close()
    try:
        while True:
            job_id, spec_wire = conn.recv()
            try:
                spec = JobSpec.from_wire(spec_wire)
                message = ("done", job_id, execute_job_to_store(spec, store_root))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                message = ("failed", job_id, f"{type(exc).__name__}: {exc}")
            conn.send(message)
    except (EOFError, OSError):
        return  # the server closed this pipe, or died


def _mp_context():
    """Fork where available (fast, inherits the imported simulator);
    platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class WorkerPool:
    """N worker processes, one pipe each, read on an event loop.

    Each message a worker sends is passed to ``on_message(worker_id,
    message)``; its death (EOF) to ``on_message(worker_id, None)``, after
    its pipe is closed and its process reaped.
    """

    def __init__(self, nworkers: int, store_root) -> None:
        self.nworkers = nworkers
        self.store_root = str(store_root)
        self._ctx = _mp_context()
        self.procs: dict[int, multiprocessing.Process] = {}
        #: worker_id -> the server's end of that worker's pipe.
        self.conns: dict = {}
        self._next_id = 0
        self._loop = None
        self._on_message = None

    def start(self, loop, on_message) -> None:
        self._loop = loop
        self._on_message = on_message
        for _ in range(self.nworkers):
            self.spawn()

    def spawn(self) -> int:
        """Fork one worker and watch its pipe; returns its id."""
        worker_id = self._next_id
        self._next_id += 1
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.store_root, [conn, *self.conns.values()]),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        proc.start()
        child_conn.close()
        self.procs[worker_id] = proc
        self.conns[worker_id] = conn
        self._loop.add_reader(conn.fileno(), self._on_readable, worker_id)
        return worker_id

    def send(self, worker_id: int, job_id: str, spec: JobSpec) -> None:
        """Hand one job to an idle worker.  A worker that died before
        this send is reported by its EOF, which requeues the job."""
        try:
            self.conns[worker_id].send((job_id, spec.to_wire()))
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _on_readable(self, worker_id: int) -> None:
        try:
            message = self.conns[worker_id].recv()
        except (EOFError, OSError):
            self.retire(worker_id)
            message = None
        self._on_message(worker_id, message)

    def _close(self, worker_id: int) -> multiprocessing.Process:
        conn = self.conns.pop(worker_id)
        self._loop.remove_reader(conn.fileno())
        conn.close()
        return self.procs.pop(worker_id)

    def retire(self, worker_id: int, terminate: bool = False) -> None:
        """Close a worker's pipe and reap it; *terminate* (SIGTERM) first
        for a worker that is still busy (the drain-timeout path)."""
        proc = self._close(worker_id)
        if terminate:
            proc.terminate()
        proc.join(timeout=2.0)

    def stop(self, grace_s: float = 5.0) -> None:
        """Close every pipe (an idle worker exits on EOF), then terminate
        stragglers."""
        procs = [self._close(worker_id) for worker_id in list(self.conns)]
        deadline = time.monotonic() + grace_s
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
