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
import os
import signal
import time

from repro.dprof.profiler import DProf, DProfConfig
from repro.dprof.session_io import export_session
from repro.serve.jobs import JobSpec, status_from_exit_code
from repro.serve.store import SessionStore
from repro.trace import TRACE_SUFFIX, NULL_TRACER, Tracer, config_fingerprint
from repro.workloads import SCENARIOS, build_kernel

def execute_job(spec: JobSpec, tracer=None) -> tuple[str, str, dict]:
    """Run one profiling session; returns (status, archive_text, info).

    Deterministic: equal specs yield byte-identical ``archive_text``
    (the simulation, fault plans, and JSON encoding are all seed-driven
    and order-stable).  ``status`` maps the session's
    :class:`~repro.dprof.quality.DataQuality` to ok/degraded/failed the
    same way the one-shot CLI maps it to exit codes 0/3/4.

    ``spec.trace`` (or an explicit *tracer*) records run -> scenario ->
    machine-sim spans; machine-sim counts the instructions and cycles it
    simulated, read once when it closes, so tracing adds nothing to the
    simulator loop and does not perturb the archive bytes.
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
                machine = kernel.machine
                instructions = machine.total_instructions
                cycles = machine.elapsed_cycles()
                with tracer.span("machine-sim"):
                    result = SCENARIOS[spec.scenario](kernel, spec.duration)
                    tracer.add(
                        instructions=machine.total_instructions - instructions,
                        cycles=machine.elapsed_cycles() - cycles,
                    )
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


def _open_fds() -> list[tuple[int, int, int]]:
    """``(fd, st_dev, st_ino)`` of every descriptor open in this process."""
    found = []
    for name in os.listdir("/dev/fd"):
        try:
            st = os.fstat(int(name))
        except OSError:  # the listing's own descriptor, closed by now
            continue
        found.append((int(name), st.st_dev, st.st_ino))
    return found


def _release_server_fds(server_fds, keep: int) -> None:
    """Let go of the server's descriptors this fork inherited.

    Each is pointed at ``/dev/null`` rather than closed: its number stays
    taken, so a server object still owning it in this process can never
    close a descriptor the worker opens later.  stdio and *keep* stay, as
    does a number reused since the listing (the fork's own sentinel pipes,
    which ``multiprocessing`` needs to join this worker).
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd, dev, ino in server_fds:
        if fd <= 2 or fd == keep:
            continue
        try:
            st = os.fstat(fd)
        except OSError:
            continue
        if (st.st_dev, st.st_ino) == (dev, ino):
            os.dup2(devnull, fd)
    os.close(devnull)


def worker_main(conn, store_root: str, server_fds) -> None:
    """One pool worker's loop (runs in a forked child process).

    SIGTERM gets its default back, even in a worker forked after the
    server installed its handlers, so drain can terminate a stuck worker;
    SIGINT is ignored (Ctrl-C belongs to the server, which drains).  The
    *server_fds* it inherited -- every pipe end of the pool, and for a
    replacement also the listening socket, client connections and the
    event loop's own descriptors -- are released, so a dead worker reads
    as EOF on the server, a dead server as EOF here, and a killed server
    leaves no socket open behind it.
    ``execute_job_to_store`` is looked up per job, so a wrapper patched
    in before the pool forks runs here.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.set_wakeup_fd(-1)
    _release_server_fds(server_fds, keep=conn.fileno())
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
            args=(child_conn, self.store_root, _open_fds()),
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
