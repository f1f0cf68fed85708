r"""The asyncio profiling server: TCP transport, scheduling, drain.

Architecture (one process, one event loop)::

                                         /-- pipe -- worker 0 (process)
    TCP clients ---> ProfilingServer ---+--- pipe -- worker 1
                     | JobQueue (prio)   \-- pipe -- worker N-1
                     | SessionStore
                     | ServeMetrics

The server owns all scheduling state on the event loop: jobs wait in a
bounded priority queue, and a job is sent down a worker's pipe only when
that worker is idle, so each worker holds at most one job and priorities
hold.  ``running`` maps each job to its worker from the moment of
dispatch.  The loop reads every worker's pipe; a worker answers a job
with one message, and EOF on its pipe means it died: its job is requeued
and a replacement forked (restart counted in metrics).

Shutdown (SIGTERM, SIGINT, or the ``shutdown`` op) drains: new submits
are rejected, queued jobs are handed back (state ``requeued``, persisted
to ``requeue.json`` in the store), running jobs get ``drain_grace_s`` to
finish, stragglers are terminated and requeued too.  A worker that dies
during the drain is not replaced.  After a drain the metrics reconcile
exactly: submitted == done + failed + requeued.
"""

from __future__ import annotations

import asyncio
import inspect
import signal
import time
from dataclasses import replace

from repro import __version__
from repro.errors import ProtocolError, QueueFullError, ServeError
from repro.serve.jobs import Job, JobQueue, JobSpec
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    DEFAULT_HOST,
    MAX_LINE_BYTES,
    decode_line,
    encode,
    error_response,
)
from repro.serve.store import SessionStore
from repro.serve.workers import WorkerPool
from repro.trace import NULL_TRACER, Tracer
from repro.workloads import SCENARIOS


class ProfilingServer:
    """Long-running profiling-as-a-service frontend."""

    def __init__(
        self,
        store_root,
        workers: int = 2,
        queue_size: int = 32,
        host: str = DEFAULT_HOST,
        port: int = 0,
        drain_grace_s: float = 30.0,
        trace: bool = False,
    ) -> None:
        self.store = SessionStore(store_root)
        self.metrics = ServeMetrics()
        #: Server-side span tracer.  Seed 0: the server's own spans are
        #: identified by submission order, not by any job's seed.
        self.tracer = Tracer(seed=0) if trace else NULL_TRACER
        #: job_id -> open queue-wait span (accepted, not yet dispatched).
        self._wait_spans: dict[str, object] = {}
        #: job_id -> open worker-execute span (dispatched, not finished).
        self._exec_spans: dict[str, object] = {}
        self.queue = JobQueue(queue_size)
        self.pool = WorkerPool(workers, store_root)
        self.jobs: dict[str, Job] = {}
        #: job_id -> the worker it was sent to.
        self.running: dict[str, int] = {}
        self.host = host
        self.port = port
        self.drain_grace_s = drain_grace_s
        self.draining = False
        self.finished = asyncio.Event()
        self._seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        #: Open client connections: handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._drain_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Boot the workers and the TCP listener."""
        self._loop = asyncio.get_running_loop()
        self.store.sweep_tmp()
        self.pool.start(self._loop, self._on_worker_message)
        self._tcp_server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._tcp_server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (call after :meth:`start`)."""
        assert self._loop is not None
        for sig in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(sig, self.request_drain)

    def request_drain(self) -> None:
        """Schedule a drain from a signal handler or an op handler."""
        if self._drain_task is None and self._loop is not None:
            self._drain_task = self._loop.create_task(self.drain())

    async def run(self) -> None:
        """start() + signal handlers + block until drained."""
        await self.start()
        self.install_signal_handlers()
        await self.finished.wait()

    async def drain(self) -> None:
        """Graceful shutdown: finish or requeue every in-flight job."""
        if self.draining:
            return
        self.draining = True
        requeued = self.queue.drain()
        deadline = (
            asyncio.get_running_loop().time() + self.drain_grace_s
        )
        while self.running and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.05)
        # Stragglers past the grace period: terminate and hand back.
        for job_id, worker_id in list(self.running.items()):
            self.pool.retire(worker_id, terminate=True)
            if self.tracer.enabled:
                execute = self._exec_spans.pop(job_id, None)
                if execute is not None:
                    self.tracer.end(execute, terminal=False, result="drain-timeout")
            requeued.append(self.jobs[job_id])
            del self.running[job_id]
        # A worker that died *during* the grace wait had its job
        # force_pushed back onto the (already drained) queue by its EOF;
        # drain again so those jobs reach requeue.json too.
        requeued.extend(self.queue.drain())
        for job in requeued:
            job.state = "requeued"
            self.metrics.jobs_requeued += 1
            if self.tracer.enabled:
                wait = self._wait_spans.pop(job.job_id, None)
                if wait is not None:
                    self.tracer.end(wait, outcome="requeued")
                handle = self.tracer.begin("requeue", job_id=job.job_id)
                self.tracer.end(handle)
        self.store.write_requeue([job.spec.to_wire() for job in requeued])
        if self.tracer.enabled:
            depth, running = len(self.queue), len(self.running)
            self.tracer.write_jsonl(
                self.store.root / "server.trace.jsonl",
                self.tracer.manifest(
                    counters=self.metrics.counters(depth, running)
                ),
            )
        self.pool.stop(grace_s=2.0)
        if self._tcp_server is not None:
            self._tcp_server.close()
        # Close client connections and let their handlers return before
        # the loop stops: a handler still running would be cancelled at
        # shutdown, which Python 3.11 logs as a traceback.
        while self._connections:
            for writer in self._connections.values():
                writer.transport.abort()
            await asyncio.wait(list(self._connections))
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
        self.finished.set()

    # ------------------------------------------------------------------
    # Worker-pool plumbing
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Send queued jobs to idle workers."""
        if self.draining:
            return
        busy = set(self.running.values())
        for worker_id in self.pool.conns:
            if worker_id in busy:
                continue
            job = self.queue.pop()
            if job is None:
                return
            job.state = "running"
            job.attempts += 1
            self.running[job.job_id] = worker_id
            if self.tracer.enabled:
                wait = self._wait_spans.pop(job.job_id, None)
                if wait is not None:
                    self.tracer.end(wait, outcome="dispatched")
                self._exec_spans[job.job_id] = self.tracer.begin(
                    "worker-execute", job_id=job.job_id, scenario=job.spec.scenario
                )
            self.pool.send(worker_id, job.job_id, job.spec)

    def _on_worker_message(self, worker_id: int, message: tuple | None) -> None:
        if message is None:
            self._on_worker_death(worker_id)
            return
        kind, job_id, detail = message
        job = self.jobs[job_id]
        del self.running[job_id]
        if self.tracer.enabled:
            execute = self._exec_spans.pop(job_id, None)
            if execute is not None:
                if kind == "done" and detail.get("spans"):
                    # Worker-side run/scenario/sim spans nest under the
                    # dispatch that produced them.
                    self.tracer.adopt(detail["spans"], parent=execute)
                self.tracer.end(execute, terminal=True, result=kind)
        if kind == "done":
            job.state = "failed" if detail["status"] == "failed" else "done"
            job.status = detail["status"]
            job.digest = detail["digest"]
            job.wall_s = detail["wall_s"]
            job.throughput = detail["throughput"]
            job.quality = detail["quality"]
            if job.state == "done":
                self.metrics.jobs_done += 1
                if job.status == "degraded":
                    self.metrics.jobs_degraded += 1
            else:
                self.metrics.jobs_failed += 1
                job.error = f"data quality poor: {detail['quality']}"
            self.metrics.observe_wall(job.spec.scenario, detail["wall_s"])
        else:  # failed: the session raised
            job.state = "failed"
            job.status = "failed"
            job.error = detail
            self.metrics.jobs_failed += 1
        job.finished_s = time.time()
        self._job_finished(job)
        self._dispatch()

    def _job_finished(self, job: Job) -> None:
        """Hook for terminal transitions; cluster mode commits the
        result record and releases the job's lease here."""

    def _on_worker_death(self, worker_id: int) -> None:
        """EOF on a worker's pipe: requeue the job it held and, unless
        draining, fork its replacement."""
        for job_id, assigned in list(self.running.items()):
            if assigned != worker_id:
                continue
            del self.running[job_id]
            job = self.jobs[job_id]
            job.state = "queued"
            self.metrics.job_retries += 1
            if self.tracer.enabled:
                execute = self._exec_spans.pop(job_id, None)
                if execute is not None:
                    self.tracer.end(execute, terminal=False, result="worker-crash")
                self._wait_spans[job_id] = self.tracer.begin(
                    "queue-wait", job_id=job_id, retry=True
                )
            self.queue.force_push(job)
        if not self.draining:
            self.metrics.worker_restarts += 1
            self.pool.spawn()
            self._dispatch()

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode(error_response("request line too long")))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._respond(line)
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            del self._connections[task]

    async def _respond(self, line: bytes | str) -> dict:
        """Handle one request line; op handlers may be coroutines (the
        cluster's forwarding op awaits a peer without blocking the loop)."""
        response = self._handle_line(line)
        if inspect.isawaitable(response):
            try:
                response = await response
            except ServeError as exc:
                response = error_response(str(exc))
        return response

    def _handle_line(self, line: bytes | str) -> dict:
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            return error_response(str(exc))
        try:
            return self._handle(message)
        except ServeError as exc:
            return error_response(str(exc))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _handle(self, message: dict) -> dict:
        op = message["op"]
        handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
        if handler is None:
            raise ServeError(f"unknown op {op!r}")
        return handler(message)

    def _op_ping(self, _message: dict) -> dict:
        return {
            "ok": True,
            "version": __version__,
            "scenarios": sorted(SCENARIOS),
            "workers": self.pool.nworkers,
            "draining": self.draining,
        }

    def _op_submit(self, message: dict) -> dict:
        if self.draining:
            return error_response("server is draining", code="draining")
        spec = JobSpec.from_wire(message)
        return self._accept(spec)

    def _next_job_id(self, spec: JobSpec) -> str:
        job_id = f"job-{self._seq:05d}-{spec.digest()[:8]}"
        self._seq += 1
        return job_id

    def _accept(
        self, spec: JobSpec, job_id: str | None = None, force: bool = False
    ) -> dict:
        """Admit a validated spec: enqueue or reject with backpressure.

        Shared by local submits, forwarded cluster submissions (which
        carry the originating node's ``job_id``), and lease reclaims
        (which pass ``force=True`` -- a reclaimed job must never be
        lost to a momentarily full queue).
        """
        if self.tracer.enabled and not spec.trace:
            # A tracing server traces its jobs too, so worker subtrees
            # can be adopted; digest-excluded, so archives are unchanged.
            spec = replace(spec, trace=True)
        if job_id is None:
            job_id = self._next_job_id(spec)
        job = Job(job_id=job_id, spec=spec)
        try:
            if force:
                self.queue.force_push(job)
            else:
                self.queue.push(job)
        except QueueFullError:
            self.metrics.jobs_rejected += 1
            retry_after = self.metrics.retry_after_s(
                len(self.queue), self.pool.nworkers
            )
            return error_response(
                f"queue is full ({self.queue.maxsize} jobs); retry later",
                code="queue_full",
                retry_after_s=retry_after,
            )
        self.jobs[job_id] = job
        self.metrics.jobs_submitted += 1
        if self.tracer.enabled:
            self._wait_spans[job_id] = self.tracer.begin(
                "queue-wait", job_id=job_id, scenario=spec.scenario
            )
        self._dispatch()
        return {
            "ok": True,
            "job_id": job_id,
            "state": job.state,
            "position": len(self.queue),
        }

    def _op_status(self, message: dict) -> dict:
        job_id = _str_field(message, "job_id")
        if job_id is not None:
            job = self.jobs.get(job_id)
            if job is None:
                raise ServeError(f"unknown job {job_id!r}")
            return {"ok": True, "job": job.to_wire()}
        return {
            "ok": True,
            "jobs": [job.to_wire() for job in self.jobs.values()],
            "queue_depth": len(self.queue),
            "running": len(self.running),
        }

    def _op_fetch(self, message: dict) -> dict:
        digest = _str_field(message, "digest")
        if digest is None:
            job_id = _str_field(message, "job_id")
            job = self.jobs.get(job_id)
            if job is None:
                # Allow fetching by archive digest through the same field
                # (the CLI's positional argument is "job id or digest").
                if job_id and self.store.has(job_id):
                    digest = job_id
                else:
                    raise ServeError(f"unknown job {job_id!r}")
            elif job.digest is None:
                raise ServeError(
                    f"job {job_id} has no stored result (state: {job.state})"
                )
            else:
                digest = job.digest
        view = message.get("view", "data-profile")
        try:
            top = int(message.get("top", 8))
        except (TypeError, ValueError) as exc:
            raise ServeError(f"field 'top' is not an integer: {exc}") from exc
        rendered = self.store.render_view(
            digest,
            view,
            type_name=_str_field(message, "type"),
            top=top,
            tracer=self.tracer,
        )
        response = {"ok": True, "digest": digest, "view": view}
        if view == "archive":
            response["archive"] = rendered
        else:
            response["rendered"] = rendered
        return response

    def _op_list(self, _message: dict) -> dict:
        return {"ok": True, "archives": self.store.listing()}

    def _op_metrics(self, _message: dict) -> dict:
        depth, running = len(self.queue), len(self.running)
        # The view cache counts its own traffic; mirror it into the
        # metrics registry so one snapshot carries everything.
        self.metrics.view_cache_hits = self.store.views.hits
        self.metrics.view_cache_misses = self.store.views.misses
        return {
            "ok": True,
            "counters": self.metrics.counters(depth, running),
            "rendered": self.metrics.render(depth, running),
        }

    def _op_shutdown(self, _message: dict) -> dict:
        self.request_drain()
        return {"ok": True, "draining": True}


def _str_field(message: dict, name: str) -> str | None:
    """A request's string field, or None when it is absent or null.

    Any other type fails the request, not the connection."""
    value = message.get(name)
    if value is not None and not isinstance(value, str):
        raise ServeError(f"field {name!r} must be a string, not {value!r}")
    return value
