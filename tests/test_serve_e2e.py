"""End-to-end service tests: a real server subprocess driven over TCP.

These are the acceptance tests for ``repro.serve``: concurrent mixed
bursts with zero lost/duplicated jobs, results bit-identical to one-shot
runs, a clean SIGTERM drain that requeues or finishes everything in
flight, and a pool that survives killed workers and dies with its server.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import JobSpec, request_once
from repro.serve.store import SessionStore
from repro.serve.workers import execute_job
from tests.process_helpers import child_pids, kill_quietly, stop_server

HOST = "127.0.0.1"
BOOT_TIMEOUT_S = 20.0
#: Small windows keep each job ~0.1 s so bursts stay fast.
DURATION = 100_000


def _start_server(tmp_path, workers=2, queue_size=64, drain_grace=10.0):
    """Boot ``repro.cli serve`` and wait for the port file."""
    port_file = tmp_path / "port"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(workers),
            "--queue-size", str(queue_size),
            "--store", str(tmp_path / "store"),
            "--drain-grace", str(drain_grace),
            "--port-file", str(port_file),
        ],
        cwd=Path(__file__).resolve().parent.parent,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text())
        if proc.poll() is not None:
            raise AssertionError(f"server died at boot:\n{proc.stdout.read()}")
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("server did not write its port file in time")


def _rpc(port, message, timeout=10.0):
    return request_once(HOST, port, message, timeout=timeout)


def _submit(port, scenario, seed, **extra):
    spec = {"scenario": scenario, "seed": seed, "duration": DURATION, **extra}
    response = _rpc(port, {"op": "submit", **spec})
    assert response.get("ok"), response
    return response["job_id"]


def _wait_all(port, job_ids, timeout_s=60.0):
    """Poll until every job reaches a terminal state; returns id -> job."""
    deadline = time.monotonic() + timeout_s
    jobs = {}
    while time.monotonic() < deadline:
        response = _rpc(port, {"op": "status"})
        jobs = {j["job_id"]: j for j in response["jobs"]}
        states = {jobs[i]["state"] for i in job_ids if i in jobs}
        if states <= {"done", "failed", "requeued"} and len(jobs) >= len(job_ids):
            return jobs
        time.sleep(0.1)
    raise AssertionError(f"jobs did not settle: { {i: jobs.get(i, {}).get('state') for i in job_ids} }")


def _counters(port):
    return _rpc(port, {"op": "metrics"})["counters"]


def _wait_restarts(port, count, timeout_s=20.0):
    """Poll until the server has counted *count* worker restarts."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        restarts = _counters(port)["worker_restarts"]
        if restarts >= count:
            return restarts
        time.sleep(0.05)
    raise AssertionError(f"worker_restarts stayed at {restarts}, wanted {count}")


def _wait_running(port, job_id, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = _rpc(port, {"op": "status", "job_id": job_id})["job"]
        if job["state"] == "running":
            return
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never ran: {job['state']}")


def _threads(pid):
    return len(list(Path(f"/proc/{pid}/task").iterdir()))


def _alive(pid):
    """True while *pid* runs; a zombie waiting for its reaper has exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.slow
def test_serve_submit_fetch_and_metrics(tmp_path):
    proc, port = _start_server(tmp_path)
    try:
        assert _rpc(port, {"op": "ping"})["ok"]
        job_id = _submit(port, "synthetic", seed=5)
        jobs = _wait_all(port, [job_id])
        assert jobs[job_id]["state"] == "done"
        assert jobs[job_id]["status"] == "ok"

        fetched = _rpc(port, {"op": "fetch", "job_id": job_id})
        assert fetched["ok"]
        assert "Data profile view" in fetched["rendered"]

        # The archive view returns the raw bytes, addressable by digest too.
        by_digest = _rpc(
            port,
            {"op": "fetch", "job_id": jobs[job_id]["digest"], "view": "archive"},
        )
        assert by_digest["ok"]
        assert json.loads(by_digest["archive"])

        metrics = _rpc(port, {"op": "metrics"})
        assert metrics["counters"]["jobs_done"] == 1
        assert metrics["counters"]["reconciled"] is True
        assert "repro_serve_jobs_done 1" in metrics["rendered"]

        # One thread in the server and in each worker: pipes, no pump.
        workers = child_pids(proc.pid)
        assert len(workers) == 2
        assert [_threads(pid) for pid in [proc.pid, *workers]] == [1, 1, 1]
    finally:
        stop_server(proc)


@pytest.mark.slow
def test_serve_results_bit_identical_to_one_shot(tmp_path):
    """A fetched archive equals executing the same spec in-process."""
    spec = JobSpec.create(
        scenario="memcached", seed=23, duration=DURATION
    )
    _, local_text, _ = execute_job(spec)

    proc, port = _start_server(tmp_path)
    try:
        response = _rpc(port, {"op": "submit", **spec.to_wire()})
        job_id = response["job_id"]
        jobs = _wait_all(port, [job_id])
        served = _rpc(port, {"op": "fetch", "job_id": job_id, "view": "archive"})
        assert served["archive"] == local_text
    finally:
        stop_server(proc)
    # And the on-disk archive is the same bytes under its content digest.
    store = SessionStore(tmp_path / "store")
    assert store.read_text(jobs[job_id]["digest"]) == local_text


@pytest.mark.slow
def test_serve_concurrent_mixed_burst(tmp_path):
    """20 mixed jobs on 4 workers: none lost, none duplicated, one degraded."""
    proc, port = _start_server(tmp_path, workers=4)
    try:
        job_ids = []
        scenarios = ["memcached", "apache", "synthetic"]
        for i in range(19):
            job_ids.append(_submit(port, scenarios[i % 3], seed=100 + i))
        job_ids.append(
            _submit(
                port, "memcached", seed=200,
                fault_spec="ibs_drop=0.3,seed=3",
            )
        )
        assert len(set(job_ids)) == 20  # no duplicated ids

        jobs = _wait_all(port, job_ids, timeout_s=120.0)
        assert len(jobs) == 20  # no lost jobs
        states = [jobs[i]["state"] for i in job_ids]
        assert states == ["done"] * 20
        statuses = [jobs[i]["status"] for i in job_ids]
        assert statuses[:19] == ["ok"] * 19
        assert statuses[19] == "degraded"

        metrics = _rpc(port, {"op": "metrics"})["counters"]
        assert metrics["jobs_submitted"] == 20
        assert metrics["jobs_done"] == 20
        assert metrics["jobs_degraded"] == 1
        assert metrics["reconciled"] is True
        # Equal specs dedup in the content-addressed store; distinct seeds
        # mean every job here is unique.
        assert len(SessionStore(tmp_path / "store").digests()) == 20
    finally:
        stop_server(proc)


@pytest.mark.slow
def test_serve_sigterm_drains_and_requeues(tmp_path):
    """SIGTERM mid-burst: every job finishes or is requeued, books balance."""
    proc, port = _start_server(tmp_path, workers=2, drain_grace=10.0)
    try:
        job_ids = [
            _submit(port, "apache", seed=300 + i) for i in range(10)
        ]
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        assert proc.returncode == 0
    finally:
        stop_server(proc)

    store = SessionStore(tmp_path / "store")
    requeued = store.read_requeue()
    finished = len(store.digests())
    # Every submitted job is either archived or persisted for requeue.
    assert finished + len(requeued) >= len(job_ids)
    for spec in requeued:
        assert spec["scenario"] == "apache"
        JobSpec.from_wire(spec)  # still valid for resubmission


@pytest.mark.slow
def test_serve_worker_death_during_drain_still_requeues(tmp_path):
    """Regression: a worker SIGKILLed *during* the drain grace wait used
    to leave its job force_pushed onto the already-drained queue, so it
    never reached requeue.json.  The drain must re-drain and persist it."""
    import os

    proc, port = _start_server(tmp_path, workers=1, drain_grace=15.0)
    try:
        # One long job (several seconds) so it is still in flight when the
        # workers are killed; a 3M-cycle job can finish in about 0.5 s.
        job_id = _submit(port, "synthetic", seed=600, duration=30_000_000)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            job = _rpc(port, {"op": "status", "job_id": job_id})["job"]
            if job["state"] == "running":
                break
            time.sleep(0.05)
        assert job["state"] == "running"
        workers = child_pids(proc.pid)
        assert workers, "no pool worker found"

        proc.send_signal(signal.SIGTERM)
        time.sleep(0.4)  # drain is now inside its grace wait
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode == 0
    finally:
        stop_server(proc)

    requeued = SessionStore(tmp_path / "store").read_requeue()
    assert len(requeued) == 1
    spec = JobSpec.from_wire(requeued[0])
    assert spec.seed == 600 and spec.duration == 30_000_000


@pytest.mark.slow
def test_serve_rejects_when_draining_is_clean(tmp_path):
    """The shutdown op answers, then the server exits by itself."""
    proc, port = _start_server(tmp_path)
    try:
        response = _rpc(port, {"op": "shutdown"})
        assert response["ok"]
        proc.wait(timeout=30)
        assert proc.returncode == 0
        output = proc.stdout.read()
        assert "drained and stopped" in output
        assert "Traceback" not in output, output
    finally:
        stop_server(proc)


@pytest.mark.slow
def test_serve_queue_backpressure(tmp_path):
    """A full queue rejects with retry_after_s instead of blocking."""
    proc, port = _start_server(tmp_path, workers=1, queue_size=2)
    try:
        rejected = None
        for i in range(12):
            response = _rpc(
                port,
                {
                    "op": "submit", "scenario": "apache",
                    "seed": 400 + i, "duration": DURATION,
                },
            )
            if not response.get("ok"):
                rejected = response
                break
        assert rejected is not None, "queue never filled"
        assert rejected["code"] == "queue_full"
        assert rejected["retry_after_s"] > 0
    finally:
        stop_server(proc)


@pytest.mark.slow
def test_serve_worker_death_mid_job_retries_it(tmp_path):
    """A worker SIGKILLed mid-job, with no drain: the job runs again on
    the replacement and finishes, and both counters say so."""
    proc, port = _start_server(tmp_path, workers=1)
    workers = []
    try:
        job_id = _submit(port, "synthetic", seed=610, duration=30_000_000)
        _wait_running(port, job_id)
        time.sleep(0.5)  # well into the run, which takes seconds
        workers = child_pids(proc.pid)
        assert len(workers) == 1
        kill_quietly(workers)
        job = _wait_all(port, [job_id], timeout_s=120.0)[job_id]
        assert job["state"] == "done"
        assert job["attempts"] == 2
        counters = _counters(port)
        assert counters["worker_restarts"] == 1
        assert counters["job_retries"] == 1
    finally:
        stop_server(proc)
        kill_quietly(workers)


@pytest.mark.slow
def test_serve_killed_idle_workers_do_not_wedge_the_pool(tmp_path):
    """Regression: an idle worker blocks reading for its next task.  When
    the workers shared one task queue, a SIGKILLed idle worker died
    holding the queue's reader lock, and no later job ever started."""
    proc, port = _start_server(tmp_path, workers=2, drain_grace=2.0)
    seen = []
    try:
        seen = child_pids(proc.pid)
        assert len(seen) == 2
        kill_quietly(seen)
        assert _wait_restarts(port, 2) == 2
        seen += child_pids(proc.pid)
        job_id = _submit(port, "synthetic", seed=620)
        assert _wait_all(port, [job_id], timeout_s=20.0)[job_id]["state"] == "done"
        assert _rpc(port, {"op": "shutdown"})["ok"]
        proc.wait(timeout=30)
        assert proc.returncode == 0
    finally:
        stop_server(proc)
        kill_quietly(seen)


@pytest.mark.slow
def test_serve_sigterm_to_a_replacement_worker_spares_the_server(tmp_path):
    """Regression: a worker forked after the server installed its signal
    handlers must not inherit them; SIGTERM to it stops that worker only."""
    proc, port = _start_server(tmp_path, workers=2)
    seen = []
    try:
        seen = child_pids(proc.pid)
        assert len(seen) == 2
        kill_quietly(seen[:1])
        _wait_restarts(port, 1)
        replacement = sorted(set(child_pids(proc.pid)) - set(seen))
        assert len(replacement) == 1
        seen += replacement
        os.kill(replacement[0], signal.SIGTERM)
        _wait_restarts(port, 2)
        seen += child_pids(proc.pid)
        ping = _rpc(port, {"op": "ping"})
        assert ping["ok"] and ping["draining"] is False
        job_id = _submit(port, "synthetic", seed=630)
        assert _wait_all(port, [job_id], timeout_s=20.0)[job_id]["state"] == "done"
    finally:
        stop_server(proc)
        kill_quietly(seen)


@pytest.mark.slow
def test_serve_workers_exit_when_the_server_is_killed(tmp_path):
    """Regression: SIGKILL the server and its workers see EOF on their
    pipes and exit instead of waiting forever for a task."""
    proc, port = _start_server(tmp_path, workers=2)
    workers = []
    try:
        assert _rpc(port, {"op": "ping"})["ok"]
        workers = child_pids(proc.pid)
        assert len(workers) == 2
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_alive, workers)):
            time.sleep(0.05)
        assert [pid for pid in workers if _alive(pid)] == []
    finally:
        stop_server(proc)
        kill_quietly(workers)


def _listen_inode(port):
    """Socket inode of the IPv4 TCP listener on *port* (``/proc/net/tcp``)."""
    for row in Path("/proc/net/tcp").read_text().splitlines()[1:]:
        fields = row.split()
        local_port = int(fields[1].rsplit(":", 1)[1], 16)
        if local_port == port and fields[3] == "0A":  # 0A = LISTEN
            return int(fields[9])
    raise AssertionError(f"no listener on port {port}")


def _fd_targets(pid):
    """What each open descriptor of *pid* refers to (``/proc/<pid>/fd``)."""
    targets = []
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            targets.append(os.readlink(fd))
        except OSError:
            continue
    return targets


@pytest.mark.slow
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/fd"
)
def test_serve_replacement_worker_holds_no_server_socket(tmp_path):
    """Regression: a worker forked by a restart inherited the listening
    socket, the event loop's epoll and self-pipe, and kept them open; a
    server SIGKILLed while that worker ran a long job left its port in
    LISTEN, so clients hung instead of being refused."""
    proc, port = _start_server(tmp_path, workers=1)
    seen = []
    try:
        listener = f"socket:[{_listen_inode(port)}]"
        assert listener in _fd_targets(proc.pid)
        seen = child_pids(proc.pid)
        assert len(seen) == 1
        kill_quietly(seen)
        _wait_restarts(port, 1)
        replacement = sorted(set(child_pids(proc.pid)) - set(seen))
        assert len(replacement) == 1
        seen += replacement
        targets = _fd_targets(replacement[0])
        assert listener not in targets
        # Its own pipe end is its one socket; the loop's epoll is gone.
        assert sum(t.startswith("socket:") for t in targets) == 1, targets
        assert not any("eventpoll" in t for t in targets), targets
        job_id = _submit(port, "synthetic", seed=640)
        assert _wait_all(port, [job_id], timeout_s=20.0)[job_id]["state"] == "done"
        assert _rpc(port, {"op": "shutdown"})["ok"]
        proc.wait(timeout=30)
        assert proc.returncode == 0
    finally:
        stop_server(proc)
        kill_quietly(seen)
