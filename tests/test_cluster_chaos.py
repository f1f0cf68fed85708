"""Chaos tests for the serve federation: real node processes, real kills.

The acceptance bar from the federation design: a 3-node cluster takes a
20+ job burst, one node is SIGKILLed mid-burst, and the cluster ends
with zero lost jobs, zero duplicated results, bit-identical archives,
and reconciled per-node metrics.  The kill schedule comes from
:class:`repro.faults.chaos.ChaosPlan`, so a failing run replays with the
identical victim and firing time.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import FaultInjectionError
from repro.faults.chaos import ACTION_KINDS, ChaosAction, ChaosPlan, execute
from repro.api import JobSpec, request_once
from repro.serve.cluster import CLUSTER_DIR, RESULTS_DIR
from repro.serve.store import SessionStore
from repro.serve.workers import execute_job
from tests.process_helpers import child_pids, kill_quietly, stop_server

HOST = "127.0.0.1"
BOOT_TIMEOUT_S = 20.0
SHORT_JOB = 100_000
#: Long enough (~1s) that the victim still holds these when killed:
#: six of them on two workers outlast the kill's 2 s window.
LONG_JOB = 6_000_000

#: Aggressive liveness so dead-peer reclaim happens in test time.
DETECTOR_FLAGS = [
    "--heartbeat-interval", "0.2",
    "--suspect-after", "0.8",
    "--dead-after", "1.6",
    "--lease-timeout", "1.6",
]


def _start_node(tmp_path, node_id, *, workers=2):
    """Boot one ``repro.cli cluster`` node against the shared store."""
    port_file = tmp_path / f"{node_id}.port"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "cluster",
            "--node-id", node_id,
            "--workers", str(workers),
            "--queue-size", "64",
            "--store", str(tmp_path / "store"),
            "--drain-grace", "15",
            "--port-file", str(port_file),
            *DETECTOR_FLAGS,
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
            raise AssertionError(f"{node_id} died at boot:\n{proc.stdout.read()}")
        time.sleep(0.05)
    proc.kill()
    raise AssertionError(f"{node_id} did not write its port file in time")


def _submit(port, scenario, seed, duration, **extra):
    response = request_once(
        HOST, port,
        {"op": "submit", "scenario": scenario, "seed": seed,
         "duration": duration, **extra},
    )
    assert response.get("ok"), response
    return response["job_id"]


def _read_results(tmp_path):
    """job_key -> committed result record, straight off the store."""
    results_dir = tmp_path / "store" / CLUSTER_DIR / RESULTS_DIR
    out = {}
    for path in results_dir.glob("*.json"):
        out[path.stem] = json.loads(path.read_text())
    return out


def _wait_results(tmp_path, expected_keys, timeout_s=90.0):
    deadline = time.monotonic() + timeout_s
    results = {}
    while time.monotonic() < deadline:
        results = _read_results(tmp_path)
        if expected_keys <= set(results):
            return results
        time.sleep(0.2)
    missing = sorted(expected_keys - set(results))
    raise AssertionError(f"jobs never committed results: {missing}")


def _cluster_status(port):
    response = request_once(HOST, port, {"op": "cluster-status"})
    assert response.get("ok"), response
    return response


def _metrics(port):
    return request_once(HOST, port, {"op": "metrics"})["counters"]


# ----------------------------------------------------------------------
# The plan itself (fast, no processes)
# ----------------------------------------------------------------------


def test_chaos_plan_is_deterministic_and_bounded():
    nodes = ["node-a", "node-b", "node-c", "node-d"]
    first = ChaosPlan(seed=41).schedule(nodes, window_s=10.0, kills=2, stalls=1)
    again = ChaosPlan(seed=41).schedule(nodes, window_s=10.0, kills=2, stalls=1)
    assert first == again
    assert len(first) == 3
    assert len({action.target for action in first}) == 3  # distinct victims
    for action in first:
        assert action.kind in ACTION_KINDS
        assert 2.5 < action.at_s < 7.5  # strictly mid-window
        assert "node-" in action.describe()
    # At least one node always survives the plan.
    with pytest.raises(FaultInjectionError):
        ChaosPlan(seed=1).schedule(nodes, window_s=5.0, kills=3, stalls=1)
    with pytest.raises(FaultInjectionError):
        execute(
            ChaosAction(kind="meteor", target="node-a", at_s=0.0),
            procs={}, ports={},
        )


# ----------------------------------------------------------------------
# Live clusters
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_cluster_routes_and_commits_every_job(tmp_path):
    """2 nodes, 8 distinct jobs into one node: routing spreads them,
    every job commits exactly one result, both nodes reconcile."""
    node_a, port_a = _start_node(tmp_path, "alpha")
    node_b, port_b = _start_node(tmp_path, "beta")
    try:
        # Let the nodes discover each other before routing matters.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(_cluster_status(port_a)["ring"]) == 2:
                break
            time.sleep(0.1)
        assert _cluster_status(port_a)["ring"] == ["alpha", "beta"]

        job_ids = [
            _submit(port_a, "synthetic", seed=500 + i, duration=SHORT_JOB)
            for i in range(8)
        ]
        assert len(set(job_ids)) == 8
        results = _wait_results(tmp_path, set(job_ids), timeout_s=60.0)
        assert set(results) == set(job_ids)  # none lost, none invented
        assert all(record["state"] == "done" for record in results.values())
        assert {record["node"] for record in results.values()} == {"alpha", "beta"}

        # Per-node books balance, and each node's jobs_done matches the
        # results it committed -- the cluster-wide reconciliation.
        for port, name in ((port_a, "alpha"), (port_b, "beta")):
            counters = _metrics(port)
            assert counters["reconciled"] is True
            committed = sum(
                1 for record in results.values() if record["node"] == name
            )
            assert counters["jobs_done"] == committed
        assert _metrics(port_a)["jobs_routed"] == sum(
            1 for record in results.values() if record["node"] == "beta"
        )

        # A routed job's archive equals the in-process run of its spec.
        spec = JobSpec.create(scenario="synthetic", seed=500, duration=SHORT_JOB)
        _, local_text, _ = execute_job(spec)
        store = SessionStore(tmp_path / "store")
        assert store.read_text(results[job_ids[0]]["digest"]) == local_text

        # Graceful drain: leases and node records leave no residue.
        for port in (port_a, port_b):
            assert request_once(HOST, port, {"op": "shutdown"})["ok"]
        node_a.wait(timeout=30)
        node_b.wait(timeout=30)
        assert node_a.returncode == 0 and node_b.returncode == 0
        base = tmp_path / "store" / CLUSTER_DIR
        assert list((base / "leases").glob("*.json")) == []
        assert list((base / "nodes").glob("*.json")) == []
    finally:
        stop_server(node_a)
        stop_server(node_b)


@pytest.mark.slow
def test_cluster_sigkill_loses_and_duplicates_nothing(tmp_path):
    """The acceptance chaos run: 3 nodes, 20-job burst, SIGKILL one
    mid-burst.  Survivors reclaim the victim's leases; every job ends
    with exactly one committed result and bit-identical archives."""
    names = ["chaos-a", "chaos-b", "chaos-c"]
    procs, ports = {}, {}
    victim_workers = []
    try:
        for name in names:
            procs[name], ports[name] = _start_node(tmp_path, name)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(_cluster_status(ports[names[0]])["ring"]) == 3:
                break
            time.sleep(0.1)

        plan = ChaosPlan(seed=2026)
        action = plan.schedule(names, window_s=2.0, kills=1)[0]
        victim = action.target
        survivors = [name for name in names if name != victim]

        burst_start = time.monotonic()
        job_ids = []
        # Six long jobs pinned to the victim: these are what it holds
        # when the kill lands.
        for i in range(6):
            job_ids.append(
                _submit(
                    ports[victim], "synthetic", seed=700 + i,
                    duration=LONG_JOB, route="local",
                )
            )
        # Fourteen short jobs sprayed across all nodes; the ring routes
        # them wherever their digests land (possibly the victim too).
        for i in range(14):
            job_ids.append(
                _submit(
                    ports[names[i % 3]], "synthetic", seed=800 + i,
                    duration=SHORT_JOB,
                )
            )
        assert len(set(job_ids)) == 20

        victim_workers = child_pids(procs[victim].pid)
        delay = action.at_s - (time.monotonic() - burst_start)
        if delay > 0:
            time.sleep(delay)
        execute(action, procs=procs, ports=ports)
        procs[victim].wait(timeout=10)
        # SIGKILL skips the mp cleanup: reap the victim's orphaned
        # workers so they cannot keep publishing results.
        kill_quietly(victim_workers)

        results = _wait_results(tmp_path, set(job_ids), timeout_s=120.0)
        # Zero lost, zero duplicated: exactly one result per submitted
        # job (the results dir is O_EXCL, one file per key).
        assert set(results) == set(job_ids)
        assert all(record["state"] == "done" for record in results.values())

        # The victim's unfinished jobs were reclaimed and finished by
        # someone else.
        reclaimed = [
            key for key, record in results.items()
            if key.startswith(f"cj-{victim}-") and record["node"] != victim
        ]
        assert reclaimed, "the kill landed after the victim finished everything"

        # Archives are bit-identical to an in-process run of the same
        # spec, reclaim or not.
        store = SessionStore(tmp_path / "store")
        spec = JobSpec.create(scenario="synthetic", seed=700, duration=LONG_JOB)
        _, local_text, _ = execute_job(spec)
        assert store.read_text(results[job_ids[0]]["digest"]) == local_text

        # Cluster-wide reconciliation across the survivors: books
        # balance on each node and jobs_done matches committed results.
        total_reclaimed = 0
        for name in survivors:
            counters = _metrics(ports[name])
            assert counters["reconciled"] is True, counters
            committed = sum(
                1 for record in results.values() if record["node"] == name
            )
            assert counters["jobs_done"] == committed
            total_reclaimed += counters["jobs_reclaimed"]
        assert total_reclaimed >= len(reclaimed)

        # The survivors agree the victim is dead and off the ring.
        status = _cluster_status(ports[survivors[0]])
        assert sorted(status["ring"]) == sorted(survivors)
        dead = {
            node["node_id"]: node["state"]
            for node in status["nodes"]
            if node["node_id"] == victim
        }
        assert dead == {victim: "dead"}
    finally:
        for proc in procs.values():
            stop_server(proc)
        kill_quietly(victim_workers)


@pytest.mark.slow
def test_cluster_heartbeat_stall_suspects_then_recovers(tmp_path):
    """Stalled heartbeats decay a peer to suspect/dead; resuming them
    resurrects it without any reclaim."""
    node_a, port_a = _start_node(tmp_path, "steady")
    node_b, port_b = _start_node(tmp_path, "flaky")
    try:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(_cluster_status(port_a)["ring"]) == 2:
                break
            time.sleep(0.1)

        execute(
            ChaosAction(
                kind="stall-heartbeats", target="flaky", at_s=0.0,
                duration_s=1.5,
            ),
            procs={}, ports={"flaky": port_b},
        )

        def flaky_state():
            nodes = _cluster_status(port_a)["nodes"]
            return {n["node_id"]: n["state"] for n in nodes}["flaky"]

        decayed = False
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if flaky_state() in ("suspect", "dead"):
                decayed = True
                break
            time.sleep(0.05)
        assert decayed, "stalled peer never left 'alive'"

        recovered = False
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if flaky_state() == "alive":
                recovered = True
                break
            time.sleep(0.05)
        assert recovered, "peer never resurrected after the stall"
        assert _metrics(port_a)["peers_suspected"] >= 1
        # Nothing was running, so nothing was reclaimed.
        assert _metrics(port_a)["jobs_reclaimed"] == 0
        assert _cluster_status(port_a)["ring"] == ["flaky", "steady"]
    finally:
        stop_server(node_a)
        stop_server(node_b)


@pytest.mark.slow
def test_cluster_restart_under_same_id_reruns_its_jobs(tmp_path):
    """A node SIGKILLed and restarted under its own id heartbeats again,
    so its peer never reclaims the old leases: the restarted node takes
    those jobs over itself, and every job still commits once."""
    procs, ports = {}, {}
    old_workers = []
    try:
        for name in ("phoenix", "witness"):
            procs[name], ports[name] = _start_node(tmp_path, name)
        job_ids = [
            _submit(
                ports["phoenix"], "synthetic", seed=900 + i,
                duration=LONG_JOB, route="local",
            )
            for i in range(4)
        ]
        time.sleep(0.3)  # both workers are mid-job
        old_workers = child_pids(procs["phoenix"].pid)
        procs["phoenix"].kill()
        procs["phoenix"].wait(timeout=10)
        kill_quietly(old_workers)
        (tmp_path / "phoenix.port").unlink()
        procs["phoenix"], ports["phoenix"] = _start_node(tmp_path, "phoenix")

        results = _wait_results(tmp_path, set(job_ids), timeout_s=60.0)
        assert set(results) == set(job_ids)
        assert all(record["state"] == "done" for record in results.values())
        taken_over = sum(_metrics(ports[name])["jobs_reclaimed"] for name in ports)
        assert taken_over >= 1, "the kill landed after every job finished"
        for port in ports.values():
            assert _metrics(port)["reconciled"] is True

        # The restart counts job ids from 0 again but skips the old keys.
        fresh = _submit(
            ports["phoenix"], "synthetic", seed=900, duration=SHORT_JOB,
            route="local",
        )
        assert fresh not in job_ids
    finally:
        for proc in procs.values():
            stop_server(proc)
        kill_quietly(old_workers)
