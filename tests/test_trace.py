"""repro.trace: deterministic ids, adoption, export, overhead, reconcile.

Covers the PR's two acceptance gates directly:

- tracing-on bench smoke wall time regresses <5% vs tracing-off
  (``test_tracing_overhead_under_five_percent``);
- a 10-job serve burst's span counts reconcile exactly with the
  ServeMetrics counters (``test_serve_burst_spans_reconcile``).
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench import bench_self_profile
from repro.serve.jobs import JobSpec
from repro.serve.protocol import request_once
from repro.serve.workers import execute_job, execute_job_to_store
from repro.trace import (
    NULL_TRACER,
    SimProbe,
    Span,
    TraceError,
    Tracer,
    config_fingerprint,
    critical_path,
    load_trace,
    parse_trace,
    reconcile_serve,
    render_tree,
    span_id_for,
    stage_totals,
)

HOST = "127.0.0.1"
BOOT_TIMEOUT_S = 20.0


# ----------------------------------------------------------------------
# Deterministic span identity
# ----------------------------------------------------------------------


def _build(seed):
    tracer = Tracer(seed=seed)
    with tracer.span("run"):
        with tracer.span("scenario"):
            with tracer.span("machine-sim"):
                tracer.add(probe_steps=7)
        with tracer.span("analysis"):
            pass
        with tracer.span("analysis"):
            pass
    return tracer


def test_span_ids_deterministic_across_runs():
    first, second = _build(seed=5), _build(seed=5)
    shape = lambda t: [(s.span_id, s.parent_id, s.name, s.path) for s in t.spans]
    assert shape(first) == shape(second)
    # Ids are pure functions of (seed, path) -- recomputable offline.
    for span in first.spans:
        assert span.span_id == span_id_for(5, span.path)


def test_span_ids_differ_by_seed_but_paths_agree():
    first, second = _build(seed=5), _build(seed=6)
    assert [s.path for s in first.spans] == [s.path for s in second.spans]
    assert all(
        a.span_id != b.span_id for a, b in zip(first.spans, second.spans)
    )


def test_sibling_spans_get_occurrence_suffixes():
    tracer = _build(seed=1)
    paths = sorted(s.path for s in tracer.spans if s.name == "analysis")
    assert paths == ["run#0/analysis#0", "run#0/analysis#1"]


def test_adopt_is_canonical_across_tracers():
    blobs = [
        {
            "kind": "span",
            "id": "job-1",
            "parent": None,
            "name": "worker-execute",
            "path": "worker-execute#1",
            "start_s": 0.0,
            "wall_s": 0.25,
            "cpu_s": 0.2,
            "counters": {"job_index": 1},
        },
        {
            "kind": "span",
            "id": "job-0",
            "parent": None,
            "name": "worker-execute",
            "path": "worker-execute#0",
            "start_s": 0.0,
            "wall_s": 0.5,
            "cpu_s": 0.4,
            "counters": {"job_index": 0},
        },
    ]

    def adopt_under(seed):
        tracer = Tracer(seed=seed)
        with tracer.span("queue-wait") as parent:
            tracer.adopt(blobs, parent=parent)
        return tracer

    first, second = adopt_under(9), adopt_under(9)
    assert [s.span_id for s in first.spans] == [s.span_id for s in second.spans]
    adopted = [s for s in first.spans if s.name == "worker-execute"]
    assert len(adopted) == 2
    # Re-keyed through the parent's allocator in caller order, wall/cpu
    # and counters preserved from the foreign blobs.
    assert {s.counters["job_index"]: s.wall_s for s in adopted} == {
        1: 0.25,
        0: 0.5,
    }
    parent_id = next(s.span_id for s in first.spans if s.name == "queue-wait")
    assert all(s.parent_id == parent_id for s in adopted)


# ----------------------------------------------------------------------
# Export / parse round-trip and rendering
# ----------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tracer = _build(seed=3)
    manifest = tracer.manifest(
        fingerprint=config_fingerprint({"seed": 3}),
        quality="ok",
    )
    path = tracer.write_jsonl(tmp_path / "t" / "run.trace.jsonl", manifest)
    loaded_manifest, spans = load_trace(path)
    assert loaded_manifest["kind"] == "manifest"
    assert loaded_manifest["quality"] == "ok"
    assert loaded_manifest["spans"] == len(tracer.spans) == len(spans)
    assert [s.span_id for s in spans] == [s.span_id for s in tracer.spans]
    totals = stage_totals(spans)
    assert totals == loaded_manifest["stages"]
    assert totals["analysis"]["count"] == 2


def test_parse_trace_rejects_garbage():
    with pytest.raises(TraceError):
        parse_trace("not json\n")
    with pytest.raises(TraceError):
        parse_trace(json.dumps({"kind": "mystery"}) + "\n")
    with pytest.raises(TraceError):
        Span.from_blob({"kind": "span", "id": "x"})


def test_render_tree_and_critical_path():
    tracer = _build(seed=3)
    text = render_tree(tracer.spans, None)
    assert "run" in text and "machine-sim" in text
    assert "critical path:" in text
    leaf = critical_path(tracer.spans)[-1]
    assert leaf.name in {"machine-sim", "analysis"}


# ----------------------------------------------------------------------
# Instrumented execution: determinism and byte-transparency
# ----------------------------------------------------------------------


def _spec(**extra):
    return JobSpec.create(
        scenario="synthetic", seed=13, duration=30_000, **extra
    )


def test_traced_run_archive_bytes_identical_to_untraced():
    _, plain, _ = execute_job(_spec())
    tracer = Tracer(seed=13)
    _, traced, _ = execute_job(_spec(), tracer=tracer)
    assert plain == traced
    names = {s.name for s in tracer.spans}
    assert {"run", "scenario", "machine-sim"} <= names
    run = next(s for s in tracer.spans if s.name == "run")
    assert run.counters["instructions"] > 0
    sim = next(s for s in tracer.spans if s.name == "machine-sim")
    assert sim.counters["probe_steps"] > 0


def test_traced_run_span_ids_repeat_exactly():
    shapes = []
    for _ in range(2):
        tracer = Tracer(seed=13)
        execute_job(_spec(), tracer=tracer)
        shapes.append([(s.span_id, s.parent_id, s.path) for s in tracer.spans])
    assert shapes[0] == shapes[1]


def test_trace_flag_does_not_change_job_digest(tmp_path):
    assert _spec(trace=True).digest() == _spec().digest()
    outcome = execute_job_to_store(_spec(trace=True), tmp_path / "store")
    trace_path = Path(outcome["trace_path"])
    assert trace_path.name == outcome["digest"] + ".trace.jsonl"
    manifest, spans = load_trace(trace_path)
    assert manifest["digest"] == outcome["digest"]
    assert any(s.name == "store-put" for s in spans)


def test_null_tracer_and_probe_are_inert():
    assert not NULL_TRACER.enabled
    with NULL_TRACER.span("run") as handle:
        assert handle is None
    NULL_TRACER.add(x=1)
    assert NULL_TRACER.to_blobs() == []
    probe = SimProbe(sample_every=2, max_samples=3)

    class FakeMachine:
        total_instructions = 0

        def elapsed_cycles(self):
            return self.total_instructions * 2

    machine = FakeMachine()
    for step in range(10):
        machine.total_instructions = step * 16
        probe.tick(machine)
    counters = probe.counters()
    assert counters["probe_steps"] == 10
    assert 0 < counters["probe_samples"] <= 3


# ----------------------------------------------------------------------
# Acceptance gate 1: <5% overhead on the bench smoke scenario
# ----------------------------------------------------------------------


def test_tracing_overhead_under_five_percent():
    profile = bench_self_profile(repeats=5)
    assert profile["spans"] >= 3
    assert profile["stages"]["machine-sim"]["count"] == 1
    # Min-of-5 keeps scheduler noise out; the gate itself is the PR's
    # acceptance criterion (sampled counters, never per-event spans).
    assert profile["overhead_pct"] < 5.0, profile


# ----------------------------------------------------------------------
# Acceptance gate 2: 10-job serve burst reconciles span counts exactly
# ----------------------------------------------------------------------


def _start_server(tmp_path, workers=2):
    port_file = tmp_path / "port"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(workers),
            "--store", str(tmp_path / "store"),
            "--port-file", str(port_file),
            "--trace",
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


@pytest.mark.slow
def test_serve_burst_spans_reconcile(tmp_path):
    proc, port = _start_server(tmp_path)
    try:
        job_ids = []
        for seed in range(10):
            response = request_once(
                HOST,
                port,
                {
                    "op": "submit",
                    "scenario": "synthetic",
                    "seed": seed,
                    "duration": 30_000,
                },
            )
            assert response.get("ok"), response
            job_ids.append(response["job_id"])
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            jobs = request_once(HOST, port, {"op": "status"})["jobs"]
            states = {j["job_id"]: j["state"] for j in jobs}
            if all(
                states.get(i) in {"done", "failed", "requeued"}
                for i in job_ids
            ):
                break
            time.sleep(0.1)
        else:
            raise AssertionError(f"burst did not settle: {states}")
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        if proc.stdout:
            proc.stdout.close()

    manifest, spans = load_trace(tmp_path / "store" / "server.trace.jsonl")
    counters = manifest["counters"]
    assert counters["jobs_submitted"] == 10
    # The metrics identity, restated and then cross-checked span-by-span.
    assert (
        counters["jobs_submitted"]
        == counters["jobs_done"]
        + counters["jobs_failed"]
        + counters["jobs_requeued"]
    )
    report = reconcile_serve(spans, counters)
    assert report["ok"], report
    assert report["span_counts"]["worker-execute"] == (
        counters["jobs_done"] + counters["jobs_failed"]
    )
    # Worker subtrees were adopted under their execute spans: every done
    # job contributes a run span with deterministic, seed-derived ids.
    runs = [s for s in spans if s.name == "run"]
    assert len(runs) == counters["jobs_done"]
