"""Unit tests for repro.serve: specs, queue, metrics, store, execution."""

import json

import pytest

from repro.api import JobSpec, SessionStore
from repro.dprof.session_io import load_session
from repro.errors import BenchFormatError, QueueFullError, ServeError
from repro.serve.jobs import Job, JobQueue, status_from_exit_code
from repro.serve.metrics import ServeMetrics
from repro.serve.workers import execute_job, execute_job_to_store
from repro.workloads import SCENARIO_DEFAULTS


# ----------------------------------------------------------------------
# JobSpec
# ----------------------------------------------------------------------


def test_spec_create_resolves_scenario_defaults():
    spec = JobSpec.create(scenario="memcached")
    defaults = SCENARIO_DEFAULTS["memcached"]
    assert spec.cores == defaults.cores
    assert spec.duration == defaults.duration
    assert spec.interval == defaults.interval


def test_spec_create_none_means_unset():
    spec = JobSpec.create(scenario="apache", cores=None, duration=None)
    assert spec.cores == SCENARIO_DEFAULTS["apache"].cores
    assert spec.duration == SCENARIO_DEFAULTS["apache"].duration


def test_spec_create_rejects_unknown_scenario():
    with pytest.raises(ServeError, match="unknown scenario"):
        JobSpec.create(scenario="postgres")


def test_spec_create_rejects_nonpositive_ints():
    with pytest.raises(ServeError, match="cores"):
        JobSpec.create(scenario="memcached", cores=0)
    with pytest.raises(ServeError, match="interval"):
        JobSpec.create(scenario="memcached", interval=-5)


def test_spec_create_rejects_bad_fault_spec():
    with pytest.raises(ServeError, match="fault_spec"):
        JobSpec.create(scenario="memcached", fault_spec="warp_drive=0.5")


def test_spec_digest_excludes_priority():
    a = JobSpec.create(scenario="synthetic", seed=3, priority=0)
    b = JobSpec.create(scenario="synthetic", seed=3, priority=9)
    c = JobSpec.create(scenario="synthetic", seed=4)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_spec_wire_round_trip():
    spec = JobSpec.create(
        scenario="memcached", seed=2, fault_spec="ibs_drop=0.1,seed=7"
    )
    assert JobSpec.from_wire(spec.to_wire()) == spec


def test_spec_from_wire_accepts_old_engine_and_analysis_keys():
    # A submit message from an older client still names the removed
    # engine/analysis knobs; the spec ignores them, so the job gets the
    # same key as the same message without them.
    message = {"op": "submit", "scenario": "memcached", "seed": 5}
    old = JobSpec.from_wire(
        {**message, "engine": "reference", "analysis": "reference"}
    )
    new = JobSpec.from_wire(message)
    assert old == new
    assert old.digest() == new.digest()
    assert "engine" not in old.canonical() and "analysis" not in old.canonical()


def test_status_from_exit_code():
    assert status_from_exit_code(0) == "ok"
    assert status_from_exit_code(3) == "degraded"
    assert status_from_exit_code(4) == "failed"


# ----------------------------------------------------------------------
# JobQueue
# ----------------------------------------------------------------------


def _job(job_id, priority=0):
    return Job(job_id, JobSpec.create(scenario="synthetic", priority=priority))


def test_queue_orders_by_priority_then_fifo():
    q = JobQueue(maxsize=8)
    q.push(_job("a", priority=0))
    q.push(_job("b", priority=5))
    q.push(_job("c", priority=5))
    q.push(_job("d", priority=1))
    assert [q.pop().job_id for _ in range(4)] == ["b", "c", "d", "a"]
    assert q.pop() is None


def test_queue_backpressure_and_force_push():
    q = JobQueue(maxsize=2)
    q.push(_job("a"))
    q.push(_job("b"))
    with pytest.raises(QueueFullError) as exc:
        q.push(_job("c"))
    assert exc.value.retry_after_s > 0
    q.force_push(_job("c"))  # crash-requeue path ignores the bound
    assert len(q) == 3


def test_queue_drain_returns_pop_order():
    q = JobQueue(maxsize=8)
    q.push(_job("low", priority=0))
    q.push(_job("high", priority=3))
    drained = q.drain()
    assert [job.job_id for job in drained] == ["high", "low"]
    assert len(q) == 0


def test_queue_rejects_bad_maxsize():
    with pytest.raises(ServeError):
        JobQueue(maxsize=0)


# ----------------------------------------------------------------------
# ServeMetrics
# ----------------------------------------------------------------------


def test_metrics_reconcile():
    m = ServeMetrics()
    m.jobs_submitted = 10
    m.jobs_done = 6
    m.jobs_failed = 2
    m.jobs_requeued = 1
    assert not m.reconciled()
    assert m.reconciled(queue_depth=1)
    assert m.reconciled(queue_depth=0, running=1)


def test_metrics_wall_percentiles():
    m = ServeMetrics()
    for i in range(1, 101):
        m.observe_wall("memcached", i / 100.0)
    assert m.wall_percentile("memcached", 50) == pytest.approx(0.505, abs=0.01)
    assert m.wall_percentile("memcached", 95) == pytest.approx(0.9505, abs=0.01)
    assert m.wall_percentile("apache", 50) is None


def test_metrics_render_prometheus_style():
    m = ServeMetrics()
    m.jobs_submitted = 3
    m.observe_wall("synthetic", 0.25)
    text = m.render(queue_depth=0, running=0)
    assert "repro_serve_jobs_submitted 3" in text
    assert 'scenario="synthetic"' in text
    assert 'quantile="50"' in text


def test_metrics_counters_dict():
    m = ServeMetrics()
    m.jobs_submitted = 2
    m.jobs_done = 2
    counters = m.counters(queue_depth=0, running=0)
    assert counters["jobs_submitted"] == 2
    assert counters["reconciled"] is True


# ----------------------------------------------------------------------
# SessionStore
# ----------------------------------------------------------------------


def test_store_put_is_content_addressed_and_idempotent(tmp_path):
    store = SessionStore(tmp_path)
    digest1 = store.put_text('{"x": 1}')
    digest2 = store.put_text('{"x": 1}')
    digest3 = store.put_text('{"x": 2}')
    assert digest1 == digest2
    assert digest1 != digest3
    assert store.has(digest1)
    assert store.read_text(digest1) == '{"x": 1}'
    assert sorted(store.digests()) == sorted([digest1, digest3])


def test_store_verify_detects_tampering(tmp_path):
    store = SessionStore(tmp_path)
    digest = store.put_text('{"x": 1}')
    assert store.verify(digest)
    store.path_for(digest).write_text('{"x": 999}')
    assert not store.verify(digest)


def test_store_requeue_round_trip(tmp_path):
    store = SessionStore(tmp_path)
    specs = [JobSpec.create(scenario="synthetic", seed=s).to_wire() for s in (1, 2)]
    store.write_requeue(specs)
    assert store.read_requeue() == specs


def test_store_sweep_tmp(tmp_path):
    store = SessionStore(tmp_path)
    (tmp_path / ".tmp-leftover.123").write_text("partial")
    assert store.sweep_tmp() == 1
    assert not (tmp_path / ".tmp-leftover.123").exists()


def test_store_render_view_requires_type_for_per_type_views(tmp_path):
    store = SessionStore(tmp_path)
    spec = JobSpec.create(scenario="memcached", duration=120_000, seed=11)
    outcome = execute_job_to_store(spec, tmp_path)
    with pytest.raises(ServeError, match="type"):
        store.render_view(outcome["digest"], "miss-class", None, 8)
    rendered = store.render_view(outcome["digest"], "data-profile", None, 8)
    assert "Data profile view" in rendered


# ----------------------------------------------------------------------
# execute_job
# ----------------------------------------------------------------------


def test_execute_job_deterministic_and_loadable(tmp_path):
    spec = JobSpec.create(scenario="synthetic", duration=80_000, seed=5)
    status1, text1, info1 = execute_job(spec)
    status2, text2, _ = execute_job(spec)
    assert status1 == status2 == "ok"
    assert text1 == text2  # bit-identical across runs
    assert info1["throughput"] > 0
    path = tmp_path / "session.json"
    path.write_text(text1)
    session = load_session(path)
    assert session.data_profile() is not None


def test_execute_job_reports_degraded_under_faults():
    spec = JobSpec.create(
        scenario="memcached",
        duration=100_000,
        fault_spec="ibs_drop=0.3,seed=3",
    )
    status, text, info = execute_job(spec)
    assert status == "degraded"
    assert info["exit_code"] == 3
    assert json.loads(text)  # archive still well-formed


def test_execute_job_to_store_outcome(tmp_path):
    spec = JobSpec.create(scenario="synthetic", duration=80_000, seed=9)
    outcome = execute_job_to_store(spec, tmp_path)
    assert outcome["status"] == "ok"
    assert SessionStore(tmp_path).has(outcome["digest"])
    assert outcome["wall_s"] > 0
