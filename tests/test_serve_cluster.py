"""Cluster primitives: ring, failure detector, leases, retry policy.

Everything here is pure in-process unit testing over the clock seam --
the live multi-node behavior (forwarding, reclaim after SIGKILL) is
covered by tests/test_cluster_chaos.py.
"""

import json

import pytest

from repro.errors import QueueFullError, ServeError
from repro.serve.cluster import (
    ClusterConfig,
    FailureDetector,
    HashRing,
    LeaseManager,
    NodeRecord,
)
from repro.serve.jobs import FakeClock, JobSpec, Lease, MonotonicClock
from repro.serve.retry import RetryExhaustedError, RetryPolicy
from repro.util.rng import DeterministicRng


def make_spec(seed=3):
    return JobSpec.create(scenario="synthetic", duration=10_000, seed=seed)


# ----------------------------------------------------------------------
# Config and wire formats
# ----------------------------------------------------------------------


def test_cluster_config_validates():
    ClusterConfig(node_id="a")  # defaults are coherent
    with pytest.raises(ServeError):
        ClusterConfig(node_id="")
    with pytest.raises(ServeError):
        ClusterConfig(node_id="a/b")
    with pytest.raises(ServeError):
        ClusterConfig(node_id="a", heartbeat_interval_s=0)
    with pytest.raises(ServeError):
        ClusterConfig(node_id="a", suspect_after_s=5.0, dead_after_s=2.0)
    with pytest.raises(ServeError):
        ClusterConfig(node_id="a", dead_after_s=5.0, lease_timeout_s=1.0)


def test_lease_wire_round_trip():
    lease = Lease(
        job_key="cj-a-00001-deadbeef",
        owner="a",
        spec=make_spec().to_wire(),
        renew_seq=4,
        generation=1,
    )
    assert Lease.from_wire(lease.to_wire()) == lease
    with pytest.raises(ServeError):
        Lease.from_wire({"owner": "a"})
    with pytest.raises(ServeError):
        Lease.from_wire({"job_key": "k", "owner": "a", "spec": {}, "renew_seq": "x"})


def test_node_record_wire_round_trip():
    record = NodeRecord("a", "127.0.0.1", 9999, heartbeat_seq=7, draining=True)
    assert NodeRecord.from_wire(record.to_wire()) == record
    with pytest.raises(ServeError):
        NodeRecord.from_wire({"node_id": "a"})


def test_fake_clock_advances_only_forward():
    clock = FakeClock(start=10.0, offset=1e9)
    t0 = clock.now()
    clock.advance(2.5)
    assert clock.now() == t0 + 2.5
    with pytest.raises(ServeError):
        clock.advance(-0.1)
    assert MonotonicClock().now() <= MonotonicClock().now()


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


def test_ring_owner_is_deterministic_and_total():
    ring = HashRing()
    for node in ("a", "b", "c"):
        ring.add(node)
    keys = [make_spec(seed=i).digest() for i in range(50)]
    owners = {key: ring.owner(key) for key in keys}
    assert set(owners.values()) <= {"a", "b", "c"}
    # Stable across an identically-built ring.
    other = HashRing()
    other.rebuild(["c", "a", "b"])
    assert {key: other.owner(key) for key in keys} == owners


def test_ring_removal_moves_only_victim_keys():
    ring = HashRing()
    ring.rebuild(["a", "b", "c", "d"])
    keys = [make_spec(seed=i).digest() for i in range(200)]
    before = {key: ring.owner(key) for key in keys}
    ring.remove("c")
    for key in keys:
        after = ring.owner(key)
        if before[key] == "c":
            assert after in ("a", "b", "d")
        else:
            assert after == before[key]


def test_ring_empty_and_rebuild():
    ring = HashRing()
    assert ring.owner("00ff") is None
    ring.rebuild(["solo"])
    assert ring.owner("00ff") == "solo"
    ring.rebuild([])
    assert ring.owner("00ff") is None
    ring.add("x")
    ring.add("x")  # idempotent
    assert ring.nodes == {"x"}


# ----------------------------------------------------------------------
# Failure detector
# ----------------------------------------------------------------------


def test_detector_decays_alive_suspect_dead():
    clock = FakeClock()
    detector = FailureDetector(suspect_after_s=2.0, dead_after_s=5.0, clock=clock)
    assert detector.observe({"b": 1}) == [("b", "", "alive")]
    clock.advance(1.9)
    assert detector.observe({"b": 1}) == []
    clock.advance(0.2)  # 2.1s silent
    assert detector.observe({"b": 1}) == [("b", "alive", "suspect")]
    clock.advance(3.0)  # 5.1s silent
    assert detector.observe({"b": 1}) == [("b", "suspect", "dead")]
    # A heartbeat advance resurrects it.
    assert detector.observe({"b": 2}) == [("b", "dead", "alive")]
    assert detector.state("b") == "alive"


def test_detector_keeps_a_restarted_node_alive():
    # A node restarted under the same id heartbeats from 0 again; a
    # lower counter is a change, not silence.
    clock = FakeClock()
    detector = FailureDetector(suspect_after_s=2.0, dead_after_s=5.0, clock=clock)
    assert detector.observe({"a": 100}) == [("a", "", "alive")]
    for seq in range(1, 8):
        clock.advance(1.0)
        assert detector.observe({"a": seq}) == []
    assert detector.state("a") == "alive"


def test_detector_judges_by_local_deltas_not_wall_offset():
    # A huge constant offset (a badly skewed clock) changes nothing:
    # only elapsed local time matters.
    for offset in (0.0, -1e9, 1e9):
        clock = FakeClock(start=100.0, offset=offset)
        detector = FailureDetector(1.0, 2.0, clock=clock)
        detector.observe({"b": 1})
        clock.advance(2.5)
        assert detector.observe({"b": 1})[-1][2] == "dead"


def test_detector_withdrawn_record_is_gone_not_dead():
    clock = FakeClock()
    detector = FailureDetector(1.0, 2.0, clock=clock)
    detector.observe({"b": 1})
    assert detector.observe({}) == [("b", "alive", "gone")]
    assert detector.state("b") == "unknown"


# ----------------------------------------------------------------------
# Lease manager
# ----------------------------------------------------------------------


def test_lease_acquire_renew_release(tmp_path):
    manager = LeaseManager(tmp_path, "a", lease_timeout_s=2.0)
    lease = manager.acquire("job-1", make_spec().to_wire())
    assert lease.owner == "a" and lease.renew_seq == 0
    assert manager.renew_all() == 1
    on_disk = manager.read_all()["job-1"]
    assert on_disk.renew_seq == 1
    manager.release("job-1")
    assert manager.read_all() == {}
    assert manager.held == {}


def test_lease_expiry_needs_silence_and_dead_owner(tmp_path):
    clock_a = FakeClock()
    clock_b = FakeClock(offset=5e8)  # observers disagree wildly on "now"
    owner = LeaseManager(tmp_path, "a", lease_timeout_s=2.0, clock=clock_a)
    watcher = LeaseManager(tmp_path, "b", lease_timeout_s=2.0, clock=clock_b)
    owner.acquire("job-1", make_spec().to_wire())

    # First sighting only starts the watcher's local timer.
    assert watcher.expired(lambda node: True) == []
    clock_b.advance(1.0)
    # Renewal resets the silence window.
    owner.renew_all()
    clock_b.advance(1.5)
    assert watcher.expired(lambda node: True) == []  # re-observed at renewal
    clock_b.advance(2.5)
    # Silent long enough -- but a live owner is never robbed.
    assert watcher.expired(lambda node: False) == []
    expired = watcher.expired(lambda node: node == "a")
    assert [lease.job_key for lease in expired] == ["job-1"]
    # Leases a node holds itself are never candidates.
    assert owner.expired(lambda node: True) == []


def test_reclaimed_lease_gets_a_fresh_silence_timer(tmp_path):
    clock = FakeClock()
    owner = LeaseManager(tmp_path, "a", lease_timeout_s=2.0, clock=clock)
    survivor = LeaseManager(tmp_path, "b", lease_timeout_s=2.0, clock=clock)
    observer = LeaseManager(tmp_path, "c", lease_timeout_s=2.0, clock=clock)
    lease = owner.acquire("job-1", make_spec().to_wire())
    assert observer.expired(lambda node: True) == []  # first sighting
    clock.advance(10.0)  # the owner dies and its lease goes silent
    taken = survivor.try_claim(lease)
    assert taken.generation == 1 and taken.renew_seq == 0
    # Generation 1 starts at renew_seq 0 again: the observer's timer
    # for it starts at its first sighting of the new generation.
    assert observer.expired(lambda node: True) == []
    clock.advance(1.9)
    assert observer.expired(lambda node: True) == []
    clock.advance(0.2)
    assert [l.owner for l in observer.expired(lambda node: True)] == ["b"]


def test_lease_claim_is_one_winner_per_generation(tmp_path):
    owner = LeaseManager(tmp_path, "a", lease_timeout_s=1.0)
    lease = owner.acquire("job-1", make_spec().to_wire())
    first = LeaseManager(tmp_path, "b", lease_timeout_s=1.0)
    second = LeaseManager(tmp_path, "c", lease_timeout_s=1.0)
    taken = first.try_claim(lease)
    assert taken is not None
    assert taken.owner == "b" and taken.generation == lease.generation + 1
    assert first.read_all()["job-1"].owner == "b"
    # The race loser gets None for the same generation...
    assert second.try_claim(lease) is None
    # ...but a later expiry of the *new* lease claims the next generation.
    assert second.try_claim(taken).generation == taken.generation + 1


def test_result_commit_is_at_most_once(tmp_path):
    a = LeaseManager(tmp_path, "a")
    b = LeaseManager(tmp_path, "b")
    assert not a.result_committed("job-1")
    assert a.commit_result("job-1", {"node": "a", "state": "done"})
    assert not b.commit_result("job-1", {"node": "b", "state": "done"})
    assert b.result_committed("job-1")
    assert a.results()["job-1"]["node"] == "a"


def test_lease_manager_ignores_torn_files(tmp_path):
    manager = LeaseManager(tmp_path, "a")
    (manager.leases_dir / "torn.json").write_text("{not json")
    (manager.leases_dir / "foreign.json").write_text(json.dumps(["not a lease"]))
    (manager.leases_dir / "half.json").write_text(json.dumps({"owner": "x"}))
    assert manager.read_all() == {}
    assert manager.expired(lambda node: True) == []


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


class _Ticks:
    """rng.random() stand-in returning a fixed sequence."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def test_retry_schedule_caps_and_jitters():
    policy = RetryPolicy(
        attempts=4,
        base_delay_s=1.0,
        max_delay_s=3.0,
        rng=_Ticks([1.0, 1.0, 1.0]),
    )
    # Ceilings 1, 2, min(4, 3) with jitter factor 1.0.
    assert [policy.backoff_s(k) for k in range(3)] == [1.0, 2.0, 3.0]


def test_retry_hint_overrides_exponential_term():
    policy = RetryPolicy(
        attempts=4,
        base_delay_s=0.5,
        max_delay_s=3.0,
        rng=_Ticks([1.0, 1.0, 1.0]),
    )
    # Hint wins (still capped at max, floored at base).
    hints = [2.0, 10.0, 0.1]
    assert [policy.backoff_s(k, hint_s=h) for k, h in enumerate(hints)] == [
        2.0, 3.0, 0.5,
    ]


def test_retry_call_takes_the_hint_from_the_exception():
    replies = iter([QueueFullError("full", retry_after_s=2.0), None])

    def busy():
        exc = next(replies)
        if exc is not None:
            raise exc
        return "ok"

    slept = []
    policy = RetryPolicy(
        attempts=2, base_delay_s=0.5, max_delay_s=3.0, rng=_Ticks([1.0])
    )
    assert policy.call(busy, retry_on=(QueueFullError,), sleep=slept.append) == "ok"
    # The exponential term would be 0.5; the hint sets the ceiling.
    assert slept == [2.0]


def test_retry_call_counts_attempts_and_chains_cause():
    calls = []

    def always_down():
        calls.append(1)
        raise ConnectionError("nope")

    policy = RetryPolicy(attempts=3, base_delay_s=0.0, timeout_s=10.0)
    with pytest.raises(RetryExhaustedError) as info:
        policy.call(always_down, sleep=lambda s: None)
    assert len(calls) == 3
    assert info.value.attempts == 3
    assert isinstance(info.value.__cause__, ConnectionError)


def test_retry_call_recovers_midway():
    attempts = iter([ConnectionError("1"), TimeoutError("2"), None])

    def flaky():
        exc = next(attempts)
        if exc is not None:
            raise exc
        return "ok"

    policy = RetryPolicy(attempts=5, base_delay_s=0.0)
    assert policy.call(flaky, sleep=lambda s: None) == "ok"


def test_retry_call_respects_deadline():
    clock = FakeClock()

    def down():
        raise ConnectionError("nope")

    def sleep(seconds):
        clock.advance(seconds)

    policy = RetryPolicy(
        attempts=10, base_delay_s=4.0, max_delay_s=4.0, timeout_s=1.0,
        rng=_Ticks([1.0] * 9),
    )
    with pytest.raises(RetryExhaustedError) as info:
        policy.call(down, sleep=sleep, clock=clock.now)
    # First attempt runs, then the 4s backoff would blow the 1s deadline.
    assert info.value.attempts == 1


def test_retry_call_does_not_catch_foreign_exceptions():
    def boom():
        raise ValueError("not transport")

    policy = RetryPolicy(attempts=3, base_delay_s=0.0)
    with pytest.raises(ValueError):
        policy.call(boom, sleep=lambda s: None)


def test_retry_policy_validates():
    with pytest.raises(ServeError):
        RetryPolicy(attempts=0)
    with pytest.raises(ServeError):
        RetryPolicy(timeout_s=0)
    with pytest.raises(ServeError):
        RetryPolicy(base_delay_s=-1.0)


def test_retry_jitter_uses_injected_rng_stream():
    rng = DeterministicRng(9, "retry-test")
    policy = RetryPolicy(attempts=3, base_delay_s=1.0, max_delay_s=8.0, rng=rng)
    delays = [policy.backoff_s(k) for k in range(2)]
    assert len(delays) == 2
    assert all(0.0 <= d <= 2.0 for d in delays)
    again = RetryPolicy(
        attempts=3, base_delay_s=1.0, max_delay_s=8.0,
        rng=DeterministicRng(9, "retry-test"),
    )
    assert [again.backoff_s(k) for k in range(2)] == delays


def test_restarted_node_takes_over_its_orphaned_leases(tmp_path):
    from repro.serve.cluster import ClusterServer

    # Node "a" is killed holding two leases; one job had committed.
    spec = make_spec()
    killed = LeaseManager(tmp_path, "a")
    running = f"cj-a-00000-{spec.digest()[:8]}"
    killed.acquire(running, spec.to_wire())
    killed.acquire("cj-a-00001-finished", make_spec(seed=4).to_wire())
    killed.commit_result("cj-a-00001-finished", {"state": "done"})
    killed.renew_all()

    # Its restart heartbeats from 0 under the same id, so a peer's
    # detector keeps it alive and the peer never reclaims the lease.
    clock = FakeClock()
    peer = FailureDetector(suspect_after_s=2.0, dead_after_s=5.0, clock=clock)
    watcher = LeaseManager(tmp_path, "b", lease_timeout_s=8.0, clock=clock)
    peer.observe({"a": 1})
    for seq in range(20):
        clock.advance(1.0)
        peer.observe({"a": seq})
        assert watcher.expired(lambda node: peer.state(node) == "dead") == []

    # The restarted node itself takes the job over as the next
    # generation, and tidies the lease of the job that had finished.
    restarted = ClusterServer(tmp_path, ClusterConfig(node_id="a"), workers=1)
    restarted._reclaim_expired()
    assert list(restarted.jobs) == [running]
    assert restarted.metrics.jobs_reclaimed == 1
    on_disk = restarted.leases.read_all()
    assert list(on_disk) == [running]
    assert on_disk[running].owner == "a" and on_disk[running].generation == 1
    assert restarted.leases.expired(lambda node: True) == []
    # A new submission of the same spec does not reuse the old key.
    reply = restarted._accept(spec)
    assert reply["ok"] and reply["job_id"] not in (running, "cj-a-00001-finished")


@pytest.mark.parametrize("duration", ["x", [1], None, -1])
def test_stall_heartbeats_refuses_a_bad_duration(tmp_path, duration):
    from repro.serve.cluster import ClusterServer

    server = ClusterServer(tmp_path, ClusterConfig(node_id="n1"), workers=1)
    reply = server._handle_line(
        json.dumps({"op": "stall-heartbeats", "duration_s": duration})
    )
    assert reply["ok"] is False
    assert server._handle_line(json.dumps({"op": "ping"}))["ok"] is True
