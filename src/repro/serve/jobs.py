"""Job model for the profiling service: specs, states, and the queue.

A :class:`JobSpec` is the canonical description of one profiling session
-- scenario, cores, seed, duration, IBS interval, optional fault spec.
It is deliberately *complete*: two equal specs produce bit-identical
session archives (the workloads, fault plans, and the simulator are
deterministic), which is what makes the store
content-addressable and lets ``fetch`` results be compared against
one-shot CLI runs byte for byte.

Job lifecycle::

    queued -> running -> done (status ok | degraded)
                      -> failed (status failed: poor data or a crash)
    queued/running -> requeued (drain handed the job back at shutdown)

Status comes from the session's :class:`~repro.dprof.quality.DataQuality`
-- the same signal the one-shot CLI maps to exit codes 0/3/4 -- expressed
as a service-shaped string instead of a process exit code.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from dataclasses import asdict, dataclass, field

from repro.config import SCENARIO_DEFAULTS
from repro.dprof.quality import EXIT_DEGRADED, EXIT_OK
from repro.errors import FaultInjectionError, QueueFullError, ServeError
from repro.faults import FaultPlan
from repro.workloads import SCENARIOS


# ----------------------------------------------------------------------
# Clocks: the seam lease timing goes through
# ----------------------------------------------------------------------
#
# Lease liveness judgements must never read the wall clock: a node whose
# wall clock is skewed (NTP step, VM resume, operator fat-finger) would
# otherwise expire every peer's leases at once, or never expire any.
# Every lease decision therefore goes through a Clock object whose only
# contract is "now() is monotonic for this observer"; production code
# uses MonotonicClock (time.monotonic), tests inject FakeClock and
# advance it explicitly -- including with absurd offsets, to prove that
# only *local deltas* ever matter.


class MonotonicClock:
    """The production clock: :func:`time.monotonic`, immune to wall skew."""

    def now(self) -> float:
        return time.monotonic()


class FakeClock:
    """A hand-cranked clock for tests.

    ``offset`` models an arbitrary skew (it shifts every reading, the
    way a wrong wall clock would); correctness of lease logic must not
    depend on it, only on :meth:`advance` deltas.
    """

    def __init__(self, start: float = 0.0, offset: float = 0.0) -> None:
        self._now = start + offset

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ServeError("FakeClock cannot run backwards")
        self._now += seconds


@dataclass
class Lease:
    """Ownership of one cluster job by one node, renewable and scannable.

    Deliberately *clock-free on the wire*: a lease carries no timestamp,
    only a ``renew_seq`` counter the owner bumps on every heartbeat.
    Observers judge expiry by watching the counter advance against their
    own monotonic clock, so a node with a skewed wall clock can neither
    lose its leases early nor hold them forever.  ``generation`` counts
    ownership transfers (a reclaim bumps it), which keys the one-shot
    claim files that arbitrate racing reclaimers.
    """

    job_key: str
    owner: str
    spec: dict
    renew_seq: int = 0
    generation: int = 0

    def to_wire(self) -> dict:
        return asdict(self)

    @classmethod
    def from_wire(cls, blob: dict) -> "Lease":
        try:
            return cls(
                job_key=blob["job_key"],
                owner=blob["owner"],
                spec=blob["spec"],
                renew_seq=int(blob.get("renew_seq", 0)),
                generation=int(blob.get("generation", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed lease record: {exc}") from exc

#: States a job never leaves (``requeued`` jobs were handed back at drain).
TERMINAL_STATES = ("done", "failed", "requeued")

#: Terminal and non-terminal job states.
JOB_STATES = ("queued", "running") + TERMINAL_STATES

#: Per-job data-quality statuses (set once a session completes).
JOB_STATUSES = ("ok", "degraded", "failed")


def status_from_exit_code(code: int) -> str:
    """Map a data-quality exit code (0/3/4) to a job status string."""
    if code == EXIT_OK:
        return "ok"
    if code == EXIT_DEGRADED:
        return "degraded"
    return "failed"


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to run one profiling session deterministically."""

    scenario: str
    cores: int = 4
    seed: int = 11
    duration: int = 0  # 0 = scenario default, resolved by create()
    interval: int = 400
    fault_spec: str | None = None
    #: Higher runs sooner; does not affect the session result, so it is
    #: excluded from the content digest.
    priority: int = 0
    #: Record a span trace for this job (written next to the archive).
    #: Observability only -- excluded from the content digest.
    trace: bool = False

    @classmethod
    def create(cls, **kwargs) -> "JobSpec":
        """Build a validated spec, resolving scenario defaults.

        Raises :class:`ServeError` naming the offending field; this is
        the one place submit-side validation happens, shared by the
        server, the CLI's one-shot ``run-once``, and the benchmark.
        """
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        scenario = kwargs.get("scenario")
        if scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ServeError(f"unknown scenario {scenario!r} (known: {known})")
        defaults = SCENARIO_DEFAULTS[scenario]
        kwargs.setdefault("cores", defaults.cores)
        kwargs.setdefault("interval", defaults.interval)
        if not kwargs.get("duration"):
            kwargs["duration"] = defaults.duration
        spec = cls(**kwargs)
        for name in ("cores", "duration", "interval"):
            value = getattr(spec, name)
            if not isinstance(value, int) or value <= 0:
                raise ServeError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(spec.seed, int):
            raise ServeError(f"seed must be an integer, got {spec.seed!r}")
        if spec.fault_spec is not None:
            try:
                FaultPlan.parse(spec.fault_spec)
            except FaultInjectionError as exc:
                raise ServeError(f"bad fault_spec: {exc}") from exc
        return spec

    @classmethod
    def from_wire(cls, message: dict) -> "JobSpec":
        """Build a spec from a submit message, ignoring non-spec keys.

        Messages from older clients may still carry ``engine`` and
        ``analysis``; like any other non-spec key they are ignored, so
        such a job gets the same key as one sent without them.
        """
        fields = {
            name: message[name]
            for name in (
                "scenario",
                "cores",
                "seed",
                "duration",
                "interval",
                "fault_spec",
                "priority",
                "trace",
            )
            if message.get(name) is not None
        }
        return cls.create(**fields)

    def to_wire(self) -> dict:
        """JSON-compatible form (round-trips through :meth:`from_wire`)."""
        return asdict(self)

    def canonical(self) -> dict:
        """The result-determining fields only (priority and the trace
        flag excluded -- neither changes the session archive)."""
        blob = asdict(self)
        blob.pop("priority")
        blob.pop("trace")
        return blob

    def digest(self) -> str:
        """SHA-256 over the canonical spec; equal specs => equal results."""
        canonical = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def fault_plan(self) -> FaultPlan | None:
        return FaultPlan.parse(self.fault_spec) if self.fault_spec else None


@dataclass
class Job:
    """One submitted job's mutable service-side record."""

    job_id: str
    spec: JobSpec
    state: str = "queued"
    status: str | None = None  # ok / degraded / failed, once executed
    digest: str | None = None  # archive digest in the session store
    error: str | None = None
    attempts: int = 0
    submitted_s: float = field(default_factory=time.time)
    finished_s: float | None = None
    wall_s: float | None = None
    throughput: float | None = None
    quality: str | None = None  # coverage one-liner from DataQuality

    def to_wire(self) -> dict:
        blob = {
            "job_id": self.job_id,
            "state": self.state,
            "status": self.status,
            "digest": self.digest,
            "error": self.error,
            "attempts": self.attempts,
            "wall_s": round(self.wall_s, 4) if self.wall_s is not None else None,
            "throughput": self.throughput,
            "quality": self.quality,
            "submitted_s": self.submitted_s,
            "finished_s": self.finished_s,
            "spec": self.spec.to_wire(),
        }
        return blob


class JobQueue:
    """Bounded max-priority queue with FIFO order within a priority.

    ``push`` raises :class:`QueueFullError` at capacity (the server turns
    that into a reject-with-retry-after response); ``force_push`` bypasses
    the bound for crash-requeues so a worker death can never lose a job to
    a full queue.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ServeError(f"queue maxsize must be positive, got {maxsize!r}")
        self.maxsize = maxsize
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, job: Job) -> None:
        if len(self._heap) >= self.maxsize:
            raise QueueFullError(f"queue is full ({self.maxsize} jobs)")
        self.force_push(job)

    def force_push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.spec.priority, self._seq, job))
        self._seq += 1

    def pop(self) -> Job | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def drain(self) -> list[Job]:
        """Empty the queue, returning jobs in pop order (for requeueing)."""
        drained = []
        while self._heap:
            drained.append(heapq.heappop(self._heap)[2])
        return drained
