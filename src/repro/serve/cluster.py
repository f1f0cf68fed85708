"""Multi-node federation for the profiling service.

Several :class:`~repro.serve.server.ProfilingServer` processes federate
over one shared content-addressed :class:`~repro.serve.store.SessionStore`
-- the store *is* the control plane.  There is no coordinator process and
no peer list to configure: a node announces itself by writing a record
under ``<store>/cluster/nodes/``, discovers peers by scanning the same
directory, and everything else (leases, claims, results) lives in
sibling directories written with the store's atomic-replace discipline.

Layout (all under ``<store>/cluster/``)::

    nodes/<node_id>.json      registration + heartbeat counter
    leases/<job_key>.json     who owns each in-flight job
    claims/<job_key>.gen<N>   one-shot reclaim arbitration (O_EXCL)
    results/<job_key>.json    at-most-once result commit (O_EXCL)

**Skew-proof liveness.**  Neither node records nor leases carry wall
timestamps -- only monotonically increasing counters (``heartbeat_seq``,
``renew_seq``).  Every observer judges staleness by *its own* monotonic
clock: "this counter has not advanced for T seconds *of my time*".  A
node whose wall clock steps forward or back therefore cannot expire a
peer's leases early, hold its own forever, or be falsely declared dead;
only an actually-silent peer trips the detector.  Peer state transitions
``alive -> suspect -> dead`` at configurable thresholds, and a dead
node's seq advancing again resurrects it.

**Lease lifecycle.**  Accepting a job acquires a lease (owner, spec,
``renew_seq=0``, ``generation``); every heartbeat tick renews all held
leases; terminal transitions commit a result record and release the
lease.  A graceful drain releases leases for jobs it hands back via
``requeue.json`` (so peers do not also reclaim them); a SIGKILL leaves
leases behind, and any surviving peer's lease-scan reclaims them once
(a) the owner is *dead* per the failure detector and (b) the lease has
not been renewed for ``lease_timeout_s`` of local time.  Racing
reclaimers are arbitrated by an ``O_CREAT|O_EXCL`` claim file keyed by
(job_key, generation + 1): exactly one winner per generation.

**At-most-once results.**  Execution is at-least-once (a reclaim may
race a slow-but-alive owner), but commit is at-most-once: the first
``O_EXCL`` result record wins, archives are bit-identical anyway
(deterministic specs + content-addressed idempotent puts), so a losing
duplicate changes no bytes and commits no second record.

**Routing.**  Submissions hash to an owner on a consistent-hash ring
over the spec's content digest (so identical specs land on the same
node and dedup in place); non-owners forward with bounded
retry/backoff + jitter and fall back to local execution when the owner
is unreachable.  ``route: "local"`` pins a job to the receiving node
(used by chaos tests to aim work at a victim).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServeError
from repro.serve.jobs import JobSpec, Lease, MonotonicClock
from repro.serve.protocol import error_response, request_once
from repro.serve.retry import RetryExhaustedError, RetryPolicy
from repro.serve.server import ProfilingServer
from repro.util.files import atomic_write_text

#: Subdirectory names under ``<store>/cluster/``.
CLUSTER_DIR = "cluster"
NODES_DIR = "nodes"
LEASES_DIR = "leases"
CLAIMS_DIR = "claims"
RESULTS_DIR = "results"

#: Peer liveness states, in order of decay.
PEER_STATES = ("alive", "suspect", "dead")


def _create_exclusive(path: Path, text: str) -> bool:
    """O_CREAT|O_EXCL write: True iff this caller created the file."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        handle.write(text)
    return True


def _read_json(path: Path) -> dict | None:
    """Parse one cluster file; None for missing or torn/foreign junk."""
    try:
        blob = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return blob if isinstance(blob, dict) else None


@dataclass(frozen=True)
class ClusterConfig:
    """Federation knobs for one node."""

    node_id: str
    #: Seconds between heartbeat ticks (also lease renewal cadence).
    heartbeat_interval_s: float = 0.5
    #: No heartbeat advance for this long (observer time) -> suspect.
    suspect_after_s: float = 2.0
    #: ... for this long -> dead (and removed from the routing ring).
    dead_after_s: float = 5.0
    #: A dead owner's lease is reclaimable after this long without a
    #: renewal (observer time).  Keep >= dead_after_s so the detector
    #: always fires first.
    lease_timeout_s: float = 8.0
    #: Virtual points per node on the consistent-hash ring.
    ring_replicas: int = 64

    def __post_init__(self) -> None:
        if not self.node_id or "/" in self.node_id:
            raise ServeError(f"bad node_id {self.node_id!r}")
        if self.heartbeat_interval_s <= 0:
            raise ServeError("heartbeat_interval_s must be positive")
        if not 0 < self.suspect_after_s < self.dead_after_s:
            raise ServeError("need 0 < suspect_after_s < dead_after_s")
        if self.lease_timeout_s < self.dead_after_s:
            raise ServeError("lease_timeout_s must be >= dead_after_s")
        if self.ring_replicas < 1:
            raise ServeError("ring_replicas must be >= 1")


@dataclass
class NodeRecord:
    """One node's registration, heartbeat counter included."""

    node_id: str
    host: str
    port: int
    heartbeat_seq: int = 0
    draining: bool = False

    def to_wire(self) -> dict:
        return {
            "node_id": self.node_id,
            "host": self.host,
            "port": self.port,
            "heartbeat_seq": self.heartbeat_seq,
            "draining": self.draining,
        }

    @classmethod
    def from_wire(cls, blob: dict) -> "NodeRecord":
        try:
            return cls(
                node_id=blob["node_id"],
                host=blob["host"],
                port=int(blob["port"]),
                heartbeat_seq=int(blob.get("heartbeat_seq", 0)),
                draining=bool(blob.get("draining", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed node record: {exc}") from exc


class HashRing:
    """Consistent hashing: spec digest -> owning node.

    Each node contributes ``replicas`` virtual points (SHA-256 of
    ``"<node>#<k>"``); a key maps to the first point clockwise from its
    own hash.  Membership churn moves only the keys adjacent to the
    joining/leaving node's points, so a node death does not reshuffle
    the whole cluster's routing.
    """

    def __init__(self, replicas: int = 64) -> None:
        self.replicas = replicas
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []

    @staticmethod
    def _hash(material: str) -> int:
        return int(hashlib.sha256(material.encode()).hexdigest(), 16)

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def add(self, node_id: str) -> None:
        if node_id in self._nodes:
            return
        self._nodes.add(node_id)
        for k in range(self.replicas):
            bisect.insort(self._points, (self._hash(f"{node_id}#{k}"), node_id))

    def remove(self, node_id: str) -> None:
        if node_id not in self._nodes:
            return
        self._nodes.discard(node_id)
        self._points = [p for p in self._points if p[1] != node_id]

    def rebuild(self, node_ids) -> None:
        """Converge membership to exactly *node_ids*."""
        wanted = set(node_ids)
        for node_id in self.nodes - wanted:
            self.remove(node_id)
        for node_id in wanted - self._nodes:
            self.add(node_id)

    def owner(self, key: str) -> str | None:
        """The node owning *key* (a hex digest), or None when empty."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._points, (self._hash(key), "￿"))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class FailureDetector:
    """Observer-side liveness from heartbeat counters.

    Feed it ``{node_id: heartbeat_seq}`` snapshots via :meth:`observe`;
    it judges each peer by how long (on *this* observer's monotonic
    clock) the counter has failed to advance.  Wall-clock skew on the
    observed node is invisible by construction -- the records carry no
    timestamps to mistrust.
    """

    def __init__(
        self,
        suspect_after_s: float,
        dead_after_s: float,
        clock=None,
    ) -> None:
        self.suspect_after_s = suspect_after_s
        self.dead_after_s = dead_after_s
        self.clock = clock or MonotonicClock()
        #: node_id -> (last seq, local time that seq was first seen).
        self._seen: dict[str, tuple[int, float]] = {}
        self._state: dict[str, str] = {}

    def observe(self, seqs: dict[str, int]) -> list[tuple[str, str, str]]:
        """Ingest a snapshot; returns ``(node, old_state, new_state)``
        transitions (new nodes appear as ``("", "alive")``)."""
        now = self.clock.now()
        transitions = []
        for node_id, seq in seqs.items():
            seen = self._seen.get(node_id)
            if seen is None or seq > seen[0]:
                self._seen[node_id] = (seq, now)
        for node_id in list(self._seen):
            if node_id not in seqs:
                # Record withdrawn: graceful departure, forget entirely.
                old = self._state.pop(node_id, "")
                del self._seen[node_id]
                if old and old != "dead":
                    transitions.append((node_id, old, "gone"))
                continue
            silent_s = now - self._seen[node_id][1]
            if silent_s >= self.dead_after_s:
                state = "dead"
            elif silent_s >= self.suspect_after_s:
                state = "suspect"
            else:
                state = "alive"
            old = self._state.get(node_id, "")
            if state != old:
                self._state[node_id] = state
                transitions.append((node_id, old, state))
        return transitions

    def state(self, node_id: str) -> str:
        return self._state.get(node_id, "unknown")

    def states(self) -> dict[str, str]:
        return dict(self._state)


class LeaseManager:
    """Persisted job leases plus claim/result arbitration files.

    One instance per node.  Held leases (this node's) are renewed by
    bumping ``renew_seq``; foreign leases are watched with the same
    counter-advance-vs-local-clock rule the failure detector uses, and
    become reclaim candidates after ``lease_timeout_s`` of silence.
    """

    def __init__(
        self,
        store_root: str | Path,
        node_id: str,
        lease_timeout_s: float = 8.0,
        clock=None,
    ) -> None:
        self.node_id = node_id
        self.lease_timeout_s = lease_timeout_s
        self.clock = clock or MonotonicClock()
        base = Path(store_root) / CLUSTER_DIR
        self.leases_dir = base / LEASES_DIR
        self.claims_dir = base / CLAIMS_DIR
        self.results_dir = base / RESULTS_DIR
        for directory in (self.leases_dir, self.claims_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        #: job_key -> Lease owned by this node.
        self.held: dict[str, Lease] = {}
        #: job_key -> (last renew_seq, local time it advanced).
        self._watch: dict[str, tuple[int, float]] = {}

    def _path(self, job_key: str) -> Path:
        return self.leases_dir / f"{job_key}.json"

    # -- ownership ------------------------------------------------------

    def acquire(self, job_key: str, spec_wire: dict, generation: int = 0) -> Lease:
        lease = Lease(
            job_key=job_key,
            owner=self.node_id,
            spec=spec_wire,
            generation=generation,
        )
        atomic_write_text(self._path(job_key), json.dumps(lease.to_wire()))
        self.held[job_key] = lease
        return lease

    def renew_all(self) -> int:
        """Bump and persist every held lease; returns the count."""
        for lease in self.held.values():
            lease.renew_seq += 1
            atomic_write_text(self._path(lease.job_key), json.dumps(lease.to_wire()))
        return len(self.held)

    def release(self, job_key: str) -> None:
        self.held.pop(job_key, None)
        self._path(job_key).unlink(missing_ok=True)

    # -- scanning and reclaim -------------------------------------------

    def read_all(self) -> dict[str, Lease]:
        """Every lease on disk (including this node's own)."""
        leases = {}
        for path in self.leases_dir.glob("*.json"):
            blob = _read_json(path)
            if blob is None:
                continue
            try:
                lease = Lease.from_wire(blob)
            except ServeError:
                continue
            leases[lease.job_key] = lease
        return leases

    def expired(self, owner_dead) -> list[Lease]:
        """Foreign leases whose owner is dead *and* whose ``renew_seq``
        has not advanced for ``lease_timeout_s`` of local time.

        *owner_dead* is a predicate (node_id -> bool), normally the
        failure detector; requiring both signals keeps reclaim
        conservative -- a slow-but-heartbeating owner is never robbed.
        """
        now = self.clock.now()
        candidates = []
        on_disk = self.read_all()
        for job_key in list(self._watch):
            if job_key not in on_disk:
                del self._watch[job_key]  # released or reclaimed away
        for lease in on_disk.values():
            if lease.owner == self.node_id:
                continue
            watched = self._watch.get(lease.job_key)
            if watched is None or lease.renew_seq > watched[0]:
                # First sighting (or a renewal): the silence timer
                # starts from *our* observation, never from any claim
                # the lease file itself could make.
                self._watch[lease.job_key] = (lease.renew_seq, now)
                continue
            if now - watched[1] < self.lease_timeout_s:
                continue
            if owner_dead(lease.owner):
                candidates.append(lease)
        return candidates

    def try_claim(self, lease: Lease) -> Lease | None:
        """Atomically take over an expired lease; None if another node
        won this generation's claim."""
        claim = self.claims_dir / f"{lease.job_key}.gen{lease.generation + 1}"
        if not _create_exclusive(claim, self.node_id):
            return None
        taken = Lease(
            job_key=lease.job_key,
            owner=self.node_id,
            spec=lease.spec,
            generation=lease.generation + 1,
        )
        atomic_write_text(self._path(taken.job_key), json.dumps(taken.to_wire()))
        self.held[taken.job_key] = taken
        self._watch.pop(taken.job_key, None)
        return taken

    # -- at-most-once results -------------------------------------------

    def commit_result(self, job_key: str, payload: dict) -> bool:
        """First-writer-wins result record; False when already
        committed (a duplicate execution -- same bytes, no-op)."""
        path = self.results_dir / f"{job_key}.json"
        return _create_exclusive(path, json.dumps(payload, indent=2) + "\n")

    def result_committed(self, job_key: str) -> bool:
        return (self.results_dir / f"{job_key}.json").exists()

    def results(self) -> dict[str, dict]:
        """All committed result records, by job key."""
        out = {}
        for path in self.results_dir.glob("*.json"):
            blob = _read_json(path)
            if blob is not None:
                out[path.stem] = blob
        return out


class ClusterServer(ProfilingServer):
    """A :class:`ProfilingServer` that federates through the store.

    Adds: node registration + heartbeats, the failure detector, lease
    ownership for every accepted job, lease-scan reclaim of dead peers'
    jobs, consistent-hash routing with forwarding, and the
    ``cluster-status`` / ``stall-heartbeats`` ops.
    """

    def __init__(
        self,
        store_root,
        cluster: ClusterConfig,
        retry: RetryPolicy | None = None,
        clock=None,
        **kwargs,
    ) -> None:
        super().__init__(store_root, **kwargs)
        self.cluster = cluster
        self.node_id = cluster.node_id
        self.clock = clock or MonotonicClock()
        self.retry = retry or RetryPolicy(
            attempts=3, base_delay_s=0.1, max_delay_s=1.0, timeout_s=10.0
        )
        self.ring = HashRing(cluster.ring_replicas)
        self.ring.add(self.node_id)
        self.detector = FailureDetector(
            cluster.suspect_after_s, cluster.dead_after_s, clock=self.clock
        )
        self.leases = LeaseManager(
            self.store.root,
            self.node_id,
            lease_timeout_s=cluster.lease_timeout_s,
            clock=self.clock,
        )
        self.nodes_dir = self.store.root / CLUSTER_DIR / NODES_DIR
        self.nodes_dir.mkdir(parents=True, exist_ok=True)
        self._record = NodeRecord(self.node_id, self.host, 0)
        self._peers: dict[str, NodeRecord] = {}
        #: Event-loop time before which heartbeats are suppressed (the
        #: ``stall-heartbeats`` chaos op sets this).
        self._stall_until = 0.0
        self._federate_task: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._record = NodeRecord(self.node_id, self.host, self.port)
        self._write_record()
        self._observe_peers()
        self._federate_task = asyncio.ensure_future(self._federate())

    async def drain(self) -> None:
        if self.draining:
            return
        await super().drain()
        # Jobs handed back via requeue.json are no longer ours to run;
        # releasing their leases stops peers from *also* reclaiming them
        # (which would duplicate work after an operator resubmits).
        for job_key in list(self.leases.held):
            self.leases.release(job_key)
        (self.nodes_dir / f"{self.node_id}.json").unlink(missing_ok=True)
        if self._federate_task is not None:
            self._federate_task.cancel()

    # -- federation loop ------------------------------------------------

    def _write_record(self) -> None:
        atomic_write_text(
            self.nodes_dir / f"{self.node_id}.json",
            json.dumps(self._record.to_wire()),
        )

    async def _federate(self) -> None:
        """Heartbeat, observe peers, reclaim dead peers' leases."""
        while not self.draining:
            await asyncio.sleep(self.cluster.heartbeat_interval_s)
            if asyncio.get_running_loop().time() >= self._stall_until:
                self._heartbeat()
            self._observe_peers()
            self._reclaim_expired()

    def _heartbeat(self) -> None:
        self._record.heartbeat_seq += 1
        self._write_record()
        self.leases.renew_all()
        self.metrics.heartbeats_sent += 1

    def _read_peer_records(self) -> dict[str, NodeRecord]:
        peers = {}
        for path in self.nodes_dir.glob("*.json"):
            blob = _read_json(path)
            if blob is None:
                continue
            try:
                record = NodeRecord.from_wire(blob)
            except ServeError:
                continue
            if record.node_id != self.node_id:
                peers[record.node_id] = record
        return peers

    def _observe_peers(self) -> None:
        self._peers = self._read_peer_records()
        transitions = self.detector.observe(
            {
                node_id: record.heartbeat_seq
                for node_id, record in self._peers.items()
                if not record.draining
            }
        )
        for _node, _old, new in transitions:
            if new == "suspect":
                self.metrics.peers_suspected += 1
            elif new == "dead":
                self.metrics.peers_declared_dead += 1
        # Route only to nodes still plausibly alive; forwarding to a
        # suspect is allowed (the retry + local fallback absorbs a miss).
        members = {self.node_id} | {
            node_id
            for node_id in self._peers
            if self.detector.state(node_id) in ("alive", "suspect")
        }
        self.ring.rebuild(members)

    def _reclaim_expired(self) -> None:
        if self.draining:
            return
        for lease in self.leases.expired(
            lambda owner: self.detector.state(owner) in ("dead", "unknown")
        ):
            if self.leases.result_committed(lease.job_key):
                # The owner finished before dying; just tidy the lease.
                self.leases.release(lease.job_key)
                continue
            taken = self.leases.try_claim(lease)
            if taken is None:
                continue  # another survivor won this generation
            try:
                spec = JobSpec.from_wire(dict(lease.spec))
            except ServeError:
                self.leases.release(lease.job_key)
                continue
            self.metrics.jobs_reclaimed += 1
            # force=True: a reclaim must never bounce off a full queue.
            self._accept(spec, job_id=lease.job_key, force=True)

    # -- submission routing ---------------------------------------------

    def _next_job_id(self, spec: JobSpec) -> str:
        job_id = f"cj-{self.node_id}-{self._seq:05d}-{spec.digest()[:8]}"
        self._seq += 1
        return job_id

    def _accept(
        self, spec: JobSpec, job_id: str | None = None, force: bool = False
    ) -> dict:
        if job_id is None:
            job_id = self._next_job_id(spec)
        response = super()._accept(spec, job_id=job_id, force=force)
        if response.get("ok") and job_id not in self.leases.held:
            self.leases.acquire(job_id, spec.to_wire())
        return response

    def _job_finished(self, job) -> None:
        self.leases.commit_result(
            job.job_id,
            {
                "job_key": job.job_id,
                "node": self.node_id,
                "state": job.state,
                "status": job.status,
                "digest": job.digest,
            },
        )
        self.leases.release(job.job_id)

    def _op_submit(self, message: dict):
        if self.draining:
            return error_response("server is draining", code="draining")
        spec = JobSpec.from_wire(message)
        if message.get("forwarded") or message.get("route") == "local":
            # Forwarded once already (loop guard) or pinned here.
            return self._accept(spec)
        owner = self.ring.owner(spec.digest())
        if owner is None or owner == self.node_id or owner not in self._peers:
            return self._accept(spec)
        return self._forward(owner, spec, message)

    async def _forward(self, owner: str, spec: JobSpec, message: dict) -> dict:
        """Hand a submission to its ring owner; fall back to running it
        locally when the owner cannot be reached in time."""
        peer = self._peers[owner]
        payload = {k: v for k, v in message.items() if k != "route"}
        payload["forwarded"] = True
        loop = asyncio.get_running_loop()

        def rpc() -> dict:
            return request_once(
                peer.host, peer.port, payload, timeout=self.retry.timeout_s
            )

        try:
            response = await loop.run_in_executor(
                None,
                lambda: self.retry.call(rpc, describe=f"forward to {owner}"),
            )
        except RetryExhaustedError as exc:
            self.metrics.forward_failures += 1
            response = self._accept(spec)
            if response.get("ok"):
                response["routed_to"] = self.node_id
                response["forward_error"] = str(exc)
            return response
        if not response.get("ok") and response.get("code") == "draining":
            # Owner is leaving; run it here rather than bouncing the
            # client between nodes mid-shutdown.
            return self._accept(spec)
        if response.get("ok"):
            self.metrics.jobs_routed += 1
            response.setdefault("routed_to", owner)
        return response

    # -- cluster ops ----------------------------------------------------

    def _op_cluster_status(self, _message: dict) -> dict:
        nodes = [
            {
                **self._record.to_wire(),
                "state": "self",
            }
        ]
        for node_id in sorted(self._peers):
            nodes.append(
                {
                    **self._peers[node_id].to_wire(),
                    "state": self.detector.state(node_id),
                }
            )
        return {
            "ok": True,
            "node_id": self.node_id,
            "nodes": nodes,
            "ring": sorted(self.ring.nodes),
            "leases_held": sorted(self.leases.held),
            "results_committed": len(self.leases.results()),
        }

    def _op_stall_heartbeats(self, message: dict) -> dict:
        """Chaos op: suppress heartbeats (and lease renewals) for a
        while, so tests can drive suspect/dead transitions without
        killing the process."""
        try:
            duration_s = float(message.get("duration_s", 5.0))
        except (TypeError, ValueError) as exc:
            raise ServeError(f"field 'duration_s' is not a number: {exc}") from exc
        if duration_s < 0:
            raise ServeError("duration_s must be non-negative")
        loop = asyncio.get_running_loop()
        self._stall_until = loop.time() + duration_s
        return {"ok": True, "stalled_for_s": duration_s}
