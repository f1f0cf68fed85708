"""``repro.trace`` -- structured, low-overhead span tracing for the pipeline.

DProf's thesis is that you cannot fix what you cannot attribute; this
module applies the same idea to the reproduction's own pipeline
(simulate -> collect -> analyze -> render -> serve).  A
:class:`Tracer` records hierarchical **spans** -- run, scenario,
machine-sim, history-collection, analysis, view-render, store-put,
queue-wait, worker-execute, requeue -- each carrying wall and
CPU time plus a small counter dict.

Design constraints, in order:

- **Deterministic span identity.**  A span's id is a SHA-256 prefix over
  ``(trace seed, structural path)``, where the path is
  ``parent-path/name#k`` and ``k`` numbers same-named siblings in
  creation order.  Two runs of the same spec therefore produce the same
  span ids with different timings, which is what makes traces diffable.
- **Low overhead.**  The simulator loop carries no instrumentation:
  the ``machine-sim`` span records the machine's instruction and cycle
  deltas, read once when it closes.  With tracing disabled every
  instrumentation point is a no-op on the shared :data:`NULL_TRACER`
  singleton.  ``tests/test_trace.py`` gates the enabled-tracing cost at
  <5% on the bench smoke scenarios.
- **Process boundaries.**  Spans serialize to plain dicts
  (:meth:`Tracer.to_blobs`) and are re-parented canonically on the
  parent side (:meth:`Tracer.adopt`): adopted subtrees are re-keyed
  through the same path allocator as native spans, in the caller's
  (canonical) order, so a server adopting its workers' job traces
  produces bit-identical span ids at any worker count.
- **Reconciliation.**  Server-side spans restate the
  :class:`~repro.serve.metrics.ServeMetrics` identity
  ``submitted == done + failed + requeued``; :func:`reconcile_serve`
  checks span counts against a counter snapshot exactly.

Exports land on disk as JSON lines next to the session archive: a
``manifest`` record (config fingerprint, quality, per-stage wall/cpu
totals) followed by one record per span.  The
``repro trace`` CLI renders the stage tree and the critical path.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import TraceError
from repro.util.files import atomic_write_text

#: Trace file format version (bumped on incompatible record changes).
TRACE_FORMAT_VERSION = 1

#: Filename suffix for trace files written next to session archives.
TRACE_SUFFIX = ".trace.jsonl"

#: The canonical stage vocabulary (informative, not enforced: ad-hoc
#: span names are allowed, but the pipeline sticks to these).
STAGES = (
    "run",
    "scenario",
    "machine-sim",
    "history-collection",
    "analysis",
    "view-render",
    "store-put",
    "queue-wait",
    "worker-execute",
    "requeue",
)

#: Span-id length (hex chars of the SHA-256 prefix).
_ID_LEN = 16


def span_id_for(seed: int, path: str) -> str:
    """The deterministic id of the span at *path* under trace *seed*."""
    material = f"{seed}:{path}".encode()
    return hashlib.sha256(material).hexdigest()[:_ID_LEN]


@dataclass
class Span:
    """One closed span: identity, timing, counters."""

    span_id: str
    parent_id: str | None
    name: str
    path: str
    start_s: float  #: offset from the tracer's epoch, seconds
    wall_s: float
    cpu_s: float
    counters: dict = field(default_factory=dict)

    def to_blob(self) -> dict:
        """JSON-compatible record (one trace-file line)."""
        return {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "path": self.path,
            "start_s": round(self.start_s, 6),
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "counters": self.counters,
        }

    @classmethod
    def from_blob(cls, blob: dict) -> "Span":
        try:
            return cls(
                span_id=blob["id"],
                parent_id=blob.get("parent"),
                name=blob["name"],
                path=blob["path"],
                start_s=float(blob.get("start_s", 0.0)),
                wall_s=float(blob["wall_s"]),
                cpu_s=float(blob.get("cpu_s", 0.0)),
                counters=dict(blob.get("counters", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed span record: {exc!r}") from exc


class _OpenSpan:
    """A span that has begun but not ended (the :meth:`Tracer.begin` handle)."""

    __slots__ = ("name", "path", "span_id", "parent_id", "start_s", "_t0", "_c0", "counters")

    def __init__(self, name, path, span_id, parent_id, start_s, t0, c0, counters):
        self.name = name
        self.path = path
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self._t0 = t0
        self._c0 = c0
        self.counters = counters

    def add(self, **counters) -> None:
        """Fold counters into this span (numbers add, others overwrite)."""
        _merge_counters(self.counters, counters)


def _merge_counters(into: dict, new: dict) -> None:
    for key, value in new.items():
        old = into.get(key)
        if isinstance(old, (int, float)) and isinstance(value, (int, float)):
            into[key] = old + value
        else:
            into[key] = value


class Tracer:
    """Collects hierarchical spans with deterministic identity.

    Use :meth:`span` (a context manager) for stack-shaped work and
    :meth:`begin`/:meth:`end` with explicit handles for overlapping
    spans (the server keeps many queue-wait spans open at once).
    """

    enabled = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spans: list[Span] = []
        self._stack: list[_OpenSpan] = []
        #: parent path -> child name -> occurrences (path allocation).
        self._child_counts: dict[str, dict[str, int]] = {}
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def _alloc_path(self, parent_path: str, name: str) -> str:
        counts = self._child_counts.setdefault(parent_path, {})
        k = counts.get(name, 0)
        counts[name] = k + 1
        prefix = f"{parent_path}/" if parent_path else ""
        return f"{prefix}{name}#{k}"

    def begin(self, name: str, parent: _OpenSpan | None = None, **counters) -> _OpenSpan:
        """Open a span; returns the handle :meth:`end` needs.

        ``parent=None`` nests under the innermost :meth:`span` context
        if one is open, else creates a root span.  Pass an explicit
        handle to build overlapping hierarchies.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        parent_path = parent.path if parent is not None else ""
        parent_id = parent.span_id if parent is not None else None
        path = self._alloc_path(parent_path, name)
        now = time.perf_counter()
        return _OpenSpan(
            name,
            path,
            span_id_for(self.seed, path),
            parent_id,
            now - self._epoch,
            now,
            time.process_time(),
            dict(counters),
        )

    def end(self, handle: _OpenSpan, **counters) -> Span:
        """Close *handle*, folding in final counters; returns the span."""
        if counters:
            handle.add(**counters)
        span = Span(
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            name=handle.name,
            path=handle.path,
            start_s=handle.start_s,
            wall_s=time.perf_counter() - handle._t0,
            cpu_s=time.process_time() - handle._c0,
            counters=handle.counters,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **counters):
        """Context manager: a span around the ``with`` body."""
        handle = self.begin(name, **counters)
        self._stack.append(handle)
        try:
            yield handle
        finally:
            self._stack.pop()
            self.end(handle)

    def add(self, **counters) -> None:
        """Fold counters into the innermost open :meth:`span` context."""
        if self._stack:
            self._stack[-1].add(**counters)

    # ------------------------------------------------------------------
    # Process-boundary merge
    # ------------------------------------------------------------------

    def to_blobs(self) -> list[dict]:
        """Every closed span as a JSON-compatible record."""
        return [span.to_blob() for span in self.spans]

    def adopt(self, blobs: list[dict], parent: _OpenSpan | None = None) -> list[Span]:
        """Re-parent foreign span records under *parent*, canonically.

        Roots of the adopted forest (spans whose parent id is absent
        from the blob set) are re-keyed through this tracer's path
        allocator in the order given -- callers pass blobs in canonical
        order (e.g. one job's spans in recorded order), so adopted ids are
        bit-identical at any worker count.  Timings and counters are
        preserved verbatim.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        parent_path = parent.path if parent is not None else ""
        parent_id = parent.span_id if parent is not None else None
        foreign = [Span.from_blob(b) for b in blobs if b.get("kind", "span") == "span"]
        ids = {span.span_id for span in foreign}
        children: dict[str, list[Span]] = {}
        roots: list[Span] = []
        for span in foreign:
            if span.parent_id in ids:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)
        adopted: list[Span] = []

        def _adopt(span: Span, new_parent_path: str, new_parent_id: str | None) -> None:
            path = self._alloc_path(new_parent_path, span.name)
            new = Span(
                span_id=span_id_for(self.seed, path),
                parent_id=new_parent_id,
                name=span.name,
                path=path,
                start_s=span.start_s,
                wall_s=span.wall_s,
                cpu_s=span.cpu_s,
                counters=dict(span.counters),
            )
            self.spans.append(new)
            adopted.append(new)
            for child in children.get(span.span_id, ()):
                _adopt(child, path, new.span_id)

        for root in roots:
            _adopt(root, parent_path, parent_id)
        return adopted

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------

    def stage_totals(self) -> dict[str, dict]:
        """Per-stage (span name) count and wall/cpu totals."""
        return stage_totals(self.spans)

    def manifest(
        self,
        *,
        fingerprint: str = "",
        quality: str = "",
        **extra,
    ) -> dict:
        """The per-run manifest record written as the trace file's first line."""
        blob = {
            "kind": "manifest",
            "version": TRACE_FORMAT_VERSION,
            "seed": self.seed,
            "fingerprint": fingerprint,
            "quality": quality,
            "spans": len(self.spans),
            "stages": self.stage_totals(),
        }
        blob.update(extra)
        return blob

    def to_jsonl(self, manifest: dict | None = None) -> str:
        """The whole trace as JSON lines (manifest first when given)."""
        records = [] if manifest is None else [manifest]
        records.extend(self.to_blobs())
        return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"

    def write_jsonl(self, path: str | Path, manifest: dict | None = None) -> Path:
        """Atomically write the trace next to its session archive."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write_text(path, self.to_jsonl(manifest))


class NullTracer:
    """The disabled tracer: every operation is a near-free no-op.

    A single shared instance (:data:`NULL_TRACER`) stands in wherever a
    tracer parameter is optional, so instrumentation points cost one
    attribute lookup and a ``None``/falsy check when tracing is off.
    """

    enabled = False
    seed = 0
    spans: list[Span] = []

    @contextmanager
    def span(self, name, **counters):
        yield None

    def begin(self, name, parent=None, **counters):
        return None

    def end(self, handle, **counters):
        return None

    def add(self, **counters):
        return None

    def adopt(self, blobs, parent=None):
        return []

    def to_blobs(self):
        return []

    def stage_totals(self):
        return {}


#: The shared disabled tracer.
NULL_TRACER = NullTracer()


def config_fingerprint(blob: dict) -> str:
    """SHA-256 prefix over a canonical JSON encoding of a config dict."""
    canonical = json.dumps(blob, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:_ID_LEN]


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------


def parse_trace(text: str) -> tuple[dict | None, list[Span]]:
    """Parse trace JSONL text into (manifest-or-None, spans)."""
    manifest: dict | None = None
    spans: list[Span] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"trace line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceError(f"trace line {lineno} is not an object")
        kind = record.get("kind", "span")
        if kind == "manifest":
            manifest = record
        elif kind == "span":
            spans.append(Span.from_blob(record))
        else:
            raise TraceError(f"trace line {lineno}: unknown record kind {kind!r}")
    return manifest, spans


def load_trace(path: str | Path) -> tuple[dict | None, list[Span]]:
    """Read and parse one trace file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    return parse_trace(text)


def stage_totals(spans: list[Span]) -> dict[str, dict]:
    """Per-stage (span name) count and wall/cpu totals, name-sorted."""
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(
            span.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        entry["count"] += 1
        # Sum the 6-decimal values the JSONL export carries, so totals
        # computed before writing and after re-loading agree exactly.
        entry["wall_s"] += round(span.wall_s, 6)
        entry["cpu_s"] += round(span.cpu_s, 6)
    return {
        name: {
            "count": entry["count"],
            "wall_s": round(entry["wall_s"], 6),
            "cpu_s": round(entry["cpu_s"], 6),
        }
        for name, entry in sorted(totals.items())
    }


# ----------------------------------------------------------------------
# Rendering: stage-time tree and critical path
# ----------------------------------------------------------------------


def _tree_index(spans: list[Span]) -> tuple[list[Span], dict[str, list[Span]]]:
    """(roots, parent-id -> children) preserving recorded order."""
    ids = {span.span_id for span in spans}
    children: dict[str, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        if span.parent_id in ids:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children


def critical_path(spans: list[Span]) -> list[Span]:
    """The chain of heaviest spans: longest root, then its longest child, ...

    "Heaviest" is wall time.  This is the first place to look when a run
    is slow: the path names the stages that bound end-to-end latency.
    """
    roots, children = _tree_index(spans)
    if not roots:
        return []
    path = [max(roots, key=lambda s: s.wall_s)]
    while True:
        kids = children.get(path[-1].span_id)
        if not kids:
            return path
        path.append(max(kids, key=lambda s: s.wall_s))


def render_tree(spans: list[Span], manifest: dict | None = None, top: int = 0) -> str:
    """Human-readable stage-time tree plus the critical-path summary."""
    lines: list[str] = []
    if manifest is not None:
        lines.append(
            f"trace seed={manifest.get('seed')} "
            f"fingerprint={manifest.get('fingerprint') or '-'}"
        )
        if manifest.get("quality"):
            lines.append(f"quality: {manifest['quality']}")
    if not spans:
        lines.append("(no spans)")
        return "\n".join(lines)
    roots, children = _tree_index(spans)
    # Width fits every span's indented name, including ones --top hides.
    name_width = 20
    pending = [(root, 0) for root in roots]
    while pending:
        span, depth = pending.pop()
        name_width = max(name_width, len(span.name) + 2 * depth)
        pending.extend((kid, depth + 1) for kid in children.get(span.span_id, ()))
    lines.append(f"{'stage':<{name_width}}  {'wall (s)':>10} {'cpu (s)':>10}  counters")

    def _walk(span: Span, depth: int) -> None:
        label = "  " * depth + span.name
        extras = ", ".join(
            f"{k}={v}" for k, v in sorted(span.counters.items()) if k != "job_id"
        )
        lines.append(
            f"{label:<{name_width}}  {span.wall_s:>10.4f} {span.cpu_s:>10.4f}  {extras}"
        )
        kids = children.get(span.span_id, ())
        if top:
            kids = sorted(kids, key=lambda s: s.wall_s, reverse=True)[:top]
        for child in kids:
            _walk(child, depth + 1)

    for root in roots:
        _walk(root, 0)
    path = critical_path(spans)
    if path:
        total = path[0].wall_s or 1.0
        chain = " > ".join(span.name for span in path)
        lines.append("")
        lines.append(
            f"critical path: {chain} "
            f"({path[-1].wall_s:.4f}s leaf, {100.0 * path[-1].wall_s / total:.1f}% of {path[0].name})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Metrics reconciliation
# ----------------------------------------------------------------------


def reconcile_serve(spans: list[Span], counters: dict) -> dict:
    """Check server-side span counts against a ServeMetrics snapshot.

    The span-side restatement of ``submitted == done + failed +
    requeued``:

    - one terminal ``worker-execute`` span per completed job
      (``done + failed``), non-terminal dispatches (crash retries)
      carry ``terminal=False``;
    - one ``requeue`` span per job handed back at drain;
    - one ``queue-wait`` span per queue residence (accepted submissions
      plus crash-requeue re-pushes).

    Returns a report dict whose ``ok`` is True only when every identity
    holds exactly; the serve burst test asserts it.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    terminal_executes = sum(
        1
        for span in by_name.get("worker-execute", ())
        if span.counters.get("terminal", True)
    )
    requeues = len(by_name.get("requeue", ()))
    queue_waits = len(by_name.get("queue-wait", ()))
    submitted = counters.get("jobs_submitted", 0)
    done = counters.get("jobs_done", 0)
    failed = counters.get("jobs_failed", 0)
    requeued = counters.get("jobs_requeued", 0)
    retries = counters.get("job_retries", 0)
    checks = {
        "counters_reconciled": submitted == done + failed + requeued,
        "executes_match": terminal_executes == done + failed,
        "requeues_match": requeues == requeued,
        "queue_waits_match": queue_waits == submitted + retries,
        "spans_cover_submissions": terminal_executes + requeues == submitted,
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "span_counts": {
            "queue-wait": queue_waits,
            "worker-execute": terminal_executes,
            "requeue": requeues,
        },
        "counter_counts": {
            "jobs_submitted": submitted,
            "jobs_done": done,
            "jobs_failed": failed,
            "jobs_requeued": requeued,
            "job_retries": retries,
        },
    }
