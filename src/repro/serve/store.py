"""Content-addressed on-disk session store.

Completed profiling sessions land here as ``session_io`` archive-v2
files, named by the SHA-256 of their bytes::

    <root>/<digest>.session.json

Content addressing buys three properties the service needs:

- **dedup** -- resubmitting an identical (scenario, seed, cores, ...)
  spec produces the identical archive, so the second job costs one
  hash + stat, not a second file;
- **integrity** -- ``verify()`` re-hashes a file; a mismatch means disk
  corruption, not a service bug, and the reader's per-section checksums
  (archive v2) then recover what they can;
- **concurrency** -- writers write to a private temp file in the same
  directory and ``os.replace`` it into place, so two processes (or a
  worker and a crash) can never interleave bytes: readers see the old
  file, the new file, or no file -- never a torn hybrid.

Views are rendered from archives via
:class:`~repro.dprof.session_io.OfflineSession`, i.e. without re-running
any simulation -- the "decouple collection from analysis" half of the
service.

Rendered views are themselves memoized by :class:`ViewCache`: the
archive digest pins the raw input exactly (content addressing), so a
(digest, view, params) key can never serve stale text, and re-fetching
an already-rendered view is one file read instead of a full offline
analysis (clustering + merge + cache simulation).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.dprof.session_io import OfflineSession, atomic_write_text, load_session
from repro.errors import ServeError

#: Archive filename suffix inside a store directory.
ARCHIVE_SUFFIX = ".session.json"

#: Prefix for in-flight temp files (swept by :meth:`SessionStore.sweep_tmp`).
TMP_PREFIX = ".tmp-"

#: Drained-but-unfinished jobs persist here so a restarted server (or an
#: operator) can resubmit them; written atomically like archives.
REQUEUE_FILE = "requeue.json"

#: The views ``fetch`` can render from a stored archive.
VIEW_NAMES = (
    "data-profile",
    "working-set",
    "miss-class",
    "data-flow",
    "quality",
    "metrics",
    "archive",
)


#: Bump when any view's rendering changes; stale cache entries from an
#: older build then simply never match and age out.
VIEW_CACHE_VERSION = 2

#: Subdirectory of a store root holding memoized view renderings.
VIEW_CACHE_DIR = "views"

#: Cached-view filename suffix.
VIEW_SUFFIX = ".view"


def content_digest(text: str) -> str:
    """SHA-256 hex digest of an archive's exact bytes."""
    return hashlib.sha256(text.encode()).hexdigest()


class ViewCache:
    """Content-addressed memoization of rendered views.

    Keys are the SHA-256 of (cache version, archive digest, view name,
    view params); because the archive digest already pins the raw input
    bytes, a hit is guaranteed to equal what a fresh render would
    produce.  Entries are written with the same same-directory-temp +
    ``os.replace`` discipline as archives, so concurrent renderers race
    harmlessly.  Hit/miss counters feed :class:`~repro.serve.metrics.ServeMetrics`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def key(self, digest: str, view: str, type_name: str | None, top: int) -> str:
        material = json.dumps(
            [VIEW_CACHE_VERSION, digest, view, type_name, top],
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{VIEW_SUFFIX}"

    def get(self, key: str) -> str | None:
        """The cached rendering, or None (counted as hit/miss)."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return text

    def put(self, key: str, text: str) -> None:
        """Memoize one rendering (atomic, idempotent)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        if not path.exists():
            atomic_write_text(path, text)

    def entry_count(self) -> int:
        """Cached renderings currently on disk."""
        return sum(1 for _ in self.root.glob(f"*{VIEW_SUFFIX}"))

    def sweep_tmp(self) -> int:
        """Remove stale temp files from crashed writers."""
        removed = 0
        for tmp in self.root.glob(f"{TMP_PREFIX}*"):
            tmp.unlink(missing_ok=True)
            removed += 1
        return removed


class SessionStore:
    """A directory of content-addressed session archives."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.views = ViewCache(self.root / VIEW_CACHE_DIR)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def put_text(self, text: str) -> str:
        """Store one archive's exact text; returns its digest.

        Idempotent: an archive already present (same digest) is not
        rewritten, so concurrent workers completing the same spec race
        harmlessly.
        """
        digest = content_digest(text)
        path = self.path_for(digest)
        if not path.exists():
            atomic_write_text(path, text)
        return digest

    def write_requeue(self, specs: list[dict]) -> Path:
        """Persist drained job specs for resubmission after a restart."""
        path = self.root / REQUEUE_FILE
        atomic_write_text(path, json.dumps({"requeued": specs}, indent=2) + "\n")
        return path

    def read_requeue(self) -> list[dict]:
        """Specs persisted by the last drain ([] when none)."""
        path = self.root / REQUEUE_FILE
        if not path.exists():
            return []
        try:
            return json.loads(path.read_text()).get("requeued", [])
        except (json.JSONDecodeError, AttributeError) as exc:
            raise ServeError(f"corrupt requeue file {path}: {exc}") from exc

    def sweep_tmp(self) -> int:
        """Remove stale temp files (crashed writers); returns the count."""
        removed = 0
        for tmp in self.root.glob(f"{TMP_PREFIX}*"):
            tmp.unlink(missing_ok=True)
            removed += 1
        return removed + self.views.sweep_tmp()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}{ARCHIVE_SUFFIX}"

    def has(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def read_text(self, digest: str) -> str:
        path = self.path_for(digest)
        if not path.exists():
            raise ServeError(f"no archive {digest[:12]}... in store {self.root}")
        return path.read_text()

    def verify(self, digest: str) -> bool:
        """Re-hash the stored bytes; False means on-disk corruption."""
        return content_digest(self.read_text(digest)) == digest

    def open(self, digest: str) -> OfflineSession:
        """Offline-analysis handle for one archive (may raise
        :class:`~repro.errors.SessionFormatError` on damage)."""
        path = self.path_for(digest)
        if not path.exists():
            raise ServeError(f"no archive {digest[:12]}... in store {self.root}")
        return load_session(path)

    def digests(self) -> list[str]:
        """All stored archive digests, sorted."""
        return sorted(
            p.name[: -len(ARCHIVE_SUFFIX)]
            for p in self.root.glob(f"*{ARCHIVE_SUFFIX}")
        )

    def listing(self) -> list[dict]:
        """Digest + size for every archive (the ``list`` op's payload)."""
        return [
            {
                "digest": digest,
                "bytes": self.path_for(digest).stat().st_size,
            }
            for digest in self.digests()
        ]

    # ------------------------------------------------------------------
    # View rendering (no recomputation: archives carry everything)
    # ------------------------------------------------------------------

    def render_view(
        self,
        digest: str,
        view: str,
        type_name: str | None = None,
        top: int = 8,
        use_cache: bool = True,
        tracer=None,
    ) -> str:
        """Render one stored session as a named DProf view.

        Renders are memoized through :attr:`views` (content-addressed,
        so never stale); ``use_cache=False`` forces recomputation.  The
        ``archive`` view is the raw file itself and bypasses the cache.
        A :class:`repro.trace.Tracer` records the render as a
        ``view-render`` span carrying the cache hit/miss outcome.
        """
        if view not in VIEW_NAMES:
            raise ServeError(
                f"unknown view {view!r} (known: {', '.join(VIEW_NAMES)})"
            )
        if tracer is None:
            from repro.trace import NULL_TRACER

            tracer = NULL_TRACER
        if view == "archive":
            return self.read_text(digest)
        if not self.has(digest):
            raise ServeError(f"no archive {digest[:12]}... in store {self.root}")
        with tracer.span("view-render", view=view):
            key = self.views.key(digest, view, type_name, top)
            if use_cache:
                cached = self.views.get(key)
                if cached is not None:
                    tracer.add(cache_hits=1)
                    return cached
            tracer.add(cache_misses=1)
            text = self._render_view_uncached(digest, view, type_name, top)
            self.views.put(key, text)
        return text

    def _render_view_uncached(
        self, digest: str, view: str, type_name: str | None, top: int
    ) -> str:
        session = self.open(digest)
        if view == "data-profile":
            return session.data_profile().render(top)
        if view == "working-set":
            return session.working_set().render(top)
        if view == "quality":
            return session.data_quality.render()
        if view == "metrics":
            summary = session.metrics()
            if summary is None:
                raise ServeError(
                    f"archive {digest} predates hardware-counter export "
                    "(no metrics section)"
                )
            return summary.render()
        # miss-class and data-flow are per-type views.
        if type_name is None:
            available = sorted({h.type_name for h in session.histories})
            raise ServeError(
                f"view {view!r} needs a type= argument"
                + (f" (histories cover: {', '.join(available)})" if available else
                   " (this session recorded no histories)")
            )
        if view == "miss-class":
            return session.miss_classification(type_name).render()
        return session.data_flow(type_name).render_text()
