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

A full view render of one archive decodes it once: the store keeps the
last decoded archive (one slot), and the views rendered from it share
its memoised path traces and cache simulation.  See
:meth:`SessionStore.render_view` for what that slot may and may not
serve.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from repro.config import VIEW_NAMES
from repro.dprof.session_io import OfflineSession, load_session
from repro.errors import ReproError, ServeError
from repro.util.files import atomic_write_text

#: Archive filename suffix inside a store directory.
ARCHIVE_SUFFIX = ".session.json"

#: Prefix for in-flight temp files (swept by :meth:`SessionStore.sweep_tmp`).
TMP_PREFIX = ".tmp-"

#: An archive digest as :func:`content_digest` writes it: a name inside
#: the store that cannot reach outside it.
DIGEST_PATTERN = re.compile(r"[0-9a-f]{64}")

#: Drained-but-unfinished jobs persist here so a restarted server (or an
#: operator) can resubmit them; written atomically like archives.
REQUEUE_FILE = "requeue.json"

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
        #: The last archive a view was rendered from: (digest, its
        #: decoded session, the (view, type, top) keys rendered from it).
        self._slot: tuple[str, OfflineSession, set[tuple]] | None = None

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
        """The archive file of *digest*.

        Every read and write of an archive goes through here, so this is
        where a digest is checked: anything but 64 lowercase hex digits
        (``../x``, say) raises :class:`~repro.errors.ServeError`.
        """
        if not isinstance(digest, str) or DIGEST_PATTERN.fullmatch(digest) is None:
            raise ServeError(f"not an archive digest: {digest!r}")
        return self.root / f"{digest}{ARCHIVE_SUFFIX}"

    def has(self, digest: str) -> bool:
        """True when the store holds *digest* (False for a non-digest)."""
        try:
            return self.path_for(digest).exists()
        except ServeError:
            return False

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
        :class:`~repro.errors.SessionFormatError` on damage).

        Always decodes the bytes on disk; it never returns the session
        :meth:`render_view` keeps."""
        path = self.path_for(digest)
        if not path.exists():
            raise ServeError(f"no archive {digest[:12]}... in store {self.root}")
        return load_session(path)

    def digests(self) -> list[str]:
        """All stored archive digests, sorted (other files are skipped)."""
        names = (
            p.name[: -len(ARCHIVE_SUFFIX)] for p in self.root.glob(f"*{ARCHIVE_SUFFIX}")
        )
        return sorted(name for name in names if DIGEST_PATTERN.fullmatch(name))

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
        so never stale); ``use_cache=False`` bypasses that on-disk cache
        and renders the view again.  The ``archive`` view is the raw
        file itself and bypasses the cache.  A
        :class:`repro.trace.Tracer` records the render as a
        ``view-render`` span carrying the cache hit/miss outcome.

        A render does not always decode the archive.  The store keeps
        one decoded archive: the last one a view was rendered from.  A
        render reuses it while the digest is the same and this (view,
        type, top) has not yet been rendered from it, so a full view set
        costs one decode and one cache simulation.  A render of another
        digest, or a repeat of a view already rendered from the kept
        session, decodes the file again and replaces it.  So
        ``use_cache=False`` does not bypass the kept session for views
        not yet rendered from it, and a file corrupted on disk after the
        first view of its digest was rendered is caught by
        :meth:`verify` or :meth:`open`, not by the later views of that
        digest.

        An archive that cannot be decoded or rendered (a corrupt core
        section, say) raises :class:`~repro.errors.ServeError` naming the
        digest and, for decode damage, the section.
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
        if not self.path_for(digest).exists():
            raise ServeError(f"no archive {digest[:12]}... in store {self.root}")
        with tracer.span("view-render", view=view):
            key = self.views.key(digest, view, type_name, top)
            if use_cache:
                cached = self.views.get(key)
                if cached is not None:
                    tracer.add(cache_hits=1)
                    return cached
            tracer.add(cache_misses=1)
            try:
                text = self._render_view_uncached(digest, view, type_name, top)
            except ServeError:
                raise
            except ReproError as exc:
                # A damaged archive fails this request, not the server.
                raise ServeError(
                    f"cannot render {view!r} from archive {digest}: {exc}"
                ) from exc
            self.views.put(key, text)
        return text

    def _session_for(self, digest: str, key: tuple) -> OfflineSession:
        """The kept decoded session for *digest*, decoding it again when
        another digest is kept or *key* was already rendered from it."""
        slot = self._slot
        if slot is None or slot[0] != digest or key in slot[2]:
            # Drop the old session first: never two decoded at once.
            self._slot = None
            slot = (digest, self.open(digest), set())
            self._slot = slot
        slot[2].add(key)
        return slot[1]

    def _render_view_uncached(
        self, digest: str, view: str, type_name: str | None, top: int
    ) -> str:
        session = self._session_for(digest, (view, type_name, top))
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
