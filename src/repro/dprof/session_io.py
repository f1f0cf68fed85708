"""Profiling-session serialization (the DCPI lineage).

The paper: "Currently DProf stores all raw samples in RAM while
profiling.  Techniques from DCPI can be used to transfer samples to disk
while profiling."  This module provides the disk half: a profiling
session's raw data (aggregated sample statistics, object access
histories, the address set, and the symbol map) serializes to JSON, and
an :class:`OfflineSession` rebuilds every DProf view from the file alone
-- profile on one machine, analyze anywhere.  :class:`OfflineSession`
is also the only code that builds views: a detached
:class:`~repro.dprof.profiler.DProf` analyses its in-memory records
through :meth:`OfflineSession.from_profiler`.

Because archives cross machine boundaries they also see storage faults:
torn writes and flipped bytes.  Format version 2 therefore carries a
SHA-256 checksum per bulk section, validated on load.  A section that
fails its checksum (or fails to parse) is dropped and reported in the
session's :class:`~repro.dprof.quality.DataQuality` -- best-effort
partial recovery -- while structurally unusable files (bad JSON, unknown
version, corrupt core metadata) raise
:class:`~repro.errors.SessionFormatError` naming the path and section.
"""

from __future__ import annotations

import hashlib
import json
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path

from repro.dprof.cachesim import DProfCacheSim, WorkingSetSimResult
from repro.dprof.pathtrace import PathTraceBuilder, analyze_histories
from repro.dprof.quality import DataQuality
from repro.dprof.records import (
    AccessStats,
    AddressSet,
    AddressSetEntry,
    HistoryElement,
    ObjectAccessHistory,
)
from repro.dprof.views import (
    DataFlowView,
    DataProfileRow,
    DataProfileView,
    MissClassification,
    MissClassifier,
    WorkingSetRow,
    WorkingSetView,
)
from repro.errors import ConfigError, SessionFormatError
from repro.hw.cache import CacheGeometry
from repro.hw.events import CacheLevel
from repro.kernel.symbols import SymbolTable
from repro.metrics import MetricsSummary, machine_counters
from repro.util.collector import collector_paused
from repro.util.rng import DeterministicRng

#: v1 = no checksums (pre-robustness archives, still loadable);
#: v2 = per-section SHA-256 checksums + embedded data-quality report.
FORMAT_VERSION = 2

#: The bulk sections covered by checksums and partial recovery.  Core
#: metadata (window, geometry, miss totals) is small and load-bearing:
#: if it is corrupt the archive is unusable and loading raises.
CHECKSUMMED_SECTIONS = ("stats", "histories", "address_set", "symbols")

#: Builds the empty replacement for a recoverable section that fails to
#: verify: a fresh object per decode, never shared between sessions.
_EMPTY_SECTION = {
    "stats": list,
    "histories": list,
    "address_set": list,
    "symbols": dict,
}


def section_checksum(section, canonical: bytes | bytearray | None = None) -> str:
    """SHA-256 over the section's canonical JSON encoding.

    *canonical* is that encoding when the caller has already formatted
    it (see :func:`_canonical_address_rows`).
    """
    if canonical is None:
        canonical = json.dumps(section, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canonical).hexdigest()


#: The canonical encoding of one exported address-set row (sorted keys,
#: no spaces, ASCII escapes) and the comma after it, for an object still
#: live at the end of recording and for a freed one.
_LIVE_ROW = (
    b'{"alloc":%d,"alloc_cpu":%d,"base":%d,"free":null,"free_cpu":null,'
    b'"size":%d,"type":%s},'
)
_FREED_ROW = (
    b'{"alloc":%d,"alloc_cpu":%d,"base":%d,"free":%d,"free_cpu":%d,'
    b'"size":%d,"type":%s},'
)


def _canonical_address_rows(rows, entries: list | None = None) -> bytearray | None:
    """The canonical encoding of an ``address_set`` section, or None.

    Equals ``json.dumps(rows, sort_keys=True, separators=(",", ":"))``,
    encoded, for a list of rows of exactly the exported shape: a dict of
    the seven keys, ``alloc``/``alloc_cpu``/``base``/``size`` of type
    ``int``, ``free``/``free_cpu`` both ``None`` or both ``int``, and a
    ``str`` ``type``.  Any other row returns None, and the caller takes
    the generic path.  When *entries* is a list, the same pass appends
    each row's :class:`AddressSetEntry` to it.
    """
    if type(rows) is not list:
        return None
    # Rows go straight into one buffer: no formatted row stays allocated
    # among the long-lived entries this loop builds.
    encoded = bytearray(b"[")
    escaped: dict[str, bytes] = {}
    try:
        for row in rows:
            if type(row) is not dict or len(row) != 7:
                return None
            name = row["type"]
            base = row["base"]
            size = row["size"]
            alloc = row["alloc"]
            alloc_cpu = row["alloc_cpu"]
            free = row["free"]
            free_cpu = row["free_cpu"]
            if (
                type(alloc) is not int
                or type(alloc_cpu) is not int
                or type(base) is not int
                or type(size) is not int
                or type(name) is not str
            ):
                return None
            quoted = escaped.get(name)
            if quoted is None:
                quoted = escaped[name] = encode_basestring_ascii(name).encode()
            if free is None and free_cpu is None:
                encoded += _LIVE_ROW % (alloc, alloc_cpu, base, size, quoted)
            elif type(free) is int and type(free_cpu) is int:
                encoded += _FREED_ROW % (
                    alloc, alloc_cpu, base, free, free_cpu, size, quoted
                )
            else:
                return None
            if entries is not None:
                entries.append(
                    AddressSetEntry(name, base, size, alloc, alloc_cpu, free, free_cpu)
                )
    except (KeyError, ValueError):
        # A missing key, or an int too long to print: the generic path
        # gives today's verdict for both.
        return None
    if rows:
        encoded[-1:] = b"]"  # in place of the comma after the last row
    else:
        encoded += b"]"
    return encoded


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def _profile_metadata(dprof) -> dict:
    """A DProf session's per-type metadata, keys in archive order.

    The miss and sample counts, bounce flags, descriptions and static
    footprints that the data profile reads.  :func:`export_session`
    archives them and :meth:`OfflineSession.from_profiler` analyses
    them in place.
    """
    sampler = dprof.sampler
    slab = dprof.kernel.slab
    return {
        "total_l1_misses": sampler.total_l1_misses,
        "type_misses": {str(k): v for k, v in sampler.type_misses.items()},
        "type_samples": {str(k): v for k, v in sampler.type_samples.items()},
        # Bounce combines history evidence with the foreign-sample
        # fallback, which needs the raw samples -- compute it here.
        "bounce": {
            str(name): dprof.bounce_flag(str(name))
            for name, _count in sampler.type_misses.items()
        },
        "descriptions": dict(dprof._type_descriptions),
        "static_bytes": {
            name: slab.static_bytes(name) for name in slab.static_objects_by_type()
        },
    }


def export_session(dprof) -> dict:
    """Serialize a (detached) DProf session to a JSON-compatible dict."""
    sampler = dprof.sampler
    stats_blob = []
    for (type_name, chunk, ip), stats in sampler.stats.items():
        stats_blob.append(
            {
                "type": type_name,
                "chunk": chunk,
                "ip": ip,
                "count": stats.count,
                "levels": {level.name: n for level, n in stats.level_counts.items() if n},
                "latency_mean": stats.latency.mean,
                "latency_count": stats.latency.count,
            }
        )
    histories_blob = []
    for h in dprof.history.histories:
        histories_blob.append(
            {
                "type": h.type_name,
                "base": h.object_base,
                "cookie": h.object_cookie,
                "offsets": [list(c) for c in h.offsets],
                "alloc_cpu": h.alloc_cpu,
                "alloc_cycle": h.alloc_cycle,
                "free_cycle": h.free_cycle,
                "free_cpu": h.free_cpu,
                "set_index": h.set_index,
                "truncated": int(h.truncated),
                "elements": [
                    [el.offset, el.ip, el.cpu, el.time, int(el.is_write)]
                    for el in h.elements
                ],
            }
        )
    address_blob = [
        {
            "type": e.type_name,
            "base": e.base,
            "size": e.size,
            "alloc": e.alloc_cycle,
            "alloc_cpu": e.alloc_cpu,
            "free": e.free_cycle,
            "free_cpu": e.free_cpu,
        }
        for e in dprof.address_set.entries
    ]
    symbols_blob = {
        str(ip): list(sym) for ip, sym in dprof.kernel.symbols._ip_to_sym.items()
    }
    cfg = dprof.machine.config
    blob = {
        "version": FORMAT_VERSION,
        "window": [dprof.profile_start_cycle, dprof.profile_end_cycle],
        **_profile_metadata(dprof),
        "stats": stats_blob,
        "histories": histories_blob,
        "address_set": address_blob,
        "symbols": symbols_blob,
        "sim_geometry": [cfg.l2_size, cfg.l2_ways, cfg.line_size],
        "chunk_size": dprof.config.chunk_size,
        "data_quality": dprof.data_quality().to_blob(),
        # Raw hierarchy/instruction counters for the top-down metrics
        # summary (repro.metrics).  Not checksummed: plain ints, and old
        # readers must keep accepting archives without the section.
        "hw_counters": machine_counters(dprof.machine),
    }
    canonical = {"address_set": _canonical_address_rows(address_blob)}
    blob["checksums"] = {
        name: section_checksum(blob[name], canonical.get(name))
        for name in CHECKSUMMED_SECTIONS
    }
    return blob


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write *text* via a same-directory temp file + ``os.replace``.

    Archives are written by concurrent worker processes into shared
    store directories (:mod:`repro.serve.store`), so a plain
    ``write_text`` would let two writers -- or one writer and a crash --
    interleave and produce exactly the torn files the checksums exist to
    catch.  The same-directory temp file keeps source and destination on
    one filesystem, which is what makes ``os.replace`` atomic: readers
    see the old bytes, the new bytes, or no file, never a hybrid.
    """
    path = Path(path)
    tmp = path.parent / f".tmp-{path.name}.{os.getpid()}"
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def save_session(dprof, path: str | Path) -> Path:
    """Export and atomically write a session archive to *path*."""
    return atomic_write_text(path, json.dumps(export_session(dprof)))


# ----------------------------------------------------------------------
# Offline analysis
# ----------------------------------------------------------------------


class _OfflineSampler:
    """Just enough of AccessSampleCollector for the view builders."""

    def __init__(self, rows: list, chunk_size: int) -> None:
        self.chunk_size = chunk_size
        self.stats: dict[tuple, AccessStats] = {}
        for item in rows:
            stats = AccessStats()
            stats.count = item["count"]
            for name, n in item["levels"].items():
                stats.level_counts[CacheLevel[name]] = n
            stats.latency.count = item["latency_count"]
            stats.latency.mean = item["latency_mean"]
            self.stats[(item["type"], item["chunk"], item["ip"])] = stats

    def stats_for(self, type_name: str, offset: int, ip: int):
        chunk = (offset // self.chunk_size) * self.chunk_size
        return self.stats.get((type_name, chunk, ip))


class OfflineSession:
    """Rebuilds DProf's views from a serialized session archive.

    Loading is best-effort: bulk sections that fail checksum validation
    or parsing are dropped (recorded in :attr:`data_quality`), the rest
    of the archive still loads, and every rebuilt view carries the
    quality report.  Corrupt core metadata raises
    :class:`~repro.errors.SessionFormatError` instead.

    The session never writes into the blob it is given.  It keeps the
    blob's metadata as :attr:`blob`, without the bulk sections
    (:data:`CHECKSUMMED_SECTIONS`) whose rows it rebuilds into records,
    so those rows are freed with the caller's blob.

    :meth:`from_profiler` builds the same session over a detached
    profiler's records instead; every view is built by this class.
    """

    def __init__(self, blob: dict, path: str | Path | None = None) -> None:
        self.path = path
        version = blob.get("version")
        if version not in (1, FORMAT_VERSION):
            raise SessionFormatError(
                f"unsupported session format {version!r} "
                f"(this build reads 1-{FORMAT_VERSION})",
                path=path,
                section="version",
            )
        # One pass formats the address set's canonical encoding for its
        # checksum and rebuilds its entries; a section outside the
        # exported shape takes the generic path below instead.
        address_entries: list[AddressSetEntry] = []
        canonical = {
            "address_set": _canonical_address_rows(
                blob.get("address_set"), address_entries
            )
        }
        sections, failed = self._validate_sections(blob, version, canonical)
        self.blob = {
            name: value
            for name, value in blob.items()
            if name not in CHECKSUMMED_SECTIONS
        }
        self.data_quality = DataQuality.from_blob(blob.get("data_quality", {}))

        with self._recover(failed, "window", required=True):
            start, end = blob["window"]
            self.window = (int(start), int(end))
        with self._recover(failed, "sim_geometry", required=True):
            size, ways, line = blob["sim_geometry"]
            self.sim_geometry = CacheGeometry(int(size), int(ways), int(line))
        with self._recover(failed, "symbols"):
            self.symbols = SymbolTable()
            for ip, (fn, site) in sections["symbols"].items():
                self.symbols._ip_to_sym[int(ip)] = (fn, site)
        with self._recover(failed, "stats"):
            self.sampler = _OfflineSampler(sections["stats"], blob["chunk_size"])
        with self._recover(failed, "address_set"):
            if canonical["address_set"] is not None and "address_set" not in failed:
                self.address_set = AddressSet.from_intervals(address_entries)
            else:
                self.address_set = AddressSet()
                for e in sections["address_set"]:
                    self.address_set.record_interval(
                        e["type"],
                        e["base"],
                        e["size"],
                        e["alloc_cpu"],
                        e["alloc"],
                        e["free_cpu"],
                        e["free"],
                    )
        with self._recover(failed, "histories"):
            self.histories = [self._history_from(h) for h in sections["histories"]]

        self.data_quality.sections_failed = tuple(sorted(set(failed)))
        self._start_analysis(DeterministicRng(3, "offline"))

    @classmethod
    def from_profiler(cls, dprof) -> "OfflineSession":
        """The session of a detached :class:`~repro.dprof.profiler.DProf`.

        It analyses the profiler's own sampler, histories, address set,
        symbols and window, with nothing encoded or decoded.  Four
        inputs differ from a served session of the same run, so that
        the live views stay as they were:

        - the cache simulation draws from the profiler's seed,
          ``DeterministicRng(seed, "dprof").child("cachesim")``, where
          a served session draws from ``DeterministicRng(3, "offline")``;
        - a type without a description takes its static objects' one;
        - a type with no live bytes shows its static bytes, else its
          type size, where a served session shows its static bytes or 0;
        - path-trace analysis records its ``analysis`` span on the
          profiler's tracer.
        """
        meta = _profile_metadata(dprof)
        slab = dprof.kernel.slab
        descriptions = meta["descriptions"]
        for name, statics in slab.static_objects_by_type().items():
            if not descriptions.get(name):
                descriptions[name] = statics[0].otype.description
        footprints = meta["static_bytes"]
        for name, size in dprof._type_sizes.items():
            if not footprints.get(name):
                footprints[name] = size
        cfg = dprof.machine.config
        session = cls.__new__(cls)
        session.path = None
        session.blob = meta
        session.data_quality = dprof.data_quality()
        session.window = (dprof.profile_start_cycle, dprof.profile_end_cycle)
        session.sim_geometry = CacheGeometry(cfg.l2_size, cfg.l2_ways, cfg.line_size)
        session.symbols = dprof.kernel.symbols
        session.sampler = dprof.sampler
        session.address_set = dprof.address_set
        session.histories = dprof.history.histories
        session._start_analysis(
            DeterministicRng(dprof.config.seed, "dprof").child("cachesim"),
            tracer=dprof.tracer,
            view_context="",
        )
        return session

    def _start_analysis(self, sim_rng, tracer=None, view_context="offline ") -> None:
        """Empty the analysis caches and set the inputs a live session
        chooses: the cache-sim stream, the tracer, the warning context."""
        self.sim_rng = sim_rng
        self.tracer = tracer
        self._view_context = view_context
        self._traces_cache: dict[str, list] = {}
        self._sim_cache: WorkingSetSimResult | None = None
        self._live_means_cache: dict[str, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Validation and recovery
    # ------------------------------------------------------------------

    def _validate_sections(
        self, blob: dict, version: int, canonical: dict[str, bytearray | None]
    ) -> tuple[dict, list[str]]:
        """Checksum-validate bulk sections: (sections to rebuild, failed).

        *canonical* maps a section name to its canonical encoding when
        that is already formatted.  Failed or missing sections are
        replaced with fresh empty data so the rest of the constructor
        can proceed; *blob* itself is left as it is.  v1 archives have
        no checksums, so only structural parsing protects them.
        """
        sections: dict = {}
        failed: list[str] = []
        checksums = blob.get("checksums", {}) if version >= 2 else {}
        if version >= 2 and not isinstance(checksums, dict):
            raise SessionFormatError(
                "checksum table is not an object", path=self.path, section="checksums"
            )
        for name in CHECKSUMMED_SECTIONS:
            section = blob.get(name)
            if section is None or (
                version >= 2
                and checksums.get(name) != section_checksum(section, canonical.get(name))
            ):
                failed.append(name)
                section = _EMPTY_SECTION[name]()
            sections[name] = section
        return sections, failed

    def _recover(self, failed, section, required=False):
        """Context manager: demote section parse errors to recovery notes."""
        return _SectionRecovery(self, failed, section, required)

    @staticmethod
    def _history_from(blob: dict) -> ObjectAccessHistory:
        h = ObjectAccessHistory(
            type_name=blob["type"],
            object_base=blob["base"],
            object_cookie=blob["cookie"],
            offsets=tuple(tuple(c) for c in blob["offsets"]),
            alloc_cpu=blob["alloc_cpu"],
            alloc_cycle=blob["alloc_cycle"],
            set_index=blob.get("set_index", 0),
            truncated=bool(blob.get("truncated", 0)),
        )
        h.free_cycle = blob["free_cycle"]
        h.free_cpu = blob["free_cpu"]
        h.elements = [
            HistoryElement(offset=o, ip=ip, cpu=cpu, time=t, is_write=bool(w))
            for o, ip, cpu, t, w in blob["elements"]
        ]
        return h

    def _attach_quality(self, view, name: str):
        view.quality = self.data_quality
        self.data_quality.warn_if_degraded(f"{self._view_context}{name} view")
        return view

    # ------------------------------------------------------------------
    # Views (the live DProf facade delegates here)
    # ------------------------------------------------------------------

    def path_traces(self, type_name: str):
        cached = self._traces_cache.get(type_name)
        if cached is None:
            builder = PathTraceBuilder(self.symbols, self.sampler)
            relevant = [h for h in self.histories if h.type_name == type_name]
            cached = builder.build(type_name, relevant)
            self._traces_cache[type_name] = cached
        return cached

    def live_means(self, type_name: str) -> tuple[float, float]:
        """Mean (bytes, objects) of *type_name* live over the window.

        Memoised per type: the window is fixed, so the data profile and
        the working set share one integration pass.
        """
        means = self._live_means_cache.get(type_name)
        if means is None:
            start, end = self.window
            means = self.address_set.live_means(type_name, start, end)
            self._live_means_cache[type_name] = means
        return means

    def working_set_sim(self) -> WorkingSetSimResult:
        if self._sim_cache is None:
            sim = DProfCacheSim(self.sim_geometry, self.sim_rng)
            # One batch analysis pass for every type not already built
            # individually.
            by_type: dict[str, list[ObjectAccessHistory]] = {}
            for h in self.histories:
                by_type.setdefault(h.type_name, []).append(h)
            pending = {
                name: hists
                for name, hists in by_type.items()
                if name not in self._traces_cache
            }
            if pending:
                self._traces_cache.update(
                    analyze_histories(
                        self.symbols, self.sampler, pending, tracer=self.tracer
                    )
                )
            traces = {name: self.path_traces(name) for name in by_type}
            self._sim_cache = sim.simulate(self.address_set, traces)
        return self._sim_cache

    def data_profile(self) -> DataProfileView:
        blob = self.blob
        total_misses = sum(blob["type_misses"].values()) or 1
        rows = []
        for type_name, misses in sorted(
            blob["type_misses"].items(), key=lambda kv: kv[1], reverse=True
        ):
            live = self.live_means(type_name)[0]
            if not live:
                live = float(blob["static_bytes"].get(type_name, 0))
            bounce = blob.get("bounce", {}).get(type_name)
            if bounce is None:
                bounce = any(
                    len({el.cpu for el in h.elements} | {h.alloc_cpu}) > 1
                    for h in self.histories
                    if h.type_name == type_name
                )
            rows.append(
                DataProfileRow(
                    type_name=type_name,
                    description=blob["descriptions"].get(type_name, ""),
                    working_set_bytes=live,
                    miss_share=misses / total_misses,
                    bounce=bounce,
                    sample_count=blob["type_samples"].get(type_name, 0),
                )
            )
        view = DataProfileView(rows, blob["total_l1_misses"])
        return self._attach_quality(view, "data profile")

    def working_set(self) -> WorkingSetView:
        """The working set view (Section 4.2).

        Completes the view quartet: every view a live
        :class:`~repro.dprof.profiler.DProf` offers can be re-rendered
        from the archive alone (the service's ``fetch`` relies on this).
        """
        start, end = self.window
        sim = self.working_set_sim()
        rows = []
        for type_name in self.address_set.type_names():
            live_bytes, live_objects = self.live_means(type_name)
            rows.append(
                WorkingSetRow(
                    type_name=type_name,
                    mean_live_bytes=live_bytes,
                    mean_live_objects=live_objects,
                    mean_resident_lines=sim.mean_resident_lines.get(type_name, 0.0),
                )
            )
        view = WorkingSetView(rows, sim, window_cycles=end - start)
        return self._attach_quality(view, "working set")

    def miss_classification(self, type_name: str) -> MissClassification:
        classifier = MissClassifier(self.working_set_sim())
        view = classifier.classify(type_name, self.path_traces(type_name))
        return self._attach_quality(view, "miss classification")

    def data_flow(self, type_name: str) -> DataFlowView:
        view = DataFlowView(type_name, self.path_traces(type_name))
        return self._attach_quality(view, "data flow")

    def metrics(self) -> MetricsSummary | None:
        """Top-down metrics summary, or None for pre-metrics archives.

        Derived purely from the archived counter integers, so the
        numbers equal the live run's :func:`MetricsSummary.from_machine`
        exactly -- the three-path identity the CLI's ``repro metrics``
        relies on.
        """
        counters = self.blob.get("hw_counters")
        if not isinstance(counters, dict):
            return None
        try:
            return MetricsSummary.from_blob(counters)
        except (KeyError, TypeError, ValueError):
            return None


class _SectionRecovery:
    """Demotes one section's parse failure to empty data + a quality note.

    Required sections (core metadata) re-raise as
    :class:`SessionFormatError` instead -- there is nothing sensible to
    recover to.
    """

    #: A ConfigError is a value its section's type refuses, such as a
    #: cache geometry whose size is not a multiple of ways * line size.
    _PARSE_ERRORS = (KeyError, TypeError, ValueError, IndexError, ConfigError)

    def __init__(self, session, failed, section, required) -> None:
        self.session = session
        self.failed = failed
        self.section = section
        self.required = required

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is None:
            return False
        if not issubclass(exc_type, self._PARSE_ERRORS):
            return False
        if self.required:
            raise SessionFormatError(
                f"corrupt required section: {exc!r}",
                path=self.session.path,
                section=self.section,
            ) from exc
        if self.section not in self.failed:
            self.failed.append(self.section)
        # Leave the session attribute in its pristine-empty state.
        defaults = {
            "symbols": SymbolTable(),
            "stats": _OfflineSampler([], self.session.blob.get("chunk_size", 8) or 8),
            "address_set": AddressSet(),
            "histories": [],
        }
        attr = {"stats": "sampler"}.get(self.section, self.section)
        setattr(self.session, attr, defaults[self.section])
        return True


def load_session(path: str | Path) -> OfflineSession:
    """Read a session archive and return an offline analysis handle.

    Raises :class:`~repro.errors.SessionFormatError` (never a bare
    ``json.JSONDecodeError``/``KeyError``) for torn or malformed files,
    naming the path; recoverable section damage loads partially instead.

    The cyclic collector is paused while the JSON is parsed, checksummed
    and rebuilt into records: that work allocates only acyclic data, all
    of it freed by reference counting.  The parsed rows are freed before
    the pause ends, or the first collection after it would walk them all.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SessionFormatError(f"cannot read archive: {exc}", path=path) from exc
    except UnicodeDecodeError as exc:
        raise SessionFormatError(
            f"archive is not valid UTF-8 (flipped byte?): {exc}", path=path
        ) from exc
    with collector_paused():
        try:
            blob = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SessionFormatError(
                f"archive is not valid JSON (torn write?): {exc}", path=path
            ) from exc
        if not isinstance(blob, dict):
            raise SessionFormatError("archive root is not an object", path=path)
        session = OfflineSession(blob, path=path)
        del blob
    return session
