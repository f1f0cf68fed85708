"""Tests for session-archive corruption recovery.

A damaged archive must either load partially (with the damage recorded
in the session's DataQuality) or raise SessionFormatError naming the
path -- never leak a bare JSONDecodeError/KeyError traceback.
"""

import gc
import json
import shutil
import warnings
from copy import deepcopy

import pytest

from repro.api import DProf, DProfConfig
from repro.dprof.session_io import (
    CHECKSUMMED_SECTIONS,
    FORMAT_VERSION,
    OfflineSession,
    export_session,
    load_session,
    save_session,
    section_checksum,
)
from repro.errors import DegradedDataWarning, ProfilingError, SessionFormatError
from repro.faults import corrupt_section, flip_byte, tear_file
from repro.serve.store import SessionStore
from repro.util.rng import DeterministicRng

from tests.test_dprof_profiler import build_udp_machine


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A small profiled UDP session saved to disk (copied per test)."""
    k, _stack = build_udp_machine()
    dprof = DProf(k, DProfConfig(ibs_interval=200))
    dprof.attach()
    k.run(until_cycle=120_000)
    dprof.collect_histories("skbuff", sets=1, hot_chunks=2)
    k.run(until_cycle=2_000_000, stop_when=lambda: dprof.histories_done)
    dprof.detach()
    path = tmp_path_factory.mktemp("archive") / "session.json"
    save_session(dprof, path)
    return path


@pytest.fixture
def copy(archive, tmp_path):
    target = tmp_path / "session.json"
    shutil.copy(archive, target)
    return target


class TestUnusableArchives:
    def test_torn_file_raises_session_format_error(self, copy):
        tear_file(copy, keep_fraction=0.5)
        with pytest.raises(SessionFormatError) as exc_info:
            load_session(copy)
        assert str(copy) in str(exc_info.value)
        # The hierarchy holds: callers catching ProfilingError see it too.
        assert isinstance(exc_info.value, ProfilingError)

    def test_missing_file_raises_session_format_error(self, tmp_path):
        with pytest.raises(SessionFormatError, match="cannot read"):
            load_session(tmp_path / "nope.json")

    def test_non_object_root_raises(self, copy):
        copy.write_text("[1, 2, 3]")
        with pytest.raises(SessionFormatError, match="root is not an object"):
            load_session(copy)

    def test_unknown_version_raises(self, copy):
        blob = json.loads(copy.read_text())
        blob["version"] = FORMAT_VERSION + 1
        copy.write_text(json.dumps(blob))
        with pytest.raises(SessionFormatError) as exc_info:
            load_session(copy)
        assert exc_info.value.section == "version"

    def test_corrupt_core_metadata_raises(self, copy):
        blob = json.loads(copy.read_text())
        blob["window"] = 123  # not a [start, end] pair
        copy.write_text(json.dumps(blob))
        with pytest.raises(SessionFormatError) as exc_info:
            load_session(copy)
        assert exc_info.value.section == "window"

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text.replace('"window": [', '"window": [-1, '),
            lambda text: text[: len(text) // 2],
        ],
        ids=["window", "torn"],
    )
    def test_collector_enabled_again_after_decode_raises(self, copy, damage):
        copy.write_text(damage(copy.read_text()))
        assert gc.isenabled()
        with pytest.raises(SessionFormatError):
            load_session(copy)
        assert gc.isenabled()

    @pytest.mark.parametrize("geometry", [[1000, 8, 64], [65536, 8], "l2"])
    def test_bad_sim_geometry_raises(self, copy, geometry):
        # 1000 bytes is not a whole number of 8-way 64-byte sets.
        blob = json.loads(copy.read_text())
        blob["sim_geometry"] = geometry
        copy.write_text(json.dumps(blob))
        with pytest.raises(SessionFormatError) as exc_info:
            load_session(copy)
        assert exc_info.value.section == "sim_geometry"


class TestPartialRecovery:
    @pytest.mark.parametrize("section", CHECKSUMMED_SECTIONS)
    def test_flipped_value_in_section_recovers_partially(self, copy, section):
        corrupt_section(copy, section, DeterministicRng(5, "corrupt"))
        session = load_session(copy)
        assert section in session.data_quality.sections_failed
        assert session.data_quality.degraded
        # Every view still returns, annotated instead of raising.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            profile = session.data_profile()
            mc = session.miss_classification("skbuff")
            flow = session.data_flow("skbuff")
        assert profile.rows is not None
        assert mc.type_name == "skbuff"
        assert flow.nodes
        assert profile.quality is session.data_quality

    def test_lost_stats_zero_data_profile_confidence(self, copy):
        corrupt_section(copy, "stats", DeterministicRng(5, "corrupt"))
        session = load_session(copy)
        assert session.data_quality.confidence("data_profile") == 0.0
        assert session.data_quality.exit_code() == 4

    def test_degraded_offline_view_warns(self, copy):
        corrupt_section(copy, "histories", DeterministicRng(5, "corrupt"))
        session = load_session(copy)
        with pytest.warns(DegradedDataWarning, match="offline data profile"):
            session.data_profile()

    def test_missing_section_recovers_as_failed(self, copy):
        blob = json.loads(copy.read_text())
        del blob["histories"]
        copy.write_text(json.dumps(blob))
        session = load_session(copy)
        assert "histories" in session.data_quality.sections_failed
        assert session.histories == []

    @pytest.mark.parametrize("seed", range(8))
    def test_random_byte_flip_never_leaks_a_traceback(self, copy, seed):
        flip_byte(copy, DeterministicRng(seed, "flip"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            try:
                session = load_session(copy)
            except SessionFormatError:
                return  # structurally unusable: the typed error is the contract
            # Loadable: views must still come back.
            session.data_profile()
            session.data_flow("skbuff")


#: Every view of a stored archive, as (view, type) render requests.
ALL_VIEWS = (
    ("data-profile", None),
    ("working-set", None),
    ("miss-class", "skbuff"),
    ("data-flow", "skbuff"),
    ("quality", None),
    ("metrics", None),
)


def _render_all(store, digest):
    return [
        store.render_view(digest, view, type_name=type_name, use_cache=False)
        for view, type_name in ALL_VIEWS
    ]


class TestDecodeKeepsNoRows:
    """Decode reads the caller's blob and keeps only its metadata."""

    def test_damaged_decode_leaves_the_callers_blob_unchanged(self, copy):
        blob = json.loads(copy.read_text())
        blob["checksums"]["stats"] = "0" * 64
        before = deepcopy(blob)
        first = OfflineSession(blob)
        assert first.data_quality.sections_failed == ("stats",)
        assert blob == before
        # Rows added to the caller's blob reach no later decode.
        blob["stats"].append(before["stats"][0])
        damaged = json.loads(copy.read_text())
        damaged["checksums"]["stats"] = "0" * 64
        second = OfflineSession(damaged)
        assert second.data_quality.sections_failed == ("stats",)
        assert second.sampler.stats == {}

    def test_decoded_session_keeps_no_bulk_rows(self, copy, tmp_path):
        session = load_session(copy)
        assert set(session.blob) & set(CHECKSUMMED_SECTIONS) == set()
        assert session.sampler.stats and session.histories
        assert session.address_set.entries and session.symbols._ip_to_sym
        store = SessionStore(tmp_path / "store")
        digest = store.put_text(copy.read_text())
        assert all(_render_all(store, digest))

    def test_decode_and_views_create_no_reference_cycles(self, copy, tmp_path):
        # Decode and the cache replay run with the collector paused; that
        # is only safe while they leave nothing for it to find.
        store = SessionStore(tmp_path / "store")
        digest = store.put_text(copy.read_text())
        gc.collect()
        session = load_session(copy)
        assert session.working_set_sim().objects_simulated
        texts = _render_all(store, digest)
        del session
        assert all(texts)
        assert gc.collect() == 0


class TestBadChunkSize:
    """A ``chunk_size`` that is not a debug-register width loses the
    ``stats`` section, as a missing one does, and every view renders."""

    @pytest.mark.parametrize("chunk_size", [0, -4, "4", None], ids=repr)
    def test_stats_fail_and_every_view_renders(self, copy, tmp_path, chunk_size):
        blob = json.loads(copy.read_text())
        blob["chunk_size"] = chunk_size
        text = json.dumps(blob)
        session = OfflineSession(json.loads(text))
        assert session.data_quality.sections_failed == ("stats",)
        assert session.sampler.stats == {}
        store = SessionStore(tmp_path / "store")
        digest = store.put_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            assert all(_render_all(store, digest))


class TestRetypedAddressSet:
    """Damage that keeps the JSON valid and the stored checksum as it was:
    the canonical text changes, so the address set fails its checksum
    exactly as the generic encoder would say, and every view renders."""

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("size", lambda v: float(v)),
            ("alloc", lambda v: True),
            ("base", lambda v: str(v)),
            ("extra", lambda v: 5),
            ("free_cpu", lambda v: None if v is not None else 5),
        ],
        ids=["float", "bool", "numeric-string", "extra-key", "half-freed"],
    )
    def test_section_fails_and_views_render(self, copy, key, value):
        blob = json.loads(copy.read_text())
        row = blob["address_set"][len(blob["address_set"]) // 2]
        row[key] = value(row.get(key, 5))
        stored = blob["checksums"]["address_set"]
        copy.write_text(json.dumps(blob))

        session = load_session(copy)
        assert session.data_quality.sections_failed == ("address_set",)
        assert session.address_set.entries == []
        # The generic encoder gives the same verdict.
        assert section_checksum(blob["address_set"]) != stored
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            assert session.data_profile().rows
            assert session.working_set().rows == []
            assert session.miss_classification("skbuff").type_name == "skbuff"
            assert session.data_flow("skbuff").nodes


class TestBackwardCompatibility:
    def test_v1_archive_without_checksums_loads_clean(self, copy):
        blob = json.loads(copy.read_text())
        blob["version"] = 1
        del blob["checksums"]
        del blob["data_quality"]
        copy.write_text(json.dumps(blob))
        session = load_session(copy)
        assert session.data_quality.sections_failed == ()
        assert not session.data_quality.degraded
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            assert session.data_profile().rows

    def test_v2_clean_roundtrip_not_degraded(self, copy):
        session = load_session(copy)
        assert session.data_quality.sections_failed == ()
        assert not session.data_quality.degraded
