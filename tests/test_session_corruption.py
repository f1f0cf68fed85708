"""Tests for session-archive corruption recovery.

A damaged archive must either load partially (with the damage recorded
in the session's DataQuality) or raise SessionFormatError naming the
path -- never leak a bare JSONDecodeError/KeyError traceback.
"""

import json
import shutil
import warnings

import pytest

from repro.api import DProf, DProfConfig
from repro.dprof.session_io import (
    CHECKSUMMED_SECTIONS,
    FORMAT_VERSION,
    OfflineSession,
    export_session,
    load_session,
    save_session,
)
from repro.errors import DegradedDataWarning, ProfilingError, SessionFormatError
from repro.faults import corrupt_section, flip_byte, tear_file
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
