"""Unit math for :mod:`repro.metrics` and the three-path identity.

The three-path identity is the contract ``repro metrics`` relies on:
the same job spec must yield bit-identical metrics whether read from
the live machine, from an archived session file, or from a serve
store's rendered ``metrics`` view.
"""

import json

import pytest

from repro.metrics import MetricsSummary, machine_counters
from repro.serve.jobs import JobSpec
from repro.serve.store import SessionStore
from repro.serve.workers import execute_job, execute_job_to_store
from repro.dprof.session_io import load_session
from repro.workloads import SCENARIOS, build_kernel


def _blob():
    return {
        "accesses": 1000,
        "instructions": 2000,
        "cycles": 9000,
        "levels": {"L1": 900, "L2": 50, "L3": 30, "FOREIGN": 10, "DRAM": 10},
        "miss_kinds": {"cold": 40, "invalidation": 20, "eviction": 40},
        "latency_by_level": {
            "L1": 2700, "L2": 700, "L3": 1200, "FOREIGN": 2000, "DRAM": 2500,
        },
        "lines_total": 40,
        "lines_shared": 10,
    }


class TestSummaryMath:
    def test_derived_misses_and_rates(self):
        s = MetricsSummary.from_blob(_blob())
        assert s.l1_misses == 100
        assert s.l2_misses == 50
        assert s.l3_misses == 20
        assert s.l1_miss_rate == pytest.approx(0.1)
        assert s.mpki("L1") == pytest.approx(100 * 1000 / 2000)
        assert s.mpki("L2") == pytest.approx(50 * 1000 / 2000)
        assert s.mpki("L3") == pytest.approx(20 * 1000 / 2000)

    def test_latency_and_sharing(self):
        s = MetricsSummary.from_blob(_blob())
        assert s.total_latency == 9100
        assert s.avg_miss_latency == pytest.approx((9100 - 2700) / 100)
        assert s.cycles_per_access == pytest.approx(9100 / 1000)
        assert s.sharing_ratio == pytest.approx(0.25)

    def test_blob_round_trip(self):
        blob = _blob()
        assert MetricsSummary.from_blob(blob).to_blob() == blob
        # Archives hold JSON, so string-keyed re-parse must round-trip too.
        reparsed = json.loads(json.dumps(blob))
        assert MetricsSummary.from_blob(reparsed).to_blob() == blob

    def test_zero_division_guards(self):
        empty = MetricsSummary.from_blob(
            {
                "accesses": 0, "instructions": 0, "cycles": 0,
                "levels": {}, "miss_kinds": {}, "latency_by_level": {},
                "lines_total": 0, "lines_shared": 0,
            }
        )
        assert empty.l1_miss_rate == 0.0
        assert empty.mpki("L1") == 0.0
        assert empty.avg_miss_latency == 0.0
        assert empty.cycles_per_access == 0.0
        assert empty.sharing_ratio == 0.0
        assert "top-down metrics" in empty.render()

    def test_render_is_one_screen(self):
        text = MetricsSummary.from_blob(_blob()).render()
        assert text.startswith("== top-down metrics ")
        assert text.endswith("\n")
        rows = text.strip("\n").split("\n")
        assert len(rows) <= 10
        for needle in ("MPKI", "miss latency", "sharing", "miss kinds"):
            assert needle in text


class TestMachineCounters:
    def test_counters_from_live_machine(self):
        kernel = build_kernel(2, seed=11)
        SCENARIOS["kernel-counters"](kernel, 10_000)
        counters = machine_counters(kernel.machine)
        summary = MetricsSummary.from_blob(counters)
        assert summary.accesses > 0
        assert summary.instructions == kernel.machine.total_instructions
        assert summary.cycles == kernel.machine.elapsed_cycles()
        assert sum(summary.levels.values()) == summary.accesses
        assert MetricsSummary.from_machine(kernel.machine) == summary

    def test_snapshot_unchanged_by_metrics_counters(self):
        # The hierarchy-equivalence pin compares snapshot() dicts; the
        # new counters must ride in metrics_counters() only.
        kernel = build_kernel(2, seed=11)
        SCENARIOS["kernel-counters"](kernel, 10_000)
        stats = kernel.machine.hierarchy.stats
        snapshot = stats.snapshot()
        assert "latency_by_level" not in snapshot
        assert "lines_total" not in snapshot
        extended = stats.metrics_counters()
        for key, value in snapshot.items():
            assert extended[key] == value


class TestThreePathIdentity:
    def test_live_archive_and_store_agree(self, tmp_path):
        spec = JobSpec.create(
            scenario="kernel-counters", duration=50_000, seed=11
        )
        status, archive_text, _info = execute_job(spec)
        assert status == "ok"

        # Path 1: live counters embedded in the archive text.
        live = MetricsSummary.from_blob(
            json.loads(archive_text)["hw_counters"]
        )

        # Path 2: archived session file via load_session.
        path = tmp_path / "kernel.session.json"
        path.write_text(archive_text)
        archived = load_session(path).metrics()
        assert archived is not None

        # Path 3: serve store's rendered "metrics" view.
        store_root = tmp_path / "store"
        outcome = execute_job_to_store(spec, store_root)
        rendered = SessionStore(store_root).render_view(
            outcome["digest"], "metrics"
        )

        assert archived.to_blob() == live.to_blob()
        assert rendered == live.render() == archived.render()

    def test_store_metrics_view_is_cached(self, tmp_path):
        spec = JobSpec.create(
            scenario="kernel-ring", duration=20_000, seed=11
        )
        outcome = execute_job_to_store(spec, tmp_path)
        store = SessionStore(tmp_path)
        cold = store.render_view(outcome["digest"], "metrics")
        hits_before = store.views.hits
        warm = store.render_view(outcome["digest"], "metrics")
        assert warm == cold
        assert store.views.hits == hits_before + 1

    def test_pre_metrics_archive_reports_none(self, tmp_path):
        spec = JobSpec.create(
            scenario="kernel-ring", duration=20_000, seed=11
        )
        _status, archive_text, _info = execute_job(spec)
        blob = json.loads(archive_text)
        del blob["hw_counters"]
        path = tmp_path / "old.session.json"
        path.write_text(json.dumps(blob))
        assert load_session(path).metrics() is None
