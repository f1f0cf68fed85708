"""Schema validation for BENCH_dprof.json documents."""

import copy
import json

import pytest

from repro.bench import merge_report, validate_report, write_report
from repro.errors import BenchFormatError


def _valid_document():
    return {
        "benchmark": "repro.bench",
        "python": "3.11.7",
        "machine": {
            "ncores": 4,
            "seed": 11,
            "line_size": 64,
            "l1_size": 32768,
            "l2_size": 262144,
            "l3_size": 8388608,
        },
        "service_throughput": {
            "scenario": "memcached",
            "jobs": 8,
            "workers": 4,
            "duration_cycles": 150000,
            "wall_s": 1.5,
            "jobs_per_minute": 320.0,
            "statuses": {"ok": 8},
        },
    }


def _valid_analysis_section():
    return {
        "scenarios": [
            {
                "name": "memcached",
                "histories": 960,
                "types": 4,
                "repeats": 3,
                "reference_s": 0.8,
                "indexed_s": 0.2,
                "speedup": 4.0,
                "identical": True,
            }
        ],
        "all_identical": True,
        "view_cache": {
            "view": "working-set",
            "repeats": 3,
            "cold_s": 0.4,
            "warm_s": 0.001,
            "speedup": 400.0,
            "hits": 3,
            "misses": 1,
            "hit_rate": 0.75,
        },
    }


def test_valid_document_passes():
    validate_report(_valid_document())


def test_analysis_section_validates():
    document = _valid_document()
    document["analysis"] = _valid_analysis_section()
    validate_report(document)


def test_analysis_view_cache_is_optional():
    document = _valid_document()
    document["analysis"] = _valid_analysis_section()
    del document["analysis"]["view_cache"]
    validate_report(document)


def test_rejects_analysis_missing_identity_flag():
    document = _valid_document()
    document["analysis"] = _valid_analysis_section()
    del document["analysis"]["all_identical"]
    with pytest.raises(BenchFormatError, match="all_identical"):
        validate_report(document)


def test_rejects_empty_analysis_scenarios():
    document = _valid_document()
    document["analysis"] = _valid_analysis_section()
    document["analysis"]["scenarios"] = []
    with pytest.raises(BenchFormatError, match="no scenario rows"):
        validate_report(document)


def test_rejects_analysis_row_missing_speedup():
    document = _valid_document()
    document["analysis"] = _valid_analysis_section()
    del document["analysis"]["scenarios"][0]["speedup"]
    with pytest.raises(BenchFormatError, match="speedup"):
        validate_report(document)


def test_rejects_malformed_view_cache_block():
    document = _valid_document()
    document["analysis"] = _valid_analysis_section()
    document["analysis"]["view_cache"]["hit_rate"] = "most"
    with pytest.raises(BenchFormatError, match="hit_rate"):
        validate_report(document)


def test_service_block_is_optional():
    document = _valid_document()
    del document["service_throughput"]
    document["analysis"] = _valid_analysis_section()
    validate_report(document)


def test_rejects_report_without_sections():
    document = _valid_document()
    del document["service_throughput"]
    with pytest.raises(BenchFormatError, match="no benchmark sections"):
        validate_report(document)


def test_rejects_non_dict_root():
    with pytest.raises(BenchFormatError, match="not an object"):
        validate_report(["not", "a", "report"])


def test_rejects_missing_top_level_field():
    document = _valid_document()
    del document["machine"]
    with pytest.raises(BenchFormatError, match="machine"):
        validate_report(document)


def test_rejects_wrong_type():
    document = _valid_document()
    document["machine"]["ncores"] = "four"
    with pytest.raises(BenchFormatError, match="ncores"):
        validate_report(document)


def test_rejects_scenario_missing_accuracy_flag():
    # Each analysis row carries its own reference-vs-indexed verdict.
    document = _valid_document()
    document["analysis"] = _valid_analysis_section()
    del document["analysis"]["scenarios"][0]["identical"]
    with pytest.raises(BenchFormatError, match="identical"):
        validate_report(document)


def test_rejects_malformed_service_block():
    document = _valid_document()
    del document["service_throughput"]["jobs_per_minute"]
    with pytest.raises(BenchFormatError, match="jobs_per_minute"):
        validate_report(document)


def _valid_load_sweep_section():
    return {
        "scenario": "synthetic",
        "duration_cycles": 60000,
        "workers": 4,
        "jobs_per_rate": 24,
        "arrivals": "poisson-open-loop",
        "rates": [
            {
                "offered_rate_per_s": 4.0,
                "realized_rate_per_s": 4.1,
                "jobs": 24,
                "accepted": 24,
                "rejected": 0,
                "completed": 24,
                "achieved_rate_per_s": 4.0,
                "p50_s": 0.12,
                "p95_s": 0.2,
                "p99_s": 0.31,
            }
        ],
        "knee": {"offered_rate_per_s": 4.0, "reason": "rejected 2/24"},
    }


def test_load_sweep_section_validates():
    document = _valid_document()
    document["load_sweep"] = _valid_load_sweep_section()
    validate_report(document)
    document["load_sweep"]["knee"] = None  # unsaturated sweep is fine
    validate_report(document)


def test_rejects_load_sweep_without_rates():
    document = _valid_document()
    document["load_sweep"] = _valid_load_sweep_section()
    document["load_sweep"]["rates"] = []
    with pytest.raises(BenchFormatError, match="no rate steps"):
        validate_report(document)


def test_rejects_load_step_missing_percentile():
    document = _valid_document()
    document["load_sweep"] = _valid_load_sweep_section()
    del document["load_sweep"]["rates"][0]["p99_s"]
    with pytest.raises(BenchFormatError, match="p99_s"):
        validate_report(document)


def test_rejects_knee_without_rate():
    document = _valid_document()
    document["load_sweep"] = _valid_load_sweep_section()
    document["load_sweep"]["knee"] = {"reason": "vibes"}
    with pytest.raises(BenchFormatError, match="offered_rate_per_s"):
        validate_report(document)


def test_trajectory_validates_and_rejects_malformed_entries():
    document = _valid_document()
    document["trajectory"] = [
        {
            "recorded_at": "2026-08-08T12:00:00+0000",
            "python": "3.12.1",
            "commit": None,
            "sections": ["service_throughput"],
        }
    ]
    validate_report(document)
    document["trajectory"][0]["sections"] = "service_throughput"
    with pytest.raises(BenchFormatError, match="sections"):
        validate_report(document)
    document["trajectory"] = {"oops": True}
    with pytest.raises(BenchFormatError, match="not a list"):
        validate_report(document)


def test_merge_report_preserves_old_sections_and_appends_trajectory():
    old = _valid_document()
    old["analysis"] = _valid_analysis_section()
    old["trajectory"] = [
        {
            "recorded_at": "2026-01-01T00:00:00+0000",
            "python": "3.12.0",
            "commit": "abc1234",
            "sections": ["analysis", "service_throughput"],
        }
    ]
    new = _valid_document()
    new["service_throughput"]["jobs_per_minute"] = 999.0  # refreshed

    merged = merge_report(new, old)
    # New sections win; old-only sections survive the overlay.
    assert merged["service_throughput"]["jobs_per_minute"] == 999.0
    assert merged["analysis"] == old["analysis"]
    # History grows by exactly one entry naming the refreshed sections.
    assert len(merged["trajectory"]) == 2
    entry = merged["trajectory"][-1]
    assert entry["sections"] == ["service_throughput"]
    assert entry["python"] == new["python"]
    validate_report(merged)


def test_write_report_appends_per_commit_trajectory(tmp_path):
    out = tmp_path / "bench.json"
    write_report(_valid_document(), str(out))
    first = json.loads(out.read_text())
    assert len(first["trajectory"]) == 1

    second_doc = _valid_document()
    second_doc["load_sweep"] = _valid_load_sweep_section()
    write_report(second_doc, str(out))
    second = json.loads(out.read_text())
    assert len(second["trajectory"]) == 2
    assert "load_sweep" in second["trajectory"][-1]["sections"]
    assert second["load_sweep"]["arrivals"] == "poisson-open-loop"
    validate_report(second)


def test_write_report_refuses_to_clobber_corrupt_baseline(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text("{torn")
    with pytest.raises(BenchFormatError, match="refusing to overwrite"):
        write_report(_valid_document(), str(out))
    assert out.read_text() == "{torn"  # untouched


def test_write_report_refuses_partial_and_writes_valid(tmp_path):
    document = _valid_document()
    partial = copy.deepcopy(document)
    del partial["service_throughput"]["wall_s"]
    out = tmp_path / "bench.json"
    with pytest.raises(BenchFormatError):
        write_report(partial, str(out))
    assert not out.exists()  # refused before any bytes hit disk
    write_report(document, str(out))
    written = json.loads(out.read_text())
    assert written["service_throughput"] == document["service_throughput"]


def test_checked_in_baseline_validates():
    """The repo's committed BENCH_dprof.json satisfies the schema."""
    from pathlib import Path

    baseline = Path(__file__).resolve().parent.parent / "BENCH_dprof.json"
    validate_report(json.loads(baseline.read_text()))


def test_smoke_without_out_writes_no_report(tmp_path, monkeypatch):
    # `python -m repro.bench --smoke` (no --out) must be read-only: the
    # committed BENCH_dprof.json is a curated baseline, not a side effect.
    from repro.bench.__main__ import main as bench_main

    sentinel = tmp_path / "BENCH_dprof.json"
    sentinel.write_text('{"do-not-touch": true}')
    before = sentinel.read_bytes()
    monkeypatch.chdir(tmp_path)
    rc = bench_main(
        [
            "--smoke",
            "--self-profile",
            "--duration", "5000",
            "--ncores", "2",
            "--service-jobs", "0",
        ]
    )
    assert rc == 0
    assert sentinel.read_bytes() == before
    # Nothing else appeared in the working directory either.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_dprof.json"]


def test_smoke_with_out_writes_only_the_named_file(tmp_path, monkeypatch):
    from repro.bench.__main__ import main as bench_main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    rc = bench_main(
        [
            "--smoke",
            "--self-profile",
            "--duration", "5000",
            "--ncores", "2",
            "--service-jobs", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    document = json.loads(out.read_text())
    validate_report(document)
    assert document["self_profile"]["duration_cycles"] == 5000
    assert document["trajectory"][-1]["sections"] == ["self_profile"]
