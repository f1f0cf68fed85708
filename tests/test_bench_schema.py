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
        "load_sweep": _valid_load_sweep_section(),
    }


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


def test_valid_document_passes():
    validate_report(_valid_document())


def test_rejects_report_without_sections():
    document = _valid_document()
    del document["load_sweep"]
    with pytest.raises(BenchFormatError, match="no benchmark sections"):
        validate_report(document)


def test_rejects_sections_without_a_schema():
    # A misspelled section must not pass as the report's only section.
    document = _valid_document()
    del document["load_sweep"]
    document["servce_throughput"] = {"oops": 1}
    with pytest.raises(BenchFormatError, match="servce_throughput"):
        validate_report(document)
    # Nor may a retired section ride along with a valid one.
    document = _valid_document()
    document["analysis"] = {"scenarios": [], "all_identical": True}
    with pytest.raises(BenchFormatError, match="analysis"):
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


def test_load_sweep_section_validates():
    document = _valid_document()
    validate_report(document)
    document["load_sweep"]["knee"] = None  # unsaturated sweep is fine
    validate_report(document)


def test_rejects_load_sweep_without_rates():
    document = _valid_document()
    document["load_sweep"]["rates"] = []
    with pytest.raises(BenchFormatError, match="no rate steps"):
        validate_report(document)


def test_rejects_load_step_missing_percentile():
    document = _valid_document()
    del document["load_sweep"]["rates"][0]["p99_s"]
    with pytest.raises(BenchFormatError, match="p99_s"):
        validate_report(document)


def test_rejects_knee_without_rate():
    document = _valid_document()
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
            "sections": ["load_sweep"],
        }
    ]
    validate_report(document)
    document["trajectory"][0]["sections"] = "load_sweep"
    with pytest.raises(BenchFormatError, match="sections"):
        validate_report(document)
    document["trajectory"] = {"oops": True}
    with pytest.raises(BenchFormatError, match="not a list"):
        validate_report(document)


def test_merge_report_preserves_old_sections_and_appends_trajectory():
    old = _valid_document()
    old["end_to_end"] = _valid_end_to_end_section()
    old["trajectory"] = [
        {
            "recorded_at": "2026-01-01T00:00:00+0000",
            "python": "3.12.0",
            "commit": "abc1234",
            "sections": ["end_to_end", "load_sweep"],
        }
    ]
    new = _valid_document()
    new["load_sweep"]["rates"][0]["p50_s"] = 0.5  # refreshed

    merged = merge_report(new, old)
    # New sections win; old-only sections survive the overlay.
    assert merged["load_sweep"]["rates"][0]["p50_s"] == 0.5
    assert merged["end_to_end"] == old["end_to_end"]
    # History grows by exactly one entry naming the refreshed sections.
    assert len(merged["trajectory"]) == 2
    entry = merged["trajectory"][-1]
    assert entry["sections"] == ["load_sweep"]
    assert entry["python"] == new["python"]
    validate_report(merged)


def test_write_report_appends_per_commit_trajectory(tmp_path):
    out = tmp_path / "bench.json"
    first_doc = _valid_document()
    del first_doc["load_sweep"]
    first_doc["end_to_end"] = _valid_end_to_end_section()
    write_report(first_doc, str(out))
    first = json.loads(out.read_text())
    assert len(first["trajectory"]) == 1

    write_report(_valid_document(), str(out))
    second = json.loads(out.read_text())
    assert len(second["trajectory"]) == 2
    assert second["trajectory"][-1]["sections"] == ["load_sweep"]
    assert second["load_sweep"]["arrivals"] == "poisson-open-loop"
    assert second["end_to_end"] == first["end_to_end"]
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
    del partial["load_sweep"]["rates"][0]["p50_s"]
    out = tmp_path / "bench.json"
    with pytest.raises(BenchFormatError):
        write_report(partial, str(out))
    assert not out.exists()  # refused before any bytes hit disk
    write_report(document, str(out))
    written = json.loads(out.read_text())
    assert written["load_sweep"] == document["load_sweep"]


def _quartiles(median):
    return {"median": median, "q1": median * 0.98, "q3": median * 1.02}


def _valid_end_to_end_section():
    return {
        "benchmark": "perfbench/run.py",
        "parent_commit": "d4bd017",
        "seconds": 30,
        "pairs": 10,
        "seeds": list(range(101, 111)),
        "host": "2 vCPU x86_64",
        "workloads": {
            "profile-memcached": {
                "op_p50_norm_s": {
                    "unit": "s",
                    "parent": _quartiles(5.2),
                    "change": _quartiles(3.3),
                    "change_wins": 10,
                }
            }
        },
    }


def _valid_layers_section():
    return {
        "profile-memcached": {
            "seed": 1,
            "seconds": 5,
            "parent_commit": "d4bd017",
            "rows": {
                "hw.hierarchy.access_s": {"unit": "s", "parent": 3.8, "change": 1.6},
                "hw.machine.instructions": {
                    "unit": "count", "parent": 492495, "change": 492495,
                },
            },
        }
    }


def test_end_to_end_and_layers_sections_validate():
    document = _valid_document()
    document["end_to_end"] = _valid_end_to_end_section()
    document["layers"] = _valid_layers_section()
    validate_report(document)
    del document["load_sweep"]  # perfbench sections alone are a report
    validate_report(document)


def test_rejects_end_to_end_row_missing_quartile():
    document = _valid_document()
    document["end_to_end"] = _valid_end_to_end_section()
    row = document["end_to_end"]["workloads"]["profile-memcached"]["op_p50_norm_s"]
    del row["parent"]["q3"]
    with pytest.raises(BenchFormatError, match="q3"):
        validate_report(document)


def test_rejects_end_to_end_wins_beyond_pairs():
    document = _valid_document()
    document["end_to_end"] = _valid_end_to_end_section()
    row = document["end_to_end"]["workloads"]["profile-memcached"]["op_p50_norm_s"]
    row["change_wins"] = 11
    with pytest.raises(BenchFormatError, match="change_wins"):
        validate_report(document)


def test_rejects_end_to_end_without_workloads():
    document = _valid_document()
    document["end_to_end"] = _valid_end_to_end_section()
    document["end_to_end"]["workloads"] = {}
    with pytest.raises(BenchFormatError, match="no workloads"):
        validate_report(document)


def test_rejects_layer_row_without_change():
    document = _valid_document()
    document["layers"] = _valid_layers_section()
    del document["layers"]["profile-memcached"]["rows"]["hw.hierarchy.access_s"][
        "change"
    ]
    with pytest.raises(BenchFormatError, match="change"):
        validate_report(document)


def test_rejects_empty_layers():
    document = _valid_document()
    document["layers"] = _valid_layers_section()
    document["layers"]["profile-memcached"]["rows"] = {}
    with pytest.raises(BenchFormatError, match="no rows"):
        validate_report(document)
    document["layers"] = {}
    with pytest.raises(BenchFormatError, match="no workloads"):
        validate_report(document)


def test_rejects_layers_entry_missing_seed():
    document = _valid_document()
    document["layers"] = _valid_layers_section()
    del document["layers"]["profile-memcached"]["seed"]
    with pytest.raises(BenchFormatError, match="seed"):
        validate_report(document)


def test_checked_in_baseline_validates():
    """The repo's committed BENCH_dprof.json satisfies the schema."""
    from pathlib import Path

    baseline = Path(__file__).resolve().parent.parent / "BENCH_dprof.json"
    document = json.loads(baseline.read_text())
    validate_report(document)
    # The perfbench ledger covers every benchmark workload.
    assert set(document["end_to_end"]["workloads"]) == {
        "profile-memcached", "analyze-archives", "serve-jobs",
    }
    # Traced per-layer rows: the analyze-archives rows, and the
    # profile-memcached and serve-jobs rows whose counts the CI traced
    # steps gate on.
    assert set(document["layers"]) == {
        "analyze-archives", "profile-memcached", "serve-jobs",
    }
    for workload in ("profile-memcached", "serve-jobs"):
        rows = document["layers"][workload]["rows"]
        assert rows["hw.machine.instructions"]["unit"] == "count"
        assert rows["hw.machine.instructions"]["change"] > 0


#: The smallest load sweep the CLI runs: one rate, two jobs.
SMOKE_ARGS = ["--smoke", "--load-sweep", "--load-rates", "8", "--load-jobs", "2"]


def test_smoke_without_out_writes_no_report(tmp_path, monkeypatch):
    # `python -m repro.bench --smoke` (no --out) must be read-only: the
    # committed BENCH_dprof.json is a curated baseline, not a side effect.
    from repro.bench.__main__ import main as bench_main

    sentinel = tmp_path / "BENCH_dprof.json"
    sentinel.write_text('{"do-not-touch": true}')
    before = sentinel.read_bytes()
    monkeypatch.chdir(tmp_path)
    rc = bench_main(SMOKE_ARGS)
    assert rc == 0
    assert sentinel.read_bytes() == before
    # Nothing else appeared in the working directory either.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_dprof.json"]


def test_smoke_with_out_writes_only_the_named_file(tmp_path, monkeypatch):
    from repro.bench.__main__ import main as bench_main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    rc = bench_main([*SMOKE_ARGS, "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    document = json.loads(out.read_text())
    validate_report(document)
    assert document["load_sweep"]["jobs_per_rate"] == 2
    assert document["trajectory"][-1]["sections"] == ["load_sweep"]
