"""Open-loop load generator: arrival schedules, knee logic, live sweep."""

import pytest

from repro.bench.load import (
    DEFAULT_RATES,
    KNEE_EFFICIENCY,
    bench_load_sweep,
    locate_knee,
    poisson_arrivals,
)
from repro.errors import BenchFormatError
from repro.util.rng import DeterministicRng


def test_poisson_arrivals_deterministic_and_monotonic():
    first = poisson_arrivals(8.0, 100, DeterministicRng(11, "load"))
    again = poisson_arrivals(8.0, 100, DeterministicRng(11, "load"))
    assert first == again
    assert len(first) == 100
    assert all(b > a for a, b in zip(first, first[1:]))
    # Mean inter-arrival gap ~ 1/rate (loose bound: 100 samples).
    mean_gap = first[-1] / len(first)
    assert 0.5 / 8.0 < mean_gap < 2.0 / 8.0


def test_poisson_arrivals_rejects_bad_rate():
    rng = DeterministicRng(1, "load")
    with pytest.raises(BenchFormatError):
        poisson_arrivals(0.0, 10, rng)
    with pytest.raises(BenchFormatError):
        poisson_arrivals(-2.0, 10, rng)


def _step(offered, achieved, jobs=24, rejected=0):
    return {
        "offered_rate_per_s": offered,
        "realized_rate_per_s": offered,
        "jobs": jobs,
        "accepted": jobs - rejected,
        "rejected": rejected,
        "completed": jobs - rejected,
        "achieved_rate_per_s": achieved,
        "p50_s": 0.1,
        "p95_s": 0.2,
        "p99_s": 0.3,
    }


def test_locate_knee_none_when_keeping_up():
    steps = [_step(2.0, 2.0), _step(4.0, 3.9), _step(8.0, 7.8)]
    assert locate_knee(steps) is None


def test_locate_knee_finds_first_throughput_shortfall():
    steps = [_step(2.0, 2.0), _step(8.0, 6.0), _step(16.0, 6.1)]
    knee = locate_knee(steps)
    assert knee["offered_rate_per_s"] == 8.0
    assert "achieved" in knee["reason"]
    # The efficiency threshold is what decides it.
    assert 6.0 < KNEE_EFFICIENCY * 8.0


def test_locate_knee_triggers_on_rejects_alone():
    steps = [_step(4.0, 4.0), _step(8.0, 7.9, jobs=24, rejected=3)]
    knee = locate_knee(steps)
    assert knee["offered_rate_per_s"] == 8.0
    assert "rejected 3/24" in knee["reason"]


def test_locate_knee_judges_against_realized_rate_not_nominal():
    """Regression: a slow-drawn Poisson schedule (realized < nominal)
    must not fake a knee when the server keeps up with what was
    actually offered."""
    step = _step(4.0, 3.42)
    step["realized_rate_per_s"] = 3.5
    assert locate_knee([step]) is None
    step["realized_rate_per_s"] = 4.0
    assert locate_knee([step])["offered_rate_per_s"] == 4.0


def test_locate_knee_respects_custom_thresholds():
    steps = [_step(8.0, 7.0)]
    assert locate_knee(steps, efficiency=0.8) is None
    assert locate_knee(steps, efficiency=0.95)["offered_rate_per_s"] == 8.0


@pytest.mark.slow
def test_live_load_sweep_produces_valid_section():
    """A small sweep against a real in-process server: every offered
    job is accounted for and the section matches the report schema."""
    section = bench_load_sweep(
        rates=(4.0, 20.0),
        jobs_per_rate=8,
        workers=2,
        queue_size=8,
        seed=11,
    )
    assert section["arrivals"] == "poisson-open-loop"
    assert section["jobs_per_rate"] == 8
    assert len(section["rates"]) == 2
    for step in section["rates"]:
        assert step["accepted"] + step["rejected"] == step["jobs"]
        assert step["completed"] <= step["accepted"]
        assert step["completed"] > 0
        assert step["p50_s"] <= step["p95_s"] <= step["p99_s"]
    # Latency measured from scheduled arrival: with backlog it can only
    # grow with the offered rate at a fixed worker count.
    assert section["knee"] is None or "reason" in section["knee"]
    # The section slots into the full report schema.
    from repro.bench import validate_report

    document = {
        "benchmark": "repro.bench",
        "python": "3.12",
        "machine": {
            "ncores": 4, "seed": 11, "line_size": 64,
            "l1_size": 32768, "l2_size": 262144, "l3_size": 8388608,
        },
        "load_sweep": section,
    }
    validate_report(document)


def test_default_rates_ascend():
    assert list(DEFAULT_RATES) == sorted(DEFAULT_RATES)
