"""Ground-truth differential tier for the generated kernel families.

Every family in ``KERNEL_FAMILIES`` ships a closed-form model
(``expected_metrics``) of the top-down metrics the simulator must
produce.  This tier runs each family through the same DProf attachment
path the service uses, on both hierarchies (the machine's fast one and
the reference oracle) and at machine seeds {1, 4}, and asserts the
measured :class:`MetricsSummary` against the model -- exact where the
model declares exact, within the declared band where thread
interleaving makes the number statistical.

The per-family tolerance declarations live in ``BANDED_METRICS`` below:
a family may only band the metrics listed for it; everything else in
its model must be exact.  That keeps tolerance creep visible in review.
"""

import json

import pytest

from repro.api import DProf, DProfConfig
from repro.dprof.session_io import OfflineSession, export_session
from repro.errors import ConfigError
from repro.hw.machine import MachineConfig
from repro.metrics import MetricsSummary
from repro.workloads import SCENARIOS, build_kernel
from repro.workloads.kernels import (
    KERNEL_DEFAULT_DURATION,
    KERNEL_FAMILIES,
    KernelSpec,
    expected_metrics,
    metric_value,
    spec_for_duration,
)
from tests.hierarchy_oracle import HIERARCHIES, use_hierarchy

#: Machine seeds: the models are seed-free, so they must hold at any.
SEEDS = (1, 4)
FAMILIES = tuple(sorted(KERNEL_FAMILIES))

#: Which metrics each family is allowed to model as a band rather than
#: an exact value.  Single-core families and padded counters are fully
#: deterministic; the falsely-shared families depend on the scheduler's
#: interleaving, so only their coherence-traffic metrics get bands.
BANDED_METRICS = {
    "kernel-strided": frozenset(),
    "kernel-stream": frozenset(),
    "kernel-chase": frozenset(),
    "kernel-counters": frozenset(),
    "kernel-pingpong": frozenset(
        {"level:FOREIGN", "level:L1", "miss_kind:invalidation",
         "l1_miss_rate", "avg_miss_latency", "cycles_per_access", "cycles"}
    ),
    "kernel-ring": frozenset(
        {"level:FOREIGN", "level:L1", "miss_kind:invalidation",
         "l1_miss_rate", "avg_miss_latency", "cycles_per_access", "cycles"}
    ),
}

# One simulated run per (family, hierarchy, seed) cell, shared by every
# assertion over that cell.
_RUNS: dict = {}


def _run_cell(name: str, hierarchy: str, seed: int):
    key = (name, hierarchy, seed)
    if key not in _RUNS:
        spec = spec_for_duration(name, KERNEL_DEFAULT_DURATION)
        with use_hierarchy(hierarchy):
            kernel = build_kernel(max(spec.cores, 2), seed=seed)
        dprof = DProf(kernel, DProfConfig(ibs_interval=400))
        dprof.attach()
        try:
            SCENARIOS[name](kernel, KERNEL_DEFAULT_DURATION)
        finally:
            dprof.detach()
        live = MetricsSummary.from_machine(kernel.machine)
        blob = json.loads(json.dumps(export_session(dprof)))
        _RUNS[key] = (spec, kernel.machine.config, live, blob)
    return _RUNS[key]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("name", FAMILIES)
def test_simulator_matches_ground_truth_model(name, hierarchy, seed):
    spec, machine_config, live, _blob = _run_cell(name, hierarchy, seed)
    model = expected_metrics(spec, machine_config)
    assert model, f"{name}: empty ground-truth model"
    failures = []
    for metric, expectation in sorted(model.items()):
        value = metric_value(live, metric)
        if not expectation.check(value):
            failures.append(
                f"{metric}: got {value}, expected "
                f"[{expectation.lo}, {expectation.hi}]"
            )
    assert not failures, (
        f"{name} on {hierarchy} (seed={seed}) diverged from its "
        f"ground-truth model:\n  " + "\n  ".join(failures)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@pytest.mark.parametrize("name", FAMILIES)
def test_archived_metrics_equal_live_metrics(name, hierarchy, seed):
    _spec, _cfg, live, blob = _run_cell(name, hierarchy, seed)
    offline = OfflineSession(blob).metrics()
    assert offline is not None
    assert offline.to_blob() == live.to_blob()
    assert offline.render() == live.render()


@pytest.mark.parametrize("name", FAMILIES)
def test_engines_agree_on_every_metric(name):
    _s1, _c1, reference, _b1 = _run_cell(name, "reference", 1)
    _s2, _c2, fast, _b2 = _run_cell(name, "fast", 1)
    assert reference.to_blob() == fast.to_blob()


@pytest.mark.parametrize("name", FAMILIES)
def test_band_usage_matches_declaration(name):
    spec = spec_for_duration(name, KERNEL_DEFAULT_DURATION)
    model = expected_metrics(spec, MachineConfig(ncores=max(spec.cores, 2)))
    banded = {m for m, e in model.items() if not e.is_exact}
    assert banded <= BANDED_METRICS[name], (
        f"{name} bands undeclared metrics: "
        f"{sorted(banded - BANDED_METRICS[name])}"
    )
    exact = {m for m, e in model.items() if e.is_exact}
    # The headline counters are always modelled exactly.
    assert {"accesses", "instructions", "lines_total"} <= exact


def test_strided_miss_rate_follows_stride_over_line_law():
    # The paper-adjacent law: steady-state L1 miss rate of a strided
    # walk is min(1, stride / line_size) once the footprint thrashes L1.
    cfg = MachineConfig(ncores=2)
    for stride in (16, 32, 64):
        spec = KernelSpec(
            family="kernel-strided", footprint=32 * 1024, stride=stride,
            cores=1, iterations=4,
        )
        kernel = build_kernel(2, seed=11)
        from repro.workloads.kernels import drive_spec

        drive_spec(kernel, spec)
        summary = MetricsSummary.from_machine(kernel.machine)
        model = expected_metrics(spec, cfg)
        expectation = model["l1_miss_rate"]
        assert expectation.is_exact
        assert expectation.check(summary.l1_miss_rate)
        assert summary.l1_miss_rate == pytest.approx(
            min(1.0, stride / cfg.line_size)
        )


def test_packed_counters_share_one_line():
    # padding < line_size packs every core's counter into one line:
    # sharing_ratio 1.0, a single resident line, and the model says so.
    spec = KernelSpec(
        family="kernel-counters", cores=4, padding=8, iterations=50,
    )
    kernel = build_kernel(4, seed=11)
    from repro.workloads.kernels import drive_spec

    drive_spec(kernel, spec)
    summary = MetricsSummary.from_machine(kernel.machine)
    assert summary.lines_total == 1
    assert summary.sharing_ratio == 1.0
    model = expected_metrics(spec, kernel.machine.config)
    for metric, expectation in model.items():
        assert expectation.check(metric_value(summary, metric)), metric


def test_walk_model_refuses_unmodelled_regimes():
    # Footprints between L2-steady and DRAM-streaming have no closed
    # form; the model must refuse rather than guess.
    awkward = KernelSpec(
        family="kernel-strided", footprint=96 * 1024, stride=64,
        cores=1, iterations=2,
    )
    with pytest.raises(ConfigError):
        expected_metrics(awkward, MachineConfig(ncores=2))
