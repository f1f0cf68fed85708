"""repro.api facade: pinned surface, clean import, RunConfig adapters."""

import importlib
import json

import pytest

from repro.config import RunConfig
from repro.dprof.profiler import DProf, DProfConfig
from repro.dprof.session_io import export_session
from repro.errors import ConfigError
from repro.hw.machine import MachineConfig
from repro.serve.jobs import JobSpec
from repro.workloads import SCENARIOS, build_kernel
from tests.process_helpers import run_fresh

#: The public API contract.  Additions belong at the right spot in
#: repro.api.__all__ AND here; removals/renames are breaking changes.
EXPECTED_ALL = (
    "ClusterConfig",
    "ClusterServer",
    "DProf",
    "DProfConfig",
    "DataQuality",
    "Diagnosis",
    "Finding",
    "JobSpec",
    "KERNEL_FAMILIES",
    "KernelSpec",
    "MachineConfig",
    "MetricsSummary",
    "NULL_TRACER",
    "OfflineSession",
    "ProfilingServer",
    "RetryExhaustedError",
    "RetryPolicy",
    "RunConfig",
    "SCENARIOS",
    "ServeClient",
    "SessionStore",
    "SimProbe",
    "Tracer",
    "analyze_histories",
    "build_kernel",
    "collect_history_session",
    "critical_path",
    "execute_job",
    "execute_job_to_store",
    "expected_metrics",
    "export_session",
    "load_session",
    "load_trace",
    "machine_counters",
    "reconcile_serve",
    "render_tree",
    "request_once",
    "stage_totals",
)


def test_api_all_is_pinned():
    import repro.api

    assert repro.api.__all__ == EXPECTED_ALL


def test_api_names_resolve_and_match_defining_modules():
    import repro.api

    for name in EXPECTED_ALL:
        assert getattr(repro.api, name) is not None
    # Facade names are re-exports, not copies.
    assert repro.api.DProf is DProf
    assert repro.api.JobSpec is JobSpec
    assert repro.api.RunConfig is RunConfig
    assert repro.api.SCENARIOS is SCENARIOS


def test_api_imports_clean_under_deprecation_errors():
    # A fresh interpreter, so every repro module's import-time code runs
    # again, and every name is resolved, so the lazy service modules are
    # imported too.  Only DeprecationWarnings attributed to repro modules
    # become errors, as in CI's contract step.
    run_fresh(
        "import warnings\n"
        "warnings.filterwarnings('error', category=DeprecationWarning,"
        " module=r'repro([.]|$)')\n"
        "import repro.api\n"
        "for name in repro.api.__all__:\n"
        "    getattr(repro.api, name)\n"
    )


# ----------------------------------------------------------------------
# Lazy service and federation names (PEP 562)
# ----------------------------------------------------------------------

#: The names that resolve on first use, and their defining modules.
LAZY_NAMES = {
    "ClusterConfig": "repro.serve.cluster",
    "ClusterServer": "repro.serve.cluster",
    "JobSpec": "repro.serve.jobs",
    "ProfilingServer": "repro.serve.server",
    "RetryExhaustedError": "repro.serve.retry",
    "RetryPolicy": "repro.serve.retry",
    "ServeClient": "repro.serve.protocol",
    "execute_job": "repro.serve.workers",
    "execute_job_to_store": "repro.serve.workers",
    "request_once": "repro.serve.protocol",
}


@pytest.fixture
def unbound_api(monkeypatch):
    """``repro.api`` with every lazy name unresolved again."""
    import repro.api

    for name in LAZY_NAMES:
        monkeypatch.delitem(vars(repro.api), name, raising=False)
    return repro.api


def test_lazy_names_are_the_service_and_federation_names():
    import repro.api

    assert repro.api._LAZY == LAZY_NAMES


def test_dir_and_star_import_cover_every_name(unbound_api):
    assert set(EXPECTED_ALL) <= set(dir(unbound_api))
    namespace = {}
    exec("from repro.api import *", namespace)
    assert set(EXPECTED_ALL) <= set(namespace)


def test_unknown_api_name_raises_attribute_error_naming_the_module():
    import repro.api

    with pytest.raises(AttributeError, match="'repro.api'.*'no_such_name'"):
        repro.api.no_such_name


def test_lazy_names_are_their_defining_modules_objects(unbound_api):
    for name, module in LAZY_NAMES.items():
        defining = importlib.import_module(module)
        assert getattr(unbound_api, name) is getattr(defining, name), name


def test_lazy_name_is_bound_after_first_use(unbound_api, monkeypatch):
    resolve = unbound_api.__getattr__
    calls = []

    def counting(name):
        calls.append(name)
        return resolve(name)

    monkeypatch.setattr(unbound_api, "__getattr__", counting)
    first = unbound_api.RetryPolicy
    assert unbound_api.RetryPolicy is first
    assert vars(unbound_api)["RetryPolicy"] is first
    assert calls == ["RetryPolicy"]


def test_shim_unknown_name_raises_attribute_error():
    # The packages export nothing: every name comes from repro.api or
    # the defining submodule.
    import repro.dprof
    import repro.serve

    with pytest.raises(AttributeError):
        repro.dprof.no_such_name
    with pytest.raises(AttributeError):
        repro.serve.no_such_name


# ----------------------------------------------------------------------
# RunConfig: validation and bit-identical adapters
# ----------------------------------------------------------------------


def test_run_config_validates_eagerly():
    with pytest.raises(ConfigError):
        RunConfig(seed="seven")


def test_run_config_adapters_match_legacy_configs():
    run = RunConfig(seed=7)
    assert run.machine_config(ncores=2) == MachineConfig(ncores=2, seed=7)
    assert run.dprof_config(ibs_interval=97) == DProfConfig(ibs_interval=97)
    # The profiler seed stays DProfConfig's own default (it is an
    # independent knob), unless overridden explicitly.
    assert run.dprof_config().seed == DProfConfig().seed
    assert run.dprof_config(seed=1).seed == 1


def test_job_spec_from_run_config_matches_legacy_kwargs():
    run = RunConfig(seed=21, trace=True)
    via_run = JobSpec.create(scenario="synthetic", duration=30_000, run=run)
    legacy = JobSpec.create(
        scenario="synthetic", duration=30_000, seed=21, trace=True
    )
    assert via_run == legacy
    assert via_run.digest() == legacy.digest()
    # Explicit kwargs win over the RunConfig values.
    override = JobSpec.create(
        scenario="synthetic", duration=30_000, run=run, seed=5
    )
    assert override.seed == 5


def _session_via(config_builder):
    kernel = build_kernel(2, seed=17)
    machine_config, dprof_config = config_builder()
    assert kernel.machine.config.line_size == machine_config.line_size
    dprof = DProf(kernel, dprof_config)
    dprof.attach()
    try:
        SCENARIOS["synthetic"](kernel, 30_000)
    finally:
        dprof.detach()
    return json.dumps(export_session(dprof), sort_keys=True)


def test_run_config_sessions_bit_identical_to_legacy():
    run = RunConfig(seed=17)
    via_run = _session_via(
        lambda: (run.machine_config(ncores=2), run.dprof_config())
    )
    via_legacy = _session_via(
        lambda: (MachineConfig(ncores=2, seed=17), DProfConfig())
    )
    assert via_run == via_legacy


def test_dprof_accepts_run_config_directly():
    kernel = build_kernel(2, seed=17)
    dprof = DProf(kernel, RunConfig(seed=17))
    assert isinstance(dprof.config, DProfConfig)
    assert dprof.config == DProfConfig()
