"""repro.api facade: pinned surface, clean import, lazy service names."""

import importlib

import pytest

from repro.dprof.profiler import DProf
from repro.serve.jobs import JobSpec
from repro.workloads import SCENARIOS
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
