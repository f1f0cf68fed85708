"""Import guard: the entry points load only what their callers use.

A profiling run imports ``repro.api`` (or runs a ``repro`` command) and
never touches the service stack, so neither entry point may import it.
Every check runs in a fresh interpreter: in this test process, earlier
tests have already imported everything.
"""

import json

from tests.process_helpers import run_fresh

#: Loaded only by the service and federation names, on first use.
SERVICE_STACK = (
    "asyncio",
    "ssl",
    "multiprocessing",
    "concurrent.futures",
    "repro.serve.server",
    "repro.serve.cluster",
    "repro.serve.workers",
    "repro.serve.protocol",
    "repro.serve.retry",
    "repro.serve.jobs",
)

#: Each command that needs one of these imports it itself.
CLI_DEFERRED = (
    "asyncio",
    "repro.serve.server",
    "repro.serve.cluster",
    "repro.dprof.diagnosis",
    "repro.baselines",
    "repro.fixes",
)


#: The simulator: ``repro.cli`` imports none of it at load time.
SIMULATOR_PACKAGES = (["repro", "hw"], ["repro", "kernel"], ["repro", "workloads"])


def _modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running *code*."""
    out = run_fresh(
        f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    )
    return set(json.loads(out.splitlines()[-1]))


def test_api_import_leaves_the_service_stack_unloaded():
    loaded = _modules_after("import repro.api")
    assert not loaded & set(SERVICE_STACK), sorted(loaded & set(SERVICE_STACK))
    # The profiling side is there already.
    assert {"repro.dprof.profiler", "repro.workloads", "repro.serve.store"} <= loaded


def test_eager_api_names_import_nothing_more():
    out = run_fresh(
        "import sys\n"
        "import repro.api as api\n"
        "before = set(sys.modules)\n"
        "for name in api.__all__:\n"
        "    if name not in api._LAZY:\n"
        "        getattr(api, name)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    assert out.strip() == "[]"


def test_service_name_loads_its_stack_on_first_use():
    loaded = _modules_after("from repro.api import ClusterServer")
    assert {"asyncio", "repro.serve.cluster", "repro.serve.workers"} <= loaded


def test_cli_import_defers_command_subsystems():
    loaded = _modules_after("import repro.cli")
    assert not loaded & set(CLI_DEFERRED), sorted(loaded & set(CLI_DEFERRED))
    # Listing or submitting scenarios builds no machine: the simulator
    # packages load only in the commands that run one.
    simulator = sorted(
        name for name in loaded if name.split(".")[:2] in SIMULATOR_PACKAGES
    )
    assert not simulator, simulator
