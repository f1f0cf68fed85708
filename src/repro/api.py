"""``repro.api`` -- the one blessed import surface for the reproduction.

Everything a caller needs to profile, analyze, serve, and trace lives
here, re-exported from its defining module.  Deep imports of internal
modules keep working but are not covered by any stability promise; the
``repro.dprof`` and ``repro.serve`` packages themselves export nothing.

Groups:

- **profiling**: :class:`DProf`, :class:`DProfConfig`,
  :class:`DataQuality`, :class:`Diagnosis`, :func:`analyze_histories`;
- **simulation**: :class:`MachineConfig`, :func:`build_kernel`,
  ``SCENARIOS``, :func:`collect_history_session`;
- **sessions**: :func:`export_session`, :func:`load_session`,
  :class:`OfflineSession`;
- **service**: :class:`JobSpec`, :class:`ProfilingServer`,
  :class:`ServeClient`, :func:`request_once`, :func:`execute_job`,
  :func:`execute_job_to_store`, :class:`SessionStore`;
- **federation**: :class:`ClusterConfig`, :class:`ClusterServer`,
  :class:`RetryPolicy`, :class:`RetryExhaustedError`;
- **tracing**: :class:`Tracer`, ``NULL_TRACER``, :func:`load_trace`,
  :func:`render_tree`, :func:`stage_totals`, :func:`critical_path`,
  :func:`reconcile_serve`;
- **metrics & kernels**: :class:`MetricsSummary`, :func:`machine_counters`,
  :class:`KernelSpec`, ``KERNEL_FAMILIES``, :func:`expected_metrics`.

Import rule: ``import repro.api`` loads every group except service and
federation, because a profiling run uses all of them.  The service and
federation names resolve on first use (PEP 562), all but
:class:`SessionStore`, which sessions use too.  A profiling run
therefore never imports ``asyncio``, ``ssl``, ``multiprocessing`` or
the server and worker modules.  A lazily resolved name is the defining
module's own object and is bound here on first use.

The ``__all__`` tuple is the public API contract and is pinned by
``tests/test_api_facade.py``; additions are fine, removals and renames
are breaking changes.
"""

from __future__ import annotations

import importlib

from repro.dprof.diagnosis import Diagnosis, Finding
from repro.dprof.pathtrace import analyze_histories
from repro.dprof.profiler import DProf, DProfConfig
from repro.dprof.quality import DataQuality
from repro.dprof.session_io import OfflineSession, export_session, load_session
from repro.hw.machine import MachineConfig
from repro.metrics import MetricsSummary, machine_counters
from repro.serve.store import SessionStore
from repro.trace import (
    NULL_TRACER,
    Tracer,
    critical_path,
    load_trace,
    reconcile_serve,
    render_tree,
    stage_totals,
)
from repro.workloads import SCENARIOS, build_kernel, collect_history_session
from repro.workloads.kernels import KERNEL_FAMILIES, KernelSpec, expected_metrics

__all__ = (
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

#: Service and federation names, imported from their defining module on
#: first use (see the import rule above).
_LAZY = {
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


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    # Bound once: later lookups find the global and skip this hook.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
