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
- **configuration**: :class:`RunConfig`;
- **tracing**: :class:`Tracer`, ``NULL_TRACER``, :class:`SimProbe`,
  :func:`load_trace`, :func:`render_tree`, :func:`stage_totals`,
  :func:`critical_path`, :func:`reconcile_serve`;
- **metrics & kernels**: :class:`MetricsSummary`, :func:`machine_counters`,
  :class:`KernelSpec`, ``KERNEL_FAMILIES``, :func:`expected_metrics`.

The ``__all__`` tuple is the public API contract and is pinned by
``tests/test_api_facade.py``; additions are fine, removals and renames
are breaking changes.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.dprof.diagnosis import Diagnosis, Finding
from repro.dprof.pathtrace import analyze_histories
from repro.dprof.profiler import DProf, DProfConfig
from repro.dprof.quality import DataQuality
from repro.dprof.session_io import OfflineSession, export_session, load_session
from repro.hw.machine import MachineConfig
from repro.metrics import MetricsSummary, machine_counters
from repro.serve.cluster import ClusterConfig, ClusterServer
from repro.serve.jobs import JobSpec
from repro.serve.protocol import ServeClient, request_once
from repro.serve.retry import RetryExhaustedError, RetryPolicy
from repro.serve.server import ProfilingServer
from repro.serve.store import SessionStore
from repro.serve.workers import execute_job, execute_job_to_store
from repro.trace import (
    NULL_TRACER,
    SimProbe,
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
