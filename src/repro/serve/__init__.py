"""``repro.serve`` -- concurrent profiling-as-a-service.

The paper's workflow is "profile, fix, re-profile" against live
workloads; DCPI-lineage profilers become genuinely useful once
collection is decoupled from analysis behind an always-on service.  This
package is that front door for the reproduction: a long-running server
that accepts profiling-job submissions, executes them concurrently on a
multiprocessing worker pool, lands
the resulting session archives in a content-addressed store, and serves
any of the four DProf views back without recomputation.

Modules:

- :mod:`repro.serve.protocol` -- JSON-lines wire protocol + blocking client;
- :mod:`repro.serve.jobs` -- job specs, states, the bounded priority queue;
- :mod:`repro.serve.workers` -- session execution + the worker pool;
- :mod:`repro.serve.store` -- content-addressed archive store;
- :mod:`repro.serve.metrics` -- counters, percentiles, reconciliation;
- :mod:`repro.serve.server` -- the asyncio TCP server, drain.

Entry points: ``python -m repro.cli serve`` to run one, and the
``submit`` / ``status`` / ``fetch`` CLI trio to talk to it.  Library
callers import from :mod:`repro.api` or the defining submodule.
"""
