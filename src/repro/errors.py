"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is invalid (bad geometry, bad rate, ...)."""


class SimulationError(ReproError):
    """The simulated machine reached an inconsistent state."""


class AllocationError(ReproError):
    """The simulated allocator could not satisfy a request."""


class ResolveError(ReproError):
    """An address could not be resolved to a data type."""


class ProfilingError(ReproError):
    """A profiling session was misused (not started, already attached, ...)."""


class FaultInjectionError(ReproError):
    """A fault plan is invalid (bad rate, unknown fault model, ...)."""


class ServeError(ReproError):
    """The profiling service was misused (bad job spec, unknown job,
    fetch before completion, store miss, ...)."""


class ProtocolError(ServeError):
    """A service message is malformed (bad JSON, missing op, oversized
    line).  Reported to the client instead of closing the connection."""


class QueueFullError(ServeError):
    """The job queue is at capacity.  Carries ``retry_after_s``, the
    server's estimate of when a resubmission is likely to be accepted
    (None when the server gave none)."""

    def __init__(self, message: str, retry_after_s: float | None = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class TraceError(ReproError):
    """A trace file is malformed (bad JSON, unknown record kind,
    missing span fields) or the trace API was misused."""


class BenchFormatError(ReproError):
    """A benchmark report document failed schema validation; the baseline
    file is left untouched rather than committing a partial run."""


class SessionFormatError(ProfilingError):
    """A session archive is malformed (bad JSON, unknown version, torn
    section, failed checksum).  Carries the offending ``path`` and
    ``section`` when known so tooling can report exactly what broke."""

    def __init__(
        self,
        message: str,
        *,
        path: object | None = None,
        section: str | None = None,
    ) -> None:
        detail = message
        if section is not None:
            detail += f" [section: {section}]"
        if path is not None:
            detail += f" [file: {path}]"
        super().__init__(detail)
        self.path = path
        self.section = section


class DegradedDataWarning(Warning):
    """A view was built from partial data (dropped samples, truncated
    histories, unrecoverable archive sections).  Emitted via
    :func:`warnings.warn`; the view itself still renders, annotated with
    its coverage, instead of raising."""
