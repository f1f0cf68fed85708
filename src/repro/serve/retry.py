"""Bounded retry with exponential backoff and full jitter.

Every RPC the service makes twice-removed from a human -- a client
resubmitting after a ``queue_full`` reject, a cluster node forwarding a
submission to the consistent-hash owner -- needs the same discipline:
a bounded number of attempts, exponentially growing delays, *full*
jitter (uniform in ``[0, delay]``) so a burst of rejected clients does
not resynchronize into a thundering herd, and an overall deadline so a
dead peer fails fast instead of consuming the whole backoff budget.

:class:`RetryPolicy` is the one definition of that discipline.  It is
deliberately transport-agnostic: :meth:`RetryPolicy.call` retries any
zero-argument callable on the caller's chosen exceptions, honoring a
``retry_after_s`` hint the caught exception carries (the CLI raises
:class:`~repro.errors.QueueFullError` on a ``queue_full`` reply).  The
jitter stream defaults to :mod:`random` but accepts any object with a
``random()`` method, so tests pin the schedule with a
:class:`~repro.util.rng.DeterministicRng`.
"""

from __future__ import annotations

import random as _random
import time
from dataclasses import dataclass, field

from repro.errors import ServeError


class RetryExhaustedError(ServeError):
    """Every attempt failed (or the deadline passed).  Carries the last
    underlying exception as ``__cause__`` and the attempt count."""

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter.

    ``attempts`` bounds the total number of tries (not retries);
    ``base_delay_s`` seeds the exponential schedule (``base * 2**k``,
    capped at ``max_delay_s``); ``timeout_s`` is the overall deadline
    measured on the monotonic clock -- once it passes, no further
    attempt starts.  A server-provided hint (``retry_after_s`` on a
    backpressure reject) takes precedence over the exponential term for
    that step, but is still jittered and capped.
    """

    attempts: int = 3
    base_delay_s: float = 0.25
    max_delay_s: float = 5.0
    timeout_s: float = 30.0
    #: Jitter source; anything with ``random() -> [0, 1)``.
    rng: object = field(default_factory=lambda: _random, compare=False)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ServeError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.timeout_s <= 0:
            raise ServeError("retry delays must be non-negative, timeout positive")

    def backoff_s(self, attempt: int, hint_s: float | None = None) -> float:
        """The jittered delay before retry number *attempt* (0-based).

        Full jitter: uniform in ``[0, d]`` where ``d`` is the capped
        exponential (or the server's ``retry_after_s`` hint, when one
        was given -- the server knows its queue better than we do).
        """
        ceiling = min(self.max_delay_s, self.base_delay_s * (2.0 ** attempt))
        if hint_s is not None:
            ceiling = min(self.max_delay_s, max(hint_s, self.base_delay_s))
        return ceiling * self.rng.random()

    def call(
        self,
        fn,
        *,
        retry_on: tuple[type[BaseException], ...] = (
            ConnectionError,
            OSError,
            TimeoutError,
        ),
        describe: str = "request",
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        """Call *fn* until it returns, retrying on *retry_on*.

        A caught exception's ``retry_after_s`` (when not None) is the
        hint for the following backoff.  Raises
        :class:`RetryExhaustedError` (with the last failure as
        ``__cause__``) when attempts run out or the deadline passes.
        ``sleep``/``clock`` are seams for deterministic tests.
        """
        deadline = clock() + self.timeout_s
        last: BaseException | None = None
        made = 0
        for attempt in range(self.attempts):
            made = attempt + 1
            try:
                return fn()
            except retry_on as exc:
                last = exc
                if made >= self.attempts:
                    break
                delay = self.backoff_s(
                    attempt, hint_s=getattr(exc, "retry_after_s", None)
                )
                if clock() + delay > deadline:
                    break
                sleep(delay)
        raise RetryExhaustedError(
            f"{describe} failed after {made} attempt(s): {last}",
            attempts=made,
        ) from last
