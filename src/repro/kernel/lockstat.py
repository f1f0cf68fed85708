"""Lock statistics collection (the kernel side of Linux's lock-stat).

The paper compares DProf against lock-stat, which reports "for all Linux
kernel locks, how long each lock is held, the wait time to acquire the
lock, and the functions that acquire and release the lock" (Section 6).
The spinlock implementation feeds this registry; the report tool in
:mod:`repro.baselines.lockstat` formats it like Tables 6.2 and 6.6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.stats import Histogram


@dataclass
class LockStat:
    """Accumulated statistics for one named lock."""

    name: str
    acquisitions: int = 0
    contentions: int = 0
    wait_cycles: int = 0
    hold_cycles: int = 0
    acquirer_functions: Histogram = field(default_factory=Histogram)

    @property
    def mean_wait(self) -> float:
        """Average cycles spent waiting per acquisition."""
        if self.acquisitions == 0:
            return 0.0
        return self.wait_cycles / self.acquisitions

    @property
    def contention_rate(self) -> float:
        """Fraction of acquisitions that found the lock held."""
        if self.acquisitions == 0:
            return 0.0
        return self.contentions / self.acquisitions


class LockStatRegistry:
    """Machine-wide lock statistics, keyed by lock name."""

    def __init__(self) -> None:
        self._stats: dict[str, LockStat] = {}

    def stat(self, name: str) -> LockStat:
        """Fetch (creating if needed) the statistics row for a lock."""
        st = self._stats.get(name)
        if st is None:
            st = LockStat(name)
            self._stats[name] = st
        return st

    def record_acquire(self, name: str, fn: str, wait: int, contended: bool) -> None:
        """Record one successful acquisition from function *fn*."""
        st = self.stat(name)
        st.acquisitions += 1
        st.wait_cycles += wait
        if contended:
            st.contentions += 1
        st.acquirer_functions.add(fn)

    def record_release(self, name: str, fn: str, hold: int) -> None:
        """Record the hold time of one critical section."""
        st = self.stat(name)
        st.hold_cycles += hold
        st.acquirer_functions.add(fn)

    def all_stats(self) -> list[LockStat]:
        """Every lock's row, sorted by descending total wait time."""
        return sorted(
            self._stats.values(), key=lambda s: s.wait_cycles, reverse=True
        )

    def reset(self) -> None:
        """Forget everything (profiling run boundary)."""
        self._stats.clear()
