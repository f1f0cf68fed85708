"""Deterministic fault plans and the injector that executes them.

The paper's real system runs on lossy hardware: IBS silently discards
tagged ops that never retire, only four debug registers exist (and other
kernel agents -- kgdb, perf -- compete for them), and an object can die
before its history finishes.  The simulated pipeline is perfect by
default; this module makes it imperfect *on purpose*, so the degradation
machinery downstream (retries, partial histories, confidence-annotated
views) can be exercised and tested.

Every fault decision draws from a :class:`~repro.util.rng.DeterministicRng`
child stream -- never wall-clock randomness -- so a given
(:class:`FaultPlan`, machine seed) pair produces the *identical* fault
schedule on every run, and a faulted experiment replays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import FaultInjectionError
from repro.util.rng import DeterministicRng

#: A corrupted IBS latency field gets one bit flipped in this range.  Low
#: bits perturb the value plausibly (skewing latency means); high bits
#: produce values the sampler's sanity filter rejects outright -- both
#: real failure modes of a racy MSR read.
LATENCY_CORRUPT_BIT_LO = 8
LATENCY_CORRUPT_BIT_HI = 20

#: A truncated history stops recording after this many trapped accesses
#: (drawn uniformly), modelling the watch being revoked mid-lifetime.
TRUNCATION_MIN_ELEMENTS = 1
TRUNCATION_MAX_ELEMENTS = 12

_RATE_FIELDS = (
    "ibs_drop_rate",
    "ibs_latency_corrupt_rate",
    "debugreg_steal_rate",
    "watch_trap_miss_rate",
    "history_truncation_rate",
)

#: CLI spec keys (``--inject-faults ibs_drop=0.1,...``) -> field names.
_SPEC_KEYS = {
    "ibs_drop": "ibs_drop_rate",
    "ibs_latency": "ibs_latency_corrupt_rate",
    "debugreg_steal": "debugreg_steal_rate",
    "trap_miss": "watch_trap_miss_rate",
    "history_truncation": "history_truncation_rate",
    "seed": "seed",
}


@dataclass
class FaultCounters:
    """What the injector actually did, for :class:`DataQuality` reports."""

    ibs_drops: int = 0
    ibs_corruptions: int = 0
    debug_slot_steals: int = 0
    watch_trap_misses: int = 0
    history_truncations: int = 0
    history_truncation_decisions: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """A composable, seed-driven description of what should go wrong.

    Each rate is an independent Bernoulli probability applied at the
    matching decision point:

    - ``ibs_drop_rate`` -- a tagged op is discarded before its interrupt
      fires (no sample, no overhead charged);
    - ``ibs_latency_corrupt_rate`` -- a delivered sample's latency field
      has one random bit flipped;
    - ``debugreg_steal_rate`` -- arming a watch fails because another
      agent grabbed the debug register first;
    - ``watch_trap_miss_rate`` -- an armed watch silently fails to trap
      one matching access (the history loses that element);
    - ``history_truncation_rate`` -- a history stops recording partway
      through the object's lifetime.

    ``seed`` drives every decision stream; the plan itself is immutable
    and hashable so it can live in a frozen profiler config.
    """

    seed: int = 0
    ibs_drop_rate: float = 0.0
    ibs_latency_corrupt_rate: float = 0.0
    debugreg_steal_rate: float = 0.0
    watch_trap_miss_rate: float = 0.0
    history_truncation_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(
                    f"{name} must be a probability in [0, 1], got {rate!r}"
                )

    @property
    def any_faults(self) -> bool:
        """True when at least one fault model has a nonzero rate."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec like ``ibs_drop=0.1,seed=7``.

        Raises :class:`FaultInjectionError` on unknown keys or unparsable
        values, naming the offending token.
        """
        kwargs: dict[str, float | int] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise FaultInjectionError(
                    f"fault spec token {token!r} is not key=value"
                )
            key, _, raw = token.partition("=")
            key = key.strip()
            name = _SPEC_KEYS.get(key)
            if name is None:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise FaultInjectionError(
                    f"unknown fault model {key!r} (known: {known})"
                )
            try:
                kwargs[name] = int(raw) if name == "seed" else float(raw)
            except ValueError as exc:
                raise FaultInjectionError(
                    f"bad value for {key!r}: {raw!r}"
                ) from exc
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line summary of the active fault models."""
        active = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if f.name in _RATE_FIELDS and getattr(self, f.name) > 0.0
        ]
        models = ", ".join(active) if active else "no faults"
        return f"FaultPlan(seed={self.seed}: {models})"

    def build(self, rng: DeterministicRng | None = None) -> "FaultInjector":
        """Instantiate the injector that executes this plan."""
        return FaultInjector(self, rng or DeterministicRng(self.seed, "faults"))


class FaultInjector:
    """Executes a :class:`FaultPlan` against the hardware and profiler.

    Each fault model draws from its own named child stream, so the
    schedule of one model never depends on how often another fires, and
    per-CPU IBS streams keep decisions independent of cross-core
    interleaving.  All decisions are counted in :attr:`counters`.
    """

    def __init__(self, plan: FaultPlan, rng: DeterministicRng) -> None:
        self.plan = plan
        self.counters = FaultCounters()
        self._ibs_rngs: dict[int, DeterministicRng] = {}
        self._rng = rng
        self._debugreg_rng = rng.child("debugreg")
        self._trap_rng = rng.child("traps")
        self._history_rng = rng.child("history")

    def _ibs_rng(self, cpu: int) -> DeterministicRng:
        stream = self._ibs_rngs.get(cpu)
        if stream is None:
            stream = self._rng.child(f"ibs.cpu{cpu}")
            self._ibs_rngs[cpu] = stream
        return stream

    # ------------------------------------------------------------------
    # IBS fault models
    # ------------------------------------------------------------------

    def drop_ibs_sample(self, cpu: int) -> bool:
        """Should this tagged op be discarded before delivery?"""
        if self.plan.ibs_drop_rate <= 0.0:
            return False
        if self._ibs_rng(cpu).random() < self.plan.ibs_drop_rate:
            self.counters.ibs_drops += 1
            return True
        return False

    def corrupt_ibs_latency(self, cpu: int, latency: int) -> int | None:
        """Corrupted latency value, or None when the field stays intact."""
        if self.plan.ibs_latency_corrupt_rate <= 0.0:
            return None
        stream = self._ibs_rng(cpu)
        if stream.random() >= self.plan.ibs_latency_corrupt_rate:
            return None
        self.counters.ibs_corruptions += 1
        bit = stream.randint(LATENCY_CORRUPT_BIT_LO, LATENCY_CORRUPT_BIT_HI)
        return latency ^ (1 << bit)

    # ------------------------------------------------------------------
    # Debug-register fault models
    # ------------------------------------------------------------------

    def steal_debug_slot(self) -> bool:
        """Does another agent grab the debug register mid-arm?"""
        if self.plan.debugreg_steal_rate <= 0.0:
            return False
        if self._debugreg_rng.random() < self.plan.debugreg_steal_rate:
            self.counters.debug_slot_steals += 1
            return True
        return False

    def miss_watch_trap(self) -> bool:
        """Does an armed watch silently fail to trap this access?"""
        if self.plan.watch_trap_miss_rate <= 0.0:
            return False
        if self._trap_rng.random() < self.plan.watch_trap_miss_rate:
            self.counters.watch_trap_misses += 1
            return True
        return False

    # ------------------------------------------------------------------
    # History fault models
    # ------------------------------------------------------------------

    def truncation_point(self) -> int | None:
        """Element count after which this history stops, or None.

        Consulted once per armed object; the decision count is tracked
        separately from the fire count so the observed truncation rate
        can be reported exactly.
        """
        self.counters.history_truncation_decisions += 1
        if self.plan.history_truncation_rate <= 0.0:
            return None
        if self._history_rng.random() >= self.plan.history_truncation_rate:
            return None
        self.counters.history_truncations += 1
        return self._history_rng.randint(
            TRUNCATION_MIN_ELEMENTS, TRUNCATION_MAX_ELEMENTS
        )
