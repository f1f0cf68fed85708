"""Generated access-stream kernels with analytical ground-truth models.

Every scenario the repo had so far (memcached, apache, synthetic) is
*plausible* but has no known-correct answer to check the pipeline
against.  This module closes that gap in the style of perf-tools'
``gen-kernel.py``: a small declarative :class:`KernelSpec` compiles into
an access-stream kernel from one of six families --

- ``kernel-strided``   a single core walks a buffer at fixed stride;
- ``kernel-stream``    a strided walk far bigger than every cache level;
- ``kernel-chase``     pointer chasing over a seeded permutation cycle;
- ``kernel-pingpong``  per-core slots falsely sharing one line;
- ``kernel-ring``      producer/consumer ring, one line per slot;
- ``kernel-counters``  per-core counters at configurable padding --

and each family ships :func:`KernelFamily.expected_metrics`, a
closed-form model of the top-down metrics (:mod:`repro.metrics`) the
simulator must produce for a spec: exact where the cache geometry makes
the answer exact, a declared tolerance band where thread interleaving
makes it statistical.  The differential ground-truth tier
(tests/test_kernel_truth.py) asserts the simulator against these models.

Kernels allocate their buffers as *typed static objects* through the
slab layer, so DProf's views attribute their traffic to real type names
(``kernel_pingpong_line`` etc.) just like any other workload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable

from repro.config import KERNEL_DEFAULT_DURATION
from repro.errors import ConfigError
from repro.hw.hierarchy import LATENCIES
from repro.hw.machine import QUANTUM, MachineConfig
from repro.kernel.kernel import Kernel
from repro.kernel.layout import StructType
from repro.metrics import MetricsSummary
from repro.util.rng import DeterministicRng
from repro.workloads.base import WorkloadResult, build_kernel

__all__ = [
    "KERNEL_DEFAULT_DURATION",
    "KERNEL_FAMILIES",
    "Expectation",
    "KernelFamily",
    "KernelSpec",
    "drive_spec",
    "expected_metrics",
    "kernel_access_stream",
    "metric_value",
    "scenario_entries",
    "spec_for_duration",
]


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one generated kernel.

    Field meanings per family: ``footprint``/``stride`` drive the walk
    families (strided, stream, chase), ``cores``/``iterations`` apply
    everywhere, ``padding`` is the byte distance between per-core
    counters, and ``ring_slots`` sizes the producer/consumer ring.
    """

    family: str
    footprint: int = 0
    stride: int = 64
    cores: int = 1
    iterations: int = 4
    padding: int = 64
    ring_slots: int = 16

    def canonical(self) -> dict:
        """Canonical JSON-able form; the digest hashes exactly this."""
        return {
            "family": self.family,
            "footprint": self.footprint,
            "stride": self.stride,
            "cores": self.cores,
            "iterations": self.iterations,
            "padding": self.padding,
            "ring_slots": self.ring_slots,
        }

    def digest(self) -> str:
        """Content digest of the spec (seed-independent by design)."""
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Expectation:
    """An expected metric value: a point (exact) or a declared band."""

    lo: float
    hi: float

    @classmethod
    def exact(cls, value) -> "Expectation":
        return cls(float(value), float(value))

    @classmethod
    def band(cls, lo, hi) -> "Expectation":
        return cls(float(lo), float(hi))

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def check(self, value: float) -> bool:
        """True when *value* satisfies the expectation (tiny float slack)."""
        eps = 1e-9 * max(1.0, abs(self.lo), abs(self.hi))
        return self.lo - eps <= value <= self.hi + eps


def metric_value(summary: MetricsSummary, name: str) -> float:
    """Resolve an expectation key against a metrics summary.

    Plain names map to summary attributes (``accesses``,
    ``l1_miss_rate``, ...); ``level:<NAME>``, ``miss_kind:<name>`` and
    ``mpki:<LEVEL>`` reach into the per-level dictionaries.
    """
    if name.startswith("level:"):
        return float(summary.levels.get(name[len("level:"):], 0))
    if name.startswith("miss_kind:"):
        return float(summary.miss_kinds.get(name[len("miss_kind:"):], 0))
    if name.startswith("mpki:"):
        return summary.mpki(name[len("mpki:"):])
    return float(getattr(summary, name))


# ---------------------------------------------------------------------------
# Family builders: spec -> spawned generator threads
# ---------------------------------------------------------------------------


def _buffer_type(name: str, size: int) -> StructType:
    return StructType(
        name,
        [("data", 8)],
        object_size=size,
        description=f"generated-kernel buffer ({name})",
    )


def _alloc_buffer(kernel: Kernel, name: str, size: int) -> int:
    """A typed, line-aligned static buffer so DProf attributes its traffic."""
    obj = kernel.slab.new_static(_buffer_type(name, size), name)
    return obj.base


def _walk_offsets(spec: KernelSpec) -> range:
    return range(0, spec.footprint, spec.stride)


def _build_walk(kernel: Kernel, spec: KernelSpec, type_name: str) -> None:
    """Strided read walk on core 0 (the strided and stream families)."""
    base = _alloc_buffer(kernel, type_name, spec.footprint)
    env = kernel.env
    offsets = _walk_offsets(spec)

    def body():
        for _ in range(spec.iterations):
            for off in offsets:
                yield env.read_at("strided_walk", "probe", base + off, 8)

    kernel.spawn(f"{spec.family}.0", 0, body())


def _build_strided(kernel: Kernel, spec: KernelSpec) -> None:
    _build_walk(kernel, spec, "kernel_strided_buf")


def _build_stream(kernel: Kernel, spec: KernelSpec) -> None:
    _build_walk(kernel, spec, "kernel_stream_buf")


def _chase_order(spec: KernelSpec, seed: int, line: int) -> list[int]:
    """Node visit order: a seeded single-cycle permutation over all nodes."""
    n = spec.footprint // line
    rng = DeterministicRng(seed, f"kernel-chase.{spec.digest()[:16]}")
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def _build_chase(kernel: Kernel, spec: KernelSpec) -> None:
    cfg = kernel.machine.config
    base = _alloc_buffer(kernel, "kernel_chase_node", spec.footprint)
    order = _chase_order(spec, cfg.seed, cfg.line_size)
    env = kernel.env
    line = cfg.line_size

    def body():
        for _ in range(spec.iterations):
            for node in order:
                yield env.read_at("chase_loop", "node", base + node * line, 8)

    kernel.spawn(f"{spec.family}.0", 0, body())


#: One cache line of eight 8-byte slots: the false-sharing battlefield.
PINGPONG_TYPE = StructType(
    "kernel_pingpong_line",
    [(f"slot{i}", 8) for i in range(8)],
    object_size=64,
    description="per-core slots packed into one falsely-shared line",
)


def _build_pingpong(kernel: Kernel, spec: KernelSpec) -> None:
    if spec.cores > 8:
        raise ConfigError("kernel-pingpong supports at most 8 cores (one line)")
    obj = kernel.slab.new_static(PINGPONG_TYPE, "kernel_pingpong_line")
    env = kernel.env

    def body(cpu: int):
        slot = f"slot{cpu}"
        for _ in range(spec.iterations):
            yield env.read("pingpong_loop", obj, slot)
            yield env.write("pingpong_loop", obj, slot)

    for cpu in range(spec.cores):
        kernel.spawn(f"{spec.family}.{cpu}", cpu, body(cpu))


def _build_ring(kernel: Kernel, spec: KernelSpec) -> None:
    cfg = kernel.machine.config
    line = cfg.line_size
    base = _alloc_buffer(kernel, "kernel_ring_slot", spec.ring_slots * line)
    env = kernel.env
    total = spec.ring_slots * spec.iterations

    def producer():
        for i in range(total):
            addr = base + (i % spec.ring_slots) * line
            yield env.write_at("ring_produce", "slot", addr, 8)

    def consumer():
        for i in range(total):
            addr = base + (i % spec.ring_slots) * line
            yield env.read_at("ring_consume", "slot", addr, 8)

    kernel.spawn(f"{spec.family}.producer", 0, producer())
    kernel.spawn(f"{spec.family}.consumer", 1 % kernel.ncores, consumer())


def _build_counters(kernel: Kernel, spec: KernelSpec) -> None:
    size = spec.cores * spec.padding
    base = _alloc_buffer(kernel, "kernel_counter_slot", size)
    env = kernel.env

    def body(cpu: int):
        addr = base + cpu * spec.padding
        site = f"slot{cpu}"
        for _ in range(spec.iterations):
            yield env.read_at("counter_loop", site, addr, 8)
            yield env.write_at("counter_loop", site, addr, 8)

    for cpu in range(spec.cores):
        kernel.spawn(f"{spec.family}.{cpu}", cpu, body(cpu))


# ---------------------------------------------------------------------------
# Closed-form expected-metrics models
# ---------------------------------------------------------------------------


def _per_set_max(lines: list[int], sets: int) -> int:
    counts: dict[int, int] = {}
    for ln in lines:
        s = ln % sets
        counts[s] = counts.get(s, 0) + 1
    return max(counts.values()) if counts else 0


def _walk_lines(spec: KernelSpec, line: int) -> list[int]:
    """Distinct line indices one pass touches (8-byte reads, no spans)."""
    seen: dict[int, None] = {}
    for off in _walk_offsets(spec):
        seen.setdefault(off // line, None)
    return list(seen)


def _expect_walk(spec: KernelSpec, cfg: MachineConfig) -> dict[str, Expectation]:
    """Exact model for single-core strided walks, in three regimes.

    Once the first pass has paid one cold DRAM miss per distinct line,
    every later pass misses at rate ``min(1, stride/line)`` -- served by
    L1 when the footprint fits its associativity, by L2 when only L1
    thrashes, and by DRAM when the walk streams past every level.  The
    regime is decided from per-set line counts, which is what makes the
    model exact rather than heuristic.
    """
    lat = LATENCIES
    line = cfg.line_size
    lines = _walk_lines(spec, line)
    distinct = len(lines)
    per_pass = len(_walk_offsets(spec))
    total = per_pass * spec.iterations
    l1_sets = cfg.l1_size // (cfg.l1_ways * line)
    l2_sets = cfg.l2_size // (cfg.l2_ways * line)
    l3_sets = cfg.l3_size // (cfg.l3_ways * line)

    steady = max(0, spec.iterations - 1) * distinct
    if _per_set_max(lines, l1_sets) <= cfg.l1_ways:
        dram, l2 = distinct, 0
    elif _per_set_max(lines, l2_sets) <= cfg.l2_ways:
        dram, l2 = distinct, steady
    elif _per_set_max(lines, l3_sets) >= 2 * cfg.l3_ways:
        # Victim-L3 retention is far shorter than the re-access distance:
        # every steady-state miss goes all the way to memory.
        dram, l2 = distinct + steady, 0
    else:
        raise ConfigError(
            f"{spec.family}: footprint {spec.footprint} falls between exact "
            "regimes (L1-resident / L2-steady / DRAM-streaming)"
        )
    l1 = total - dram - l2
    misses = dram + l2
    total_latency = dram * lat.dram + l2 * lat.l2 + l1 * lat.l1
    return {
        "accesses": Expectation.exact(total),
        "instructions": Expectation.exact(total),
        "level:L1": Expectation.exact(l1),
        "level:L2": Expectation.exact(l2),
        "level:L3": Expectation.exact(0),
        "level:FOREIGN": Expectation.exact(0),
        "level:DRAM": Expectation.exact(dram),
        "miss_kind:cold": Expectation.exact(distinct),
        "l1_miss_rate": Expectation.exact(misses / total),
        "avg_miss_latency": Expectation.exact(
            (dram * lat.dram + l2 * lat.l2) / misses if misses else 0.0
        ),
        "cycles_per_access": Expectation.exact(total_latency / total),
        "lines_total": Expectation.exact(distinct),
        "sharing_ratio": Expectation.exact(0.0),
    }


def _expect_chase(spec: KernelSpec, cfg: MachineConfig) -> dict[str, Expectation]:
    """Pointer chase over an L1-resident chain: cold misses then pure hits.

    The visit order is a seeded permutation -- it changes the *stream*,
    never the metrics, which is exactly what the determinism property
    test checks.
    """
    lat = LATENCIES
    line = cfg.line_size
    n = spec.footprint // line
    l1_sets = cfg.l1_size // (cfg.l1_ways * line)
    if _per_set_max(list(range(n)), l1_sets) > cfg.l1_ways:
        raise ConfigError("kernel-chase model requires an L1-resident chain")
    total = n * spec.iterations
    l1 = total - n
    total_latency = n * lat.dram + l1 * lat.l1
    return {
        "accesses": Expectation.exact(total),
        "instructions": Expectation.exact(total),
        "level:L1": Expectation.exact(l1),
        "level:L2": Expectation.exact(0),
        "level:L3": Expectation.exact(0),
        "level:FOREIGN": Expectation.exact(0),
        "level:DRAM": Expectation.exact(n),
        "miss_kind:cold": Expectation.exact(n),
        "l1_miss_rate": Expectation.exact(n / total),
        "avg_miss_latency": Expectation.exact(float(lat.dram)),
        "cycles_per_access": Expectation.exact(total_latency / total),
        "lines_total": Expectation.exact(n),
        "sharing_ratio": Expectation.exact(0.0),
    }


def _expect_pingpong(spec: KernelSpec, cfg: MachineConfig) -> dict[str, Expectation]:
    """False sharing on one line: structure exact, interleaving banded.

    Access and line counts are interleaving-independent; which fraction
    of accesses ping-pongs depends on the scheduler, so the miss-rate
    and latency expectations are declared tolerance bands.
    """
    lat = LATENCIES
    total = 2 * spec.cores * spec.iterations
    return {
        "accesses": Expectation.exact(total),
        "instructions": Expectation.exact(total),
        "lines_total": Expectation.exact(1),
        "sharing_ratio": Expectation.exact(1.0 if spec.cores > 1 else 0.0),
        # The directory keeps per-core loss records, so each core's first
        # touch of the line classifies cold; only the very first is DRAM,
        # the rest are dirty cache-to-cache transfers.
        "miss_kind:cold": Expectation.exact(spec.cores),
        "level:DRAM": Expectation.exact(1),
        "level:L2": Expectation.exact(0),
        "level:L3": Expectation.exact(0),
        # The line ping-pongs once per scheduling quantum: each core's
        # first access after a remote write misses foreign, the rest of
        # its quantum hits L1.  Banded 2x either side of one miss per
        # quantum to declare tolerance for scheduler changes.
        "level:FOREIGN": Expectation.band(total // (2 * QUANTUM), total // 4),
        "l1_miss_rate": Expectation.band(1 / (2 * QUANTUM), 0.25),
        "avg_miss_latency": Expectation.band(lat.l3, lat.foreign + lat.upgrade),
    }


def _expect_ring(spec: KernelSpec, cfg: MachineConfig) -> dict[str, Expectation]:
    """Producer/consumer ring: every slot line is shared by construction."""
    lat = LATENCIES
    total = 2 * spec.ring_slots * spec.iterations
    return {
        "accesses": Expectation.exact(total),
        "instructions": Expectation.exact(total),
        "lines_total": Expectation.exact(spec.ring_slots),
        "sharing_ratio": Expectation.exact(1.0),
        # Both the producer and the consumer cold-miss every slot line
        # (per-core loss records): the producer's cold writes fetch from
        # DRAM, the consumer's cold reads are served cache-to-cache.
        "miss_kind:cold": Expectation.exact(2 * spec.ring_slots),
        "level:DRAM": Expectation.exact(spec.ring_slots),
        "level:FOREIGN": Expectation.band(spec.ring_slots // 2, total // 4),
        "l1_miss_rate": Expectation.band(1 / 64, 0.25),
        "avg_miss_latency": Expectation.band(lat.l3, lat.foreign + lat.upgrade),
    }


def _expect_counters(spec: KernelSpec, cfg: MachineConfig) -> dict[str, Expectation]:
    """Per-core counters: padding decides everything, exactly.

    At padding >= line size each counter owns its line: one cold miss
    per core, then pure L1 hits, sharing ratio zero -- independent of
    interleaving, so the whole model is exact.  Below a line the
    geometry still fixes the line and sharing counts exactly; the
    ping-pong dynamics are banded.
    """
    lat = LATENCIES
    line = cfg.line_size
    total = 2 * spec.cores * spec.iterations
    touched: dict[int, list[int]] = {}
    for cpu in range(spec.cores):
        touched.setdefault((cpu * spec.padding) // line, []).append(cpu)
    lines_total = len(touched)
    lines_shared = sum(1 for users in touched.values() if len(users) > 1)
    expect = {
        "accesses": Expectation.exact(total),
        "instructions": Expectation.exact(total),
        "lines_total": Expectation.exact(lines_total),
        "sharing_ratio": Expectation.exact(
            lines_shared / lines_total if lines_total else 0.0
        ),
    }
    if spec.padding >= line:
        cold = spec.cores
        l1 = total - cold
        total_latency = cold * lat.dram + l1 * lat.l1
        expect.update(
            {
                "level:L1": Expectation.exact(l1),
                "level:L2": Expectation.exact(0),
                "level:L3": Expectation.exact(0),
                "level:FOREIGN": Expectation.exact(0),
                "level:DRAM": Expectation.exact(cold),
                "miss_kind:cold": Expectation.exact(cold),
                "l1_miss_rate": Expectation.exact(cold / total),
                "avg_miss_latency": Expectation.exact(float(lat.dram)),
                "cycles_per_access": Expectation.exact(total_latency / total),
            }
        )
    else:
        # Miss classification is per-core: every core's first touch of
        # a line counts COLD, but only the very first goes to DRAM.
        cold = sum(len(users) for users in touched.values())
        expect.update(
            {
                "miss_kind:cold": Expectation.exact(cold),
                "level:DRAM": Expectation.exact(lines_total),
                "l1_miss_rate": Expectation.band(0.0, 1.0),
            }
        )
    return expect


# ---------------------------------------------------------------------------
# Family registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFamily:
    """One generated-kernel family: builder, model, and default spec.

    Its ``repro list-scenarios`` row (description, parameter schema) is in
    :data:`repro.config.SCENARIO_DEFAULTS`.
    """

    name: str
    default_spec: KernelSpec
    build: Callable[[Kernel, KernelSpec], None]
    expected: Callable[[KernelSpec, MachineConfig], dict[str, Expectation]]
    seed_sensitive: bool = False

    def expected_metrics(
        self, spec: KernelSpec, machine_config: MachineConfig
    ) -> dict[str, Expectation]:
        """The family's closed-form model for *spec* on *machine_config*."""
        return self.expected(spec, machine_config)


KERNEL_FAMILIES: dict[str, KernelFamily] = {
    fam.name: fam
    for fam in (
        KernelFamily(
            name="kernel-strided",
            default_spec=KernelSpec(
                family="kernel-strided", footprint=32 * 1024, stride=64,
                cores=1, iterations=4,
            ),
            build=_build_strided,
            expected=_expect_walk,
        ),
        KernelFamily(
            name="kernel-stream",
            default_spec=KernelSpec(
                family="kernel-stream", footprint=1024 * 1024, stride=64,
                cores=1, iterations=2,
            ),
            build=_build_stream,
            expected=_expect_walk,
        ),
        KernelFamily(
            name="kernel-chase",
            default_spec=KernelSpec(
                family="kernel-chase", footprint=8 * 1024, cores=1, iterations=8,
            ),
            build=_build_chase,
            expected=_expect_chase,
            seed_sensitive=True,
        ),
        KernelFamily(
            name="kernel-pingpong",
            default_spec=KernelSpec(
                family="kernel-pingpong", cores=4, iterations=200,
            ),
            build=_build_pingpong,
            expected=_expect_pingpong,
        ),
        KernelFamily(
            name="kernel-ring",
            default_spec=KernelSpec(
                family="kernel-ring", cores=2, iterations=50, ring_slots=16,
            ),
            build=_build_ring,
            expected=_expect_ring,
        ),
        KernelFamily(
            name="kernel-counters",
            default_spec=KernelSpec(
                family="kernel-counters", cores=4, padding=64, iterations=200,
            ),
            build=_build_counters,
            expected=_expect_counters,
        ),
    )
}


def expected_metrics(
    spec: KernelSpec, machine_config: MachineConfig
) -> dict[str, Expectation]:
    """Ground-truth model for *spec*: dispatch to its family."""
    return KERNEL_FAMILIES[spec.family].expected_metrics(spec, machine_config)


# ---------------------------------------------------------------------------
# Driving kernels: direct, scenario-registered, and stream capture
# ---------------------------------------------------------------------------


def drive_spec(kernel: Kernel, spec: KernelSpec) -> WorkloadResult:
    """Build *spec*'s kernel threads and run them to completion.

    Running to completion (rather than cutting off at a cycle budget) is
    what keeps the access counts exactly equal to the model's.
    """
    family = KERNEL_FAMILIES[spec.family]
    if spec.cores > kernel.ncores:
        spec = replace(spec, cores=kernel.ncores)
    start = kernel.elapsed_cycles()
    family.build(kernel, spec)
    kernel.run()
    return WorkloadResult(
        requests_completed=sum(1 for t in kernel.machine.threads if t.done),
        elapsed_cycles=kernel.elapsed_cycles() - start,
    )


def spec_for_duration(name: str, duration_cycles: int) -> KernelSpec:
    """The exact spec the registered scenario runs for a duration budget.

    Tests and CI use this to reconstruct what a ``run-once``/serve job
    executed, so the ground-truth model can be evaluated for it.
    """
    family = KERNEL_FAMILIES[name]
    spec = family.default_spec
    iterations = max(
        1, (spec.iterations * int(duration_cycles)) // KERNEL_DEFAULT_DURATION
    )
    return replace(spec, iterations=iterations)


def _scenario_drive(name: str):
    def drive(kernel: Kernel, duration_cycles: int) -> WorkloadResult:
        return drive_spec(kernel, spec_for_duration(name, duration_cycles))

    return drive


def scenario_entries() -> dict:
    """``SCENARIOS`` entries: family name -> drive(kernel, duration)."""
    return {name: _scenario_drive(name) for name in KERNEL_FAMILIES}


def kernel_access_stream(spec: KernelSpec, seed: int = 11) -> bytes:
    """The full recorded access stream for *spec* under *seed*, as bytes.

    Byte-identical for equal (spec, seed) pairs; for seed-sensitive
    families (the pointer chase) different seeds permute the stream
    without changing any model input -- the determinism property the
    hypothesis tier pins.
    """
    kernel = build_kernel(max(spec.cores, 1), seed)
    family = KERNEL_FAMILIES[spec.family]
    lines: list[str] = []

    def record(cpu, instr, result, cycle) -> None:
        lines.append(
            f"{len(lines)} {cycle} {cpu} {instr.addr:#x} {instr.size} "
            f"{int(instr.is_write)} {instr.ip:#x} {result.level.name}"
        )

    kernel.machine.add_access_observer(record)
    family.build(kernel, spec)
    kernel.run()
    return ("\n".join(lines) + "\n").encode()
