"""Tests for the deterministic fault injector and graceful degradation.

Covers the fault plan itself (validation, CLI spec parsing), schedule
determinism (same seed -> identical faults -> identical profile), the
history collector's retry-with-backoff machinery under forced faults,
and the acceptance scenario: a faulted memcached run must rank the same
top types as the fault-free run and report the injected loss rates.
"""

import warnings

import pytest

from repro.api import DProf, DProfConfig
from repro.dprof.history import DEFAULT_MAX_RETRIES, HistoryCollector
from repro.errors import DegradedDataWarning, FaultInjectionError
from repro.faults import FaultPlan
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel, StructType
from repro.workloads import MemcachedWorkload

from tests.test_dprof_history import WIDGET, churn_body
from tests.test_dprof_profiler import build_udp_machine


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(ibs_drop_rate=1.5)
        with pytest.raises(FaultInjectionError):
            FaultPlan(history_truncation_rate=-0.1)

    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "ibs_drop=0.1, ibs_latency=0.05, debugreg_steal=0.2,"
            "trap_miss=0.01, history_truncation=0.3, seed=7"
        )
        assert plan.seed == 7
        assert plan.ibs_drop_rate == 0.1
        assert plan.ibs_latency_corrupt_rate == 0.05
        assert plan.debugreg_steal_rate == 0.2
        assert plan.watch_trap_miss_rate == 0.01
        assert plan.history_truncation_rate == 0.3
        assert plan.any_faults

    def test_parse_rejects_unknown_model(self):
        with pytest.raises(FaultInjectionError, match="unknown fault model"):
            FaultPlan.parse("cosmic_rays=0.5")

    def test_parse_rejects_malformed_tokens(self):
        with pytest.raises(FaultInjectionError, match="not key=value"):
            FaultPlan.parse("ibs_drop")
        with pytest.raises(FaultInjectionError, match="bad value"):
            FaultPlan.parse("ibs_drop=lots")

    def test_empty_plan_has_no_faults(self):
        plan = FaultPlan(seed=3)
        assert not plan.any_faults
        assert "no faults" in plan.describe()


class TestInjectorDeterminism:
    def test_same_seed_same_schedule(self):
        def schedule(seed):
            inj = FaultPlan(
                seed=seed, ibs_drop_rate=0.2, history_truncation_rate=0.3
            ).build()
            drops = [inj.drop_ibs_sample(cpu) for cpu in (0, 1) for _ in range(200)]
            truncs = [inj.truncation_point() for _ in range(100)]
            return drops, truncs

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_per_cpu_streams_are_independent(self):
        # cpu 1's decisions must not depend on how often cpu 0 is polled.
        a = FaultPlan(seed=9, ibs_drop_rate=0.5).build()
        b = FaultPlan(seed=9, ibs_drop_rate=0.5).build()
        for _ in range(57):
            a.drop_ibs_sample(0)
        seq_a = [a.drop_ibs_sample(1) for _ in range(100)]
        seq_b = [b.drop_ibs_sample(1) for _ in range(100)]
        assert seq_a == seq_b

    def test_latency_corruption_flips_one_bit(self):
        inj = FaultPlan(seed=2, ibs_latency_corrupt_rate=1.0).build()
        corrupted = inj.corrupt_ibs_latency(0, 120)
        assert corrupted is not None and corrupted != 120
        flipped = corrupted ^ 120
        assert flipped & (flipped - 1) == 0  # exactly one bit differs
        assert inj.counters.ibs_corruptions == 1


class _AlwaysTruncate:
    """Stub injector: every history truncates after *point* elements."""

    def __init__(self, point=3):
        self.point = point

    def truncation_point(self):
        return self.point


#: Frees enough to outlast both retries' backoffs: attempt N re-reserves
#: only after N * DEFAULT_RETRY_BACKOFF_CYCLES (50,000) simulated cycles.
N_RETRY = 3000


class TestHistoryDegradation:
    def _collect(self, collector, kernel, cache, n=120):
        """Churn *n* objects under *collector*, then finalize it.

        Returns ``collector.done`` as it stood before ``finalize``, which
        clears the job and retry queues and so makes ``done`` true
        whatever ran.
        """
        collector.schedule_sets("widget", 64, num_sets=1, chunks=[(0, 4)])
        collector.start()
        kernel.spawn("churn", 0, churn_body(kernel, cache, 0, n=n, touches=8))
        kernel.run()
        done = collector.done
        collector.finalize()
        return done

    def test_truncated_history_kept_as_partial(self):
        k = Kernel(MachineConfig(ncores=2, seed=9))
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.faults = _AlwaysTruncate(point=3)
        self._collect(collector, k, cache, n=N_RETRY)
        assert collector.histories_partial == 1
        assert collector.jobs_completed == 1
        [history] = collector.histories
        assert history.truncated
        assert not history.complete  # excluded from path-trace merging
        assert len(history.elements) == 3

    def test_retry_with_backoff_before_accepting_partial(self):
        k = Kernel(MachineConfig(ncores=2, seed=9))
        cache = k.slab.create_cache(WIDGET)
        collector = HistoryCollector(k.machine, k.slab)
        collector.faults = _AlwaysTruncate(point=2)
        done = self._collect(collector, k, cache, n=N_RETRY)
        # Attempt 0 truncates, is retried twice, then the partial is kept.
        assert collector.jobs_retried == DEFAULT_MAX_RETRIES == 2
        assert collector.arm_attempts == 3
        assert collector.histories_partial == 1
        assert done

    def test_stolen_registers_abandon_after_retries(self):
        k = Kernel(MachineConfig(ncores=2, seed=9))
        cache = k.slab.create_cache(WIDGET)
        injector = FaultPlan(seed=4, debugreg_steal_rate=1.0).build()
        k.machine.install_faults(injector)
        collector = HistoryCollector(k.machine, k.slab)
        done = self._collect(collector, k, cache, n=N_RETRY)
        assert collector.arm_failures == 3  # initial attempt + two retries
        assert collector.jobs_abandoned == 1
        assert not collector.histories
        assert done
        assert k.machine.watches.arm_steals >= 3
        assert not k.machine.watches.any_armed

    def test_missed_traps_lose_elements_but_complete(self):
        k = Kernel(MachineConfig(ncores=2, seed=9))
        cache = k.slab.create_cache(WIDGET)
        injector = FaultPlan(seed=4, watch_trap_miss_rate=1.0).build()
        k.machine.install_faults(injector)
        collector = HistoryCollector(k.machine, k.slab)
        self._collect(collector, k, cache, n=10)
        assert collector.jobs_completed == 1
        [history] = collector.histories
        assert history.complete
        assert not history.elements
        assert k.machine.watches.traps_missed > 0


def faulted_udp_profile(plan, cycles=250_000):
    k, _stack = build_udp_machine()
    dprof = DProf(k, DProfConfig(ibs_interval=150), faults=plan)
    dprof.attach()
    k.run(until_cycle=cycles)
    dprof.collect_histories("skbuff", sets=1, hot_chunks=2)
    k.run(until_cycle=cycles + 2_000_000, stop_when=lambda: dprof.histories_done)
    dprof.detach()
    return dprof


class TestFaultedProfiling:
    def test_same_seed_identical_profile(self):
        plan = FaultPlan(seed=13, ibs_drop_rate=0.2, ibs_latency_corrupt_rate=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            a = faulted_udp_profile(plan)
            b = faulted_udp_profile(plan)
            rows_a = [(r.type_name, r.miss_share, r.sample_count) for r in a.data_profile().rows]
            rows_b = [(r.type_name, r.miss_share, r.sample_count) for r in b.data_profile().rows]
        assert rows_a == rows_b
        assert a.fault_injector.counters == b.fault_injector.counters
        samples_a = [(s.ip, s.type_name, s.offset, s.latency) for s in a.sampler.samples]
        samples_b = [(s.ip, s.type_name, s.offset, s.latency) for s in b.sampler.samples]
        assert samples_a == samples_b

    def test_different_seed_different_schedule(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            a = faulted_udp_profile(FaultPlan(seed=1, ibs_drop_rate=0.2))
            b = faulted_udp_profile(FaultPlan(seed=2, ibs_drop_rate=0.2))
        samples_a = [(s.ip, s.type_name, s.offset) for s in a.sampler.samples]
        samples_b = [(s.ip, s.type_name, s.offset) for s in b.sampler.samples]
        assert samples_a != samples_b

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_every_view_survives_drop_rate(self, rate):
        plan = FaultPlan(seed=3, ibs_drop_rate=rate) if rate else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            dprof = faulted_udp_profile(plan)
            profile = dprof.data_profile()
            ws = dprof.working_set()
            mc = dprof.miss_classification("skbuff")
            flow = dprof.data_flow("skbuff")
        assert profile.rows
        assert ws.rows
        assert mc.type_name == "skbuff"
        assert flow.nodes["kalloc"].visits >= 0
        assert profile.render(5)
        quality = profile.quality
        assert quality is not None
        assert abs(quality.sample_drop_rate - rate) < 0.08
        if rate == 0.0:
            assert not quality.degraded
            assert quality.exit_code() == 0
        else:
            assert quality.degraded
            assert quality.exit_code() in (3, 4)
            assert f"[partial data]" in profile.render(5)

    def test_degraded_views_warn(self):
        plan = FaultPlan(seed=3, ibs_drop_rate=0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            dprof = faulted_udp_profile(plan)
        with pytest.warns(DegradedDataWarning, match="data profile view"):
            dprof.data_profile()

    def test_clean_run_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            dprof = faulted_udp_profile(None)
            dprof.data_profile()
            dprof.working_set()


def run_memcached(plan):
    """The acceptance scenario: a profiled memcached run, faulted or not."""
    k = Kernel(MachineConfig(ncores=4, seed=11))
    wl = MemcachedWorkload(k)
    wl.setup()
    wl.start()
    k.run(until_cycle=100_000)
    dprof = DProf(k, DProfConfig(ibs_interval=25), faults=plan)
    dprof.attach()
    k.run(until_cycle=k.elapsed_cycles() + 600_000)
    for _ in range(10):
        dprof.collect_histories("skbuff", sets=2, hot_chunks=4, member_offsets=[0])
        k.run(
            until_cycle=k.elapsed_cycles() + 4_000_000,
            stop_when=lambda: dprof.histories_done,
        )
    dprof.detach()
    return dprof


@pytest.mark.slow
class TestAcceptance:
    """10% IBS drop + 20% truncation must not change the headline answer."""

    def test_faulted_memcached_matches_clean_top3(self):
        plan = FaultPlan(seed=3, ibs_drop_rate=0.10, history_truncation_rate=0.20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedDataWarning)
            clean = run_memcached(None)
            faulted = run_memcached(plan)

            clean_top3 = [r.type_name for r in clean.data_profile().rows[:3]]
            faulted_top3 = [r.type_name for r in faulted.data_profile().rows[:3]]
            assert clean_top3 == faulted_top3

            def top_classes(dprof):
                mc = dprof.miss_classification("skbuff")
                ranked = sorted(mc.weights.items(), key=lambda kv: kv[1], reverse=True)
                return [cls for cls, weight in ranked[:3] if weight > 0]

            assert top_classes(clean) == top_classes(faulted)

        quality = faulted.data_quality()
        # The report recovers the injected loss rates to within 2 points.
        assert abs(quality.sample_drop_rate - 0.10) < 0.02
        assert abs(quality.history_truncation_rate - 0.20) < 0.02
        assert quality.history_attempts >= 100
        assert quality.samples_delivered + quality.samples_dropped >= 1000
        assert quality.degraded
        assert quality.exit_code() == 3
