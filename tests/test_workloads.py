"""Tests for the memcached and Apache workloads and the two fixes.

These run scaled-down versions (fewer cores, shorter windows) of the
calibrated case studies; the benchmark suite runs the full-size ones.
"""

import pytest

from repro.fixes import apply_admission_control, install_local_queue_selection
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.workloads import ApacheWorkload, MemcachedWorkload
from repro.workloads.memcached import WINDOW


def memcached_run(ncores=8, fixed=False, duration=400_000):
    k = Kernel(MachineConfig(ncores=ncores, seed=17))
    wl = MemcachedWorkload(k)
    wl.setup()
    if fixed:
        install_local_queue_selection(wl.stack.dev)
    result = wl.run(duration, warmup_cycles=100_000)
    return result, wl, k


class TestMemcached:
    def test_serves_requests_on_all_cores(self):
        result, wl, _k = memcached_run()
        assert result.requests_completed > 0
        active = [c for c, n in result.per_core_completed.items() if n > 0]
        assert len(active) == 8

    def test_stock_uses_remote_queues_and_alien_frees(self):
        _result, wl, _k = memcached_run()
        assert wl.stack.skbuff_cache.alien_frees > 0
        assert wl.stack.size1024_cache.alien_frees > 0

    def test_fix_eliminates_alien_frees(self):
        _result, wl, _k = memcached_run(fixed=True)
        assert wl.stack.skbuff_cache.alien_frees == 0
        assert wl.stack.size1024_cache.alien_frees == 0

    def test_fix_improves_throughput_substantially(self):
        stock, _w, _k = memcached_run()
        fixed, _w, _k = memcached_run(fixed=True)
        improvement = fixed.throughput / stock.throughput - 1
        # Full-size calibration lands ~57%; the scaled-down run must at
        # least show a large, same-direction win.
        assert improvement > 0.25

    def test_fix_eliminates_qdisc_contention(self):
        _s, _w, k_stock = memcached_run()
        _f, _w2, k_fixed = memcached_run(fixed=True)

        def qdisc_wait(kernel):
            return sum(
                s.wait_cycles
                for s in kernel.lockstat.all_stats()
                if s.name.startswith("Qdisc")
            )

        assert qdisc_wait(k_fixed) < 0.1 * qdisc_wait(k_stock)

    def test_closed_loop_bounds_outstanding_requests(self):
        result, wl, _k = memcached_run()
        # In-flight work is bounded by window * cores; queues stay small.
        for cpu, sock in wl.socks.items():
            assert len(sock.receive_queue) <= 2 * WINDOW

    def test_throughput_metric(self):
        result, _w, _k = memcached_run()
        assert result.throughput == pytest.approx(
            result.requests_completed * 1e6 / result.elapsed_cycles
        )


def apache_run(
    period, ncores=8, admission=None, duration=1_200_000, warmup=800_000, backlog=16
):
    # A small backlog keeps queue-fill time inside the short test window;
    # the benchmarks exercise the full 128-deep configuration.
    k = Kernel(MachineConfig(ncores=ncores, seed=13))
    wl = ApacheWorkload(k, arrival_period=period)
    wl.setup()
    apply_admission_control(wl.listeners.values(), backlog)
    if admission is not None:
        apply_admission_control(wl.listeners.values(), admission)
    result = wl.run(duration, warmup_cycles=warmup)
    return result, wl


class TestApache:
    def test_moderate_load_no_drops(self):
        result, wl = apache_run(period=40_000)
        assert result.requests_completed > 0
        assert wl.total_dropped() == 0
        assert wl.mean_accept_wait() < 10_000

    def test_overload_fills_accept_queues(self):
        result, wl = apache_run(period=13_000)
        assert wl.mean_accept_wait() > 100_000
        assert wl.total_dropped() > 0

    def test_admission_control_caps_queues_and_wait(self):
        # Stock backlog 24 vs admission cap 8: waits shrink accordingly.
        _stock, wl_stock = apache_run(period=13_000, backlog=24)
        _adm, wl_adm = apache_run(period=13_000, backlog=24, admission=8)
        assert wl_adm.mean_accept_wait() < 0.6 * wl_stock.mean_accept_wait()
        for listener in wl_adm.listeners.values():
            assert len(listener.accept_queue) <= 8

    def test_admission_control_improves_overloaded_throughput(self):
        stock, _w = apache_run(period=13_000)
        fixed, _w = apache_run(period=13_000, admission=8)
        assert fixed.throughput > stock.throughput

    def test_tcp_socks_accumulate_under_overload(self):
        _r1, wl_peak = apache_run(period=40_000)
        _r2, wl_over = apache_run(period=13_000)
        live_peak = wl_peak.stack.tcp_sock_cache.live_objects()
        live_over = wl_over.stack.tcp_sock_cache.live_objects()
        # The drop-off case holds roughly backlog * ncores sockets live.
        assert live_over > 4 * max(live_peak, 1)

    def test_responses_stay_core_local(self):
        _r, wl = apache_run(period=40_000)
        # TCP flow hashing steers responses to the same core: no aliens.
        assert wl.stack.fclone_cache.alien_frees == 0


# ---------------------------------------------------------------------------
# Scenario registry: every entry round-trips through the full pipeline
# ---------------------------------------------------------------------------


class TestScenarioRegistry:
    """Every SCENARIOS entry must survive spec -> run -> archive -> views."""

    def test_defaults_cover_exactly_the_registry(self):
        from repro.workloads import SCENARIO_DEFAULTS, SCENARIOS

        assert set(SCENARIO_DEFAULTS) == set(SCENARIOS)
        for name, defaults in SCENARIO_DEFAULTS.items():
            assert defaults.cores >= 1, name
            assert defaults.duration > 0, name
            assert defaults.interval > 0, name
            assert defaults.description, name
            assert defaults.params, name

    def test_kernel_families_are_registered(self):
        from repro.workloads import SCENARIO_DEFAULTS, SCENARIOS
        from repro.workloads.kernels import KERNEL_DEFAULT_DURATION, KERNEL_FAMILIES

        assert set(KERNEL_FAMILIES) <= set(SCENARIOS)
        assert len(KERNEL_FAMILIES) >= 5
        # A family's defaults run its default spec: every core it uses
        # (at least two) over the budget that maps to its default
        # iteration count.
        for name, family in KERNEL_FAMILIES.items():
            defaults = SCENARIO_DEFAULTS[name]
            assert defaults.cores == max(2, family.default_spec.cores), name
            assert defaults.duration == KERNEL_DEFAULT_DURATION, name

    @pytest.mark.parametrize(
        "name",
        sorted(__import__("repro.workloads", fromlist=["SCENARIOS"]).SCENARIOS),
    )
    def test_round_trip_spec_archive_views(self, name, tmp_path):
        import json

        from repro.dprof.session_io import load_session
        from repro.serve.jobs import JobSpec
        from repro.workloads import SCENARIO_DEFAULTS

        defaults = SCENARIO_DEFAULTS[name]
        spec = JobSpec.create(
            scenario=name,
            cores=defaults.cores,
            duration=min(defaults.duration, 100_000),
            interval=defaults.interval,
            seed=11,
        )
        from repro.serve.workers import execute_job

        status, archive_text, _info = execute_job(spec)
        assert status == "ok", name
        path = tmp_path / f"{name}.session.json"
        path.write_text(archive_text)
        session = load_session(path)
        # All four DProf views render from the archive...
        assert session.data_profile().render(5)
        assert session.working_set().render(5)
        types = sorted({h.type_name for h in session.histories})
        type_name = types[0] if types else "unknown-type"
        assert session.miss_classification(type_name).render()
        assert session.data_flow(type_name).render_text() is not None
        # ...plus the metrics summary, with counters intact in the blob.
        summary = session.metrics()
        assert summary is not None
        blob = json.loads(archive_text)
        assert summary.accesses == blob["hw_counters"]["accesses"]
