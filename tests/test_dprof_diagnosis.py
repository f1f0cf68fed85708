"""Tests for the automated diagnosis layer."""

from repro.api import DProf, DProfConfig
from repro.dprof.diagnosis import Diagnosis, Finding, REMEDIES
from repro.dprof.views import MissClass
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.workloads.synthetic import true_sharing_workload


def profiled_true_sharing():
    kernel = Kernel(MachineConfig(ncores=4, seed=51))
    dprof = DProf(kernel, DProfConfig(ibs_interval=30))
    dprof.attach()
    true_sharing_workload(kernel, iterations=400)
    kernel.run()
    dprof.detach()
    return kernel, dprof


def test_diagnosis_flags_bouncing_type():
    _kernel, dprof = profiled_true_sharing()
    findings = Diagnosis(dprof).findings()
    assert findings
    top = findings[0]
    assert top.type_name == "shared_counter"
    assert top.bounces
    assert top.dominant_class in (MissClass.TRUE_SHARING, MissClass.FALSE_SHARING)
    assert top.remedy == REMEDIES[top.dominant_class]


def test_diagnosis_render_is_readable():
    _kernel, dprof = profiled_true_sharing()
    report = Diagnosis(dprof).render()
    assert "DProf diagnosis" in report
    assert "shared_counter" in report
    assert "remedy:" in report


def test_diagnosis_threshold_filters_noise():
    _kernel, dprof = profiled_true_sharing()
    high_bar = Diagnosis(dprof, miss_share_threshold=2.0)  # impossible bar
    assert high_bar.findings() == []
    assert "No significant" in high_bar.render()


def test_finding_render_contains_evidence():
    finding = Finding(
        type_name="skbuff",
        miss_share=0.052,
        working_set_bytes=20.55e6,
        bounces=True,
        dominant_class=MissClass.TRUE_SHARING,
        class_shares={MissClass.TRUE_SHARING: 0.9, MissClass.CAPACITY: 0.1},
        cross_cpu_transitions=[("pfifo_fast_enqueue", "pfifo_fast_dequeue")],
        suspect_functions=["dev_queue_xmit", "skb_tx_hash", "udp_sendmsg"],
        remedy=REMEDIES[MissClass.TRUE_SHARING],
    )
    out = finding.render()
    assert "5.2% of all L1 misses" in out
    assert "pfifo_fast_enqueue -> pfifo_fast_dequeue" in out
    assert "skb_tx_hash" in out
    assert "true sharing 90%" in out


def test_diagnosis_on_memcached_finds_the_paper_bug():
    """End-to-end: the diagnosis points at the TX path, unprompted."""
    from repro.workloads import MemcachedWorkload

    kernel = Kernel(MachineConfig(ncores=8, seed=52))
    workload = MemcachedWorkload(kernel)
    workload.setup()
    workload.start()
    kernel.run(until_cycle=150_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=300))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + 500_000)
    dprof.collect_histories("skbuff", sets=3, hot_chunks=4, member_offsets=[0], pair=True)
    kernel.run(
        until_cycle=kernel.elapsed_cycles() + 15_000_000,
        stop_when=lambda: dprof.histories_done,
    )
    dprof.detach()

    findings = {f.type_name: f for f in Diagnosis(dprof).findings()}
    assert "size-1024" in findings
    assert findings["size-1024"].bounces
    skbuff = findings.get("skbuff")
    assert skbuff is not None
    # The sharing evidence names the transmit path.
    txish = {src for src, _dst in skbuff.cross_cpu_transitions} | set(
        skbuff.suspect_functions
    )
    assert txish & {"dev_queue_xmit", "pfifo_fast_enqueue", "skb_tx_hash", "skb_put"}
