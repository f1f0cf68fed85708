"""Diagnosis on the Apache workload: capacity problems surface too."""

import pytest

from repro.api import Diagnosis, DProf, DProfConfig
from repro.dprof.views import MissClass
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.fixes import apply_admission_control
from repro.workloads import ApacheWorkload


@pytest.mark.slow
def test_diagnosis_flags_tcp_sock_under_overload():
    kernel = Kernel(MachineConfig(ncores=8, seed=55))
    workload = ApacheWorkload(kernel, arrival_period=11_000)
    workload.setup()
    apply_admission_control(workload.listeners.values(), 48)
    workload.start()
    start = kernel.elapsed_cycles()
    workload.schedule_arrivals(6_000_000, start_cycle=start)
    kernel.run(until_cycle=start + 1_500_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=200))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + 1_500_000)
    dprof.detach()

    findings = {f.type_name: f for f in Diagnosis(dprof).findings(8)}
    assert "tcp_sock" in findings
    tcp = findings["tcp_sock"]
    # The socket does not bounce (TCP responses are core-local); its
    # problem is volume, not sharing -- the diagnosis must not recommend
    # a sharing fix.
    assert not tcp.bounces
    assert tcp.dominant_class not in (
        MissClass.TRUE_SHARING,
        MissClass.FALSE_SHARING,
    )
    # And the tcp_sock working set is visibly large in the finding.
    assert tcp.working_set_bytes > 100_000
