#!/usr/bin/env python3
"""Profile once, analyze anywhere: session archives.

The paper notes DProf keeps raw samples in RAM and that DCPI's
spill-to-disk techniques apply.  This example profiles a small memcached
run, saves the session to JSON, then rebuilds every view *from the file
alone* -- no machine, no kernel, no workload -- and verifies that the
offline miss shares and path traces agree with the live ones.

Run:  python examples/offline_analysis.py
"""

import tempfile
from pathlib import Path

from repro.api import DProf, DProfConfig, MachineConfig
from repro.dprof.session_io import load_session, save_session
from repro.kernel import Kernel
from repro.workloads import MemcachedWorkload


def profile_and_save(path: Path):
    kernel = Kernel(MachineConfig(ncores=4, seed=29))
    workload = MemcachedWorkload(kernel)
    workload.setup()
    workload.start()
    kernel.run(until_cycle=120_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=250))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + 400_000)
    dprof.collect_histories("skbuff", sets=2, hot_chunks=4, member_offsets=[0])
    kernel.run(
        until_cycle=kernel.elapsed_cycles() + 8_000_000,
        stop_when=lambda: dprof.histories_done,
    )
    dprof.detach()
    save_session(dprof, path)
    return dprof


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "memcached-session.json"
        print("Profiling a 4-core memcached run and saving the session...")
        live = profile_and_save(path)
        print(f"archive: {path.stat().st_size / 1024:.1f} KiB of JSON")
        print()

        offline = load_session(path)

        print("=" * 72)
        print("DATA PROFILE, REBUILT FROM THE FILE")
        print("=" * 72)
        restored = offline.data_profile()
        print(restored.render(6))

        print()
        print("=" * 72)
        print("DATA FLOW (skbuff), REBUILT FROM THE FILE")
        print("=" * 72)
        print(offline.data_flow("skbuff").render_text())

        # The miss shares and path traces agree with the live session.
        live_profile = live.data_profile()
        for row in live_profile.rows:
            other = restored.row_for(row.type_name)
            assert other is not None
            assert abs(other.miss_share - row.miss_share) < 1e-9
        live_keys = [t.path_key() for t in live.path_traces("skbuff")]
        offline_keys = [t.path_key() for t in offline.path_traces("skbuff")]
        assert live_keys == offline_keys
        print()
        print("Offline miss shares and path traces match the live session:")
        print("profile on the test machine, analyze on your laptop.  Two things")
        print("differ: the archive carries no static-object descriptions, and")
        print("the offline cache simulation draws from its own seed, so the")
        print("working set's resident lines and conflict sets can differ.")


if __name__ == "__main__":
    main()
