"""Contract between the simulator and the traced benchmark.

``perfbench/layers.py`` attributes host time to layers by wrapping
``vars(owner)[attr]`` for every boundary in its layer table.  A boundary
that moves to a subclass, or a fused path that stops calling it, either
crashes the traced run with a ``KeyError`` or silently zeroes its layer.
These tests load the tracer read-only and check both failure modes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import repro.api as api
from repro.hw.hierarchy import MemoryHierarchy
from repro.workloads import MemcachedWorkload

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    """Import ``perfbench/layers.py`` as a module, without touching sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_is_defined_on_its_owner() -> None:
    table = load_layers()._layer_table()
    assert table
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _layer in table
        if attr not in vars(owner)
    ]
    assert not missing, missing


def test_traced_profile_counts_every_call() -> None:
    """A short 4-core memcached profile under the tracer: every
    instruction passes ``Machine.execute`` and every access passes
    ``MemoryHierarchy.access`` exactly once."""
    layers = load_layers()
    original_access = vars(MemoryHierarchy)["access"]
    tracer = layers.LayerTracer()
    with tracer.installed():
        kernel = api.build_kernel(4, seed=1)
        workload = MemcachedWorkload(kernel)
        workload.setup()
        workload.start()
        kernel.run(until_cycle=50_000)
        dprof = api.DProf(kernel, api.DProfConfig(ibs_interval=50))
        dprof.attach()
        kernel.run(until_cycle=kernel.elapsed_cycles() + 150_000)
        dprof.collect_histories(
            "skbuff", sets=1, hot_chunks=2, member_offsets=[0], pair=True
        )
        kernel.run(
            until_cycle=kernel.elapsed_cycles() + 3_000_000,
            stop_when=lambda: dprof.histories_done,
        )
        dprof.detach()
    assert vars(MemoryHierarchy)["access"] is original_access

    machine = kernel.machine
    calls = tracer.calls
    assert machine.hierarchy.stats.accesses > 0
    assert calls["hw.hierarchy.access"] == machine.hierarchy.stats.accesses
    assert calls["hw.machine.execute"] == machine.total_instructions
    delivered, _dropped, _corrupted = machine.ibs_delivery_counts()
    assert delivered > 0
    assert calls["dprof.sampler.handler"] == delivered
    assert calls["hw.debugreg.check"] >= machine.watches.traps_delivered > 0
