"""Tests for the kernel instruction-emission DSL."""

import pytest

from repro.errors import ConfigError
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel, StructType

WIDGET = StructType("kwidget", [("a", 8), ("buf", 120)], object_size=128)


def make_kernel():
    return Kernel(MachineConfig(ncores=2, seed=15))


def test_read_write_build_typed_instructions():
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    rd = k.env.read("fn", obj, "a")
    wr = k.env.write("fn", obj, "a")
    assert rd.kind == "load" and wr.kind == "store"
    assert rd.addr == obj.base and rd.size == 8
    assert rd.ip != wr.ip  # distinct sites for read vs write
    assert k.symbols.resolve(rd.ip) == "fn"


def test_same_site_same_ip_across_objects():
    k = make_kernel()
    a = k.slab.new_static(WIDGET, "a")
    b = k.slab.new_static(WIDGET, "b")
    assert k.env.read("fn", a, "a").ip == k.env.read("fn", b, "a").ip


def test_range_accesses_validate_bounds():
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    instr = k.env.read_range("fn", obj, 8, 8)
    assert instr.addr == obj.base + 8
    with pytest.raises(ConfigError):
        k.env.read_range("fn", obj, 126, 8)


def test_work_is_pure_compute():
    k = make_kernel()
    instr = k.env.work("fn", 500)
    assert instr.kind == "exec"
    assert not instr.is_memory
    assert instr.work == 500


def test_bulk_strides_one_access_per_line():
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    instrs = list(k.env.bulk("fn", obj, 0, 128, write=True))
    assert len(instrs) == 2  # 128 bytes at 64-byte stride
    assert all(i.is_write for i in instrs)
    assert instrs[0].addr == obj.base
    assert instrs[1].addr == obj.base + 64


def test_bulk_partial_tail():
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    instrs = list(k.env.bulk("fn", obj, 0, 70, write=False, stride=64))
    assert len(instrs) == 2
    assert instrs[1].size == 6  # only 6 bytes remain past offset 64


def test_raw_address_accesses():
    k = make_kernel()
    base = k.machine.address_space.alloc_region(64, label="raw")
    rd = k.env.read_at("fn", "probe", base, 8)
    assert rd.addr == base
    assert k.symbols.resolve_site(rd.ip) == ("fn", "probe")


def test_cycle_reads_core_clock():
    k = make_kernel()
    assert k.env.cycle(0) == 0
    k.spawn("t", 0, iter([k.env.work("fn", 123)]))
    k.run()
    assert k.env.cycle(0) == 123


def test_sites_memoised_per_struct_type_object():
    """Two layouts sharing a name keep their own offsets, each site
    interns its ip once, and invalid sites raise on every call."""
    k = make_kernel()
    padded = StructType("kwidget", [("pad", 32), ("a", 8)], object_size=128)
    plain = k.slab.new_static(WIDGET, "plain")
    shifted = k.slab.new_static(padded, "shifted")
    interned = []
    ip_for = k.symbols.ip_for
    k.symbols.ip_for = lambda fn, site: interned.append(site) or ip_for(fn, site)
    for _ in range(3):
        assert k.env.read("fn", plain, "a").addr == plain.base
        assert k.env.read("fn", shifted, "a").addr == shifted.base + 32
        assert k.env.write_range("fn", plain, 8, 4).addr == plain.base + 8
        assert k.env.write_range("fn", plain, 8, 8).size == 8
        k.env.read_at("fn", "probe", 0x1000, 8)
    # Same name, same field: one ip, interned once per distinct site key.
    assert k.env.read("fn", plain, "a").ip == k.env.read("fn", shifted, "a").ip
    assert interned == ["R.kwidget.a", "R.kwidget.a", "W.kwidget+8", "W.kwidget+8", "probe"]
    for _ in range(2):
        with pytest.raises(ConfigError):
            k.env.read("fn", plain, "missing")
        with pytest.raises(ConfigError):
            k.env.write_range("fn", plain, 126, 8)
