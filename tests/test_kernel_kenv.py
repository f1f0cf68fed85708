"""Tests for the kernel instruction-emission DSL."""

import pytest

from repro.errors import ConfigError
from repro.hw.events import Instr
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel, StructType

WIDGET = StructType("kwidget", [("a", 8), ("buf", 120)], object_size=128)


def make_kernel():
    return Kernel(MachineConfig(ncores=2, seed=15))


def test_read_write_build_typed_instructions():
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    rd = k.env.read("fn", obj, "a")
    wr = k.env.write("fn", obj, "a", work=3)
    rd_ip = k.symbols.ip_for("fn", "R.kwidget.a")
    wr_ip = k.symbols.ip_for("fn", "W.kwidget.a")
    assert rd == Instr("load", "fn", rd_ip, obj.base, 8, 1)
    assert wr == Instr("store", "fn", wr_ip, obj.base, 8, 3)
    assert rd_ip != wr_ip  # distinct sites for read vs write
    assert k.symbols.resolve(rd_ip) == "fn"


def test_instructions_are_plain_tuples():
    """The emitted instructions are plain tuples in Instr field order,
    and the compute instruction is one shared tuple per site."""
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    emitted = [
        k.env.read("fn", obj, "a"),
        k.env.write("fn", obj, "a"),
        k.env.read_range("fn", obj, 8, 8),
        k.env.write_range("fn", obj, 8, 8),
        k.env.read_at("fn", "probe", 0x1000, 8),
        k.env.write_at("fn", "probe", 0x1000, 8),
        k.env.work("fn", 5),
    ]
    assert all(type(instr) is tuple and len(instr) == 6 for instr in emitted)
    assert k.env.work("fn", 5) is k.env.work("fn", 5)


def test_same_site_same_ip_across_objects():
    k = make_kernel()
    a = k.slab.new_static(WIDGET, "a")
    b = k.slab.new_static(WIDGET, "b")
    ip = k.symbols.ip_for("fn", "R.kwidget.a")
    assert k.env.read("fn", a, "a") == Instr("load", "fn", ip, a.base, 8)
    assert k.env.read("fn", b, "a") == Instr("load", "fn", ip, b.base, 8)


def test_range_accesses_validate_bounds():
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    instr = k.env.read_range("fn", obj, 8, 8)
    ip = k.symbols.ip_for("fn", "R.kwidget+8")
    assert instr == Instr("load", "fn", ip, obj.base + 8, 8)
    with pytest.raises(ConfigError):
        k.env.read_range("fn", obj, 126, 8)


def test_work_is_pure_compute():
    k = make_kernel()
    instr = Instr._make(k.env.work("fn", 500))
    assert instr == Instr("exec", "fn", k.symbols.ip_for("fn", "compute"), work=500)
    assert not instr.is_memory


def bulk_spans(k, obj, offset, length, write=False, stride=None):
    """(addr - base, size, kind) of every access a bulk walk yields."""
    return [
        (instr.addr - obj.base, instr.size, instr.kind)
        for instr in map(
            Instr._make, k.env.bulk("fn", obj, offset, length, write, stride)
        )
    ]


def test_bulk_strides_one_access_per_line():
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    # 128 bytes at 64-byte stride: one access per line.
    assert bulk_spans(k, obj, 0, 128, write=True) == [
        (0, 8, "store"),
        (64, 8, "store"),
    ]


def test_bulk_partial_tail():
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    # Only 6 bytes remain past offset 64.
    assert bulk_spans(k, obj, 0, 70, stride=64) == [(0, 8, "load"), (64, 6, "load")]


def test_bulk_unaligned_start_reaches_every_line():
    """[56, 120) spans lines 0 and 1: the walk continues from the next
    line boundary, not from 56 + 64 = 120."""
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    assert obj.base % 64 == 0
    assert bulk_spans(k, obj, 56, 64) == [(56, 8, "load"), (64, 8, "load")]


def test_bulk_unaligned_tail_reaches_every_line():
    """[8, 72) ends 8 bytes into line 1; [8, 128) fills it: each line of
    the range gets exactly one access either way."""
    k = make_kernel()
    obj = k.slab.new_static(WIDGET, "w")
    assert bulk_spans(k, obj, 8, 64) == [(8, 8, "load"), (64, 8, "load")]
    assert bulk_spans(k, obj, 8, 120) == [(8, 8, "load"), (64, 8, "load")]
    assert bulk_spans(k, obj, 100, 4) == [(100, 4, "load")]


def test_raw_address_accesses():
    k = make_kernel()
    base = k.machine.address_space.alloc_region(64, label="raw")
    rd = k.env.read_at("fn", "probe", base, 8)
    ip = k.symbols.ip_for("fn", "probe")
    assert rd == Instr("load", "fn", ip, base, 8)
    assert k.symbols.resolve_site(ip) == ("fn", "probe")


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
        read_plain = k.env.read("fn", plain, "a")
        read_shifted = k.env.read("fn", shifted, "a")
        write4 = k.env.write_range("fn", plain, 8, 4)
        write8 = k.env.write_range("fn", plain, 8, 8)
        probe = k.env.read_at("fn", "probe", 0x1000, 8)
        # Same name, same field: one ip for both layouts.
        read_ip = read_plain[2]
        assert read_plain == Instr("load", "fn", read_ip, plain.base, 8)
        assert read_shifted == Instr("load", "fn", read_ip, shifted.base + 32, 8)
        write_ip = write4[2]
        assert write4 == Instr("store", "fn", write_ip, plain.base + 8, 4)
        assert write8 == Instr("store", "fn", write_ip, plain.base + 8, 8)
        assert probe == Instr("load", "fn", probe[2], 0x1000, 8)
    # Interned once per distinct site key.
    assert interned == ["R.kwidget.a", "R.kwidget.a", "W.kwidget+8", "W.kwidget+8", "probe"]
    for _ in range(2):
        with pytest.raises(ConfigError):
            k.env.read("fn", plain, "missing")
        with pytest.raises(ConfigError):
            k.env.write_range("fn", plain, 126, 8)
