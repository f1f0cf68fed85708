"""The instruction-emission DSL simulated kernel code is written in.

Kernel functions are Python generators that yield instructions; the
machine executes each yielded instruction against the cache hierarchy.
:class:`KernelEnv` builds those instructions: it assigns every distinct
access site a stable instruction pointer (via the symbol table) so that
profilers see consistent code addresses, and it resolves object fields to
physical addresses through the struct layout.  An instruction is a plain
``(kind, fn, ip, addr, size, work)`` tuple in
:class:`~repro.hw.events.Instr` field order: one is built per simulated
access, and a plain tuple costs a fraction of any named record.

Example kernel function::

    def skb_put(env, cpu, skb, length):
        fn = "skb_put"
        yield env.read(fn, skb, "tail")
        yield env.write(fn, skb, "tail")
        yield env.write(fn, skb, "len")

Code between ``yield`` statements runs atomically with respect to other
threads (the machine resumes a generator immediately after executing its
instruction, within the same scheduling quantum), which is what makes the
spinlock implementation in :mod:`repro.kernel.locks` sound.
"""

from __future__ import annotations

from repro.hw.machine import Machine
from repro.kernel.layout import KObject
from repro.kernel.symbols import SymbolTable


class KernelEnv:
    """Builds instructions with stable ips for simulated kernel code.

    Every access site is resolved once: the first instruction built for a
    site interns its ip in the symbol table and checks its field or range
    against the struct layout, and the resulting ``(ip, offset, size)`` is
    memoised.  Sites are keyed by the :class:`StructType` object, not its
    name, because padded or fixed layouts may share a name.  An unknown
    field or out-of-range offset is never memoised, so it raises
    :class:`~repro.errors.ConfigError` every time.
    """

    #: Default cache-line stride for bulk copies: one access per line is
    #: what matters to the cache model, whatever the real copy width.
    BULK_STRIDE = 64

    def __init__(self, machine: Machine, symbols: SymbolTable) -> None:
        self.machine = machine
        self.symbols = symbols
        #: (fn, kind, StructType, field name or (offset, size))
        #: -> (ip, offset, size).
        self._object_sites: dict[tuple, tuple[int, int, int]] = {}
        #: (fn, site label) -> ip, for raw-address and compute sites.
        self._label_ips: dict[tuple[str, str], int] = {}
        #: (fn, site label, cycles) -> the shared compute instruction.
        self._work_instrs: dict[tuple[str, str, int], tuple] = {}

    def _field_site(
        self, fn: str, kind: str, obj: KObject, field: str
    ) -> tuple[int, int, int]:
        addr, size = obj.field_addr(field)
        tag = "W" if kind == "store" else "R"
        ip = self.symbols.ip_for(fn, f"{tag}.{obj.otype.name}.{field}")
        site = (ip, addr - obj.base, size)
        self._object_sites[(fn, kind, obj.otype, field)] = site
        return site

    def _range_site(
        self, fn: str, kind: str, obj: KObject, offset: int, size: int
    ) -> tuple[int, int, int]:
        obj.offset_addr(offset, size)
        tag = "W" if kind == "store" else "R"
        ip = self.symbols.ip_for(fn, f"{tag}.{obj.otype.name}+{offset}")
        site = (ip, offset, size)
        self._object_sites[(fn, kind, obj.otype, (offset, size))] = site
        return site

    def _label_ip(self, fn: str, site: str) -> int:
        ip = self._label_ips.get((fn, site))
        if ip is None:
            ip = self._label_ips[(fn, site)] = self.symbols.ip_for(fn, site)
        return ip

    # ------------------------------------------------------------------
    # Field-level accesses (the common case)
    # ------------------------------------------------------------------

    def read(self, fn: str, obj: KObject, field: str, work: int = 1) -> tuple:
        """Load of one struct field."""
        site = self._object_sites.get((fn, "load", obj.otype, field))
        if site is None:
            site = self._field_site(fn, "load", obj, field)
        ip, offset, size = site
        return ("load", fn, ip, obj.base + offset, size, work)

    def write(self, fn: str, obj: KObject, field: str, work: int = 1) -> tuple:
        """Store to one struct field."""
        site = self._object_sites.get((fn, "store", obj.otype, field))
        if site is None:
            site = self._field_site(fn, "store", obj, field)
        ip, offset, size = site
        return ("store", fn, ip, obj.base + offset, size, work)

    def read_range(
        self, fn: str, obj: KObject, offset: int, size: int, work: int = 1
    ) -> tuple:
        """Load of a raw offset range of an object (untyped data)."""
        site = self._object_sites.get((fn, "load", obj.otype, (offset, size)))
        if site is None:
            site = self._range_site(fn, "load", obj, offset, size)
        return ("load", fn, site[0], obj.base + offset, size, work)

    def write_range(
        self, fn: str, obj: KObject, offset: int, size: int, work: int = 1
    ) -> tuple:
        """Store to a raw offset range of an object (untyped data)."""
        site = self._object_sites.get((fn, "store", obj.otype, (offset, size)))
        if site is None:
            site = self._range_site(fn, "store", obj, offset, size)
        return ("store", fn, site[0], obj.base + offset, size, work)

    # ------------------------------------------------------------------
    # Raw-address accesses (page tables, static data, lock words, ...)
    # ------------------------------------------------------------------

    def read_at(self, fn: str, site: str, addr: int, size: int, work: int = 1) -> tuple:
        """Load of an arbitrary address under an explicit site label."""
        return ("load", fn, self._label_ip(fn, site), addr, size, work)

    def write_at(self, fn: str, site: str, addr: int, size: int, work: int = 1) -> tuple:
        """Store to an arbitrary address under an explicit site label."""
        return ("store", fn, self._label_ip(fn, site), addr, size, work)

    # ------------------------------------------------------------------
    # Compute and bulk helpers
    # ------------------------------------------------------------------

    def work(self, fn: str, cycles: int, site: str = "compute") -> tuple:
        """Pure compute: burns *cycles* without touching memory.

        A compute instruction has no address, so one tuple per
        ``(fn, site, cycles)`` is built and yielded again each time.
        """
        key = (fn, site, cycles)
        instr = self._work_instrs.get(key)
        if instr is None:
            instr = ("exec", fn, self._label_ip(fn, site), 0, 0, cycles)
            self._work_instrs[key] = instr
        return instr

    def bulk(
        self,
        fn: str,
        obj: KObject,
        offset: int,
        length: int,
        write: bool,
        stride: int | None = None,
        work_per_access: int = 1,
    ):
        """Yield one access per cache line over [offset, offset+length).

        Models memcpy-style bulk transfers (packet payload copies): the
        cache sees one access per line regardless of the copy width, so a
        line-stride walk reproduces the right miss behaviour at a fraction
        of the simulation cost.  After the first access the walk moves to
        the next *stride*-aligned address, so an unaligned range still
        touches each of its lines exactly once.
        """
        stride = stride or self.BULK_STRIDE
        base = obj.base
        pos = offset
        end = offset + length
        while pos < end:
            size = min(8, end - pos)
            if write:
                yield self.write_range(fn, obj, pos, size, work=work_per_access)
            else:
                yield self.read_range(fn, obj, pos, size, work=work_per_access)
            pos = ((base + pos) // stride + 1) * stride - base

    # ------------------------------------------------------------------
    # Clock access
    # ------------------------------------------------------------------

    def cycle(self, cpu: int) -> int:
        """Current cycle count (RDTSC) of core *cpu*."""
        return self.machine.cores[cpu].cycle
