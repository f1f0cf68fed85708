"""The Apache workload (paper Section 6.2).

One Apache instance per core serving a single 1 KiB static file out of
memory (the ``MMapFile`` directive); load generators repeatedly open a TCP
connection, request the file once, and close it.  Arrivals are open-loop
at a configurable per-core rate: "the load generating machines eagerly
filled this queue with new requests".

The case study's knob is the accept-queue backlog.  At moderate load the
queue stays shallow, a freshly-accepted ``tcp_sock`` is still warm in the
accepting core's caches, and throughput peaks.  Past the drop-off point
the queue fills to its limit: by the time Apache accepts a connection its
``tcp_sock`` lines have been flushed by the hundreds of connections
processed in between, every request gets slower, and throughput *falls*
under more load.  Limiting the backlog (admission control,
:mod:`repro.fixes.admission`) is the paper's 16% fix.

Each instance also exercises the futex/wakeup machinery (worker handoff)
and a pool of worker ``task_struct`` objects (scheduler churn), which is
what puts ``task_struct`` near the top of the paper's Apache data
profiles (Tables 6.4/6.5).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.events import Pause
from repro.kernel.kernel import Kernel
from repro.kernel.layout import KObject
from repro.kernel.net import NetStack
from repro.kernel.net.skbuff import SkBuff
from repro.kernel.net.stack import Arrival
from repro.kernel.net.tcp import (
    ListenSock,
    inet_csk_accept,
    tcp_close,
    tcp_recvmsg,
    tcp_sendmsg,
    tcp_v4_rcv,
)
from repro.kernel.net.types import MMAP_FILE_TYPE
from repro.kernel.net.wakeup import EventPoll, Futex, futex_wait, futex_wake
from repro.util.rng import DeterministicRng
from repro.workloads.base import RequestCounter, WorkloadResult


#: Accept-queue limit per instance (the admission-control fix lowers it
#: through :func:`repro.fixes.admission.apply_admission_control`).
BACKLOG = 128
FILE_LEN = 1024
REQUEST_LEN = 64
WORKERS_PER_INSTANCE = 16
WORKERS_TOUCHED_PER_REQUEST = 4
#: Userspace request handling (MPM worker, parsing, logging).  Calibrated
#: like memcached's: the kernel-side miss costs must be the same fraction
#: of a request as on the paper's testbed for the +16% admission-control
#: headline to be meaningful.
USER_WORK_CYCLES = 20_000
#: Userspace heap per instance and the slice of it each request walks
#: (config, logging, and scoreboard churn).  This memory is untyped (not
#: slab-allocated), so DProf cannot attribute it -- exactly like a real
#: process heap -- but its cache pressure is real: it is what keeps
#: kernel objects from staying resident between uses.
HEAP_BYTES = 24 * 1024
HEAP_WALK_BYTES = 3 * 1024
SEED = 4321


def drive(kernel: Kernel, duration_cycles: int) -> WorkloadResult:
    """Set up and run the Apache workload for a fixed window.

    The uniform scenario entry point (see
    :data:`repro.workloads.SCENARIOS`).  A shorter arrival period than
    the default keeps small benchmark windows busy: at the stock 30k
    period a sub-second window would carry almost no connections.
    """
    workload = ApacheWorkload(kernel, arrival_period=6_000)
    workload.setup()
    return workload.run(duration_cycles, warmup_cycles=duration_cycles // 5)


class ApacheWorkload:
    """Drives N pinned Apache instances over the simulated stack.

    *arrival_period* is cycles between connection arrivals per core
    (lower = more load).
    """

    def __init__(self, kernel: Kernel, arrival_period: int = 30_000) -> None:
        if arrival_period <= 0:
            raise ConfigError("arrival_period must be positive")
        self.kernel = kernel
        self.arrival_period = arrival_period
        self.stack = NetStack(kernel)
        self.rng = DeterministicRng(SEED, "apache")
        self.ncores = kernel.ncores
        self.listeners: dict[int, ListenSock] = {}
        self.files: dict[int, KObject] = {}
        self.futexes: dict[int, Futex] = {}
        self.workers: dict[int, list[KObject]] = {}
        self.counter = RequestCounter(self.ncores)
        self.accept_wait_cycles: list[int] = []
        self._worker_rr: dict[int, int] = {}
        self._heap_base: dict[int, int] = {}
        self._heap_pos: dict[int, int] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Create listeners, files, futexes, and worker task_structs."""
        for cpu in range(self.ncores):
            self.kernel.spawn(f"ap-setup.{cpu}", cpu, self._setup_one(cpu))
        self.kernel.run()
        self.stack.deliver = self._deliver
        self.stack.on_tx_complete_cb = self._on_tx_complete

    def _setup_one(self, cpu: int):
        listener = ListenSock(self.stack, cpu, 80, backlog=BACKLOG)
        listener.epoll = EventPoll(self.stack, f"ap.{cpu}")
        self.listeners[cpu] = listener
        self.files[cpu] = self.kernel.slab.new_static(MMAP_FILE_TYPE, f"mmap.{cpu}")
        self.futexes[cpu] = Futex(self.stack, f"ap.{cpu}")
        self._worker_rr[cpu] = 0
        self._heap_base[cpu] = self.kernel.machine.address_space.alloc_region(
            HEAP_BYTES, align=64, label=f"apache_heap.{cpu}"
        )
        self._heap_pos[cpu] = 0
        workers = []
        for _ in range(WORKERS_PER_INSTANCE):
            task = yield from self.stack.task_struct_cache.alloc(cpu)
            workers.append(task)
        self.workers[cpu] = workers

    # ------------------------------------------------------------------
    # Open-loop load generation
    # ------------------------------------------------------------------

    def schedule_arrivals(self, duration_cycles: int, start_cycle: int = 0) -> int:
        """Push the arrival schedule for a run window; returns the count."""
        period = self.arrival_period
        total = 0
        for cpu in range(self.ncores):
            rxq = self.stack.dev.rx_queues[cpu]
            jitter_rng = self.rng.child(f"arrivals.{cpu}")
            t = start_cycle + jitter_rng.randint(0, period)
            seq = 0
            while t < start_cycle + duration_cycles:
                rxq.arrivals.append(
                    Arrival(
                        due=t,
                        flow_hash=cpu,  # TCP flow hash steers back to this core
                        length=REQUEST_LEN,
                        kind="connect",
                        meta={"seq": seq},
                    )
                )
                seq += 1
                total += 1
                t += jitter_rng.jitter(period, fraction=0.2)
        return total

    def _on_tx_complete(self, skb: SkBuff, cpu: int) -> None:
        origin = skb.meta.get("ap_origin")
        if origin is not None:
            self.counter.bump(origin)

    # ------------------------------------------------------------------
    # Kernel-side delivery and the server loop
    # ------------------------------------------------------------------

    def _deliver(self, stack: NetStack, cpu: int, rxq, skb: SkBuff, arrival: Arrival):
        yield from tcp_v4_rcv(stack, cpu, self.listeners[cpu], skb, arrival.flow_hash)

    def _touch_workers(self, cpu: int):
        """Scheduler churn: context-switch bookkeeping over worker tasks."""
        env = self.kernel.env
        workers = self.workers[cpu]
        for _ in range(WORKERS_TOUCHED_PER_REQUEST):
            index = self._worker_rr[cpu] % len(workers)
            self._worker_rr[cpu] += 1
            task = workers[index]
            yield env.read("schedule", task, "state")
            yield env.write("schedule", task, "se_vruntime")
            yield env.read("context_switch", task, "stack")
            yield env.write("context_switch", task, "se_sum_exec")

    def _walk_heap(self, cpu: int):
        """Touch a rotating slice of the instance's userspace heap."""
        env = self.kernel.env
        base = self._heap_base[cpu]
        pos = self._heap_pos[cpu]
        self._heap_pos[cpu] = (pos + HEAP_WALK_BYTES) % HEAP_BYTES
        for off in range(0, HEAP_WALK_BYTES, 64):
            addr = base + (pos + off) % HEAP_BYTES
            yield env.read_at("apache_handler", "heap", addr, 8)

    def server_body(self, cpu: int):
        """One Apache instance: accept, read request, serve file, close."""
        env = self.kernel.env
        listener = self.listeners[cpu]
        futex = self.futexes[cpu]
        while True:
            conn = yield from inet_csk_accept(self.stack, cpu, listener)
            if conn is None:
                yield Pause(self.stack.IDLE_PAUSE)
                continue
            self.accept_wait_cycles.append(conn.accept_cycle - conn.enqueue_cycle)
            # Hand the connection to a worker thread: futex wake + wait,
            # plus the scheduler touching worker task_structs.
            yield from futex_wake(self.stack, cpu, futex)
            yield from self._touch_workers(cpu)
            yield from tcp_recvmsg(self.stack, cpu, conn)
            yield from self._walk_heap(cpu)
            chunk = USER_WORK_CYCLES // 8
            spent = 0
            while spent < USER_WORK_CYCLES:
                yield env.work("apache_handler", min(chunk, USER_WORK_CYCLES - spent))
                spent += chunk
            response = yield from tcp_sendmsg(
                self.stack, cpu, conn, FILE_LEN, self.files[cpu]
            )
            response.meta["ap_origin"] = cpu
            yield from tcp_close(self.stack, cpu, conn)
            yield from futex_wait(self.stack, cpu, futex)

    # ------------------------------------------------------------------
    # Measured run
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn softirq and server threads."""
        if self._started:
            return
        self._started = True
        self.stack.spawn_softirq_threads()
        for cpu in range(self.ncores):
            self.kernel.spawn(f"apache.{cpu}", cpu, self.server_body(cpu))

    def run(self, duration_cycles: int, warmup_cycles: int = 0) -> WorkloadResult:
        """Schedule arrivals for the window, run it, report throughput."""
        self.start()
        start = self.kernel.elapsed_cycles()
        self.schedule_arrivals(duration_cycles + warmup_cycles, start_cycle=start)
        if warmup_cycles:
            self.kernel.run(until_cycle=start + warmup_cycles)
        base_total = self.counter.total
        base_per_core = dict(self.counter.per_core)
        measure_start = self.kernel.elapsed_cycles()
        self.kernel.run(until_cycle=start + warmup_cycles + duration_cycles)
        elapsed = self.kernel.elapsed_cycles() - measure_start
        return WorkloadResult(
            requests_completed=self.counter.total - base_total,
            elapsed_cycles=elapsed,
            per_core_completed={
                cpu: self.counter.per_core[cpu] - base_per_core.get(cpu, 0)
                for cpu in self.counter.per_core
            },
            overhead_cycles=self.kernel.machine.total_overhead_cycles(),
        )

    # ------------------------------------------------------------------
    # Diagnostics used by the case study
    # ------------------------------------------------------------------

    def mean_accept_wait(self) -> float:
        """Average cycles connections spent on accept queues."""
        if not self.accept_wait_cycles:
            return 0.0
        return sum(self.accept_wait_cycles) / len(self.accept_wait_cycles)

    def total_dropped(self) -> int:
        """Connections dropped due to full accept queues."""
        return sum(l.dropped for l in self.listeners.values())
