"""The memcached workload (paper Section 6.1).

One memcached instance per core, each bound to its own UDP port with its
NIC RX queue steered to the same core; each load-generating client
repeatedly asks its own instance for one non-existent key.  The
configuration "aimed to isolate all data accesses to one core" -- and the
case study is about why that isolation silently fails: UDP responses go
through ``skb_tx_hash``, which picks a *remote* TX queue, so payloads and
skbuffs jump cores between enqueue and dequeue and get freed through the
SLAB alien path.

Clients are closed-loop: each keeps ``WINDOW`` requests outstanding per
core and injects the next one (after a fixed RTT) when a response
transmit completes.  Throughput is responses completed per cycle.
"""

from __future__ import annotations

from repro.hw.events import Pause
from repro.kernel.kernel import Kernel
from repro.kernel.layout import StructType
from repro.kernel.net import NetStack
from repro.kernel.net.skbuff import SkBuff
from repro.kernel.net.stack import Arrival
from repro.kernel.net.udp import (
    UdpSock,
    udp_rcv,
    udp_recvmsg,
    udp_sendmsg,
    udp_sock_create,
)
from repro.kernel.net.wakeup import EventPoll, sys_epoll_wait
from repro.util.rng import DeterministicRng
from repro.workloads.base import RequestCounter, WorkloadResult

#: Per-instance userspace hash table the GET path probes (a miss: the
#: clients ask for a non-existent key, so only the bucket head is read).
HASHTABLE_TYPE = StructType(
    "mc_hashtable",
    [("buckets", 1024)],
    object_size=1024,
    description="memcached hash table",
)


#: Outstanding requests per client (the closed-loop window).
WINDOW = 4
REQUEST_LEN = 64
#: Responses carry a size-1024 payload.
RESPONSE_LEN = 1024
#: Cycles between a response and the client's next request.
CLIENT_RTT = 2_000
#: Userspace GET processing per request.  Calibrated so the kernel's
#: cache-miss and lock costs are the same *fraction* of a request that
#: they were on the paper's testbed (where a request cost ~10 us); the
#: +57% fix headline depends on this ratio, not on absolute speed.
USER_WORK_CYCLES = 8_900
SEED = 1234


def drive(kernel: Kernel, duration_cycles: int) -> WorkloadResult:
    """Set up and run the memcached workload for a fixed window.

    The uniform scenario entry point (see
    :data:`repro.workloads.SCENARIOS`) used by ``repro.serve`` and the
    hierarchy-equivalence tests: same kernel in, same measured window out,
    regardless of which workload is being driven.
    """
    workload = MemcachedWorkload(kernel)
    workload.setup()
    return workload.run(duration_cycles, warmup_cycles=duration_cycles // 5)


class MemcachedWorkload:
    """Drives N pinned memcached instances over the simulated stack."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.stack = NetStack(kernel)
        self.rng = DeterministicRng(SEED, "memcached")
        self.ncores = kernel.ncores
        self.socks: dict[int, UdpSock] = {}
        self.epolls: dict[int, EventPoll] = {}
        self.hashtables: dict[int, object] = {}
        self.counter = RequestCounter(self.ncores)
        self._request_seq = 0
        self._started = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Create sockets, epoll instances, and per-instance tables."""
        for cpu in range(self.ncores):
            self.kernel.spawn(f"mc-setup.{cpu}", cpu, self._setup_one(cpu))
        self.kernel.run()
        self.stack.deliver = self._deliver
        self.stack.on_tx_complete_cb = self._on_tx_complete

    def _setup_one(self, cpu: int):
        sock = yield from udp_sock_create(self.stack, cpu, 11211 + cpu)
        ep = EventPoll(self.stack, f"mc.{cpu}")
        sock.epoll = ep
        self.socks[cpu] = sock
        self.epolls[cpu] = ep
        self.hashtables[cpu] = self.kernel.slab.new_static(
            HASHTABLE_TYPE, f"mc_hashtable.{cpu}"
        )

    # ------------------------------------------------------------------
    # Closed-loop client model
    # ------------------------------------------------------------------

    def _next_flow_hash(self) -> int:
        self._request_seq += 1
        # Knuth multiplicative hash: response queue choice looks random,
        # exactly like hashing over packet contents does.
        return (self._request_seq * 2654435761) & 0xFFFFFFFF

    def prime_clients(self) -> None:
        """Give every client its initial window of in-flight requests."""
        for cpu in range(self.ncores):
            rxq = self.stack.dev.rx_queues[cpu]
            for i in range(WINDOW):
                rxq.arrivals.append(
                    Arrival(
                        due=i * 97,
                        flow_hash=self._next_flow_hash(),
                        length=REQUEST_LEN,
                    )
                )

    def _on_tx_complete(self, skb: SkBuff, cpu: int) -> None:
        origin = skb.meta.get("mc_origin")
        if origin is None:
            return
        self.counter.bump(origin)
        rxq = self.stack.dev.rx_queues[origin]
        due = self.kernel.machine.cores[cpu].cycle + CLIENT_RTT
        rxq.arrivals.append(
            Arrival(
                due=due,
                flow_hash=self._next_flow_hash(),
                length=REQUEST_LEN,
            )
        )

    # ------------------------------------------------------------------
    # Kernel-side delivery and the server loop
    # ------------------------------------------------------------------

    def _deliver(self, stack: NetStack, cpu: int, rxq, skb: SkBuff, arrival: Arrival):
        yield from udp_rcv(stack, cpu, self.socks[cpu], skb)

    def server_body(self, cpu: int):
        """One memcached instance: epoll-wait, recv, GET, respond."""
        env = self.kernel.env
        sock = self.socks[cpu]
        ep = self.epolls[cpu]
        table = self.hashtables[cpu]
        while True:
            ready = yield from sys_epoll_wait(self.stack, cpu, ep)
            skb = yield from udp_recvmsg(self.stack, cpu, sock)
            if skb is None:
                if not ready:
                    yield Pause(self.stack.IDLE_PAUSE)
                continue
            # Userspace GET of a non-existent key: hash + one bucket probe
            # plus the event-loop / syscall work of a real request, split
            # into chunks so the scheduler can interleave other threads.
            bucket = (skb.flow_hash * 31) % 128
            yield env.read_range("memcached_get", table, bucket * 8, 8)
            chunk = USER_WORK_CYCLES // 8
            spent = 0
            while spent < USER_WORK_CYCLES:
                yield env.work("memcached_get", min(chunk, USER_WORK_CYCLES - spent))
                spent += chunk
            response = yield from udp_sendmsg(
                self.stack, cpu, sock, RESPONSE_LEN, flow_hash=skb.flow_hash
            )
            response.meta["mc_origin"] = cpu

    # ------------------------------------------------------------------
    # Measured run
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn softirq + server threads and prime the clients."""
        if self._started:
            return
        self._started = True
        self.stack.spawn_softirq_threads()
        for cpu in range(self.ncores):
            self.kernel.spawn(f"memcached.{cpu}", cpu, self.server_body(cpu))
        self.prime_clients()

    def run(self, duration_cycles: int, warmup_cycles: int = 0) -> WorkloadResult:
        """Run for a fixed window and report completed-request throughput."""
        self.start()
        if warmup_cycles:
            self.kernel.run(until_cycle=self.kernel.elapsed_cycles() + warmup_cycles)
        base_total = self.counter.total
        base_per_core = dict(self.counter.per_core)
        start_cycle = self.kernel.elapsed_cycles()
        self.kernel.run(until_cycle=start_cycle + duration_cycles)
        elapsed = self.kernel.elapsed_cycles() - start_cycle
        return WorkloadResult(
            requests_completed=self.counter.total - base_total,
            elapsed_cycles=elapsed,
            per_core_completed={
                cpu: self.counter.per_core[cpu] - base_per_core.get(cpu, 0)
                for cpu in self.counter.per_core
            },
            overhead_cycles=self.kernel.machine.total_overhead_cycles(),
        )
