"""NetStack: ties device, queues, sockets, and softirq loops together.

The workload layer (memcached / Apache) interacts with the stack in three
places:

- it pushes :class:`Arrival` descriptors onto RX queues (the load
  generators of the paper's testbed);
- it provides ``deliver``, the protocol demux invoked for each received
  packet (UDP delivery for memcached, TCP connection setup for Apache);
- it may register ``on_tx_complete`` to observe response completions
  (used for closed-loop flow control and throughput accounting).

Per core there are two softirq threads (``net_rx_action`` and
``net_tx_action``) plus whatever server threads the workload spawns --
matching the pinned one-instance-per-core setup of the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ConfigError
from repro.hw.events import Pause
from repro.kernel.kernel import Kernel
from repro.kernel.net.netdevice import (
    NetDevice,
    RxQueue,
    dev_queue_xmit,
    ixgbe_clean_tx_irq,
    qdisc_run,
)
from repro.kernel.net.skbuff import SkBuff, alloc_skb, eth_type_trans
from repro.kernel.net.types import (
    SIZE_1024_TYPE,
    SKBUFF_FCLONE_TYPE,
    SKBUFF_TYPE,
    TASK_STRUCT_TYPE,
    TCP_SOCK_TYPE,
    UDP_SOCK_TYPE,
)


@dataclass(slots=True)
class Arrival:
    """One packet (or connection) arriving on an RX queue."""

    due: int
    flow_hash: int
    length: int = 64
    kind: str = "request"
    meta: dict = field(default_factory=dict)


DeliverFn = Callable[["NetStack", int, RxQueue, SkBuff, Arrival], Iterator]
TxCompleteFn = Callable[[SkBuff, int], None]


class NetStack:
    """The simulated network stack bound to one kernel instance."""

    #: Idle sleep for softirq loops with no pending work, in cycles.
    IDLE_PAUSE = 400

    #: Packets processed per RX softirq invocation (NAPI budget).
    RX_BUDGET = 16

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.env = kernel.env
        self.slab = kernel.slab
        self.lockstat = kernel.lockstat
        self.skbuff_cache = kernel.slab.create_cache(SKBUFF_TYPE)
        self.fclone_cache = kernel.slab.create_cache(SKBUFF_FCLONE_TYPE)
        self.size1024_cache = kernel.slab.create_cache(SIZE_1024_TYPE)
        self.udp_sock_cache = kernel.slab.create_cache(UDP_SOCK_TYPE)
        self.tcp_sock_cache = kernel.slab.create_cache(TCP_SOCK_TYPE)
        self.task_struct_cache = kernel.slab.create_cache(TASK_STRUCT_TYPE)
        self.dev = NetDevice(self, kernel.ncores)
        self.deliver: DeliverFn | None = None
        self.on_tx_complete_cb: TxCompleteFn | None = None
        self.stopping = False
        self.rx_processed = 0
        self.tx_completed = 0

    # ------------------------------------------------------------------
    # TX entry points
    # ------------------------------------------------------------------

    def dev_queue_xmit(self, cpu: int, skb: SkBuff) -> Iterator:
        """Transmit one packet (queue selection + qdisc enqueue)."""
        yield from dev_queue_xmit(self, cpu, self.dev, skb)

    def on_tx_complete(self, skb: SkBuff, cpu: int) -> None:
        """Called by the driver when a transmit fully completes."""
        self.tx_completed += 1
        if self.on_tx_complete_cb is not None:
            self.on_tx_complete_cb(skb, cpu)

    # ------------------------------------------------------------------
    # RX path
    # ------------------------------------------------------------------

    def ip_rcv(self, cpu: int, skb: SkBuff) -> Iterator:
        """``ip_rcv``: IP header parsing and sanity checks."""
        env = self.env
        fn = "ip_rcv"
        yield env.read(fn, skb.obj, "len")
        yield env.read_range(fn, skb.payload, 16, 8)  # IP header
        yield env.write(fn, skb.obj, "data")

    def ixgbe_clean_rx_irq(self, cpu: int, rxq: RxQueue, budget: int | None = None) -> Iterator:
        """``ixgbe_clean_rx_irq``: reap due arrivals from one RX queue.

        For each arrival: allocate skb + payload, model the DMA'd packet
        data landing in memory, parse headers, and hand the packet to the
        workload's ``deliver`` demux.  Returns packets processed.
        """
        env = self.env
        fn = "ixgbe_clean_rx_irq"
        budget = budget if budget is not None else self.RX_BUDGET
        processed = 0
        while (
            rxq.arrivals
            and rxq.arrivals[0].due <= env.cycle(cpu)
            and processed < budget
        ):
            arrival = rxq.arrivals.popleft()
            yield env.read(fn, rxq.ring, "next_to_clean")
            yield env.write(fn, rxq.ring, "next_to_clean")
            skb = yield from alloc_skb(self, cpu, arrival.length)
            skb.flow_hash = arrival.flow_hash
            skb.origin_queue = rxq.index
            # DMA'd packet contents: the NIC wrote the payload into memory
            # (DMA-to-cache, as the paper notes, avoids compulsory misses
            # only when lines are pulled in; here the writes are the pull).
            yield from env.bulk(fn, skb.payload, 0, arrival.length, write=True)
            yield from eth_type_trans(self, cpu, skb)
            yield env.write(fn, self.dev.obj, "rx_packets")
            yield env.write(fn, self.dev.obj, "rx_bytes")
            self.dev.rx_count += 1
            yield from self.ip_rcv(cpu, skb)
            if self.deliver is None:
                raise ConfigError("NetStack.deliver is not set")
            yield from self.deliver(self, cpu, rxq, skb, arrival)
            self.rx_processed += 1
            processed += 1
        return processed

    # ------------------------------------------------------------------
    # Softirq thread bodies
    # ------------------------------------------------------------------

    def net_rx_action(self, cpu: int) -> Iterator:
        """RX softirq loop for the RX queue owned by *cpu*."""
        rxq = self.dev.rx_queues[cpu]
        while not self.stopping:
            n = yield from self.ixgbe_clean_rx_irq(cpu, rxq)
            if n == 0:
                yield Pause(self.IDLE_PAUSE)

    def net_tx_action(self, cpu: int) -> Iterator:
        """TX softirq loop: drain qdiscs and completions of owned queues."""
        owned = [q for q in self.dev.tx_queues if q.owner_cpu == cpu]
        while not self.stopping:
            did_work = False
            for txq in owned:
                while txq.qdisc.skbs:
                    sent = yield from qdisc_run(self, cpu, self.dev, txq)
                    if not sent:
                        break
                    did_work = True
                if txq.completions:
                    yield from ixgbe_clean_tx_irq(self, cpu, self.dev, txq)
                    did_work = True
            if not did_work:
                yield Pause(self.IDLE_PAUSE)

    def spawn_softirq_threads(self) -> None:
        """Spawn RX+TX softirq threads on every core that owns a queue."""
        for rxq in self.dev.rx_queues:
            self.kernel.spawn(f"rx.{rxq.index}", rxq.owner_cpu, self.net_rx_action(rxq.owner_cpu))
        tx_cores = {q.owner_cpu for q in self.dev.tx_queues}
        for cpu in sorted(tx_cores):
            self.kernel.spawn(f"tx.{cpu}", cpu, self.net_tx_action(cpu))
