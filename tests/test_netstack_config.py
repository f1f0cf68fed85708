"""Tests for NetStack configuration and arrival handling edge cases."""

import pytest

from repro.errors import ConfigError
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.kernel.net import NetStack
from repro.kernel.net.stack import Arrival


def test_rx_without_deliver_raises():
    k = Kernel(MachineConfig(ncores=2, seed=1))
    stack = NetStack(k)
    stack.dev.rx_queues[0].arrivals.append(Arrival(due=0, flow_hash=0))

    def body():
        yield from stack.ixgbe_clean_rx_irq(0, stack.dev.rx_queues[0])

    k.spawn("t", 0, body())
    with pytest.raises(ConfigError):
        k.run()


def test_arrivals_respect_due_time():
    k = Kernel(MachineConfig(ncores=2, seed=1))
    stack = NetStack(k)
    delivered = []

    def deliver(stack_, cpu, rxq, skb, arrival):
        delivered.append(arrival.flow_hash)
        yield stack_.env.work("sink", 1)

    stack.deliver = deliver
    rxq = stack.dev.rx_queues[0]
    rxq.arrivals.append(Arrival(due=0, flow_hash=1))
    rxq.arrivals.append(Arrival(due=10_000_000, flow_hash=2))  # far future

    def body():
        yield from stack.ixgbe_clean_rx_irq(0, rxq)

    k.spawn("t", 0, body())
    k.run()
    assert delivered == [1]
    assert len(rxq.arrivals) == 1  # the future arrival stays queued


def test_rx_budget_bounds_batch():
    k = Kernel(MachineConfig(ncores=2, seed=1))
    stack = NetStack(k)
    delivered = []

    def deliver(stack_, cpu, rxq, skb, arrival):
        delivered.append(arrival.flow_hash)
        yield stack_.env.work("sink", 1)

    stack.deliver = deliver
    rxq = stack.dev.rx_queues[0]
    for i in range(40):
        rxq.arrivals.append(Arrival(due=0, flow_hash=i))

    def body():
        n = yield from stack.ixgbe_clean_rx_irq(0, rxq, budget=5)
        return n

    out = {}

    def wrapper():
        out["n"] = yield from body()

    k.spawn("t", 0, wrapper())
    k.run()
    assert out["n"] == 5
    assert len(delivered) == 5


def test_softirq_threads_spawned_per_queue_owner():
    k = Kernel(MachineConfig(ncores=4, seed=1))
    stack = NetStack(k)
    stack.deliver = lambda *a: iter(())
    stack.spawn_softirq_threads()
    names = {t.name for t in k.machine.threads}
    assert {"rx.0", "rx.3", "tx.0", "tx.3"} <= names
