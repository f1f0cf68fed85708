"""The simulated kernel implements the paper's function vocabulary.

The thesis's tables and figures name specific Linux kernel functions
(Table 6.3 lists 29; Figure 6-1 and the lock-stat tables name more).
This test pins the reproduction's coverage: running the two workloads
must execute (and therefore expose to the profilers) the functions the
paper's analysis depends on.
"""

from repro.baselines import OProfile
from repro.hw.machine import MachineConfig
from repro.kernel import Kernel
from repro.workloads import ApacheWorkload, MemcachedWorkload

#: Functions the memcached analysis names (Table 6.2, 6.3, Figure 6-1).
MEMCACHED_FUNCTIONS = {
    "kfree",
    "ixgbe_clean_rx_irq",
    "__alloc_skb",
    "ixgbe_xmit_frame",
    "kmem_cache_free",
    "udp_recvmsg",
    "dev_queue_xmit",
    "ixgbe_clean_tx_irq",
    "skb_put",
    "ep_poll_callback",
    "copy_user_generic_string",
    "__kfree_skb",
    "skb_tx_hash",
    "sock_def_write_space",
    "ip_rcv",
    "lock_sock_nested",
    "eth_type_trans",
    "dev_kfree_skb_irq",
    "__qdisc_run",
    "skb_copy_datagram_iovec",
    "__wake_up_sync_key",
    "skb_dma_map",
    "kmem_cache_alloc_node",
    "udp_sendmsg",
    "pfifo_fast_enqueue",
    "pfifo_fast_dequeue",
    "dev_hard_start_xmit",
    "sys_epoll_wait",
    "ep_scan_ready_list",
    "cache_alloc_refill",
    "__drain_alien_cache",
}

#: Functions the Apache analysis names (Table 6.6 and Section 6.2).
APACHE_FUNCTIONS = {
    "tcp_v4_rcv",
    "tcp_v4_syn_recv_sock",
    "inet_csk_accept",
    "tcp_recvmsg",
    "tcp_sendmsg",
    "tcp_transmit_skb",
    "tcp_close",
    "do_futex",
    "futex_wait",
    "futex_wake",
    "schedule",
    "context_switch",
}


def executed_functions(kernel, workload_runner):
    prof = OProfile(kernel.machine)
    prof.attach()
    workload_runner()
    prof.detach()
    return set(prof.cycles_by_fn.keys())


def test_memcached_exercises_paper_functions():
    kernel = Kernel(MachineConfig(ncores=8, seed=61))
    workload = MemcachedWorkload(kernel)
    workload.setup()
    fns = executed_functions(
        kernel, lambda: workload.run(500_000, warmup_cycles=100_000)
    )
    missing = MEMCACHED_FUNCTIONS - fns
    assert not missing, f"paper functions never executed: {sorted(missing)}"


def test_apache_exercises_paper_functions():
    kernel = Kernel(MachineConfig(ncores=8, seed=62))
    workload = ApacheWorkload(kernel, arrival_period=22_000)
    workload.setup()
    fns = executed_functions(
        kernel, lambda: workload.run(800_000, warmup_cycles=200_000)
    )
    missing = APACHE_FUNCTIONS - fns
    assert not missing, f"paper functions never executed: {sorted(missing)}"


def test_paper_type_vocabulary_present():
    kernel = Kernel(MachineConfig(ncores=4, seed=63))
    from repro.kernel.net import NetStack

    NetStack(kernel)
    names = set(kernel.slab.caches.keys())
    assert {
        "skbuff",
        "skbuff_fclone",
        "size-1024",
        "udp_sock",
        "tcp_sock",
        "task_struct",
    } <= names
    # Allocator bookkeeping types exist as static objects; ``slab``
    # descriptors appear once a first slab has been grown.
    statics = set(kernel.slab.static_objects_by_type().keys())
    assert {"array_cache", "kmem_list3", "net_device"} <= statics

    def grow_one():
        obj = yield from kernel.slab.cache("skbuff").alloc(0)
        yield from kernel.slab.cache("skbuff").free(0, obj)

    kernel.spawn("g", 0, grow_one())
    kernel.run()
    assert "slab" in set(kernel.slab.static_objects_by_type().keys())
