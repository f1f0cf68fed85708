"""Pausing CPython's cyclic garbage collector around acyclic bulk work.

Archive decode and the offline cache replay allocate tens of thousands
of small container objects (parsed rows, records, event tuples) that
never form reference cycles.  Each allocation burst triggers collections,
and the gen-2 ones re-walk every long-lived object in the process for
nothing: reference counting frees all of this data.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def collector_paused():
    """Disable automatic cyclic collection for the ``with`` block.

    The caller's prior state is restored on exit, also on an exception:
    a collector that was disabled stays disabled.  Use it only around
    code that creates no reference cycles, so that nothing waits in the
    heap for the next collection.

    The collector switch is process-wide.  Only a block that found the
    collector enabled disables it and enables it again, so overlapping
    blocks in several threads end with the collector enabled; a pause in
    one thread can only delay another thread's collections.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
