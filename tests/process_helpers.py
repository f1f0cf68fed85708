"""Stop ``repro.cli serve``/``cluster`` processes together with their workers.

Both commands fork a worker pool.  SIGKILLing only the server process
orphans those workers, which then sit idle after the test suite ends, so
every test that stops a server goes through :func:`stop_server`.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path


def child_pids(pid: int) -> list[int]:
    """Direct children of *pid*, ignoring the mp resource tracker."""
    pids = []
    for children in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            pids += [int(p) for p in children.read_text().split()]
        except OSError:
            continue
    workers = []
    for child in pids:
        try:
            cmdline = Path(f"/proc/{child}/cmdline").read_bytes().decode()
        except OSError:
            continue
        if "resource_tracker" not in cmdline:
            workers.append(child)
    return workers


def kill_quietly(pids) -> None:
    """SIGKILL each pid, ignoring the ones already gone."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def stop_server(proc) -> None:
    """SIGKILL a still-running server and its workers; reap it."""
    if proc.poll() is None:
        workers = child_pids(proc.pid)
        proc.kill()
        kill_quietly(workers)
    proc.wait(timeout=10)
    if proc.stdout:
        proc.stdout.close()
