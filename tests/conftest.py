"""Suite-wide checks.

leaked_children fails a test that leaves a child process of the test run
alive or unreaped, such as a chain's range worker: it compares the children
listed under /proc/self/task/*/children before and after the test, kills and
reaps any new one, and reports it.  The listing is Linux-only; elsewhere the
check is skipped.
"""

import os
import signal
from pathlib import Path

import pytest

_TASKS = Path("/proc/self/task")


def _children():
    pids = set()
    for task in _TASKS.glob("*"):
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except OSError:  # the task ended while it was read
            pass
    return pids


@pytest.fixture(autouse=True)
def leaked_children():
    if not (_TASKS / str(os.getpid()) / "children").exists():
        yield
        return
    before = _children()
    yield
    leaked = sorted(_children() - before)
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if leaked:
        pytest.fail(f"the test left child processes {leaked} running or unreaped")
