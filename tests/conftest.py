import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail each test after which this process has a child, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid else "the test left a child process running")


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail each test after which a non-daemon thread other than the main one is alive.

    A sweep forks its workers, and a thread alive at a fork leaves the locks it holds held in the child.
    """
    yield
    left = [t.name for t in threading.enumerate() if t is not threading.main_thread() and not t.daemon]
    if left:
        pytest.fail(f"the test left thread(s) {left} alive")
