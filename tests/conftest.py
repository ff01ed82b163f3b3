import os

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
