import os

import pytest


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail a test that leaves a child process behind, running or unreaped:
    no command starts one, and a test's fresh interpreter is waited for."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pid = None  # no children at all
    if pid is not None:
        # pid 0: a child still runs; otherwise an exited child nobody reaped
        pytest.fail(f"test left a child process behind (waitpid gave {pid})")
