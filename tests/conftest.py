import os

import pytest


@pytest.fixture(autouse=True)
def no_leaked_writer_processes():
    """Fail a test that leaves a child process behind: a snapshot writer's
    pool worker, or a multiprocessing resource tracker."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pid = None  # no children at all
    if pid is not None:
        # pid 0: a child still runs; otherwise an exited child nobody reaped
        pytest.fail(f"test left a child process behind (waitpid gave {pid})")
