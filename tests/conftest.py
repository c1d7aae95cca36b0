import os

import pytest


@pytest.fixture(autouse=True)
def no_leaked_writer_processes(request):
    """Fail a test that leaves a child process behind, or a snapshot
    writer's temp file (``*.part``) in its tmp_path."""
    tmp_path = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pid = None  # no children at all
    if pid is not None:
        # pid 0: a child still runs; otherwise an exited child nobody reaped
        pytest.fail(f"test left a child process behind (waitpid gave {pid})")
    if tmp_path is not None:
        parts = sorted(tmp_path.rglob("*.part"))
        if parts:
            pytest.fail(f"test left writer temp files behind: {parts}")
