"""Suite-wide checks that run around every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """After each test, this process has no child left, running or a
    zombie: every process a test starts has been reaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid}, unreaped"
    pytest.fail(f"a child process outlived the test ({state})")
