"""Checks shared by every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    refine forks stripe workers; they must be gone once it returns or raises.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process behind ({'running' if pid == 0 else pid})")


@pytest.fixture
def no_fd_leaked():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to list open descriptors")
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before
