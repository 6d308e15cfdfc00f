"""Fixtures shared by every test module."""

import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_stray_child_process():
    """Fails a test that leaves a child process running or unreaped, such as
    a prediction worker its parent did not wait for."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid:
        pytest.fail(f"the test left child process {pid} unreaped")
    pytest.fail("the test left a child process running")


@pytest.fixture(autouse=True)
def no_stray_thread():
    """Fails a test that ends with a live Python thread that was not running
    when it started, such as a training step pool it did not shut down."""
    before = set(threading.enumerate())
    yield
    stray = [t.name for t in threading.enumerate() if t not in before]
    if stray:
        pytest.fail(f"the test left {len(stray)} thread(s) running: "
                    f"{', '.join(stray)}")
