import os

import pytest

from stueckelberg import report


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.

    A parallel `verify` forks workers; each must be waited for before
    the command returns.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + (f"{pid} unreaped" if pid else "running"))


@pytest.fixture
def three_cpus(monkeypatch):
    """The default worker count, and the cap on it, of a host with three usable CPUs."""
    monkeypatch.setattr(report, "usable_cpus", lambda: 3)
