import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process behind, running or unreaped:
    Monte Carlo ensembles fork their chunk workers and must reap every one."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test (waitpid: pid {pid}, status {status})")
