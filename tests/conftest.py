import glob
import os
import signal

# As the CLI does, before numpy loads: the suite runs BLAS on one thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from refprice import Instance


@pytest.fixture
def inst_symmetric():
    """The workhorse symmetric instance (a=1, b=2, eta=0.5, p_max=4/3)."""
    return Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4.0 / 3.0, p_ratio_bound=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reap_children() -> list:
    """Reap every child process this one has left, and return their pids.
    One still running is killed first: Linux lists it in
    ``/proc/self/task/*/children``."""
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # none is left
            return left
        if pid == 0:  # one is still running
            for children in glob.glob("/proc/self/task/*/children"):
                with open(children) as f:
                    for running in f.read().split():
                        os.kill(int(running), signal.SIGKILL)
            pid, _ = os.waitpid(-1, 0)
        left.append(pid)


def count_forks(monkeypatch) -> list:
    """The pids of the processes forked from now on (``os.fork``), in a
    list that fills as they start."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process: the children the sweep and
    the CSV writer fork must all be reaped before they return."""
    yield
    left = reap_children()
    assert not left, f"child processes left: {left}"
