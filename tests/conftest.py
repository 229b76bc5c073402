import multiprocessing
import os

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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running: the sweep's pool
    and the CSV writer's helpers must all be joined before they return."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.kill()
        child.join()
    assert not children, f"child processes left running: {children}"
