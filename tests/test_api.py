import os
import subprocess
import sys

import pytest

import refprice
from refprice import validate

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
SUBMODULES = ["cli", "config", "curve", "harness", "model", "policies", "validate"]

# The public names of the package.  The slow oracles (dense solve, scalar
# recursion, linear scan, brute-force reset) live in refprice.validate and are
# not among them.
PUBLIC = [
    "DomainError",
    "EpisodeRecord",
    "Instance",
    "LearnGreedyState",
    "LearnThenEarn",
    "NoiseSpec",
    "PolicyParams",
    "PriceCurve",
    "RegretRecord",
    "SimEnv",
    "SolverError",
    "clairvoyant_value",
    "expected_demand",
    "foc_residual",
    "greedy_price",
    "make_policy",
    "optimal_fixed_price",
    "regret_sweep",
    "reset_ref",
    "revenue",
    "run_episode",
    "sample_demand",
    "solve_curve",
    "true_policy_params",
    "two_price_policy",
]


def test_public_names_are_pinned():
    assert sorted(refprice.__all__) == sorted(PUBLIC)


def test_every_public_name_imports():
    namespace = {}
    exec("from refprice import *", namespace)
    assert all(namespace[name] is getattr(refprice, name) for name in PUBLIC)


def test_oracles_live_in_validate():
    oracles = (
        "FocSystem",
        "dense_solve",
        "linear_scan_markdown_start",
        "brute_force_reset",
        "segment_initial_price",
        "solve_segment",
        "curve_from_markdown_start",
        "scalar_solve_curve",
    )
    for name in oracles:
        assert hasattr(validate, name)
        assert not hasattr(refprice, name)
        assert not hasattr(refprice.curve, name)


def run_fresh(code, **env):
    """Run ``code`` in a fresh interpreter, with OPENBLAS_NUM_THREADS unset
    unless ``env`` sets it; returns its stdout."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=SRC, **env)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_numpy():
    assert run_fresh("import sys, refprice; print('numpy' in sys.modules)") == "False\n"


def test_cli_import_loads_no_numpy_random():
    # numpy loads numpy.random on first use; a command that draws nothing in
    # its own process (sweep's parent, solve) should not pay for it.
    assert run_fresh("import sys, refprice.cli; print('numpy.random' in sys.modules)") == "False\n"


def test_noiseless_planned_simulate_loads_no_numpy_random(tmp_path):
    # A planned path without noise draws nothing, so no episode builds a
    # generator.
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "two_price_gap.yaml")
    args = ["simulate", "--config", config, "--out", str(tmp_path), "run.T=50", "run.seeds=2"]
    code = f"""
import sys
from refprice.cli import main
assert main({args!r}) == 0
print('numpy.random' in sys.modules)
"""
    assert run_fresh(code).splitlines()[-1] == "False"
    assert (tmp_path / "episodes.csv").exists()


def test_every_name_and_submodule_resolves_after_a_bare_import():
    code = f"""
import importlib, refprice
namespace = {{}}
exec("from refprice import *", namespace)
del namespace["__builtins__"]
assert sorted(namespace) == sorted({PUBLIC!r})
for name, value in namespace.items():
    assert value is getattr(importlib.import_module("refprice." + refprice._ORIGIN[name]), name)
for sub in {SUBMODULES!r}:
    assert getattr(refprice, sub) is importlib.import_module("refprice." + sub)
"""
    run_fresh(code)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_sets_one_blas_thread_by_default(preset, expected):
    """The CLI sets OPENBLAS_NUM_THREADS before numpy loads, so numpy starts
    no BLAS thread; a value already set is kept."""
    code = """
import os, refprice.cli
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    value, threads = run_fresh(code, **env).split()
    assert value == expected
    if preset is None and threads != "None":
        assert threads == "1"
