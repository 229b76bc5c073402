"""Markdown pricing under running-average reference effects.

Simulation and optimization tools for a demand model where customers compare
the posted price to the average of all past prices: closed-form markdown
curves, baseline and learning pricing policies, and a seeded regret harness.

Importing the package loads no submodule and so no numpy: each public name
and each submodule is loaded on first use (PEP 562).  That lets
``refprice.cli`` set its BLAS default before numpy starts.
"""

import importlib

_SUBMODULES = ("cli", "config", "curve", "harness", "model", "policies", "validate")

# The submodule that defines each public name.
_ORIGIN = {
    "DomainError": "model",
    "EpisodeRecord": "harness",
    "Instance": "model",
    "LearnGreedyState": "policies",
    "LearnThenEarn": "policies",
    "NoiseSpec": "model",
    "PolicyParams": "model",
    "PriceCurve": "curve",
    "RegretRecord": "harness",
    "SimEnv": "harness",
    "SolverError": "curve",
    "clairvoyant_value": "harness",
    "expected_demand": "model",
    "foc_residual": "curve",
    "greedy_price": "model",
    "make_policy": "policies",
    "optimal_fixed_price": "policies",
    "regret_sweep": "harness",
    "reset_ref": "policies",
    "revenue": "model",
    "run_episode": "harness",
    "sample_demand": "model",
    "solve_curve": "curve",
    "true_policy_params": "model",
    "two_price_policy": "policies",
}

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value
