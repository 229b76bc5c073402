"""Markdown pricing under running-average reference effects.

Simulation and optimization tools for a demand model where customers compare
the posted price to the average of all past prices: closed-form markdown
curves, baseline and learning pricing policies, and a seeded regret harness.
"""

from .curve import (
    PriceCurve,
    SolverError,
    curve_value,
    foc_residual,
    solve_curve,
)
from .harness import (
    EpisodeRecord,
    RegretRecord,
    SimEnv,
    clairvoyant_value,
    regret_sweep,
    run_episode,
)
from .model import (
    DomainError,
    Instance,
    NoiseSpec,
    PolicyParams,
    expected_demand,
    greedy_price,
    revenue,
    sample_demand,
    true_policy_params,
)
from .policies import (
    LearnGreedyState,
    LearnThenEarn,
    make_policy,
    myopic_greedy_step,
    optimal_fixed_price,
    reset_ref,
    two_price_policy,
)

__all__ = [
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
    "curve_value",
    "expected_demand",
    "foc_residual",
    "greedy_price",
    "make_policy",
    "myopic_greedy_step",
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

__version__ = "0.1.0"
