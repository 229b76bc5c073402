import refprice
from refprice import validate

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
