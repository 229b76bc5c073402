import numpy as np

from refprice import validate


def test_reset_brute_force_counts_oracle_miss(monkeypatch):
    monkeypatch.setattr(validate, "brute_force_reset", lambda *args, **kwargs: None)
    result = validate.check_reset_brute_force(np.random.default_rng(0), n_cases=5)
    assert result.passed is False
    assert result.detail.startswith("5 plan mismatches")

