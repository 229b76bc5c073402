import os

import numpy as np
import pytest
import yaml

from refprice.cli import main
from refprice.config import (
    SEED_ENV_VAR,
    ConfigError,
    config_to_dict,
    load_config,
    parse_config,
)

BASE = {
    "instance": {
        "a": 1.0,
        "b": 2.0,
        "eta_plus": 0.5,
        "eta_minus": 0.5,
        "p_max": 4.0 / 3.0,
        "p_ratio_bound": 1.0,
    },
    "noise": {"kind": "none"},
    "policy": {"kind": "fixed", "price": 0.9},
    "run": {"T": 50, "seeds": 2, "base_seed": 1, "r1": 0.5, "out_dir": "out"},
}


def write_config(tmp_path, overrides=None, name="cfg.yaml"):
    data = yaml.safe_load(yaml.safe_dump(BASE))
    for path, value in (overrides or {}).items():
        node = data
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return str(p)


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    again = parse_config(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"run.bogus": 1})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"instance.shape": "round"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_overrides_and_env(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path, overrides=["run.seeds=7", "policy.price=1.1"])
    assert cfg.run.seeds == 7
    assert cfg.policy["price"] == 1.1
    cfg = load_config(path, env={"REFPRICE_SEED": "99"})
    assert cfg.run.base_seed == 99
    # explicit override beats the environment
    cfg = load_config(path, overrides=["run.base_seed=5"], env={"REFPRICE_SEED": "99"})
    assert cfg.run.base_seed == 5


def test_solve_writes_curve(tmp_path):
    out = tmp_path / "o1"
    path = write_config(tmp_path, {"run.T": 10, "run.r1": 4.0 / 3.0})
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().strip().split("\n")
    assert lines[0] == "t,price,reference"
    prices = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(prices) == 10
    # from the ceiling reference at a short horizon: strictly decreasing from round 1
    assert all(b < a for a, b in zip(prices, prices[1:]))


def test_solve_plateau_shape(tmp_path):
    out = tmp_path / "o2"
    path = write_config(tmp_path, {"run.T": 2000, "run.r1": 0.2})
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().strip().split("\n")[1:]
    prices = np.array([float(l.split(",")[1]) for l in lines])
    p_max = BASE["instance"]["p_max"]
    assert prices[0] == pytest.approx(p_max)
    plateau = int(np.sum(prices >= p_max - 1e-12))
    assert plateau > 1
    assert np.all(np.diff(prices) <= 1e-12)


def test_invalid_instance_exits_2_and_writes_nothing(tmp_path):
    out = tmp_path / "o3"
    path = write_config(tmp_path, {"instance.p_max": 0.9})  # b/(2a) >= p_max
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_requires_horizons(tmp_path):
    out = tmp_path / "o4"
    path = write_config(tmp_path)
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert not (out / "regret.csv").exists()


def test_simulate_writes_episodes(tmp_path):
    out = tmp_path / "o5"
    path = write_config(tmp_path, {"noise.kind": "gaussian", "noise.std": 0.1})
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "episodes.csv").read_text().strip().split("\n")
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "episode,seed,t,price,reference,demand,expected_revenue,realized_revenue"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 2 * 50  # seeds * T


def test_sweep_deterministic_bytes(tmp_path):
    overrides = {
        "policy": {"kind": "learn_then_earn", "c_t1": 2.0},
        "run.T": None,
        "run.T_list": [200, 500],
        "run.seeds": 2,
        "run.r1": 4.0 / 3.0,
        "noise.kind": "bounded_uniform",
        "noise.half_width": 0.05,
    }
    path = write_config(tmp_path, overrides)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", path, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "regret.csv").read_bytes() == (out2 / "regret.csv").read_bytes()


def test_validate_default_config_passes(tmp_path):
    repo_cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")
    assert main(["validate", "--config", repo_cfg]) == 0


def test_sweep_csv_contract(tmp_path):
    path = write_config(
        tmp_path, {"run.T": None, "run.T_list": [50, 150], "run.seeds": 2}
    )
    out = tmp_path / "o6"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = (out / "regret.csv").read_text().strip().split("\n")
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "T,n_seeds,mean_regret,stderr,baseline_value,policy_value_mean,flagged"
    assert lines[-1].startswith("# slope=")


def test_policy_config_validation(tmp_path):
    path = write_config(tmp_path, {"policy": {"kind": "two_price", "alpha": 0.3}, "instance.eta_minus": 0.4})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"policy": {"kind": "markdown_oracle", "theta": [0.7, 0.5]}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"policy": {"kind": "markdown_oracle", "theta": [0.17, 0.66]}})
    assert load_config(path).policy["theta"] == [0.17, 0.66]


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# Configs that are not a mapping at the top level or in the run block.
TOP_LEVEL_LIST = "- 1\n- 2\n"
RUN_LIST = "run: [1]\n"


@pytest.mark.parametrize(
    "config, override",
    [
        ("default.yaml", "run.T=abc"),
        ("default.yaml", "run.seeds=[1]"),
        ("default.yaml", "run.r1=null"),
        ("default.yaml", "run.T_list=[1000,abc]"),
        ("default.yaml", "run.T=2.9"),
        ("default.yaml", "run.seeds=true"),
        ("default.yaml", "instance.a=true"),
        ("default.yaml", "run.out_dir=[a]"),
        ("default.yaml", "run.out_dir={a: 1}"),
        ("default.yaml", "run.out_dir=true"),
        ("default.yaml", "policy.kind=[1]"),
        ("learning_sweep.yaml", "policy.c_t1=abc"),
        ("learning_sweep.yaml", "policy.t1_budget=40.5"),
        ("learning_sweep.yaml", "policy.ra=[1]"),
        (TOP_LEVEL_LIST, "run.seeds=2"),
        (TOP_LEVEL_LIST, f"{SEED_ENV_VAR}=3"),
        (RUN_LIST, f"{SEED_ENV_VAR}=3"),
    ],
)
def test_malformed_value_exits_2(tmp_path, capsys, monkeypatch, config, override):
    """``config`` names a file under configs/ or is the YAML text itself; an
    override of the seed variable is set in the environment instead."""
    out = tmp_path / "o7"
    path = os.path.join(CONFIGS, config)
    if "\n" in config:
        path = tmp_path / "inline.yaml"
        path.write_text(config)
    args = ["solve", "--config", str(path), "--out", str(out), "run.T=1000"]
    if override.startswith(f"{SEED_ENV_VAR}="):
        monkeypatch.setenv(*override.split("=", 1))
    else:
        args.append(override)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_null_out_dir_means_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = os.path.join(os.path.abspath(CONFIGS), "default.yaml")
    assert main(["solve", "--config", path, "run.T=50", "run.out_dir=null"]) == 0
    assert (tmp_path / "out" / "curve.csv").exists()
    assert not (tmp_path / "None").exists()


def test_null_c_t1_means_default(tmp_path):
    path = os.path.join(CONFIGS, "learning_sweep.yaml")
    outs = []
    for name, c_t1 in (("null", "null"), ("default", "1.0")):
        out = tmp_path / name
        args = ["simulate", "--config", path, "--out", str(out), "run.T=300", "run.seeds=2"]
        assert main(args + [f"policy.c_t1={c_t1}"]) == 0
        outs.append((out / "episodes.csv").read_bytes())
    assert outs[0] == outs[1]
