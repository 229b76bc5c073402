import hashlib
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
import yaml

from refprice import cli, harness, policies
from refprice.cli import main
from refprice.config import (
    SEED_ENV_VAR,
    ConfigError,
    config_to_dict,
    load_config,
    parse_config,
)
from refprice.harness import run_episode, write_episodes_csv

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


def test_simulate_solves_a_planned_path_once(tmp_path, monkeypatch):
    """A planned path does not depend on the seed: 3 noisy markdown-oracle
    episodes solve 1 curve and write the bytes of a policy built per seed."""
    solves = []
    solve_curve = policies.solve_curve

    def spy(*args):
        solves.append(args)
        return solve_curve(*args)

    monkeypatch.setattr(policies, "solve_curve", spy)
    config = os.path.join(CONFIGS, "default.yaml")
    overrides = ["run.T=500", "run.seeds=3", "noise.kind=bounded_uniform", "noise.half_width=0.1"]
    assert main(["simulate", "--config", config, "--out", str(tmp_path)] + overrides) == 0
    assert len(solves) == 1
    cfg = load_config(config, overrides=overrides)
    records = [
        run_episode(cfg.instance, cfg.noise, cfg.policy, cfg.run.T, cfg.run.r1, seed)
        for seed in range(3)
    ]
    write_episodes_csv(records, tmp_path / "per_seed.csv")
    assert (tmp_path / "episodes.csv").read_bytes() == (tmp_path / "per_seed.csv").read_bytes()


@pytest.mark.parametrize(
    "config, overrides, runs",
    [
        ("default.yaml", [], 1),
        ("two_price_gap.yaml", [], 1),
        ("two_price_gap.yaml", ["noise.kind=gaussian", "noise.std=0.1"], 3),
        ("learning_sweep.yaml", [], 3),
    ],
    ids=["markdown_oracle", "two_price", "two_price_noisy", "learner"],
)
def test_simulate_runs_a_noiseless_planned_episode_once(tmp_path, monkeypatch, config, overrides, runs):
    """An episode that draws nothing is the same for every seed: it runs
    once, and the output has the bytes of one episode run per seed."""
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return run_episode(*args)

    monkeypatch.setattr(cli, "run_episode", counting)
    config = os.path.join(CONFIGS, config)
    overrides = ["run.T=3000", "run.seeds=3", "run.base_seed=4", *overrides]
    assert main(["simulate", "--config", config, "--out", str(tmp_path)] + overrides) == 0
    assert calls == [4, 5, 6][:runs]
    cfg = load_config(config, overrides=overrides)
    records = [
        run_episode(cfg.instance, cfg.noise, cfg.policy, cfg.run.T, cfg.run.r1, seed)
        for seed in range(4, 7)
    ]
    write_episodes_csv(records, tmp_path / "per_seed.csv")
    assert (tmp_path / "episodes.csv").read_bytes() == (tmp_path / "per_seed.csv").read_bytes()


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


def test_sweep_notes_horizons_that_never_left_exploration(tmp_path, capsys):
    """At c_t1 = 1 some learner episodes reach exploitation by T = 1000 and
    2000 and all by 3000.  Each horizon with an episode whose t2 is None gets
    one note line; regret.csv keeps its bytes (captured before the count
    existed, re-captured when the curve solver came to roll blocks of rounds:
    its sums moved by at most 4.5e-13)."""
    path = os.path.join(CONFIGS, "learning_sweep.yaml")
    overrides = ["policy.c_t1=1.0", "run.T_list=[1000,2000,3000]", "run.seeds=4"]
    assert main(["sweep", "--config", path, "--out", str(tmp_path), *overrides]) == 0
    cfg = load_config(path, overrides)
    notes = []
    for T in cfg.run.T_list:
        seeds = range(cfg.run.base_seed, cfg.run.base_seed + cfg.run.seeds)
        records = [run_episode(cfg.instance, cfg.noise, cfg.policy, T, cfg.run.r1, s) for s in seeds]
        n = sum(rec.meta["t2"] is None for rec in records)
        if n:
            notes.append(
                f"note: at T={T}, {n} of {cfg.run.seeds} episodes never left exploration;"
                " the horizon still enters the slope fit"
            )
    assert len(notes) == 2
    assert [l for l in capsys.readouterr().out.splitlines() if l.startswith("note:")] == notes
    digest = hashlib.sha256((tmp_path / "regret.csv").read_bytes()).hexdigest()
    assert digest == "9bf1e191c6c3b43857af051a54183f40d8cd3bd47a91383b5f9b301f30c292da"


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
        ("learning_sweep.yaml", "policy.c_t1=.inf"),
        ("learning_sweep.yaml", "policy.c_t1=.nan"),
        ("default.yaml", "noise.half_width=1e308"),
        ("default.yaml", "noise.std=.nan"),
        ("default.yaml", "instance.a=.nan"),
        ("default.yaml", "run.base_seed=-1"),
        ("default.yaml", "run.base_seed=1e30"),
        ("default.yaml", f"{SEED_ENV_VAR}=-1"),
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


@pytest.mark.parametrize("override", ["run.T=[1,", "run.T=@x"])
def test_override_that_is_not_yaml_exits_2(tmp_path, capsys, override):
    """A value YAML cannot parse is a config error that names the override,
    on one line, not a traceback."""
    out = tmp_path / "o"
    path = os.path.join(CONFIGS, "default.yaml")
    assert main(["solve", "--config", path, "--out", str(out), override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert repr(override) in err
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.yaml"
    path.write_bytes(b"instance:\n  a: 1.0\xff\xfe")
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_infinite_exploration_budget_exits_1(tmp_path, capsys, command):
    """c_t1 = 1e308 is finite, but the budget it scales overflows."""
    path = os.path.join(CONFIGS, "learning_sweep.yaml")
    args = [command, "--config", path, "--out", str(tmp_path), "--threads", "1"]
    assert main(args + ["run.T=100", "run.T_list=[100]", "run.seeds=1", "policy.c_t1=1e308"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_infinite_exploration_budget_in_sweep_children_exits_1(tmp_path, capfd):
    """The error is raised in a forked child and ends the command in one
    line in the parent."""
    path = os.path.join(CONFIGS, "learning_sweep.yaml")
    args = ["sweep", "--config", path, "--out", str(tmp_path), "--threads", "2"]
    assert main(args + ["run.T_list=[100]", "run.seeds=1", "policy.c_t1=1e308"]) == 1
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_sweep_child_that_dies_exits_1(tmp_path, capfd, monkeypatch):
    parent = os.getpid()
    episode_value = harness._episode_value

    def dies_in_children(job):
        if os.getpid() != parent:
            os._exit(9)
        return episode_value(job)

    monkeypatch.setattr(harness, "_episode_value", dies_in_children)
    path = os.path.join(CONFIGS, "learning_sweep.yaml")
    args = ["sweep", "--config", path, "--out", str(tmp_path), "--threads", "2"]
    assert main(args + ["run.T_list=[100]", "run.seeds=2"]) == 1
    err = capfd.readouterr().err
    assert err.splitlines() == ["error: sweep process 1 exited with code 9"]
    assert "Traceback" not in err


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


def test_threads_default_to_usable_cores(tmp_path):
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    path = write_config(tmp_path)
    assert load_config(path).run.threads == cores
    assert load_config(path, overrides=["run.threads=null"]).run.threads == cores
    cfg = load_config(path, overrides=["run.threads=3"])
    assert cfg.run.threads == 3
    assert config_to_dict(parse_config(config_to_dict(cfg))) == config_to_dict(cfg)


@pytest.mark.parametrize("args", [["run.threads=0"], ["--threads", "0"], ["run.threads=-2"]])
def test_threads_below_one_exit_2(tmp_path, capsys, args):
    out = tmp_path / "o8"
    path = os.path.join(CONFIGS, "default.yaml")
    assert main(["solve", "--config", path, "--out", str(out), "run.T=50"] + args) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_unwritable_out_exits_1(tmp_path, capsys):
    """An output directory under a regular file cannot be made."""
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    path = os.path.join(CONFIGS, "default.yaml")
    assert main(["solve", "--config", path, "--out", str(out), "run.T=50"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 7.45 GiB", "error: Unable to allocate 7.45 GiB\n"),
        ("", "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, message, line):
    """A failed allocation (numpy's ``_ArrayMemoryError`` is a MemoryError)
    prints one error line and no traceback."""

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "solve_curve", fail)
    path = os.path.join(CONFIGS, "default.yaml")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o10"), "run.T=50"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", line)


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("solve", []),
        ("simulate", ["policy.kind=markdown_oracle"]),
        ("simulate", ["policy.kind=myopic_greedy"]),
    ],
)
def test_horizon_too_large_for_memory_exits_1_at_once(tmp_path, capsys, command, overrides):
    """The output arrays are allocated before any O(T) work, so T = 10^20
    fails numpy's size check at once, before anything is allocated."""
    path = os.path.join(CONFIGS, "default.yaml")
    argv = [command, "--config", path, "--out", str(tmp_path / "o11"), "--threads", "1"]
    assert main(argv + overrides + [f"run.T={10**20}"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in out + err


def test_reset_plan_towards_a_target_near_p_max_is_cut_at_the_horizon(tmp_path):
    """With rb 1.3e-9 below p_max, the reset plan towards rb has more than 10^10
    rounds.  Only the rounds left before the horizon may be built: the run
    gets 2 GB of address space and must write all 10,000 rows."""
    out = tmp_path / "o9"
    argv = ["simulate", "--config", os.path.join(CONFIGS, "learning_sweep.yaml"), "--out", str(out)]
    argv += ["run.T=10000", "run.seeds=1", "policy.rb=1.3333333320", "--threads", "1"]
    limit = 2_000_000 * 1024

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "refprice.cli", *argv],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "episodes.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 10000
    assert "# policy_t2=None" in lines
