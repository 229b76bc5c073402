"""Experiment configuration: a YAML file with instance / noise / policy / run
blocks, plus dotted-path overrides and an environment-variable seed override.

Unknown keys are rejected everywhere; all model invariants are re-validated at
load time so a bad file fails before any output is written.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import yaml

from .model import Instance, NoiseSpec, PolicyParams

SEED_ENV_VAR = "REFPRICE_SEED"

_POLICY_KEYS = {
    "fixed": {"price"},
    "optimal_fixed": set(),
    "two_price": {"alpha"},
    "myopic_greedy": set(),
    "markdown_oracle": {"theta"},
    "learn_then_earn": {"t1_budget", "c_t1", "ra", "rb"},
}


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class RunConfig:
    T: Optional[int] = None
    T_list: list[int] = field(default_factory=list)
    seeds: int = 1
    base_seed: int = 0
    r1: float = 0.0
    out_dir: str = "out"
    threads: int = field(default_factory=usable_cores)


@dataclass
class ExperimentConfig:
    instance: Instance
    noise: NoiseSpec
    policy: dict
    run: RunConfig


def _require_mapping(raw, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} block must be a mapping")
    return raw


def _check_keys(block: dict, allowed: set, name: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name} block: {sorted(unknown)}")


def _number(value, name: str) -> float:
    """``value`` as a finite float; a bool, nan, an infinity, or what
    ``float`` rejects, is a ConfigError."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _integer(value, name: str) -> int:
    """``value`` as an int; a non-integral number is a ConfigError, never
    truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _parse_instance(raw) -> Instance:
    block = _require_mapping(raw, "instance")
    required = {"a", "b", "eta_plus", "eta_minus", "p_max", "p_ratio_bound"}
    _check_keys(block, required, "instance")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"instance block missing keys: {sorted(missing)}")
    try:
        return Instance(**{k: _number(block[k], k) for k in required})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid instance: {exc}") from exc


def _parse_noise(raw) -> NoiseSpec:
    block = _require_mapping(raw, "noise")
    _check_keys(block, {"kind", "half_width", "std"}, "noise")
    kind = block.get("kind", "none")
    try:
        return NoiseSpec(
            kind=kind,
            half_width=_number(block.get("half_width", 0.0), "half_width"),
            std=_number(block.get("std", 0.0), "std"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise: {exc}") from exc


def _parse_policy(raw, inst: Instance) -> dict:
    block = _require_mapping(raw, "policy")
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in _POLICY_KEYS:
        raise ConfigError(f"unknown policy kind {kind!r}; choose one of {sorted(_POLICY_KEYS)}")
    _check_keys(block, _POLICY_KEYS[kind] | {"kind"}, "policy")
    spec = dict(block)
    if kind == "fixed":
        if "price" not in spec:
            raise ConfigError("fixed policy requires a price")
        price = _number(spec["price"], "price")
        if not (0.0 <= price <= inst.p_max):
            raise ConfigError(f"fixed price {price} outside [0, {inst.p_max}]")
        spec["price"] = price
    if kind == "two_price":
        if "alpha" not in spec:
            raise ConfigError("two_price policy requires alpha")
        if not inst.symmetric:
            raise ConfigError("two_price requires symmetric reference effects")
        alpha = _number(spec["alpha"], "alpha")
        if not (0.0 < alpha < 1.0):
            raise ConfigError("alpha must lie in (0, 1)")
        spec["alpha"] = alpha
    if kind == "markdown_oracle" and spec.get("theta") is not None:
        theta = spec["theta"]
        if not (isinstance(theta, (list, tuple)) and len(theta) == 2):
            raise ConfigError("markdown_oracle theta must be a [c1, c2] pair or null")
        theta = [_number(x, "markdown_oracle theta") for x in theta]
        try:
            PolicyParams(*theta)
        except ValueError as exc:
            raise ConfigError(f"invalid markdown_oracle theta: {exc}") from exc
        spec["theta"] = theta
    if kind == "learn_then_earn":
        ra, rb = spec.get("ra"), spec.get("rb")
        if (ra is None) != (rb is None):
            raise ConfigError("provide both ra and rb or neither")
        if ra is not None:
            ra, rb = _number(ra, "ra"), _number(rb, "rb")
            if not (inst.p_ratio_bound < ra < rb < inst.p_max):
                raise ConfigError("need p_ratio_bound < ra < rb < p_max")
            spec["ra"], spec["rb"] = ra, rb
        if spec.get("t1_budget") is not None:
            t1 = _integer(spec["t1_budget"], "t1_budget")
            if t1 < 4:
                raise ConfigError("t1_budget must be at least 4")
            spec["t1_budget"] = t1
        # A null c_t1 means the default budget constant.
        if spec.get("c_t1") is not None:
            spec["c_t1"] = _number(spec["c_t1"], "c_t1")
    return spec


def _parse_run(raw, inst: Instance) -> RunConfig:
    block = _require_mapping(raw, "run")
    _check_keys(
        block, {"T", "T_list", "seeds", "base_seed", "r1", "out_dir", "threads"}, "run"
    )
    run = RunConfig()
    if "T" in block and block["T"] is not None:
        run.T = _integer(block["T"], "T")
        if run.T < 1:
            raise ConfigError("T must be positive")
    if "T_list" in block and block["T_list"] is not None:
        if not isinstance(block["T_list"], list):
            raise ConfigError("T_list must be a list of horizons")
        run.T_list = [_integer(x, "T_list entry") for x in block["T_list"]]
        if any(x < 1 for x in run.T_list):
            raise ConfigError("horizons must be positive")
    run.seeds = _integer(block.get("seeds", 1), "seeds")
    if run.seeds < 1:
        raise ConfigError("seeds must be at least 1")
    # numpy takes no negative seed, and episodes.csv writes seeds as int64.
    run.base_seed = _integer(block.get("base_seed", 0), "base_seed")
    if not 0 <= run.base_seed <= 2**63 - run.seeds:
        raise ConfigError(
            f"base_seed must lie in [0, 2**63 - seeds] for {run.seeds} seeds, got {run.base_seed}"
        )
    run.r1 = _number(block.get("r1", 0.0), "r1")
    if not (0.0 <= run.r1 <= inst.p_max):
        raise ConfigError(f"r1 {run.r1} outside [0, {inst.p_max}]")
    # A null out_dir means the default directory.
    if block.get("out_dir") is not None:
        if isinstance(block["out_dir"], (bool, list, dict)):
            raise ConfigError(f"out_dir must be a path, got {block['out_dir']!r}")
        run.out_dir = str(block["out_dir"])
    # A null or absent threads means every usable core.
    if block.get("threads") is not None:
        run.threads = _integer(block["threads"], "threads")
    if run.threads < 1:
        raise ConfigError("threads must be at least 1")
    return run


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """A YAML error on one line: what is wrong and, where it says, where."""
    mark = getattr(exc, "problem_mark", None)
    where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark is not None else ""
    return " ".join(f"{getattr(exc, 'problem', None) or exc}{where}".split())


def _apply_overrides(data: dict, overrides) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like block.key=value")
        path, _, value = item.partition("=")
        keys = path.split(".")
        if len(keys) < 2:
            raise ConfigError(f"override path {path!r} must be dotted (block.key)")
        node = data
        for key in keys[:-1]:
            if key not in node or not isinstance(node[key], dict):
                node[key] = {}
            node = node[key]
        try:
            node[keys[-1]] = yaml.safe_load(value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r} is not valid YAML: {_yaml_problem(exc)}") from exc
    return data


def parse_config(data: dict) -> ExperimentConfig:
    data = _require_mapping(data, "top-level")
    _check_keys(data, {"instance", "noise", "policy", "run"}, "top-level")
    for block in ("instance", "noise", "policy", "run"):
        if block not in data:
            raise ConfigError(f"missing {block} block")
    inst = _parse_instance(data["instance"])
    noise = _parse_noise(data["noise"])
    policy = _parse_policy(data["policy"], inst)
    run = _parse_run(data["run"], inst)
    return ExperimentConfig(instance=inst, noise=noise, policy=policy, run=run)


def load_config(path, overrides=(), env=None) -> ExperimentConfig:
    """Read a YAML config file, apply the seed environment variable and any
    dotted overrides (overrides win over the environment)."""
    env = os.environ if env is None else env
    try:
        with open(path, encoding="utf-8") as f:
            data = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {_yaml_problem(exc)}") from exc
    if data is None:
        raise ConfigError(f"config {path} is empty")
    data = _require_mapping(data, "top-level")
    if SEED_ENV_VAR in env:
        try:
            seed = int(env[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
        _require_mapping(data.setdefault("run", {}), "run")["base_seed"] = seed
    data = _apply_overrides(data, overrides)
    return parse_config(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-dict form of a parsed config; loading it again is equivalent."""
    return asdict(cfg)
