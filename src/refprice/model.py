"""Demand model primitives: instances, noise, single-round revenue, greedy price.

Expected demand is piecewise linear in the gap between the posted price p and
the reference price r:

    D(p, r) = b - a*p + eta_plus*max(r - p, 0) - eta_minus*max(p - r, 0)

Single-round revenue is p * D(p, r).  The greedy price is the revenue
maximizer constrained to p <= r; for references above ``p_ratio_bound`` it is
affine in r with coefficients (c1, c2) = (eta+/(2(a+eta+)), b/(2(a+eta+))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Slack for validating boundary configurations (e.g. demand exactly zero at a
# corner) without rejecting them for float rounding.
BOUNDARY_TOL = 1e-9


class DomainError(ValueError):
    """A price or reference price lies outside its feasible range."""


@dataclass(frozen=True)
class Instance:
    """Demand-model parameters for one pricing problem.

    a: price sensitivity of the base demand (nonnegative)
    b: market size / demand intercept (nonnegative)
    eta_plus: demand lift per unit of price below the reference
    eta_minus: demand drop per unit of price above the reference
    p_max: largest feasible price
    p_ratio_bound: known upper bound on b/(2a) over the instance class the
        experimenter considers; learners may use it, the demand model does not.
    """

    a: float
    b: float
    eta_plus: float
    eta_minus: float
    p_max: float
    p_ratio_bound: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "eta_plus", "eta_minus"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")
        if self.a <= 0:
            raise ValueError("a must be positive for a well-posed maximizer")
        if self.b / (2 * self.a) >= self.p_max:
            raise ValueError("b/(2a) must lie strictly below p_max")
        # Demand nonnegativity on [0, p_max]^2; the demand surface is
        # piecewise linear so the four corners suffice.
        corners = [(0.0, 0.0), (0.0, self.p_max), (self.p_max, 0.0), (self.p_max, self.p_max)]
        scale = max(1.0, self.b)
        for p, r in corners:
            d = self.b - self.a * p + self.eta_plus * max(r - p, 0.0) - self.eta_minus * max(p - r, 0.0)
            if d < -BOUNDARY_TOL * scale:
                raise ValueError(f"expected demand is negative at corner (p={p}, r={r}): {d}")
        if self.p_ratio_bound < self.b / (2 * self.a) - BOUNDARY_TOL:
            raise ValueError("p_ratio_bound must be at least b/(2a)")
        if self.p_ratio_bound >= self.p_max:
            raise ValueError("p_ratio_bound must lie strictly below p_max")

    @property
    def symmetric(self) -> bool:
        return self.eta_plus == self.eta_minus

    def check_price(self, p: float, what: str = "price") -> None:
        if not (-BOUNDARY_TOL <= p <= self.p_max + BOUNDARY_TOL):
            raise DomainError(f"{what} {p} outside [0, {self.p_max}]")


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of the additive demand shock (zero mean in all cases)."""

    kind: str = "none"  # none | bounded_uniform | gaussian
    half_width: float = 0.0
    std: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "bounded_uniform", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.half_width < 0:
            raise ValueError("half_width must be nonnegative")
        if self.std < 0:
            raise ValueError("std must be nonnegative")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls("none")

    @classmethod
    def bounded_uniform(cls, half_width: float) -> "NoiseSpec":
        return cls("bounded_uniform", half_width=half_width)

    @classmethod
    def gaussian(cls, std: float) -> "NoiseSpec":
        return cls("gaussian", std=std)

    def draw(self, rng: np.random.Generator) -> float:
        if self.kind == "none":
            return 0.0
        # The generator's own definitions of uniform and normal draws, without
        # the overhead of its scalar calls: same doubles, same generator state.
        if self.kind == "bounded_uniform":
            return -self.half_width + 2.0 * self.half_width * rng.random()
        return self.std * rng.standard_normal()

    def draw_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "none":
            return np.zeros(n)
        if self.kind == "bounded_uniform":
            return rng.uniform(-self.half_width, self.half_width, size=n)
        return rng.normal(0.0, self.std, size=n)


@dataclass(frozen=True)
class PolicyParams:
    """Two-dimensional policy parameter (c1, c2).

    c1 is dimensionless, c2 carries price units.  Together they determine both
    the greedy price c1*r + c2 and the whole markdown curve.
    """

    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.c1 < 0.5):
            raise ValueError("c1 must lie in [0, 0.5)")
        if self.c2 <= 0:
            raise ValueError("c2 must be positive")


def true_policy_params(inst: Instance) -> PolicyParams:
    """Policy parameter implied by the instance: (eta+/(2(a+eta+)), b/(2(a+eta+)))."""
    denom = 2.0 * (inst.a + inst.eta_plus)
    return PolicyParams(inst.eta_plus / denom, inst.b / denom)


def expected_demand(inst: Instance, p: float, r: float) -> float:
    """Mean demand at price p under reference price r."""
    inst.check_price(p)
    inst.check_price(r, "reference")
    gap = r - p
    if gap >= 0.0:
        return inst.b - inst.a * p + inst.eta_plus * gap
    return inst.b - inst.a * p + inst.eta_minus * gap


def revenue(inst: Instance, p: float, r: float) -> float:
    """Expected single-round revenue p * D(p, r)."""
    return p * expected_demand(inst, p, r)


def expected_demand_vec(inst: Instance, p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized ``expected_demand`` (same domain checks, applied elementwise)."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    lo, hi = -BOUNDARY_TOL, inst.p_max + BOUNDARY_TOL
    if np.any((p < lo) | (p > hi)):
        raise DomainError("price outside [0, p_max]")
    if np.any((r < lo) | (r > hi)):
        raise DomainError("reference outside [0, p_max]")
    gap = r - p
    return inst.b - inst.a * p + np.where(gap >= 0, inst.eta_plus, inst.eta_minus) * gap


def greedy_price(inst: Instance, r: float) -> float:
    """Revenue-maximizing price subject to p <= r, for r above p_ratio_bound.

    In that range the constrained maximizer is interior and equals c1*r + c2
    with the true policy parameters; outside it the affine formula no longer
    characterizes the maximizer, so the input is rejected.
    """
    if not (inst.p_ratio_bound < r <= inst.p_max + BOUNDARY_TOL):
        raise DomainError(
            f"reference {r} outside validity range ({inst.p_ratio_bound}, {inst.p_max}]"
        )
    theta = true_policy_params(inst)
    return theta.c1 * r + theta.c2


def sample_demand(
    inst: Instance, noise: NoiseSpec, p: float, r: float, rng: np.random.Generator
) -> float:
    """One realized demand: expected demand plus a shock draw.  Not clamped."""
    return expected_demand(inst, p, r) + noise.draw(rng)
