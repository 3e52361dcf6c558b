"""Claim specification and the valuation agent's mark (Black-Scholes at the discount rate).

The agent values the claim by discounting its risk-neutral expectation at the
public discount rate, with every asset growing at that same rate.  For vanilla
calls and puts this is the Black-Scholes formula; for custom piecewise-smooth
payoffs a Gauss-type quadrature over the lognormal terminal density is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .market import MarketModel

_SQRT2 = math.sqrt(2.0)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array."""
    return 0.5 * (1.0 + special.erf(x / _SQRT2))


@dataclass(frozen=True)
class ClaimSpec:
    """European claim: vanilla call/put or a custom terminal payoff.

    Custom payoffs must be piecewise continuously differentiable with at most
    polynomial growth; supply the payoff and, optionally, its derivative
    (finite differences are used otherwise).
    """

    kind: str  # "call" | "put" | "custom"
    strike: float
    maturity: float
    payoff_fn: Callable[[np.ndarray], np.ndarray] | None = None
    payoff_slope_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("call", "put", "custom"):
            raise ValueError(f"kind must be 'call', 'put' or 'custom', got {self.kind!r}")
        if not (math.isfinite(self.strike) and self.strike > 0.0):
            raise ValueError(f"strike must be positive, got {self.strike!r}")
        if not (math.isfinite(self.maturity) and self.maturity > 0.0):
            raise ValueError(f"maturity must be positive, got {self.maturity!r}")
        if self.kind == "custom" and self.payoff_fn is None:
            raise ValueError("custom claims require payoff_fn")

    def payoff(self, s):
        """Terminal payoff at stock level(s) ``s``."""
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - s, 0.0)
        return self.payoff_fn(np.asarray(s, dtype=float))

    def payoff_slope(self, s):
        """Right-derivative of the payoff (deterministic convention at kinks)."""
        if self.kind == "call":
            return np.where(np.asarray(s) >= self.strike, 1.0, 0.0)
        if self.kind == "put":
            return np.where(np.asarray(s) < self.strike, -1.0, 0.0)
        if self.payoff_slope_fn is not None:
            return self.payoff_slope_fn(np.asarray(s, dtype=float))
        s = np.asarray(s, dtype=float)
        h = 1e-6 * np.maximum(s, 1.0)
        return (self.payoff_fn(s + h) - self.payoff_fn(s - h)) / (2.0 * h)


@dataclass(frozen=True)
class AgentValuation:
    """Public mark of the claim and its stock sensitivity."""

    value: float
    delta: float


def agent_value(model: MarketModel, claim: ClaimSpec, t: float, s: float) -> AgentValuation:
    """Agent's mark and delta at time ``t`` and stock level ``s``.

    Vanilla claims use the closed form; custom claims fall back to quadrature
    against the lognormal terminal density.  At maturity the payoff and its
    right-derivative are returned.
    """
    if s <= 0.0:
        raise ValueError(f"stock level must be positive, got {s!r}")
    if not 0.0 <= t <= claim.maturity:
        raise ValueError(f"t={t!r} outside [0, {claim.maturity}]")
    if claim.kind == "custom":
        v, d = _quadrature_value(model, claim, t, s)
        return AgentValuation(v, d)
    v, d = _vanilla_value(model, claim, t, np.asarray([s], dtype=float))
    return AgentValuation(float(v[0]), float(d[0]))


def agent_value_grid(model: MarketModel, claim: ClaimSpec, t: float,
                     s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mark and delta over an array of stock levels: vectorized closed forms
    for a call or put, one quadrature per stock level for a custom claim."""
    if claim.kind == "custom":
        pairs = [_quadrature_value(model, claim, t, float(si)) for si in s]
        return (np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    return _vanilla_value(model, claim, t, np.asarray(s, dtype=float))


def _vanilla_value(model, claim, t, s):
    r = model.rates.discount
    sigma = model.equity.sigma
    k = claim.strike
    tau = claim.maturity - t
    if tau <= 0.0:
        return claim.payoff(s).astype(float), claim.payoff_slope(s).astype(float)
    st = sigma * math.sqrt(tau)
    d1 = (np.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / st
    d2 = d1 - st
    df = math.exp(-r * tau)
    # erf is odd to the bit, so N(-d1) = 0.5 * (1 - erf(d1 / sqrt 2)) exactly
    e1 = special.erf(d1 / _SQRT2)
    if claim.kind == "call":
        delta = 0.5 * (1.0 + e1)
        value = s * delta - k * df * _norm_cdf(d2)
    else:
        value = k * df * _norm_cdf(-d2) - s * (0.5 * (1.0 - e1))
        delta = 0.5 * (1.0 + e1) - 1.0
    return value, delta


def _quadrature_value(model, claim, t, s):
    # imported here: only custom claims need it, and it is a large import
    from scipy import integrate

    r = model.rates.discount
    sigma = model.equity.sigma
    tau = claim.maturity - t
    if tau <= 0.0:
        return float(claim.payoff(s)), float(claim.payoff_slope(s))
    st = sigma * math.sqrt(tau)
    mean = math.log(s) + (r - 0.5 * sigma * sigma) * tau
    df = math.exp(-r * tau)

    def density_weighted(fn):
        def integrand(x):
            sT = math.exp(mean + st * x)
            return fn(sT) * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        val, _ = integrate.quad(integrand, -12.0, 12.0, limit=200)
        return val

    value = df * density_weighted(lambda sT: float(claim.payoff(sT)))
    # pathwise differentiation: d S_T / d s = S_T / s
    delta = df * density_weighted(
        lambda sT: float(claim.payoff_slope(sT)) * sT / s)
    return value, delta
