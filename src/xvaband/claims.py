"""Claim specification and the valuation agent's mark (Black-Scholes at the discount rate).

The agent values the claim by discounting its risk-neutral expectation at the
public discount rate, with every asset growing at that same rate.  For vanilla
calls and puts this is the Black-Scholes formula.  A custom payoff is
integrated over the lognormal terminal density by adaptive quadrature, once
for the mark and once, weighted by the normal draw, for the delta (the
likelihood-ratio delta), so the payoff alone fixes both before maturity.  At
maturity the mark is the payoff and the delta its slope
(:meth:`ClaimSpec.payoff_slope`), the one place the slope is read.
:func:`agent_value_grid` computes both over stock levels at one time;
:func:`agent_value` is its one stock level, and :func:`agent_value_levels`
gives the levels of several times its bits at once.
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
    polynomial growth.  Supply the payoff and, optionally, its derivative,
    which is read only at maturity, as the delta there.  Without it the
    slope is a central difference with a step of 1e-6 times the larger of s
    and the strike, so within that step of a kink it is the mean of the two
    slopes, not the slope above the kink.
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
        """Slope of the payoff: of a call or put the slope above a kink, of
        a custom claim ``payoff_slope_fn`` or a central difference."""
        if self.kind == "call":
            return np.where(np.asarray(s) >= self.strike, 1.0, 0.0)
        if self.kind == "put":
            return np.where(np.asarray(s) < self.strike, -1.0, 0.0)
        if self.payoff_slope_fn is not None:
            return self.payoff_slope_fn(np.asarray(s, dtype=float))
        s = np.asarray(s, dtype=float)
        h = 1e-6 * np.maximum(s, self.strike)
        return (self.payoff_fn(s + h) - self.payoff_fn(s - h)) / (2.0 * h)


@dataclass(frozen=True)
class AgentValuation:
    """Public mark of the claim and its stock sensitivity."""

    value: float
    delta: float


def _check_stock(s: float) -> None:
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"stock level must be positive and finite, got {s!r}")


def _check_time(claim: ClaimSpec, t: float) -> None:
    """Refuse a time outside [0, T], NaN included."""
    if not 0.0 <= t <= claim.maturity:
        raise ValueError(f"t={t!r} outside [0, {claim.maturity}]")


def agent_value(model: MarketModel, claim: ClaimSpec, t: float, s: float) -> AgentValuation:
    """Agent's mark and delta at time ``t`` and stock level ``s``: the one
    stock level of :func:`agent_value_grid`, which refuses a time outside
    [0, T], after a check that ``s`` is positive and finite."""
    _check_stock(s)
    v, d = agent_value_grid(model, claim, t, np.array([s], dtype=float))
    return AgentValuation(float(v[0]), float(d[0]))


def agent_value_grid(model: MarketModel, claim: ClaimSpec, t: float,
                     s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mark and delta over an array of stock levels: at maturity, of every
    kind, the payoff and :meth:`ClaimSpec.payoff_slope`; before it the
    vectorized closed forms for a call or put, and for a custom claim two
    quadratures of the payoff per stock level (:func:`_quadrature_value`).
    Refuses a time outside [0, T], NaN included."""
    _check_time(claim, t)
    s = np.asarray(s, dtype=float)
    tau = claim.maturity - t
    if tau <= 0.0:
        return claim.payoff(s).astype(float), claim.payoff_slope(s).astype(float)
    if claim.kind == "custom":
        pairs = [_quadrature_value(model, claim, t, float(si)) for si in s]
        return (np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    r = model.rates.discount
    sigma = model.equity.sigma
    return _vanilla_closed(claim, r, sigma, tau, sigma * math.sqrt(tau),
                           math.exp(-r * tau), s)


def agent_value_levels(model: MarketModel, claim: ClaimSpec,
                       times: list[float], counts: np.ndarray,
                       s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mark and delta over the stock levels of several times at once: ``s``
    holds ``counts[i]`` levels at ``times[i]``, in order.

    Before maturity a call or put takes the closed forms once over all the
    levels, with each time's ``tau``, ``st`` and ``df`` repeated over its
    own, so every level gets the bits that :func:`agent_value_grid` gives
    it at its time.  Otherwise, and at a single time, each time goes
    through :func:`agent_value_grid`.  Refuses a time outside [0, T] as
    :func:`agent_value` does.
    """
    for t in times:
        _check_time(claim, t)
    taus = [claim.maturity - t for t in times]
    if claim.kind == "custom" or len(taus) == 1 or min(taus) <= 0.0:
        parts = [agent_value_grid(model, claim, t, piece) for t, piece in
                 zip(times, np.split(s, np.cumsum(counts)[:-1]))]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    r = model.rates.discount
    sigma = model.equity.sigma
    st = [sigma * math.sqrt(tau) for tau in taus]
    df = [math.exp(-r * tau) for tau in taus]
    return _vanilla_closed(claim, r, sigma, np.repeat(taus, counts),
                           np.repeat(st, counts), np.repeat(df, counts), s)


def _vanilla_closed(claim, r, sigma, tau, st, df, s):
    """The closed forms at times to maturity ``tau`` (a float, or an array
    like ``s``), with ``st = sigma sqrt(tau)`` and ``df = exp(-r tau)``."""
    k = claim.strike
    d1 = (np.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / st
    d2 = d1 - st
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
    """A custom claim's mark and delta before maturity: the discounted
    E[payoff(S_T)] and its likelihood-ratio derivative in ``s`` (Broadie &
    Glasserman, Management Science 42, 1996),
    e^{-r tau} / (s sigma sqrt(tau)) E[payoff(S_T) xi], each one quadrature
    of the payoff over the normal draw xi of
    S_T = s e^{(r - sigma^2 / 2) tau + sigma sqrt(tau) xi}."""
    # imported here: only custom claims need it, and it is a large import
    from scipy import integrate

    r = model.rates.discount
    sigma = model.equity.sigma
    tau = claim.maturity - t
    st = sigma * math.sqrt(tau)
    mean = math.log(s) + (r - 0.5 * sigma * sigma) * tau
    df = math.exp(-r * tau)
    # in units of the strike, so quad's absolute tolerance scales with it
    k = claim.strike

    def density_weighted(power):
        """E[payoff(S_T) xi^power] / k; the factor xi^0 is exactly 1.0."""
        def integrand(x):
            sT = math.exp(mean + st * x)
            return (float(claim.payoff(sT)) / k * x ** power
                    * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        val, _ = integrate.quad(integrand, -12.0, 12.0, limit=200)
        return val

    return df * k * density_weighted(0), df * k / (s * st) * density_weighted(1)
