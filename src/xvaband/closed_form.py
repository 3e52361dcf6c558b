"""Closed-form valuation adjustments in the symmetric-rate regime.

When lend/borrow spreads vanish and the repo rate equals the agent's discount
rate, the adjustment equations become linear and admit explicit solutions:

* without default risk, the adjustment is a deterministic multiple of the
  agent's mark (funding/collateral effect only);
* with default risk, it decomposes additively into a funding term, a
  counterparty-default (CVA) term and an own-default (DVA) term, all
  proportional to a common decaying time kernel.

These forms double as high-precision oracles for the PDE and lattice engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import claims, drivers
from .market import (CreditParams, DegenerateRatesError, EquityParams,
                     MarketModel, ModelError, RateSet)


@dataclass(frozen=True)
class SymmetricRates:
    """One funding, one repo and one collateral rate; the discount rate equals repo.

    The practically relevant ordering fund >= repo >= coll is enforced weakly;
    the no-default closed form additionally requires fund > repo strictly and
    rejects the degenerate case itself.
    """

    fund: float
    repo: float
    coll: float

    def __post_init__(self) -> None:
        if not self.fund >= self.repo >= self.coll >= 0.0:
            raise ModelError(
                f"symmetric rates must satisfy fund >= repo >= coll >= 0, got "
                f"fund={self.fund}, repo={self.repo}, coll={self.coll}")

    def to_rate_set(self) -> RateSet:
        return RateSet(fund_lend=self.fund, fund_borrow=self.fund,
                       repo_lend=self.repo, repo_borrow=self.repo,
                       coll_earn=self.coll, coll_pay=self.coll,
                       discount=self.repo)


def symmetric_model(rates: SymmetricRates, equity: EquityParams,
                    credit: CreditParams | None = None,
                    alpha: float = 0.0) -> MarketModel:
    """Convenience constructor for a symmetric-rate market model."""
    return MarketModel(rates=rates.to_rate_set(), equity=equity, credit=credit,
                       alpha=alpha)


def _require_symmetric(model: MarketModel) -> tuple[float, float, float]:
    r = model.rates
    if not r.symmetric():
        raise ModelError("closed forms require symmetric rates "
                         "(no lend/borrow spreads, repo == discount)")
    return r.fund_lend, r.repo_lend, r.coll_earn


# ---------------------------------------------------------------------------
# No default risk
# ---------------------------------------------------------------------------

def adjustment_multiplier(model: MarketModel, t: float, maturity: float) -> float:
    """Factor mapping the agent's mark to the no-default adjustment.

    Rejects fund == repo, where the expression has a removable singularity;
    use :func:`adjustment_multiplier_limit` for the limiting value.
    """
    fund, repo, coll = _require_symmetric(model)
    if fund == repo:
        raise DegenerateRatesError(
            "no-default closed form requires fund != repo; "
            "the limiting multiplier is alpha*(fund-coll)*(T-t)")
    tau = maturity - t
    alpha = model.alpha
    return (math.exp((repo - fund) * tau) - 1.0) * \
        (1.0 - alpha * (fund - coll) / (fund - repo))


def adjustment_multiplier_limit(model: MarketModel, t: float, maturity: float) -> float:
    """Limit of :func:`adjustment_multiplier` as the funding rate approaches repo."""
    fund, _, coll = _require_symmetric(model)
    return model.alpha * (fund - coll) * (maturity - t)


def piterbarg_xva(model: MarketModel, claim: claims.ClaimSpec, t: float,
                  mark: float) -> float:
    """No-default adjustment: multiplier times the agent's mark.

    Buyer and seller coincide in this regime (the equation is fully linear).
    """
    return adjustment_multiplier(model, t, claim.maturity) * mark


def piterbarg_stock_strategy(model: MarketModel, claim: claims.ClaimSpec,
                             t: float, s: float) -> float:
    """Stock shares replicating the no-default adjustment."""
    beta = adjustment_multiplier(model, t, claim.maturity)
    return beta * claims.agent_value(model, claim, t, s).delta


def piterbarg_price(model: MarketModel, claim: claims.ClaimSpec, t: float,
                    mark: float) -> float:
    """Hedger's full price in the no-default regime (mark plus adjustment)."""
    fund, repo, coll = _require_symmetric(model)
    if fund == repo:
        raise DegenerateRatesError("price requires fund != repo")
    tau = claim.maturity - t
    alpha = model.alpha
    decay = math.exp((repo - fund) * tau)
    return decay * mark + alpha * (fund - coll) * mark * (1.0 - decay) / (fund - repo)


# ---------------------------------------------------------------------------
# With default risk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XvaDecomposition:
    """Additive split of the adjustment: funding + cva + dva == total, exactly."""

    funding: float
    cva: float
    dva: float
    eta: float
    kernel: float

    @property
    def total(self) -> float:
        return self.funding + self.cva + self.dva


def decay_kernel(model: MarketModel, t: float, maturity: float) -> tuple[float, float]:
    """(eta, kernel) of the default-risk closed form.

    eta aggregates both bond returns net of the funding rate; the kernel is
    the integrated discount (1 - exp(-(eta - repo) * (T - t))) / (eta - repo),
    positive for t < T and zero at maturity.
    """
    fund, repo, _ = _require_symmetric(model)
    credit = model.credit
    if credit is None:
        raise ModelError("decay_kernel requires credit parameters")
    eta = credit.mu_own + credit.mu_cpty - fund
    if eta == repo:
        raise DegenerateRatesError(
            "aggregate bond return net of funding equals the repo rate; "
            "the kernel has a removable singularity there")
    tau = maturity - t
    x = eta - repo
    kernel = (1.0 - math.exp(-x * tau)) / x
    return eta, kernel


def _credit_coefficients(model: MarketModel, t: float, maturity: float):
    """(base, b_own, b_cpty, eta, kernel) of the default-risk closed form: the
    funding and collateral rate per unit of mark, the loss-weighted bond
    returns net of funding, and :func:`decay_kernel`."""
    fund, repo, coll = _require_symmetric(model)
    credit = model.credit
    if credit is None:
        raise ModelError("the default-risk closed form requires credit parameters")
    eta, kernel = decay_kernel(model, t, maturity)
    base = (repo - fund) + model.alpha * (fund - coll)
    b_own = (credit.mu_own - fund) * credit.loss_own
    b_cpty = (credit.mu_cpty - fund) * credit.loss_cpty
    return base, b_own, b_cpty, eta, kernel


def piterbarg_defaults_xva(model: MarketModel, claim: claims.ClaimSpec, t: float,
                           mark: float, side: str = drivers.SELLER) -> XvaDecomposition:
    """Adjustment with default risk, decomposed into funding, CVA and DVA terms.

    The seller of a nonnegative claim carries an own-default (DVA) relief on
    the uncollateralized exposure; the buyer carries a counterparty-default
    (CVA) charge instead.  The buyer's decomposition is the exact reflection
    of the seller's at the negated mark.
    """
    drivers._check_side(side)
    if side == drivers.BUYER:
        s = piterbarg_defaults_xva(model, claim, t, -mark)
        return XvaDecomposition(funding=-s.funding, cva=-s.cva, dva=-s.dva,
                                eta=s.eta, kernel=s.kernel)
    base, b_own, b_cpty, eta, kernel = _credit_coefficients(model, t,
                                                            claim.maturity)
    residual = (1.0 - model.alpha) * mark
    return XvaDecomposition(funding=base * kernel * mark,
                            cva=b_cpty * kernel * max(-residual, 0.0),
                            dva=-b_own * kernel * max(residual, 0.0),
                            eta=eta, kernel=kernel)


def relative_adjustment(model: MarketModel, claim: claims.ClaimSpec, t: float,
                        side: str = drivers.SELLER) -> float:
    """Adjustment per unit of (nonnegative) mark in the default-risk regime."""
    drivers._check_side(side)
    return _adjustment_slope(model, t, claim.maturity, side, mark=1.0)


def _adjustment_slope(model: MarketModel, t: float, maturity: float,
                      side: str, mark: float) -> float:
    """d(adjustment)/d(mark) away from the mark's sign change."""
    base, b_own, b_cpty, _, kernel = _credit_coefficients(model, t, maturity)
    m = mark if side == drivers.SELLER else -mark
    # d/dm of [b_cpty*((1-a)m)^- - b_own*((1-a)m)^+], right-derivative at 0
    loss = b_cpty if m < 0.0 else b_own
    return kernel * (base - loss * (1.0 - model.alpha))


def piterbarg_strategies(model: MarketModel, claim: claims.ClaimSpec,
                         t: float, s: float,
                         side: str = drivers.SELLER) -> "drivers.ReplicationStrategy":
    """Full replication portfolio of the symmetric-regime adjustment at (t, s):
    the default-risk closed form where the model has a credit block, else
    :func:`adjustment_multiplier` times the mark, hedged by as many times
    its delta."""
    drivers._check_side(side)
    val = claims.agent_value(model, claim, t, s)
    if model.credit is None:
        slope = adjustment_multiplier(model, t, claim.maturity)
        adj = slope * val.value
    else:
        adj = piterbarg_defaults_xva(model, claim, t, val.value, side).total
        slope = _adjustment_slope(model, t, claim.maturity, side, val.value)
    return drivers.build_strategy(model, claim, side, t, s,
                                  adjustment=adj, mark=val.value,
                                  stock_shares=slope * val.delta)
