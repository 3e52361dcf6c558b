"""Drift functionals (BSDE drivers) of the replication problem.

Everything downstream -- the PDE engine and the lattice cross-check -- consumes
the functions defined here, so they are the single source of truth for the
nonlinearity.  All functions accept scalars or numpy arrays of equal shape.
The PDE engine also passes the reduced driver's parts a record shaped like a
``MarketModel`` whose parameters may be arrays with one entry per column of
an (nodes, columns) block; they broadcast like any other operand.

Conventions
-----------
* One seller kernel holds the rate accrual, in two parts: the terms fixed by
  the mark and ``z`` (:class:`DriverTerms`: funding offset, repo and
  collateral legs, carry, close-out targets) and the step in ``u`` that adds
  them in the accrual's order.  The four public drivers differ only in the
  funding offset; the two reduced ones pin the jump exposures to the
  close-out targets in one shared step, :func:`reduced_step`.  A caller
  whose mark and ``z`` stay fixed while ``u`` iterates (the lattice) computes
  :func:`reduced_terms` once and calls the step alone.  A caller whose mark
  stays fixed while ``z`` moves with ``u`` (the PDE, where ``z`` is the
  gradient of ``u``) computes :func:`reduced_mark_terms` once and per ``u``
  only the repo legs (:func:`with_repo_legs`) and the step.
* ``side`` is "seller" (hedging a short position in the claim) or "buyer"
  (hedging a long position).  Buyer-side values are always produced through
  one reflection, ``buyer(args, mark) = -seller(-args, -mark)``; they are
  never coded independently, which makes the antisymmetry structural.
* ``x⁺ = max(x, 0)`` and ``x⁻ = max(-x, 0)``, so ``x⁺ - x⁻ = x`` exactly and
  both vanish at 0.
* ``z`` in the wealth-level driver is the diffusion exposure of the full
  replication portfolio (number of stock shares times sigma times spot, in
  currency units).  In the reduced adjustment-level driver the same slot must
  receive the full-portfolio exposure as well, i.e. the adjustment hedge plus
  the agent's mark-to-market hedge; the collateral and repo costs are driven
  by physical positions, not by the adjustment in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .market import MarketModel

SELLER = "seller"
BUYER = "buyer"
SIDES = (SELLER, BUYER)


def pos(x):
    return np.maximum(x, 0.0)


def neg(x, out=None):
    return np.maximum(np.negative(x, out=out), 0.0, out=out)


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be 'seller' or 'buyer', got {side!r}")


@dataclass(frozen=True)
class CloseoutValues:
    """Wealth the hedger must hold when the position is torn up at a default.

    ``wealth_*`` are at the level of the full position value, ``adjustment_*``
    net of the agent's mark (always <= 0 for own default, >= 0 for
    counterparty default).
    """

    wealth_own_default: float
    wealth_cpty_default: float
    adjustment_own_default: float
    adjustment_cpty_default: float


def closeout_adjustments(model: MarketModel, mark):
    """Adjustment-level close-out pair (own-default, cpty-default) for a given mark.

    Own default wipes the uncollateralized in-the-money part of the
    counterparty's claim at the hedger's loss rate (a gain to the hedger,
    hence <= 0 as a cost adjustment); counterparty default symmetrically hits
    the hedger's uncollateralized claim.
    """
    c = model.credit
    if c is None:
        zero = np.multiply(mark, 0.0)
        return zero, zero
    residual = (1.0 - model.alpha) * np.asarray(mark, dtype=float)
    own = -c.loss_own * pos(residual)
    cpty = c.loss_cpty * neg(residual)
    return own, cpty


def closeout(model: MarketModel, mark: float) -> CloseoutValues:
    """Close-out values at both levels for a scalar mark."""
    own, cpty = closeout_adjustments(model, mark)
    return CloseoutValues(
        wealth_own_default=mark + float(own),
        wealth_cpty_default=mark + float(cpty),
        adjustment_own_default=float(own),
        adjustment_cpty_default=float(cpty),
    )


class DriverTerms(NamedTuple):
    """The terms of the seller's drift that the mark and ``z`` fix.

    ``offset`` is the funding account less ``u + z_own + z_cpty``; the repo
    legs accrue on the stock position ``z / sigma`` and the collateral legs
    on the posted margin ``alpha * mark``; ``carry`` is the mark's own
    discount drift, at the adjustment level only.  ``own`` and ``cpty`` are
    the close-out targets of the reduced drivers, absent without a credit
    block.  The repo legs are absent from the terms of the mark alone
    (:func:`reduced_mark_terms`).  Each term is an array of its own, added by
    :func:`_seller_step` in the accrual's order, so splitting the drift this
    way moves no bit.
    """

    offset: np.ndarray
    repo_long: np.ndarray | None
    repo_short: np.ndarray | None
    coll_earn: np.ndarray
    coll_pay: np.ndarray
    carry: np.ndarray | None
    own: np.ndarray | None = None
    cpty: np.ndarray | None = None

    def take(self, index) -> "DriverTerms":
        """Every present term indexed by ``index``: rows of the lattice,
        or ``(slice(None), cols)`` for columns of a PDE block."""
        return DriverTerms(*(None if a is None else a[index] for a in self))


def _mark_terms(model: MarketModel, at_value: bool, mark, own=None,
                cpty=None) -> DriverTerms:
    """The seller's accrual terms fixed by the mark, at the wealth level
    (``at_value``) or at the adjustment level, with the given close-out
    targets; the repo legs are left to :func:`with_repo_legs`."""
    r = model.rates
    mark = np.asarray(mark, dtype=float)
    collateral = model.alpha * mark
    return DriverTerms(
        offset=-collateral if at_value else (1.0 - model.alpha) * mark,
        repo_long=None, repo_short=None,
        coll_earn=r.coll_earn * pos(collateral),
        coll_pay=r.coll_pay * neg(collateral),
        carry=None if at_value else r.discount * mark, own=own, cpty=cpty)


def with_repo_legs(model: MarketModel, terms: DriverTerms, z) -> DriverTerms:
    """``terms`` with the repo legs that ``z`` fixes filled in: the stock
    position ``z / sigma`` accrues the repo spread over the discount rate,
    borrowed when long and lent when short."""
    r = model.rates
    sigma = model.equity.sigma
    return terms._replace(
        repo_long=(r.discount - r.repo_borrow) * pos(z) / sigma,
        repo_short=(r.discount - r.repo_lend) * neg(z) / sigma)


def _seller_step(model: MarketModel, terms: DriverTerms, u, z_own, z_cpty):
    """The seller's drift at value ``u`` and jump exposures ``z_own``, ``z_cpty``.

    The funding rate accrues on ``u + z_own + z_cpty + offset`` (lend when
    positive, borrow when negative); the accounts are summed left to right
    in the order funding, repo, bonds, collateral, then negated and shifted
    by the carry.
    """
    r = model.rates
    funding = u + z_own
    funding += z_cpty
    funding += terms.offset
    accrual = pos(funding)
    accrual *= r.fund_lend
    # the funding account is spent; its buffer takes the remaining products
    spare = funding if isinstance(funding, np.ndarray) else None
    borrow = neg(funding, out=spare)
    borrow *= r.fund_borrow
    accrual -= borrow
    accrual += terms.repo_long
    accrual -= terms.repo_short
    accrual -= np.multiply(r.discount, z_own, out=spare)
    accrual -= np.multiply(r.discount, z_cpty, out=spare)
    accrual += terms.coll_earn
    accrual -= terms.coll_pay
    out = accrual if isinstance(accrual, np.ndarray) else None
    if terms.carry is None:
        return np.negative(accrual, out=out)
    return np.subtract(terms.carry, accrual, out=out)


def reduced_mark_terms(model: MarketModel, mark,
                       at_value: bool = False) -> DriverTerms:
    """The seller's reduced-driver terms fixed by the mark alone.

    These are the funding offset, the collateral legs, the carry and the
    close-out targets: the close-out adjustments, or mark plus adjustment
    when ``at_value``.  The repo legs are left empty; :func:`with_repo_legs`
    fills them in from ``z``.
    """
    own = cpty = None
    if model.credit is not None:
        own, cpty = closeout_adjustments(model, mark)
        if at_value:
            value = np.asarray(mark, dtype=float)
            own, cpty = value + own, value + cpty
    return _mark_terms(model, at_value, mark, own, cpty)


def reduced_terms(model: MarketModel, z, mark,
                  at_value: bool = False) -> DriverTerms:
    """The seller's reduced-driver terms fixed by ``z`` and the mark.

    With :func:`reduced_step` this is the seller's side of
    :func:`reduced_drift` (or :func:`reduced_drift_value`) split in two, so a
    caller whose mark and ``z`` stay fixed across many values of ``u``
    computes these terms once.  A caller whose mark stays fixed while ``z``
    moves with ``u`` (the PDE) keeps :func:`reduced_mark_terms` and adds the
    repo legs per ``z``.
    """
    return with_repo_legs(model, reduced_mark_terms(model, mark, at_value), z)


def reduced_step(model: MarketModel, terms: DriverTerms, u):
    """The seller's reduced driver at ``u`` from its :func:`reduced_terms`.

    The jump exposures are pinned to the close-out targets, and default risk
    adds the intensity-weighted pull towards them; without a credit block
    both exposures are zero.
    """
    if model.credit is None:
        zero = np.multiply(u, 0.0)
        return _seller_step(model, terms, u, zero, zero)
    z_own = terms.own - u
    z_cpty = terms.cpty - u
    drift = _seller_step(model, terms, u, z_own, z_cpty)
    # the exposures are spent; they take the intensity-weighted pull
    z_own *= model.default_intensity("own")
    z_cpty *= model.default_intensity("cpty")
    z_own += z_cpty
    drift += z_own
    return drift


def _on_side(seller, model: MarketModel, side: str, t, *args):
    """The seller's drift, or the buyer's by reflection: every argument after
    ``t``, the mark included, is negated and so is the result."""
    _check_side(side)
    if side == SELLER:
        return seller(model, t, *args)
    return -seller(model, t, *(np.negative(a) for a in args))


def _seller_drift(at_value: bool, model, t, u, z, z_own, z_cpty, mark):
    terms = with_repo_legs(model, _mark_terms(model, at_value, mark), z)
    return _seller_step(model, terms, u, z_own, z_cpty)


def _seller_reduced(at_value: bool, model, t, u, z, mark):
    return reduced_step(model, reduced_terms(model, z, mark, at_value), u)


_seller_wealth = partial(_seller_drift, True)
_seller_adjustment = partial(_seller_drift, False)
_seller_reduced_adjustment = partial(_seller_reduced, False)
_seller_reduced_value = partial(_seller_reduced, True)


def wealth_drift(model: MarketModel, side: str, t, v, z, z_own, z_cpty, mark):
    """Drift of the replication wealth BSDE.

    ``v`` is the wealth, ``z`` the stock-diffusion exposure, ``z_own`` and
    ``z_cpty`` the own/counterparty default-jump exposures, and ``mark`` the
    agent's valuation of the claim (which fixes the collateral balance).
    """
    return _on_side(_seller_wealth, model, side, t, v, z, z_own, z_cpty, mark)


def adjustment_drift(model: MarketModel, side: str, t, adj, z, z_own, z_cpty, mark):
    """Drift of the valuation-adjustment BSDE (wealth net of the agent's mark).

    Identity with the wealth-level driver: shifting the value argument by the
    mark and adding the mark's own discount drift gives back this function,
    for any z arguments, up to rounding.
    """
    return _on_side(_seller_adjustment, model, side, t, adj, z, z_own, z_cpty,
                    mark)


def reduced_drift(model: MarketModel, side: str, t, u, z, mark):
    """Driver of the reduced (pre-default, Brownian-only) adjustment BSDE.

    The jump exposures are pinned to the distance between the close-out
    adjustments and the current adjustment value; default risk enters through
    the intensity-weighted pull towards the close-outs.  Models without a
    credit block have no bonds to hold: both jump slots are identically zero
    and no intensity terms appear.

    ``z`` must carry the full-portfolio diffusion exposure (adjustment hedge
    plus the agent's delta hedge), in currency units.
    """
    return _on_side(_seller_reduced_adjustment, model, side, t, u, z, mark)


def reduced_drift_value(model: MarketModel, side: str, t, u, z, mark):
    """Driver of the reduced BSDE at the full position-value level.

    Same structure as :func:`reduced_drift` but with wealth-level close-outs
    and the wealth-level drift; terminal data for this equation is the claim
    payoff itself.  Used by the lattice cross-check as a second, independent
    route to the same adjustment.
    """
    return _on_side(_seller_reduced_value, model, side, t, u, z, mark)


def reduced_lipschitz_bound(model: MarketModel) -> float:
    """Upper bound on the u-Lipschitz constant of the reduced driver.

    Used to size implicit fixed-point steps: contraction needs
    dt * bound < 1.
    """
    r = model.rates
    bound = max(r.fund_lend, r.fund_borrow) + 2.0 * r.discount
    if model.credit is not None:
        bound += (model.default_intensity("own")
                  + model.default_intensity("cpty"))
    return bound


def jump_targets(model: MarketModel, side: str, mark):
    """Adjustment values attained at own/counterparty default, per side.

    For the seller these are the close-out adjustments at the mark; for the
    buyer the reflected ones (no own-default relief on a long position in a
    nonnegative claim, a counterparty-default loss instead).
    """
    _check_side(side)
    if side == SELLER:
        return closeout_adjustments(model, mark)
    own, cpty = closeout_adjustments(model, np.multiply(mark, -1.0))
    return np.multiply(own, -1.0), np.multiply(cpty, -1.0)


@dataclass(frozen=True)
class ReplicationStrategy:
    """Portfolio replicating the valuation adjustment at one state.

    Dollar positions are primary; share counts are given for the stock and
    the two bonds, whose prices are known at the state.  The wealth identity

        stock + bond_own + bond_cpty + funding + repo - collateral_account
        == adjustment

    holds by construction; at a default of either party the surviving
    positions reproduce the close-out adjustment exactly.

    ``funding_dollars`` is the funding leg of the portfolio that replicates
    the adjustment: ``jump_own + jump_cpty - adjustment - alpha * mark`` with
    a credit block, ``adjustment - alpha * mark`` without one.  The
    account on which :func:`adjustment_drift` accrues the funding rate (lend
    when positive, borrow when negative) is ``funding_dollars + mark``, the
    same leg at the level of the full position value.

    A buyer record is the exact reflection of a seller record: every dollar
    and share field is the negation of the seller's at the negated
    adjustment, mark and stock holding.  It is stated in the reflected terms
    of the buyer equations, so the collateral account is ``-alpha * mark`` on
    both sides and the accrual account above is ``funding_dollars + mark`` for
    the buyer too.
    """

    side: str
    t: float
    spot: float
    adjustment: float
    mark: float
    stock_shares: float
    stock_dollars: float
    bond_own_shares: float
    bond_own_dollars: float
    bond_cpty_shares: float
    bond_cpty_dollars: float
    repo_dollars: float
    collateral_account_dollars: float
    funding_dollars: float
    boundary: bool = False

    @property
    def wealth(self) -> float:
        return (self.stock_dollars + self.bond_own_dollars
                + self.bond_cpty_dollars + self.funding_dollars
                + self.repo_dollars - self.collateral_account_dollars)


def build_strategy(model: MarketModel, claim, side: str, t: float, s: float,
                   adjustment: float, mark: float, stock_shares: float,
                   boundary: bool = False) -> ReplicationStrategy:
    """Assemble the replication portfolio from the adjustment and its stock hedge.

    Bond positions are pinned by the default-jump exposures (each bond holding
    must absorb the jump from the current adjustment to its close-out target);
    the repo account offsets the stock leg; the collateral account carries the
    margin, ``-alpha * mark``; the funding account balances the wealth
    identity.  Models without a credit block hold no bonds.

    Only the jump targets depend on ``side``, and they are themselves
    reflected, so ``build_strategy(BUYER, adj, mark, shares)`` is the
    leg-by-leg negation of ``build_strategy(SELLER, -adj, -mark, -shares)``.
    """
    _check_side(side)
    maturity = claim.maturity
    stock_dollars = stock_shares * s
    repo_dollars = -stock_dollars
    if model.credit is not None:
        jump_own, jump_cpty = jump_targets(model, side, mark)
        bond_own_dollars = adjustment - float(jump_own)
        bond_cpty_dollars = adjustment - float(jump_cpty)
        p_own = model.bond_price("own", t, maturity)
        p_cpty = model.bond_price("cpty", t, maturity)
        bond_own_shares = bond_own_dollars / p_own
        bond_cpty_shares = bond_cpty_dollars / p_cpty
    else:
        bond_own_dollars = bond_cpty_dollars = 0.0
        bond_own_shares = bond_cpty_shares = 0.0
    collateral_account_dollars = -model.alpha * mark
    funding_dollars = (adjustment - stock_dollars - bond_own_dollars
                       - bond_cpty_dollars - repo_dollars
                       + collateral_account_dollars)
    return ReplicationStrategy(
        side=side, t=t, spot=s, adjustment=adjustment, mark=mark,
        stock_shares=stock_shares, stock_dollars=stock_dollars,
        bond_own_shares=bond_own_shares, bond_own_dollars=bond_own_dollars,
        bond_cpty_shares=bond_cpty_shares, bond_cpty_dollars=bond_cpty_dollars,
        repo_dollars=repo_dollars,
        collateral_account_dollars=collateral_account_dollars,
        funding_dollars=funding_dollars, boundary=boundary)
