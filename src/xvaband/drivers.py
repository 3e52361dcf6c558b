"""Drift functionals (BSDE drivers) of the replication problem.

Everything downstream -- the PDE engine and the lattice cross-check -- consumes
the functions defined here, so they are the single source of truth for the
nonlinearity.  All functions accept scalars or numpy arrays of equal shape.
The public drivers take a ``MarketModel``; the parts of the reduced driver
read only :class:`DriverParams`, one record built once from a model and a
side.  Its fields are floats, or arrays with one entry per row of a block
of the sides of a batch: (rows, 1) for the PDE's (rows, nodes) block, and
the transposed (1, rows) for the lattice's (nodes, rows) block.

Conventions
-----------
* One seller kernel holds the rate accrual, in two parts: the terms fixed by
  the mark and ``z`` (:class:`DriverTerms`: funding offset, repo and
  collateral legs, carry, close-out targets) and the step in ``u`` that adds
  them in the accrual's order.  The four public drivers differ only in the
  funding offset; the two reduced ones pin the jump exposures to the
  close-out targets in one shared step, :func:`reduced_step`.  A caller
  whose mark and ``z`` stay fixed solves its implicit step in closed form
  (:func:`reduced_root`) and checks the root with one call of the step.
  The lattice builds the root's constants once per march
  (:func:`root_rates`); per block of levels, the mark's
  :func:`reduced_mark_terms`, their root coefficients (:func:`root_terms`)
  and the repo legs of the check (:func:`with_repo_legs`); per level only
  ``e``, ``z`` and the root.  The root and a caller whose mark stays fixed
  while ``z`` moves with ``u`` (the PDE, where ``z`` is the gradient of
  ``u``) both read the step's affine form (:func:`affine_rates`): two
  fields that the mark fixes, ``base`` and ``at_zero``, and per ``u`` only
  the repo legs of ``z``, the funding account ``at_zero + slope u`` at its
  rate and the pull ``pull u``.  The root builds the fields from the
  block's :func:`reduced_mark_terms` (:func:`root_terms`).  The PDE takes
  each kink, of the mark, the stock position and the funding account, as
  one selection from a per-row rate pair (:func:`kinked`): it builds each
  row's pairs of the two fields once per march (:func:`mark_coefficients`)
  and per level only the fields (:func:`mark_fields`).  Both read once per
  march which lend/borrow legs are linear, their two rates equal in every
  row (:func:`linear_legs`), and skip those legs' branches: the root's
  kink test and selections, and the PDE's repo leg.
  :func:`reduced_step` stays the public driver and the lattice's
  independent check of its root, and keeps every branch.
* ``side`` is "seller" (hedging a short position in the claim) or "buyer"
  (hedging a long position).  Buyer-side values are always produced through
  one reflection, ``buyer(args, mark) = -seller(-args, -mark)``, which the
  driver parts apply themselves through the record's ``sign``; they are
  never coded independently, which makes the antisymmetry structural.  The
  PDE folds the same reflection into a buyer row's rate pairs, which
  :func:`sided` swaps, and its tests hold the fields to the lattice's
  :func:`root_terms` and its level driver to :func:`reduced_drift`.
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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .market import MarketModel

SELLER = "seller"
BUYER = "buyer"
SIDES = (SELLER, BUYER)


def pos(x, out=None):
    return np.maximum(x, 0.0, out=out)


def neg(x, out=None):
    return np.maximum(np.negative(x, out=out), 0.0, out=out)


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be 'seller' or 'buyer', got {side!r}")


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
    way moves no bit.  A buyer's terms are the seller's at the reflected
    mark and ``z``.
    """

    offset: np.ndarray
    repo_long: np.ndarray | None
    repo_short: np.ndarray | None
    coll_earn: np.ndarray
    coll_pay: np.ndarray
    carry: np.ndarray | None
    own: np.ndarray | None = None
    cpty: np.ndarray | None = None


class DriverParams(NamedTuple):
    """The parameters the driver reads, of one side or of the rows of a block.

    A field is a float, or a (rows, 1) array with one entry per row of a
    (rows, nodes) block, as :meth:`stack` builds it; its transpose, (1,
    rows), serves a (nodes, rows) block.  ``sign`` is 1 on a
    seller and -1 on a buyer: the driver parts take their arguments in the
    side's own terms and reflect them through it.  The loss rates and the
    default intensities are None without a credit block.
    """

    fund_lend: float | np.ndarray
    fund_borrow: float | np.ndarray
    repo_lend: float | np.ndarray
    repo_borrow: float | np.ndarray
    coll_earn: float | np.ndarray
    coll_pay: float | np.ndarray
    discount: float | np.ndarray
    sigma: float | np.ndarray
    alpha: float | np.ndarray
    sign: float | np.ndarray
    loss_own: float | np.ndarray | None = None
    loss_cpty: float | np.ndarray | None = None
    intensity_own: float | np.ndarray | None = None
    intensity_cpty: float | np.ndarray | None = None

    @classmethod
    def of(cls, model: MarketModel, side: str) -> "DriverParams":
        """The record of ``model`` on ``side``."""
        params = cls(**vars(model.rates), sigma=model.equity.sigma,
                     alpha=model.alpha, sign=_sign(side))
        if model.credit is None:
            return params
        return params._replace(
            loss_own=model.credit.loss_own, loss_cpty=model.credit.loss_cpty,
            intensity_own=model.default_intensity("own"),
            intensity_cpty=model.default_intensity("cpty"))

    @classmethod
    def stack(cls, models: list[MarketModel]) -> "DriverParams":
        """The record of 2K rows: the sellers of the K models, then their
        buyers.  A field equal in every row stays a float."""
        rows = []
        for values in zip(*(cls.of(m, SELLER) for m in models)):
            if all(v == values[0] for v in values):
                rows.append(values[0])
            else:
                rows.append(np.tile(np.asarray(values, dtype=float), 2)[:, None])
        sign = np.repeat([1.0, -1.0], len(models))[:, None]
        return cls(*rows)._replace(sign=sign)


def _sign(side: str) -> float:
    _check_side(side)
    return 1.0 if side == SELLER else -1.0


def _closeouts(p: DriverParams, mark):
    """The seller's close-out pair (own-default, cpty-default) at ``mark``.

    Own default wipes the uncollateralized in-the-money part of the
    counterparty's claim at the hedger's loss rate (a gain to the hedger,
    hence <= 0 as a cost adjustment); counterparty default symmetrically hits
    the hedger's uncollateralized claim.
    """
    if p.loss_own is None:
        zero = np.multiply(mark, 0.0)
        return zero, zero
    residual = (1.0 - p.alpha) * np.asarray(mark, dtype=float)
    return -p.loss_own * pos(residual), p.loss_cpty * neg(residual)


def _mark_terms(p: DriverParams, at_value: bool, mark, own=None,
                cpty=None) -> DriverTerms:
    """The seller's accrual terms fixed by the mark, at the wealth level
    (``at_value``) or at the adjustment level, with the given close-out
    targets; the repo legs are left to :func:`with_repo_legs`."""
    mark = np.asarray(mark, dtype=float)
    collateral = p.alpha * mark
    return DriverTerms(
        offset=-collateral if at_value else (1.0 - p.alpha) * mark,
        repo_long=None, repo_short=None,
        coll_earn=p.coll_earn * pos(collateral),
        coll_pay=p.coll_pay * neg(collateral),
        carry=None if at_value else p.discount * mark, own=own, cpty=cpty)


def with_repo_legs(p: DriverParams, terms: DriverTerms, z) -> DriverTerms:
    """``terms`` with the repo legs that the side's ``z`` fixes filled in: the
    stock position ``z / sigma`` accrues the repo spread over the discount
    rate, borrowed when long and lent when short."""
    z = p.sign * z
    repo_long = pos(z)
    repo_long *= p.discount - p.repo_borrow
    repo_long /= p.sigma
    repo_short = neg(z, out=z if isinstance(z, np.ndarray) else None)
    repo_short *= p.discount - p.repo_lend
    repo_short /= p.sigma
    return terms._replace(repo_long=repo_long, repo_short=repo_short)


def _seller_step(p: DriverParams, terms: DriverTerms, u, z_own, z_cpty):
    """The seller's drift at value ``u`` and jump exposures ``z_own``, ``z_cpty``.

    The funding rate accrues on ``u + z_own + z_cpty + offset`` (lend when
    positive, borrow when negative); the accounts are summed left to right
    in the order funding, repo, bonds, collateral, then negated and shifted
    by the carry.  ``u`` is the caller's temporary: its buffer takes the
    funding account.
    """
    owned = isinstance(u, np.ndarray) and u.shape == np.shape(z_own)
    funding = np.add(u, z_own, out=u if owned else None)
    funding += z_cpty
    funding += terms.offset
    accrual = pos(funding)
    accrual *= p.fund_lend
    # the funding account is spent; its buffer takes the remaining products
    spare = funding if isinstance(funding, np.ndarray) else None
    borrow = neg(funding, out=spare)
    borrow *= p.fund_borrow
    accrual -= borrow
    accrual += terms.repo_long
    accrual -= terms.repo_short
    accrual -= np.multiply(p.discount, z_own, out=spare)
    accrual -= np.multiply(p.discount, z_cpty, out=spare)
    accrual += terms.coll_earn
    accrual -= terms.coll_pay
    out = accrual if isinstance(accrual, np.ndarray) else None
    if terms.carry is None:
        return np.negative(accrual, out=out)
    return np.subtract(terms.carry, accrual, out=out)


def _drift(model: MarketModel, side: str, at_value: bool, u, z, z_own, z_cpty,
           mark):
    """The unreduced drift of ``side``, through the seller's accrual."""
    p = DriverParams.of(model, side)
    terms = with_repo_legs(p, _mark_terms(p, at_value, p.sign * mark), z)
    drift = _seller_step(p, terms, p.sign * u, p.sign * z_own, p.sign * z_cpty)
    drift *= p.sign
    return drift


def reduced_mark_terms(p: DriverParams, mark,
                       at_value: bool = False) -> DriverTerms:
    """The reduced-driver terms that the side's mark alone fixes.

    These are the funding offset, the collateral legs, the carry and the
    close-out targets: the close-out adjustments, or mark plus adjustment
    when ``at_value``.  The repo legs are left empty; :func:`with_repo_legs`
    fills them in from ``z``.
    """
    mark = p.sign * np.asarray(mark, dtype=float)
    own = cpty = None
    if p.loss_own is not None:
        own, cpty = _closeouts(p, mark)
        if at_value:
            own, cpty = mark + own, mark + cpty
    return _mark_terms(p, at_value, mark, own, cpty)


def reduced_terms(p: DriverParams, z, mark, at_value: bool = False) -> DriverTerms:
    """The reduced-driver terms that the side's ``z`` and mark fix.

    With :func:`reduced_step` this is :func:`reduced_drift` (or
    :func:`reduced_drift_value`) split in two, so a caller whose mark and
    ``z`` stay fixed across many values of ``u`` computes these terms once.
    """
    return with_repo_legs(p, reduced_mark_terms(p, mark, at_value), z)


def reduced_step(p: DriverParams, terms: DriverTerms, u):
    """The side's reduced driver at ``u`` from its :func:`reduced_terms`.

    The jump exposures are pinned to the close-out targets, and default risk
    adds the intensity-weighted pull towards them; without a credit block
    both exposures are zero.
    """
    u = p.sign * u
    if p.intensity_own is None:
        zero = np.multiply(u, 0.0)
        drift = _seller_step(p, terms, u, zero, zero)
    else:
        z_own = terms.own - u
        z_cpty = terms.cpty - u
        drift = _seller_step(p, terms, u, z_own, z_cpty)
        # the exposures are spent; they take the intensity-weighted pull
        z_own *= p.intensity_own
        z_cpty *= p.intensity_cpty
        z_own += z_cpty
        drift += z_own
    drift *= p.sign
    return drift


class RootRates(NamedTuple):
    """The constants of :func:`reduced_root` at one ``dt``, per row.

    ``repo_borrow`` and ``repo_lend`` are the repo rates less the discount
    rate; ``lend`` and ``borrow`` are the branches' denominators ``1 + dt
    (slope rate + pull)``, and ``pulled`` is ``1 + dt pull``.  ``linear``
    is the rows' :func:`linear_legs`.
    """

    dt: float
    sigma: float | np.ndarray
    repo_borrow: float | np.ndarray
    repo_lend: float | np.ndarray
    lend: float | np.ndarray
    borrow: float | np.ndarray
    pulled: float | np.ndarray
    slope: float
    linear: tuple[bool, bool]


def linear_legs(p: DriverParams) -> tuple[bool, bool]:
    """Which lend/borrow legs of the rows of ``p`` are linear, as (repo,
    funding): a leg is linear when its lend and borrow rates are equal,
    exactly, in every row, so that it has no kink.

    Both engines read this once per march and skip a linear leg's branch:
    at equal rates either branch takes the same product, so skipping it
    moves no bit.  The lattice's root reads both flags; the PDE reads only
    the repo flag, since its funding leg is one selection either way.  In a
    block where some row's rates differ the leg keeps its branches in every
    row.
    """
    return (bool(np.all(np.equal(p.repo_lend, p.repo_borrow))),
            bool(np.all(np.equal(p.fund_lend, p.fund_borrow))))


def affine_rates(p: DriverParams):
    """The ``slope`` and ``pull`` of the affine form of the rows of ``p``.

    Once the mark is fixed, the reduced drift in the seller's terms is
    ``base + repo_net(z) - rate(a) a - pull u``, with the funding account
    ``a = at_zero + slope u``, ``rate(a) a = fund_lend a⁺ - fund_borrow a⁻``
    and ``repo_net(z) = ((repo_borrow - discount) z⁺ - (repo_lend -
    discount) z⁻) / sigma``.  ``base`` holds the collateral legs, the carry
    and the close-out targets' share.  ``slope`` and ``pull`` are 1 and 0
    without a credit block, else -1 and the discount rate twice plus both
    default intensities.
    """
    if p.intensity_own is None:
        return 1.0, 0.0
    return -1.0, (2.0 * p.discount + p.intensity_own) + p.intensity_cpty


def sided(p: DriverParams, on_pos, on_neg):
    """A seller's rates on either side of a kink at zero, ``(on_pos,
    on_neg)``, as the pair of each row of ``p`` in its own terms: a buyer
    row, which takes the seller's branches at the reflected argument,
    swaps them.  :func:`kinked` takes the pair."""
    buyer = np.less(p.sign, 0.0)
    return np.where(buyer, on_neg, on_pos), np.where(buyer, on_pos, on_neg)


def kinked(pair, x):
    """``x`` at the rate of its side of zero, ``np.where(x > 0.0, *pair) *
    x``, with ``pair`` a row's (rate where x > 0, rate where x <= 0), as
    :func:`sided` builds it.  At a nonzero node this is the one product of
    its branch."""
    out = np.where(x > 0.0, *pair)
    out *= x
    return out


def mark_coefficients(p: DriverParams):
    """The affine form's two fields of the rows of ``p`` as rate pairs on
    either side of the mark's kink, once per march.

    With alpha in [0, 1] the posted margin ``alpha mark`` and the
    close-outs' residual ``(1 - alpha) mark`` change rate where the mark
    changes sign, so ``base`` and ``at_zero`` are each a rate of the mark's
    side of zero times the mark; returns their :func:`sided` pairs, one
    entry per row.  A seller's ``base`` takes ``D - coll_earn alpha - (D +
    lambda_own) L_own (1 - alpha)`` where the mark is positive and ``D -
    coll_pay alpha - (D + lambda_cpty) L_cpty (1 - alpha)`` elsewhere (D
    the discount rate, lambda the default intensities, L the loss rates),
    its ``at_zero`` ``(1 - alpha)(1 - L_own)`` and ``(1 - alpha)(1 -
    L_cpty)``; without a credit block the loss terms drop out, so ``base``
    is ``(D - coll_earn alpha, D - coll_pay alpha)`` and ``at_zero`` ``1 -
    alpha`` on both sides.
    """
    kept = 1.0 - p.alpha
    base = (p.discount - p.coll_earn * p.alpha, p.discount - p.coll_pay * p.alpha)
    at_zero = (kept, kept)
    if p.loss_own is not None:
        base = (base[0] - (p.discount + p.intensity_own) * p.loss_own * kept,
                base[1] - (p.discount + p.intensity_cpty) * p.loss_cpty * kept)
        at_zero = (kept * (1.0 - p.loss_own), kept * (1.0 - p.loss_cpty))
    return sided(p, *base), sided(p, *at_zero)


def mark_fields(coefs, mark):
    """``base`` and ``at_zero`` of the rows of :func:`mark_coefficients`'
    ``coefs`` at a mark that every row shares, one row of nodes each: each
    the :func:`kinked` of its pair at the mark.  The products are
    elementwise, so a row's fields are the same bits in a batch of any
    size.
    """
    return [kinked(pair, mark) for pair in coefs]


def root_rates(p: DriverParams, dt: float) -> RootRates:
    """The :class:`RootRates` of the rows of ``p`` at ``dt``."""
    slope, pull = affine_rates(p)
    return RootRates(dt, p.sigma, p.repo_borrow - p.discount,
                     p.repo_lend - p.discount,
                     1.0 + dt * (slope * p.fund_lend + pull),
                     1.0 + dt * (slope * p.fund_borrow + pull),
                     1.0 + dt * pull, slope, linear_legs(p))


class RootTerms(NamedTuple):
    """The coefficients of :func:`reduced_root` that the mark fixes.

    ``base`` is the field of that name of :func:`affine_rates`' form;
    ``account`` is its ``at_zero``, times ``pulled`` with a credit block;
    ``lend`` and ``borrow`` are the funding rates times ``at_zero``.
    """

    base: np.ndarray
    account: np.ndarray
    lend: np.ndarray
    borrow: np.ndarray


def root_terms(p: DriverParams, rates: RootRates,
               terms: DriverTerms) -> RootTerms:
    """The :class:`RootTerms` that the mark terms in ``terms`` fix."""
    base = terms.coll_pay - terms.coll_earn
    if terms.carry is not None:
        base += terms.carry
    at_zero = account = terms.offset
    if p.intensity_own is not None:
        base += (p.discount + p.intensity_own) * terms.own
        base += (p.discount + p.intensity_cpty) * terms.cpty
        at_zero = terms.own + terms.cpty
        at_zero += terms.offset
        account = at_zero * rates.pulled
    return RootTerms(base, account, p.fund_lend * at_zero,
                     p.fund_borrow * at_zero)


def reduced_root(rates: RootRates, terms: RootTerms, e, z):
    """The root ``u`` of ``u = e + dt * reduced_step(p, legs, u)``, with
    ``legs`` the mark terms of ``terms`` and the repo legs of ``z``.

    ``e``, ``z`` and ``u`` are in the seller's terms, a side's values times
    its ``sign``.  The step is affine in ``u`` on either side of the kink
    where the funding account changes sign, and the account's sign at the
    root is that of a quantity that needs no branch (the kink test), so the
    branch and then the root have closed forms: one policy-iteration solve
    per node (Forsyth & Labahn 2007) whose policy is known in advance.  The
    root solves the equation to a few ulps of ``max(|u|, |e|, dt *
    reduced_step_scale(p, legs, u))``.  ``dt`` times
    :func:`reduced_lipschitz_bound` must be below 1, which keeps both
    denominators positive.

    A linear leg (``rates.linear``) takes no branch: the repo legs are one
    product, and a linear funding leg has no kink, so the root is the lend
    branch's, ``(e - dt (terms.lend - base)) / rates.lend``, with no kink
    test.  Its rates equal the borrow branch's, so the bits are the same.
    """
    repo, funding = rates.linear
    # the repo legs' net, short less long, of the stock position z / sigma
    if repo:
        base = rates.repo_borrow * z
    else:
        base = np.where(z > 0.0, rates.repo_borrow, rates.repo_lend)
        base *= z
    base /= rates.sigma
    base += terms.base
    if funding:
        root = terms.lend - base
        root *= -rates.dt
        root += e
        root /= rates.lend
        return root
    # the account at the root times its positive denominator,
    # at_zero (1 + dt pull) + slope (e + dt base)
    kink = rates.dt * base
    kink += e
    if rates.slope > 0.0:
        kink += terms.account
    else:
        np.subtract(terms.account, kink, out=kink)
    lend = kink > 0.0
    root = np.where(lend, terms.lend, terms.borrow)
    root -= base
    root *= -rates.dt
    root += e
    root /= np.where(lend, rates.lend, rates.borrow)
    return root


def reduced_step_scale(p: DriverParams, terms: DriverTerms, u):
    """The largest addend of :func:`reduced_step` at ``u``, node by node.

    The step rounds at this size, so where its addends cancel, a root of
    ``u = e + dt * reduced_step(p, terms, u)`` that is exact to rounding
    still misses the equation by a few ulps of ``dt`` times this scale.
    """
    top = np.maximum(p.fund_lend, p.fund_borrow)
    addends = [top * np.abs(terms.offset), top * np.abs(u),
               np.abs(terms.repo_long), np.abs(terms.repo_short),
               np.abs(terms.coll_earn), np.abs(terms.coll_pay)]
    if terms.carry is not None:
        addends.append(np.abs(terms.carry))
    if p.intensity_own is not None:
        pull = (2.0 * p.discount + p.intensity_own) + p.intensity_cpty
        addends += [(top + p.discount + p.intensity_own) * np.abs(terms.own),
                    (top + p.discount + p.intensity_cpty) * np.abs(terms.cpty),
                    pull * np.abs(u)]
    return functools.reduce(np.maximum, addends)


def wealth_drift(model: MarketModel, side: str, t, v, z, z_own, z_cpty, mark):
    """Drift of the replication wealth BSDE.

    ``v`` is the wealth, ``z`` the stock-diffusion exposure, ``z_own`` and
    ``z_cpty`` the own/counterparty default-jump exposures, and ``mark`` the
    agent's valuation of the claim (which fixes the collateral balance).
    """
    return _drift(model, side, True, v, z, z_own, z_cpty, mark)


def adjustment_drift(model: MarketModel, side: str, t, adj, z, z_own, z_cpty, mark):
    """Drift of the valuation-adjustment BSDE (wealth net of the agent's mark).

    Identity with the wealth-level driver: shifting the value argument by the
    mark and adding the mark's own discount drift gives back this function,
    for any z arguments, up to rounding.
    """
    return _drift(model, side, False, adj, z, z_own, z_cpty, mark)


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
    p = DriverParams.of(model, side)
    return reduced_step(p, reduced_terms(p, z, mark), u)


def reduced_drift_value(model: MarketModel, side: str, t, u, z, mark):
    """Driver of the reduced BSDE at the full position-value level.

    Same structure as :func:`reduced_drift` but with wealth-level close-outs
    and the wealth-level drift; terminal data for this equation is the claim
    payoff itself.  The value route of the tests' reference lattice march,
    which cross-checks the lattice's adjustment route against it.
    """
    p = DriverParams.of(model, side)
    return reduced_step(p, reduced_terms(p, z, mark, at_value=True), u)


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
    p = DriverParams.of(model, side)
    own, cpty = _closeouts(p, p.sign * mark)
    return p.sign * own, p.sign * cpty


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
