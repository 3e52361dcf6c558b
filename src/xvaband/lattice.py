"""Binomial-lattice cross-check for the reduced valuation-adjustment equations.

A recombining two-branch lattice (equiprobable +-sqrt(dt) Brownian steps)
discretizes the stock under the valuation measure; the adjustment is obtained
by backward induction with an implicit-in-value, explicit-in-gradient step.
The scheme shares no discretization code with the PDE engine, so agreement
between the two is evidence rather than tautology.

Two equivalent routes are provided:

* ``level="adjustment"``: terminal data zero, the reduced adjustment driver,
  and the diffusion-gradient slot fed with the lattice estimate plus the
  agent's closed-form delta exposure (the driver prices repo/funding
  asymmetries on physical positions, which include the mark's hedge);
* ``level="value"``: terminal data equal to the payoff, the wealth-level
  reduced driver, and the raw lattice gradient; the adjustment is the root
  value net of the agent's mark.

Both sides of a valuation march in one pass (:func:`solve_sides`) as the
rows of one (2, k+1) array per level, seller first; the buyer row goes
through the reflection ``buyer(u, z, mark) = -seller(-u, -z, -mark)`` with a
row sign, as the PDE engine's columns do.  Each level builds the stock
levels, the agent's mark and delta, the exposure z and the driver terms that
the mark and z fix (:func:`drivers.reduced_terms`) once for both rows; each
fixed-point iteration then calls only the step in u
(:func:`drivers.reduced_step`).  Every row runs its own fixed point and is
frozen once converged, so it gets bit for bit the values of a march of its
side alone, which is what :func:`solve_reduced` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import claims, drivers
from .market import MarketModel
from .pde import NumericsError

LEVELS = ("adjustment", "value")
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 200


@dataclass(frozen=True)
class OracleSolution:
    """Root-node outputs of one backward induction.

    ``fixed_point_iterations`` and ``fixed_point_residuals`` hold, per level
    k = 0 .. n_steps - 1 (time k * dt), the fixed-point iterations this side
    took and its final sup-norm residual.
    """

    side: str
    level: str
    n_steps: int
    root_value: float       # solved quantity at the root (level-dependent)
    root_gradient: float    # Brownian-integrand estimate at the root
    root_mark: float        # agent's mark at the root
    adjustment: float       # valuation adjustment at time zero
    fixed_point_iterations: np.ndarray = field(compare=False, repr=False)
    fixed_point_residuals: np.ndarray = field(compare=False, repr=False)

    @property
    def xva(self) -> float:
        return self.adjustment


def solve_reduced(model: MarketModel, claim: claims.ClaimSpec, n_steps: int,
                  level: str = "adjustment",
                  side: str = drivers.SELLER) -> OracleSolution:
    """Backward induction for the reduced equation at the requested level."""
    drivers._check_side(side)
    return _march(model, claim, n_steps, level, (side,))[0]


def solve_sides(model: MarketModel, claim: claims.ClaimSpec, n_steps: int,
                level: str = "adjustment") -> tuple[OracleSolution, OracleSolution]:
    """(seller, buyer) solutions from one backward induction of both sides.

    Each equals :func:`solve_reduced` of its side, and the valuation fails
    with :class:`NumericsError` if either side does.
    """
    seller, buyer = _march(model, claim, n_steps, level, drivers.SIDES)
    return seller, buyer


def _march(model: MarketModel, claim: claims.ClaimSpec, n_steps: int,
           level: str, sides: tuple[str, ...]) -> list[OracleSolution]:
    """Backward induction of one or both sides as the rows of one array."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    T = claim.maturity
    dt = T / n_steps
    sdt = math.sqrt(dt)
    sigma = model.equity.sigma
    drift = model.rates.discount - 0.5 * sigma * sigma
    s0 = model.equity.spot

    lip = drivers.reduced_lipschitz_bound(model)
    if dt * lip >= 1.0:
        raise NumericsError(
            f"time step too large for the implicit fixed point "
            f"(dt * Lipschitz = {dt * lip:.3g} >= 1); "
            f"use n_steps >= {math.ceil(2.0 * lip * T)}")

    def stock_levels(k: int) -> np.ndarray:
        j = np.arange(k + 1)
        w = (2.0 * j - k) * sdt
        return s0 * np.exp(drift * (k * dt) + sigma * w)

    at_value = level == "value"
    rows = len(sides)
    sign = np.array([[1.0 if side == drivers.SELLER else -1.0] for side in sides])
    if at_value:
        terminal = np.asarray(claim.payoff(stock_levels(n_steps)), dtype=float)
        u = np.tile(terminal, (rows, 1))
    else:
        u = np.zeros((rows, n_steps + 1))
    iterations = np.zeros((rows, n_steps), dtype=int)
    residuals = np.zeros((rows, n_steps))

    for k in range(n_steps - 1, -1, -1):
        t = k * dt
        s = stock_levels(k)
        expectation = 0.5 * (u[:, 1:k + 2] + u[:, 0:k + 1])
        gradient = (u[:, 1:k + 2] - u[:, 0:k + 1]) / (2.0 * sdt)
        mark, delta = claims.agent_value_grid(model, claim, t, s)
        z = gradient + (0.0 if at_value else sigma * s * delta)
        terms = drivers.reduced_terms(model, sign * z, sign * mark, at_value)
        u, failed = _fixed_point(model, terms, expectation, sign, dt,
                                 iterations[:, k], residuals[:, k])
        if failed is not None:
            row, j, res = failed
            raise NumericsError(
                f"implicit fixed point did not converge on the {sides[row]} "
                f"side at level {k} (t={t:.6g}) within {FIXED_POINT_MAX_ITER} "
                f"iterations: worst node {j} at s={s[j]:.6g}, "
                f"|u|={abs(u[row, j]):.3g}, last residual {res:.3g} "
                f"(tolerance {FIXED_POINT_TOL:g})")
        finite = np.isfinite(u).all(axis=1)
        if not finite.all():
            side = sides[int(np.flatnonzero(~finite)[0])]
            raise NumericsError(
                f"non-finite lattice values on the {side} side at level {k}")
        if k == 0:
            root_gradient = gradient[:, 0]

    mark0 = claims.agent_value(model, claim, 0.0, s0).value
    solutions = []
    for r, side in enumerate(sides):
        root = float(u[r, 0])
        solutions.append(OracleSolution(
            side=side, level=level, n_steps=n_steps, root_value=root,
            root_gradient=float(root_gradient[r]), root_mark=mark0,
            adjustment=root - mark0 if at_value else root,
            fixed_point_iterations=iterations[r],
            fixed_point_residuals=residuals[r]))
    return solutions


def _fixed_point(model: MarketModel, terms: drivers.DriverTerms,
                 expectation: np.ndarray, sign: np.ndarray, dt: float,
                 iterations: np.ndarray, residuals: np.ndarray):
    """Per-row fixed point of u = expectation + dt * f(u) at one level.

    Row r solves its side's equation through the reflection: f is the
    seller's reduced driver at ``sign[r] * u``, times ``sign[r]``.  Each row
    starts from its expectation and is frozen once its own sup-norm residual
    is below FIXED_POINT_TOL, so it takes exactly the iterations, and gets
    exactly the values, of a march of its side alone.  Fills ``iterations``
    and ``residuals`` per row.  Returns the new values and, if a row did not
    converge, (row, node of its largest last change, last residual).
    """
    u = expectation.copy()
    scale = sign * dt
    live = list(range(len(u)))
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        # the rows are one side or both, so the live rows are contiguous
        span = slice(live[0], live[-1] + 1)
        current = u[span]
        candidate = drivers.reduced_step(model, terms.take(span),
                                         sign[span] * current)
        candidate *= scale[span]
        candidate += expectation[span]
        change = np.abs(candidate - current)
        res = change.max(axis=1)
        u[span] = candidate
        iterations[span] = it
        residuals[span] = res
        live = [row for row, row_res in zip(range(span.start, span.stop), res)
                if not row_res < FIXED_POINT_TOL]
        if not live:
            return u, None
    row = live[0]
    return u, (row, int(np.argmax(change[row - span.start])),
               float(res[row - span.start]))


def band(model: MarketModel, claim: claims.ClaimSpec,
         n_steps: int) -> tuple[float, float]:
    """(buyer adjustment, seller adjustment) at time zero.

    The spread between the two is the width of the candidate no-arbitrage
    interval of prices for the claim.
    """
    seller, buyer = solve_sides(model, claim, n_steps)
    return buyer.adjustment, seller.adjustment
