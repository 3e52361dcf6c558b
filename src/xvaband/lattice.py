"""Binomial-lattice cross-check for the reduced valuation-adjustment equations.

A recombining two-branch lattice (equiprobable +-sqrt(dt) Brownian steps)
discretizes the stock under the valuation measure; the adjustment is obtained
by backward induction with an implicit-in-value, explicit-in-gradient step.
The scheme shares no discretization code with the PDE engine, so agreement
between the two is evidence rather than tautology; the two share only the
driver and the per-row freezing of the fixed point (:func:`pde.settle`).

Two equivalent routes are provided:

* ``level="adjustment"``: terminal data zero, the reduced adjustment driver,
  and the diffusion-gradient slot fed with the lattice estimate plus the
  agent's closed-form delta exposure (the driver prices repo/funding
  asymmetries on physical positions, which include the mark's hedge);
* ``level="value"``: terminal data equal to the payoff, the wealth-level
  reduced driver, and the raw lattice gradient; the adjustment is the root
  value net of the agent's mark.

Both sides of a valuation march in one pass (:func:`solve_sides`) as the
rows of one (2, k+1) array per level, seller first, the layout of the PDE's
adjustment block.  The driver reads the :class:`drivers.DriverParams` record
of the rows (``DriverParams.stack([model])``) and reflects the buyer row
itself.  Each level builds the stock levels, the agent's mark and delta, the
exposure z and the driver terms that the mark and z fix
(:func:`drivers.reduced_terms`) once for both rows.  With those terms fixed
each node's equation ``u = e + dt f(u)`` is piecewise linear in u, with one
kink where the funding account changes sign, so its root has a closed form
(:func:`drivers.reduced_root`).  The fixed point starts there, and each
iteration calls only the step in u (:func:`drivers.reduced_step`): one step
of it confirms the root to the 1e-12 tolerance at nearly every level, and a
node where the step has no fixed point in floats fails as it would from any
start.  Every row runs its own fixed point and is frozen once converged, so
it gets bit for bit the values of a march of its side alone, which is what
:func:`solve_reduced` runs.  Values that turn non-finite stop their row's
fixed point at once and fail the valuation, naming the side and level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import claims, drivers
from .market import MarketModel
from .pde import NumericsError, not_converged, settle

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
    params = drivers.DriverParams.stack([model])
    if len(sides) == 1:
        params = params.take([drivers.SIDES.index(sides[0])])
    if at_value:
        terminal = np.asarray(claim.payoff(stock_levels(n_steps)), dtype=float)
        u = np.tile(terminal, (len(sides), 1))
    else:
        u = np.zeros((len(sides), n_steps + 1))
    iterations = np.zeros((len(sides), n_steps), dtype=int)
    residuals = np.zeros((len(sides), n_steps))

    for k in range(n_steps - 1, -1, -1):
        t = k * dt
        s = stock_levels(k)
        expectation = 0.5 * (u[:, 1:k + 2] + u[:, 0:k + 1])
        gradient = (u[:, 1:k + 2] - u[:, 0:k + 1]) / (2.0 * sdt)
        mark, delta = claims.agent_value_grid(model, claim, t, s)
        z = gradient + (0.0 if at_value else sigma * s * delta)
        terms = drivers.reduced_terms(params, z, mark, at_value)

        def step(u, rows):  # expectation + dt * f(u), f each row's driver
            out = drivers.reduced_step(params.take(rows), terms.take(rows), u)
            out *= dt
            out += expectation[rows]
            return out

        start = drivers.reduced_root(params, terms, expectation, dt)
        iterations[:, k], residuals[:, k], u, failed = settle(
            step, start, FIXED_POINT_TOL, FIXED_POINT_MAX_ITER)
        if failed:
            row, j = failed[0]
            raise not_converged("implicit fixed point", f"{sides[row]} side",
                                f"level {k} (t={t:.6g})", FIXED_POINT_MAX_ITER,
                                j, s[j], u[row, j], residuals[row, k],
                                FIXED_POINT_TOL)
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


def band(model: MarketModel, claim: claims.ClaimSpec,
         n_steps: int) -> tuple[float, float]:
    """(buyer adjustment, seller adjustment) at time zero.

    The spread between the two is the width of the candidate no-arbitrage
    interval of prices for the claim.
    """
    seller, buyer = solve_sides(model, claim, n_steps)
    return buyer.adjustment, seller.adjustment
