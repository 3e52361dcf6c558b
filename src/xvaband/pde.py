"""Finite-difference engine for the coupled semilinear valuation-adjustment PDEs.

On a uniform log-price grid the engine marches three fields backward from
maturity with a Crank-Nicolson scheme (implicit-Euler half-steps at start-up
to damp payoff-kink oscillations):

* the agent surface (the public mark of the claim), a linear problem;
* the seller and buyer adjustment surfaces, semilinear problems whose source
  is the reduced driver evaluated at the full-portfolio diffusion exposure
  (adjustment gradient plus the agent's delta).

The nonlinearity is resolved by per-step fixed-point (Picard) iteration on
the implicit part; the drivers are globally Lipschitz, so the iteration
contracts for any reasonable step size.  Every Crank-Nicolson step after the
implicit-Euler start begins the iteration at 2 u_old - u_older, the linear
extrapolation of the last two time levels.  The matrix (I - theta dt B) of
each implicit coefficient is LU-factored once (LAPACK ``dgttrf``), and every
solve reuses the factors (``dgttrs``).  Boundary conditions impose linearity
in the stock (payoffs and adjustments are asymptotically linear there), via
second-order ghost-node elimination.

The spatial operator depends only on the grid, sigma and the discount rate,
and the agent surface only on those and the claim.  Scenarios that share
them (and the presence of a credit block) are therefore marched together as
the rows of one (2K, nx) block: rows 0..K-1 are the seller sides of the K
scenarios, rows K..2K-1 their buyer sides, in the same order.  Each backward
step marches the agent once, evaluates the mark and delta once and builds
from them the driver terms that the mark alone fixes (funding offset,
collateral legs, carry, close-out targets); the driver of one time level is
carried to the next step as its explicit part.  Each Picard iteration then
makes one driver call for the live rows, which adds only the exposure z,
the repo legs and the step in u, and one banded solve of their transpose.
The driver reads one :class:`drivers.DriverParams` record of the block, in
which a parameter that differs between scenarios has one entry per row, and
reflects the buyer rows itself.  Picard runs per row through
:func:`settle`, the fixed point the lattice runs too, from a start computed
per node: a row is frozen as soon as its own residual is below tolerance,
so it takes exactly the iterations, and gets exactly the values, of its own
single-scenario solve.  :func:`solve` is this march with K = 1 and keeps the
full surfaces; :func:`solve_batch` keeps only the two time rows that
valuation and hedging at t = 0 read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import claims, drivers
from .market import MarketModel

PICARD_TOL = 1e-10
PICARD_MAX_ITER = 50
RANNACHER_STEPS = 2  # leading full steps replaced by implicit-Euler half-steps


class NumericsError(RuntimeError):
    """A solve failed to converge or produced non-finite values."""


class _NonFiniteRhs(NumericsError):
    """A banded solve refused a right-hand side holding NaN or inf.

    ``column`` is the first such column of the right-hand side (a row of
    the march's block, which is solved transposed), None for one column.
    """

    def __init__(self, column: int | None):
        where = "" if column is None else f" in column {column}"
        super().__init__(f"non-finite right-hand side{where}")
        self.column = column


@dataclass(frozen=True)
class PdeGrid:
    """Uniform space-time mesh in log-price coordinates."""

    x_min: float
    x_max: float
    nx: int
    nt: int
    maturity: float

    def __post_init__(self) -> None:
        if self.nx < 3:
            raise ValueError(f"nx must be >= 3, got {self.nx}")
        if self.nt < 1:
            raise ValueError(f"nt must be >= 1, got {self.nt}")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.maturity <= 0.0:
            raise ValueError("maturity must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.maturity / self.nt

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.maturity, self.nt + 1)

    @classmethod
    def default_for(cls, model: MarketModel, claim: claims.ClaimSpec,
                    nx: int = 400, nt: int = 400) -> "PdeGrid":
        """Six-standard-deviation domain around the forward log-spot.

        Wide enough that truncation error is far below scheme error for
        vanilla payoffs.  The grid is shifted by less than one cell so the
        log-strike falls exactly midway between two nodes, which restores
        clean second-order behavior across the payoff kink.
        """
        x0 = math.log(model.equity.spot)
        sigma = model.equity.sigma
        T = claim.maturity
        drift = model.rates.discount - 0.5 * sigma * sigma
        width = 6.0 * sigma * math.sqrt(T)
        lo = x0 - width + min(0.0, drift) * T
        hi = x0 + width + max(0.0, drift) * T
        dx = (hi - lo) / (nx - 1)
        xk = math.log(claim.strike)
        if lo < xk < hi:
            shift = xk - (lo + round((xk - lo) / dx) * dx) - 0.5 * dx
            if abs(shift) > 0.75 * dx:  # keep the shift below one cell
                shift += dx if shift < 0 else -dx
            lo += shift
            hi += shift
        return cls(x_min=lo, x_max=hi, nx=nx, nt=nt, maturity=T)


@dataclass
class PdeSolution:
    """Discrete fields indexed [time, space] with time ascending from 0 to T.

    A solution from :func:`solve_batch` keeps only the first two time rows
    (t = 0 and t = dt); sampling it at a later time raises ValueError.
    """

    model: MarketModel
    claim: claims.ClaimSpec
    grid: PdeGrid
    agent: np.ndarray
    seller: np.ndarray
    buyer: np.ndarray
    picard_iterations: np.ndarray  # per backward step, max over both sides
    picard_residuals: np.ndarray   # final sup-norm residual per backward step

    def surface(self, side: str) -> np.ndarray:
        drivers._check_side(side)
        return self.seller if side == drivers.SELLER else self.buyer


def _spatial_operator(grid: PdeGrid, model: MarketModel, zeroth: float):
    """Tridiagonal bands (lower, diag, upper) of the space operator.

    Interior rows discretize the diffusion/drift generator in log-space plus
    a zeroth-order coefficient.  Boundary rows impose linearity in the stock
    (vanishing second derivative in spot coordinates, u_xx = u_x in
    log-space) by eliminating a ghost node, which keeps the scheme
    tridiagonal and second-order up to the edge.
    """
    nx = grid.nx
    dx = grid.dx
    sigma = model.equity.sigma
    mu = model.rates.discount - 0.5 * sigma * sigma
    s2 = 0.5 * sigma * sigma / (dx * dx)
    s1 = 0.5 * mu / dx
    lower = np.full(nx, s2 - s1)
    diag = np.full(nx, -2.0 * s2 + zeroth)
    upper = np.full(nx, s2 + s1)
    # ghost below: u[-1] = (2 u0 - (1 - dx/2) u1) / (1 + dx/2)
    ga = 2.0 / (1.0 + 0.5 * dx)
    gb = -(1.0 - 0.5 * dx) / (1.0 + 0.5 * dx)
    diag[0] = s2 * (ga - 2.0) - s1 * ga + zeroth
    upper[0] = s2 * (1.0 + gb) + s1 * (1.0 - gb)
    lower[0] = 0.0
    # ghost above: u[n] = (2 u[n-1] - (1 + dx/2) u[n-2]) / (1 - dx/2)
    ha = 2.0 / (1.0 - 0.5 * dx)
    hb = -(1.0 + 0.5 * dx) / (1.0 - 0.5 * dx)
    diag[-1] = s2 * (ha - 2.0) + s1 * ha + zeroth
    lower[-1] = s2 * (1.0 + hb) + s1 * (hb - 1.0)
    upper[-1] = 0.0
    return lower, diag, upper


class _Stepper:
    """One theta-step of (d/d tau) u = B u + source, via banded solves.

    ``u`` is one row of nodal values, shape (nx,), or a block of rows,
    shape (k, nx); every row sees the same operator.  The matrix
    (I - coef B) of each implicit coefficient is LU-factored once.
    """

    def __init__(self, grid: PdeGrid, model: MarketModel, zeroth: float):
        self.lower, self.diag, self.upper = _spatial_operator(grid, model, zeroth)
        self.nx = grid.nx
        self._factors: dict[float, tuple] = {}

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[..., :-1] += self.upper[:-1] * u[..., 1:]
        out[..., 1:] += self.lower[1:] * u[..., :-1]
        return out

    def ab_matrix(self, coef: float) -> np.ndarray:
        """(I - coef * B) in the (3, nx) band layout of
        ``scipy.linalg.solve_banded((1, 1), ...)``: upper, main and lower
        diagonal as rows."""
        ab = np.zeros((3, self.nx))
        ab[0, 1:] = -coef * self.upper[:-1]
        ab[1, :] = 1.0 - coef * self.diag
        ab[2, :-1] = -coef * self.lower[1:]
        return ab

    def factors(self, coef: float) -> tuple:
        """LAPACK ``dgttrf`` LU factors of (I - coef * B), made once per coef."""
        lu = self._factors.get(coef)
        if lu is None:
            ab = self.ab_matrix(coef)
            *lu, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
            if info:
                raise np.linalg.LinAlgError("singular matrix")
            lu = self._factors[coef] = tuple(lu)
        return lu

    def step_linear(self, u: np.ndarray, dt: float, theta: float) -> np.ndarray:
        rhs = u + (1.0 - theta) * dt * self.apply(u)
        return solve_banded(self, theta * dt, rhs.T).T


def solve_banded(stepper: _Stepper, coef: float, b: np.ndarray) -> np.ndarray:
    """Solve (I - coef * B) x = b with the stepper's LU factors of that matrix.

    ``b`` is one column, shape (nx,), or a block of columns, shape (nx, k),
    such as the transpose of a (k, nx) block of rows.  A
    right-hand side holding NaN or inf is refused with :class:`_NonFiniteRhs`
    naming its first such column.  The factors come from partial pivoting as
    in ``scipy.linalg.solve_banded``, whose tridiagonal path (LAPACK
    ``dgtsv``) does the same arithmetic, so the two agree bit for bit.
    """
    finite = np.isfinite(b)
    if not finite.all():
        column = None
        if b.ndim == 2:
            column = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise _NonFiniteRhs(column)
    x, info = dgttrs(*stepper.factors(coef), b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dgttrs")
    return x


class _Rows:
    """The 2K adjustment rows of K scenarios: sellers 0..K-1, then buyers."""

    def __init__(self, models: list[MarketModel], nx: int):
        self.count = len(models)
        self.size = 2 * self.count
        self.params = drivers.DriverParams.stack(models)
        self._z = np.empty(nx * self.size)  # the exposure of one driver call
        # the parameters a batch may vary, by name, for the labels
        per_model = [{**vars(m.rates), "alpha": m.alpha,
                      **(vars(m.credit) if m.credit else {})} for m in models]
        self.varied = {name: [p[name] for p in per_model]
                       for name, value in per_model[0].items()
                       if any(p[name] != value for p in per_model)}

    def label(self, row: int) -> str:
        """Side and, in a batch, scenario index and varied parameters of a row."""
        k = row % self.count
        side = drivers.SELLER if row < self.count else drivers.BUYER
        if self.count == 1:
            return f"{side} side"
        varied = ", ".join(f"{name}={values[k]:g}"
                           for name, values in self.varied.items())
        return f"{side} side of scenario {k}" + (f" ({varied})" if varied else "")

    def drift(self, t: float, mark: np.ndarray, grad: np.ndarray, dx: float):
        """The reduced driver at time t as a function of (u, rows).

        The terms the mark fixes are built here, once per time level; each
        call builds only the exposure z, the repo legs and the step in u.
        """
        level = drivers.reduced_mark_terms(self.params, mark)

        def g(u: np.ndarray, rows) -> np.ndarray:
            params = self.params.take(rows)
            z = _gradient(u, dx, self._z[:u.size].reshape(u.shape))
            z += grad
            z *= params.sigma
            terms = drivers.with_repo_legs(params, level.take(rows), z)
            return drivers.reduced_step(params, terms, u)
        return g


def _gradient(u: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """``np.gradient(u, dx, axis=-1)``, the same arithmetic written into
    ``out``: central differences inside, one-sided ones at the two edges."""
    inner, first, last = out[..., 1:-1], out[..., :1], out[..., -1:]
    np.subtract(u[..., 2:], u[..., :-2], out=inner)
    inner /= 2.0 * dx
    np.subtract(u[..., 1:2], u[..., :1], out=first)
    first /= dx
    np.subtract(u[..., -1:], u[..., -2:-1], out=last)
    last /= dx
    return out


def _check_batch(models: list[MarketModel], claim: claims.ClaimSpec,
                 grid: PdeGrid) -> None:
    if not models:
        raise ValueError("a batch needs at least one model")
    first = models[0]
    for k, model in enumerate(models):
        who = "model" if len(models) == 1 else f"scenario {k}"
        report = model.validate_necessary()
        if not report.passed:
            raise ValueError(f"{who} fails necessary rate conditions: "
                             + "; ".join(c.name for c in report.failures))
        if model.equity != first.equity:
            raise ValueError(f"{who}: a batch shares spot, sigma and drift")
        if model.rates.discount != first.rates.discount:
            raise ValueError(f"{who}: a batch shares the discount rate")
        if (model.credit is None) != (first.credit is None):
            raise ValueError(f"{who}: a batch needs a credit block in every "
                             "scenario or in none")
    x0 = math.log(first.equity.spot)
    if not grid.x_min < x0 < grid.x_max:
        raise ValueError("log-spot must lie strictly inside the grid")
    if abs(grid.maturity - claim.maturity) > 1e-12:
        raise ValueError("grid maturity must match the claim maturity")


def _march(models: list[MarketModel], claim: claims.ClaimSpec, grid: PdeGrid,
           keep: int):
    """Backward march of the agent and the (2K, nx) adjustment block.

    Keeps the time levels with t-index below ``keep``.  Returns the agent
    (keep, nx), the block (keep, 2K, nx), and per backward step and row the
    Picard iterations and final residuals, each (nt, 2K).
    """
    _check_batch(models, claim, grid)
    nx, nt = grid.nx, grid.nt
    dx, dt = grid.dx, grid.dt
    first = models[0]
    s = np.exp(grid.x_nodes())
    vanilla = claim.kind in ("call", "put")
    rows = _Rows(models, nx)

    agent = np.empty((keep, nx))
    block = np.empty((keep, rows.size, nx))
    iters = np.zeros((nt, rows.size), dtype=int)
    resids = np.zeros((nt, rows.size))

    agent_step = _Stepper(grid, first, zeroth=-first.rates.discount)
    adj_step = _Stepper(grid, first, zeroth=0.0)

    def drift_at(t: float, agent_row: np.ndarray):
        """The driver closure of a time level, fed by the agent mark and the
        log-space agent gradient there."""
        if vanilla:
            mark, delta = claims.agent_value_grid(first, claim, t, s)
            grad = s * delta
        else:
            mark, grad = agent_row, np.gradient(agent_row, dx)
        return rows.drift(t, mark, grad, dx)

    def picard(rhs_base, step, theta, u_start, t, drift, explicit_part):
        it, res, u, failed = _picard(adj_step, rhs_base, step, theta, u_start,
                                     drift, explicit_part)
        if failed:
            row, j = failed[0]
            raise not_converged("Picard iteration", rows.label(row),
                                f"t={t:.6g}", PICARD_MAX_ITER, j, s[j],
                                u[row, j], res[row], PICARD_TOL)
        return it, res, u

    # march tau = T - t from 0 to T; rows are stored by t-index
    t_levels = grid.t_nodes()
    a_old = np.empty(nx)
    a_old[:] = claim.payoff(s)
    u_old = np.zeros((rows.size, nx))
    u_older = u_old  # the level before u_old; the terminal one to start
    if nt < keep:
        agent[nt] = a_old
        block[nt] = u_old
    drift_old = drift_at(t_levels[nt], a_old)
    n_r = min(RANNACHER_STEPS, nt)
    try:
        for n in range(nt):
            i_new = nt - n - 1          # t-index being computed
            t_old = t_levels[i_new + 1]
            t_new = t_levels[i_new]
            rannacher = n < n_r
            if rannacher:
                a_half = agent_step.step_linear(a_old, 0.5 * dt, 1.0)
                a_new = agent_step.step_linear(a_half, 0.5 * dt, 1.0)
            else:
                a_new = agent_step.step_linear(a_old, dt, 0.5)
            drift_new = drift_at(t_new, a_new)

            if rannacher:
                # two implicit-Euler half-steps
                t_mid = 0.5 * (t_old + t_new)
                it1, res1, u_mid = picard(u_old, 0.5 * dt, 1.0, u_old, t_mid,
                                          drift_at(t_mid, a_half), 0.0)
                it2, res2, u_new = picard(u_mid, 0.5 * dt, 1.0, u_mid, t_new,
                                          drift_new, 0.0)
                it, res = np.maximum(it1, it2), np.maximum(res1, res2)
            else:
                g_old = drift_old(u_old, slice(None))
                rhs_base = u_old + 0.5 * dt * adj_step.apply(u_old)
                # start from the linear extrapolation of the last two levels
                it, res, u_new = picard(rhs_base, dt, 0.5, 2.0 * u_old - u_older,
                                        t_new, drift_new, 0.5 * dt * g_old)
            finite = np.all(np.isfinite(u_new), axis=1)
            if not finite.all():
                row = int(np.flatnonzero(~finite)[0])
                raise NumericsError(
                    f"non-finite values in the {rows.label(row)} surface at "
                    f"t={t_new:.6g} (last residual {res[row]:.3g})")
            if i_new < keep:
                agent[i_new] = a_new
                block[i_new] = u_new
            iters[n] = it
            resids[n] = res
            a_old, u_older, u_old, drift_old = a_new, u_old, u_new, drift_new
    except _NonFiniteRhs as exc:
        what = "agent" if exc.column is None else rows.label(exc.column)
        raise NumericsError(f"non-finite values in the {what} surface at "
                            f"t={t_new:.6g}") from exc
    return agent, block, iters, resids


def solve(model: MarketModel, claim: claims.ClaimSpec, grid: PdeGrid) -> PdeSolution:
    """Backward-solve the agent surface and both adjustment surfaces.

    Requires the model to pass the necessary-rate validator and the initial
    log-spot to lie strictly inside the grid.  The march of one scenario
    (K = 1); the solution keeps every time row.
    """
    agent, block, iters, resids = _march([model], claim, grid, grid.nt + 1)
    return PdeSolution(model=model, claim=claim, grid=grid, agent=agent,
                       seller=block[:, 0], buyer=block[:, 1],
                       picard_iterations=iters.max(axis=1),
                       picard_residuals=resids.max(axis=1))


def solve_batch(models: list[MarketModel], claim: claims.ClaimSpec,
                grid: PdeGrid) -> list[PdeSolution]:
    """Solve K scenarios on one grid in one march; one solution per model.

    The models must share the equity parameters, the discount rate and the
    presence of a credit block; they may differ in every other rate, credit
    parameter and the collateralization level.  Each solution equals
    :func:`solve` on its model alone, but keeps only the t = 0 and t = dt rows
    of its surfaces, which is what :func:`xva_at` and :func:`strategies` read
    at t = 0.  A Picard or finiteness failure names the side, the scenario's
    index and varied parameters and t; a Picard failure also its worst node,
    the stock level and value there, the last residual and the tolerance.
    """
    agent, block, iters, resids = _march(list(models), claim, grid, 2)
    count = len(models)
    return [PdeSolution(model=model, claim=claim, grid=grid, agent=agent.copy(),
                        seller=block[:, k].copy(),
                        buyer=block[:, count + k].copy(),
                        picard_iterations=np.maximum(iters[:, k],
                                                     iters[:, count + k]),
                        picard_residuals=np.maximum(resids[:, k],
                                                    resids[:, count + k]))
            for k, model in enumerate(models)]


def _picard(stepper: _Stepper, rhs_base: np.ndarray, dt: float, theta: float,
            u_start: np.ndarray, implicit_driver, explicit_part):
    """Per-row fixed point of (I - theta dt B) u = rhs_base + explicit + theta dt g(u).

    ``implicit_driver(u, rows)`` evaluates g on the given rows of the block.
    Runs :func:`settle` at PICARD_TOL; a non-finite right-hand side raises
    :class:`_NonFiniteRhs` naming its row of ``u_start``.
    """
    coef = theta * dt
    fixed = rhs_base + explicit_part

    def step(u, rows):
        rhs = fixed[rows] + coef * implicit_driver(u, rows)
        try:
            return solve_banded(stepper, coef, rhs.T).T
        except _NonFiniteRhs as exc:
            row = np.arange(len(fixed))[rows][exc.column]
            raise _NonFiniteRhs(int(row)) from None
    return settle(step, u_start, PICARD_TOL, PICARD_MAX_ITER)


def settle(step, u_start: np.ndarray, tol: float, max_iter: int):
    """Per-row fixed point of ``step`` on a (rows, nodes) block.

    ``step(u, rows)`` maps the values ``u`` of ``rows`` to their next
    iterate; ``rows`` is ``slice(None)`` while every row is live, then an
    index array.  A row is frozen once its own sup-norm change is below
    ``tol``, so it takes exactly the iterations, and gets exactly the
    values, of its fixed point alone.  A row whose change is not finite
    stops at once, its values left for the caller to report.  ``u_start`` is
    read, never written.  Returns per-row iteration counts and last changes,
    the solution, and a (row, node of its largest last change) pair for each
    finite row that did not converge within ``max_iter`` iterations.
    """
    iters = np.zeros(len(u_start), dtype=int)
    resid = np.zeros(len(u_start))
    rows = slice(None)
    u = u_start
    for it in range(1, max_iter + 1):
        current = u[rows]
        new = step(current, rows)
        change = new - current
        np.abs(change, out=change)
        res = change.max(axis=1)
        if isinstance(rows, slice):  # always so at it = 1: u_start stays
            u = new
        else:
            u[rows] = new
        iters[rows] = it
        resid[rows] = res
        # a list, not an array: on a lattice's two rows numpy's any/all cost
        # more per iteration than this loop; nan and inf fail both tests
        live = [tol <= r < math.inf for r in res.tolist()]
        if not any(live):
            return iters, resid, u, []
        if not all(live):
            rows = np.flatnonzero(live) if isinstance(rows, slice) else rows[live]
        if it < max_iter:
            # freed before the next step: a block held across the step's
            # temporaries makes the allocator trim and re-fault heap pages
            del change
    failed = np.arange(len(u))[rows]
    return iters, resid, u, list(zip(failed.tolist(),
                                     change[live].argmax(axis=1).tolist()))


def not_converged(what: str, label: str, where: str, max_iter: int, node: int,
                  s: float, u: float, residual: float,
                  tol: float) -> NumericsError:
    """The error of a fixed point whose ``label`` row did not settle at
    ``where``, naming the worst node, the stock level and value there."""
    return NumericsError(
        f"{what} did not converge on the {label} at {where} within {max_iter} "
        f"iterations: worst node {node} at s={s:.6g}, |u|={abs(u):.3g}, "
        f"last residual {residual:.3g} (tolerance {tol:g})")


def _bilinear(grid: PdeGrid, surf: np.ndarray, t: float, x: float) -> float:
    if not (0.0 <= t <= grid.maturity + 1e-12):
        raise ValueError(f"t={t} outside [0, {grid.maturity}]")
    if not (grid.x_min - 1e-12 <= x <= grid.x_max + 1e-12):
        raise ValueError(f"x={x} outside the grid")
    ti = min(max(t / grid.dt, 0.0), grid.nt)
    xi = min(max((x - grid.x_min) / grid.dx, 0.0), grid.nx - 1)
    i0 = min(int(ti), grid.nt - 1)
    if i0 + 1 >= surf.shape[0]:
        raise ValueError(f"t={t} lies beyond the {surf.shape[0]} time rows "
                         "this solution keeps")
    j0 = min(int(xi), grid.nx - 2)
    ft = ti - i0
    fx = xi - j0
    return float((1 - ft) * (1 - fx) * surf[i0, j0]
                 + (1 - ft) * fx * surf[i0, j0 + 1]
                 + ft * (1 - fx) * surf[i0 + 1, j0]
                 + ft * fx * surf[i0 + 1, j0 + 1])


def xva_at(solution: PdeSolution, t: float, s: float, side: str) -> float:
    """Adjustment surface sampled at (t, s) by bilinear interpolation."""
    return _bilinear(solution.grid, solution.surface(side), t, math.log(s))


def strategies(solution: PdeSolution, t: float, s: float,
               side: str) -> drivers.ReplicationStrategy:
    """Replication portfolio at (t, s) from the discrete adjustment surface.

    The stock holding is the interpolated log-space gradient divided by the
    stock level; nodes on the spatial boundary use one-sided differences and
    are flagged.
    """
    grid = solution.grid
    surf = solution.surface(side)
    x = math.log(s)
    grad = np.gradient(surf, grid.dx, axis=1)
    u = _bilinear(grid, surf, t, x)
    ux = _bilinear(grid, grad, t, x)
    mark = claims.agent_value(solution.model, solution.claim, t, s).value \
        if solution.claim.kind in ("call", "put") else _bilinear(grid, solution.agent, t, x)
    on_boundary = (x - grid.x_min < grid.dx) or (grid.x_max - x < grid.dx)
    return drivers.build_strategy(solution.model, solution.claim, side, t, s,
                                  adjustment=u, mark=mark,
                                  stock_shares=ux / s, boundary=on_boundary)


@dataclass(frozen=True)
class ConvergenceRow:
    nx: int
    nt: int
    error: float
    order: float | None = field(default=None)


def convergence_study(model: MarketModel, claim: claims.ClaimSpec,
                      grids: list[tuple[int, int]], side: str,
                      reference) -> list[ConvergenceRow]:
    """Errors of the adjustment at (0, spot) against a reference callable.

    ``reference(model, claim)`` must return the exact adjustment at time zero
    and the initial spot. Consecutive rows report the empirical order under
    joint refinement.
    """
    s0 = model.equity.spot
    exact = reference(model, claim)
    rows: list[ConvergenceRow] = []
    prev_err = None
    for nx, nt in grids:
        grid = PdeGrid.default_for(model, claim, nx=nx, nt=nt)
        sol = solve(model, claim, grid)
        err = abs(xva_at(sol, 0.0, s0, side) - exact)
        order = None
        if prev_err is not None and err > 0.0 and prev_err > 0.0:
            order = math.log(prev_err / err) / math.log(2.0)
        rows.append(ConvergenceRow(nx=nx, nt=nt, error=err, order=order))
        prev_err = err
    return rows
