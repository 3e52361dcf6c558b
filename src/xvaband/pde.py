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
contracts for any reasonable step size.  A row has converged when its
sup-norm change is below ``PICARD_TOL`` times the claim's strike, a test in
units of the strike, so scaling spot and strike scales the test with the
values.  Every Crank-Nicolson step after the
implicit-Euler start begins the iteration at 2 u_old - u_older, the linear
extrapolation of the last two time levels.  The matrix (I - theta dt B) of
each implicit coefficient is LU-factored once (LAPACK ``dgttrf``), and every
solve reuses the factors (``dgttrs``).  Boundary conditions impose linearity
in the stock (payoffs and adjustments are asymptotically linear there), via
second-order ghost-node elimination.

The spatial operator depends only on the grid, sigma and the discount rate,
and the agent surface only on those and the claim.  Scenarios that share
them and the presence of a credit block (:func:`march_key`) are therefore
marched together as the rows of one (2K, nx) block: rows 0..K-1 are the
seller sides of the K scenarios, rows K..2K-1 their buyer sides, in the same
order.  Each backward step marches the agent once, evaluates the mark and
delta once and builds from them the driver terms that the mark alone fixes
(funding offset, collateral legs, carry, close-out targets); the driver of
one time level is spent on the next step's explicit part before that step
builds its own terms, so one level of terms is alive at a time.  Each
Picard iteration then makes one driver call for the live rows, which adds
only the exposure z, the repo legs and the step in u, gathering the live
rows' terms as it reads them, and one banded solve of their transpose.
The driver reads one :class:`drivers.DriverParams` record of the block, in
which a parameter that differs between scenarios has one entry per row, and
reflects the buyer rows itself.  Picard runs per row through
:func:`settle` from a start computed per node: a row is frozen as soon as
its own residual is below tolerance, so it takes exactly the iterations, and
gets exactly the values, of its own single-scenario solve.  :func:`solve` is this march with K = 1 and keeps the
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
                    nx: int, nt: int) -> "PdeGrid":
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


def solve_banded(stepper: _Stepper, coef: float, b: np.ndarray,
                 overwrite: bool = False) -> np.ndarray:
    """Solve (I - coef * B) x = b with the stepper's LU factors of that matrix.

    ``b`` is one column, shape (nx,), or a block of columns, shape (nx, k),
    such as the transpose of a (k, nx) block of rows.  A
    right-hand side holding NaN or inf is refused with :class:`_NonFiniteRhs`
    naming its first such column.  The factors come from partial pivoting as
    in ``scipy.linalg.solve_banded``, whose tridiagonal path (LAPACK
    ``dgtsv``) does the same arithmetic, so the two agree bit for bit.
    With ``overwrite``, a ``b`` in Fortran order holds the solution on
    return, and no copy of it is made.
    """
    finite = np.isfinite(b)
    if not finite.all():
        column = None
        if b.ndim == 2:
            column = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise _NonFiniteRhs(column)
    x, info = dgttrs(*stepper.factors(coef), b, overwrite_b=overwrite)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dgttrs")
    return x


def march_key(model: MarketModel) -> tuple:
    """What the models of one batched march share, as (name, value) pairs.

    The stock levels, the agent's mark and the PDE operator read the equity
    and the discount rate; the driver terms of a block take close-out
    targets in every row or in none.  Models whose keys are equal may be
    marched together, by either engine.
    """
    return (("spot, sigma and drift", model.equity),
            ("discount rate", model.rates.discount),
            ("presence of a credit block", model.credit is None))


class Rows:
    """The 2K rows of a march of K scenarios: sellers 0..K-1, then buyers.

    Refuses an empty batch and one whose models differ in their
    :func:`march_key`, naming the first scenario that does, and a model that
    fails a necessary rate condition: ``allow_violations`` builds such a
    model, but neither engine values it.
    """

    def __init__(self, models: list[MarketModel]):
        if not models:
            raise ValueError("a batch needs at least one model")
        shared = march_key(models[0])
        for k, model in enumerate(models):
            for (what, value), (_, first) in zip(march_key(model), shared):
                if value != first:
                    raise ValueError(f"scenario {k}: a batch shares the {what}")
        self.count = len(models)
        self.size = 2 * self.count
        self.params = drivers.DriverParams.stack(models)
        # the parameters a batch may vary, by name, for the labels
        per_model = [{**vars(m.rates), "alpha": m.alpha,
                      **(vars(m.credit) if m.credit else {})} for m in models]
        self.varied = {name: [p[name] for p in per_model]
                       for name, value in per_model[0].items()
                       if any(p[name] != value for p in per_model)}
        for k, model in enumerate(models):
            report = model.validate_necessary()
            if not report.passed:
                who = "model" if self.count == 1 else f"scenario {k}"
                raise ValueError(f"{who} fails necessary rate conditions: "
                                 + "; ".join(c.name for c in report.failures))

    def scenario(self, k: int) -> str:
        """Index and varied parameters of scenario k of a batch; "" alone."""
        if self.count == 1:
            return ""
        varied = ", ".join(f"{name}={values[k]:g}"
                           for name, values in self.varied.items())
        return f"scenario {k}" + (f" ({varied})" if varied else "")

    def label(self, row: int) -> str:
        """Side and, in a batch, scenario index and varied parameters of a row."""
        side = drivers.SIDES[row // self.count]
        scenario = self.scenario(row % self.count)
        return f"{side} side" + (f" of {scenario}" if scenario else "")


class _Rows(Rows):
    """The adjustment rows of a PDE march and the driver of a time level."""

    def __init__(self, models: list[MarketModel], nx: int):
        super().__init__(models)
        self._z = np.empty(nx * self.size)  # the exposure of one driver call

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
            terms = drivers.with_repo_legs(params, level.at(rows), z)
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
    x0 = math.log(models[0].equity.spot)
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
    rows = _Rows(models, grid.nx)
    _check_batch(models, claim, grid)
    nx, nt = grid.nx, grid.nt
    dx, dt = grid.dx, grid.dt
    first = models[0]
    s = np.exp(grid.x_nodes())
    vanilla = claim.kind in ("call", "put")

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

    tol = PICARD_TOL * claim.strike  # the test is in units of the strike

    def picard(fixed, step, theta, u_start, t, drift):
        it, res, u, failed = _picard(adj_step, fixed, step, theta, u_start,
                                     drift, tol=tol)
        if failed:
            row, j = failed[0]
            raise NumericsError(
                f"Picard iteration did not converge on the {rows.label(row)} "
                f"at t={t:.6g} within {PICARD_MAX_ITER} iterations: worst node "
                f"{j} at s={s[j]:.6g}, |u|={abs(u[row, j]):.3g}, last residual "
                f"{res[row]:.3g} (tolerance {tol:g})")
        return it, res, u

    # march tau = T - t from 0 to T; rows are stored by t-index.  One level
    # of driver terms is alive at a time: the old level's driver is spent on
    # the explicit part before the new level is built.
    t_levels = grid.t_nodes()
    a_old = np.empty(nx)
    a_old[:] = claim.payoff(s)
    u_old = np.zeros((rows.size, nx))
    u_older = u_old  # the level before u_old; the terminal one to start
    if nt < keep:
        agent[nt] = a_old
        block[nt] = u_old
    drift_old = None  # the driver at u_old's level, once a step has built it
    n_r = min(RANNACHER_STEPS, nt)
    try:
        for n in range(nt):
            i_new = nt - n - 1          # t-index being computed
            t_old = t_levels[i_new + 1]
            t_new = t_levels[i_new]
            if n < n_r:
                # two implicit-Euler half-steps
                drift_old = None
                t_mid = 0.5 * (t_old + t_new)
                a_half = agent_step.step_linear(a_old, 0.5 * dt, 1.0)
                it1, res1, u_mid = picard(u_old, 0.5 * dt, 1.0, u_old, t_mid,
                                          drift_at(t_mid, a_half))
                a_new = agent_step.step_linear(a_half, 0.5 * dt, 1.0)
                drift_new = drift_at(t_new, a_new)
                it2, res2, u_new = picard(u_mid, 0.5 * dt, 1.0, u_mid, t_new,
                                          drift_new)
                del u_mid
                it, res = np.maximum(it1, it2), np.maximum(res1, res2)
            else:
                # fixed = (u_old + dt/2 B u_old) + dt/2 g_old, summed in place
                if drift_old is None:
                    drift_old = drift_at(t_old, a_old)
                explicit = drift_old(u_old, slice(None))
                drift_old = None
                explicit *= 0.5 * dt
                fixed = adj_step.apply(u_old)
                fixed *= 0.5 * dt
                fixed += u_old
                fixed += explicit
                del explicit
                # start from the linear extrapolation of the last two levels
                u_start = 2.0 * u_old
                u_start -= u_older
                u_older = None
                a_new = agent_step.step_linear(a_old, dt, 0.5)
                drift_new = drift_at(t_new, a_new)
                it, res, u_new = picard(fixed, dt, 0.5, u_start, t_new,
                                        drift_new)
                del fixed, u_start
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
            del drift_new
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

    The models must share what :func:`march_key` names: the equity
    parameters, the discount rate and the presence of a credit block; they
    may differ in every other rate, credit parameter and the
    collateralization level.  Each solution equals
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
            u_start: np.ndarray, implicit_driver, explicit_part=None,
            tol: float = PICARD_TOL):
    """Per-row fixed point of (I - theta dt B) u = rhs_base + explicit + theta dt g(u).

    ``implicit_driver(u, rows)`` evaluates g on the given rows of the block
    and returns a new array, which the step then overwrites.  Without an
    ``explicit_part`` the right-hand side's fixed part is ``rhs_base``
    itself, read and never written.  Runs :func:`settle` at ``tol``; a
    non-finite right-hand side raises :class:`_NonFiniteRhs` naming its row
    of ``u_start``.
    """
    coef = theta * dt
    fixed = rhs_base if explicit_part is None else rhs_base + explicit_part

    def step(u, rows):
        rhs = implicit_driver(u, rows)
        rhs *= coef
        rhs += fixed[rows]
        try:
            return solve_banded(stepper, coef, rhs.T, overwrite=True).T
        except _NonFiniteRhs as exc:
            row = np.arange(len(fixed))[rows][exc.column]
            raise _NonFiniteRhs(int(row)) from None
    return settle(step, u_start, tol, PICARD_MAX_ITER)


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
        # a list, not an array: on the two rows of a single point numpy's
        # any/all cost more per iteration than this loop; nan and inf fail
        # both tests
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
