"""Finite-difference engine for the coupled semilinear valuation-adjustment PDEs.

On a log-price grid, uniform in space and graded in time, the engine marches
backward from maturity with a Crank-Nicolson scheme (implicit-Euler
half-steps at start-up to damp payoff-kink oscillations):

* the seller and buyer adjustment surfaces, semilinear problems whose source
  is the reduced driver evaluated at the full-portfolio diffusion exposure
  (adjustment gradient plus the agent's delta);
* for a custom claim, the agent surface (the public mark of the claim), a
  linear problem.  A call or put marches no agent surface: its mark and
  delta are the closed forms (:func:`claims.agent_value_grid`).

Every step of the march is one theta step of the block (for a custom claim,
after one of the agent), (I - theta dt B) u = fixed + theta dt g(u), whose
nonlinearity is resolved by fixed-point (Picard) iteration; the drivers
are globally Lipschitz, so the iteration contracts for any reasonable step
size.  The driver's linear part, -c u + kappa G u
(:func:`_operator_split`), sits in the operator B' = B - c + kappa G, and
Picard iterates on the remainder g(u) + c u - kappa G u: the same discrete
equation, with a remainder that is zero, up to rounding, at equal lend and
borrow rates.  Each of the first
``RANNACHER_STEPS`` steps is two half-steps with theta = 1 and fixed =
u_start = the level the half-step starts from; every later step has theta =
1/2 and fixed = u_old + dt/2 (B' u_old + g'(u_last)), the explicit half at
the old level, and starts at u_old + r (u_old - u_older), r = dtau_new /
dtau_old, the linear extrapolation of the last two time levels.  The
explicit half is read off the previous step's last solve, (I - c' B') u_old
= fixed' + c' g'(u_last), in which c' = dtau_old / 2, g' is the old level's
remainder and u_last the iterate that the solve took: it is r (u_old -
fixed'), so a step takes no band product and no driver call beyond its
Picard iterations.  Each row's equation is its own last solve's, also where
:func:`settle` froze it early, and a custom claim's agent surface, a
linear march, reads its explicit half off its own last solve alike.  A row
has converged when the estimated error of its iterate is below ``PICARD_TOL``
times the claim's strike, a test in units of the strike, so scaling spot
and strike scales the test with the values.  The estimate is rho / (1 -
rho) times the row's sup-norm change, with rho the ratio of its last two
changes, or the change itself where that is smaller or rho is not below 1
(:func:`settle`); the remainder contracts fast, so a row stops without one
more solve to confirm a fixed point that it already holds.  A row whose
own lend/borrow legs are both linear has a remainder that does not depend
on u but through rounding, so its first iterate is its fixed point, and
it stops there.  The time to maturity of level n of N is
tau_n = T (n / N)^1.5 (``TIME_GRADING``): the steps are small next to
maturity, where the payoff and collateral kinks are, and grow toward t = 0.
The sequence depends only on T and N, so every scenario of a batch shares
it.  The matrix (I - theta dt B') of a step's implicit coefficient is
LU-factored once (LAPACK ``dgttrf``), and every solve of the step reuses
the factors (``dgttrs``).  Boundary conditions impose linearity in the
stock (payoffs and adjustments are asymptotically linear there), via
second-order ghost-node elimination.

The spatial operator depends only on the grid, sigma and the discount rate,
and the agent surface only on those and the claim.  Scenarios that share
them and the presence of a credit block (:func:`march_key`) are therefore
marched together as the rows of one (2K, nx) block: rows 0..K-1 are the
seller sides of the K scenarios, rows K..2K-1 their buyer sides, in the
same order, with the models of equal (c, kappa) next to each other
(:func:`_row_groups`): each such group of rows has its own operator, and
the results come back in the given order.  Each theta step takes the mark
and delta once, from the closed forms or the custom claim's agent step,
and builds from them the two fields of the driver that the mark alone
fixes: ``base`` (collateral legs,
carry, close-out targets) and ``at_zero`` (the funding account at u = 0) of
its affine form (:func:`drivers.affine_rates`).  Each kink of the driver
is a per-row pair of rates chosen by the sign of one quantity,
``np.where(x > 0, *pair) * x`` (:func:`drivers.kinked`): the mark for the two
fields, the stock position for the repo leg and the funding account for
its leg.  The march builds every pair once (:func:`_remainder`), a buyer
row's swapped (:func:`drivers.sided`), since it takes the seller's branches
at the reflected argument, and a level only the two fields
(:func:`drivers.mark_fields`).
The driver of one level is dropped at the end of its own step, so one
level of terms is alive at a time.  Each Picard iteration makes one driver
call on the whole block, ``base + repo_net(z) - rate(a) a - pull u`` with
``a = at_zero + slope u`` less the operator's part, from the two fields,
the stock position and u, one selection per kink, and one banded solve of
its transpose, each group's range of columns in place.  A repo leg whose lend
and borrow rates are equal in every row of the march
(:func:`drivers.linear_legs`, read once per march) adds exactly 0 once
kappa is in the operator, so the call skips it and the gradient of u.
The driver reads one per-march record of the block's rates
(:class:`_Remainder`), in which a rate that differs between scenarios has
one entry per row.
Picard runs per row through :func:`settle` from a start computed per node: a
row is frozen as soon as its own estimate is below tolerance, and keeps its
values while the others iterate, so it takes exactly the iterations, and
gets exactly the values, of its own single-scenario solve.
The columns of a banded solve are independent, so a row that turns
non-finite spoils only itself, and :func:`settle` stops it without raising.
After each time level the march checks the agent row, the closed-form
mark or the marched surface, then every row of the block, naming the
surface and t of the first non-finite values.
:func:`solve` is this march with K = 1 and keeps the full surfaces;
:func:`solve_batch` keeps only the first two time levels, which valuation
and hedging at t = 0 read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import claims, drivers
from .market import MarketModel

PICARD_TOL = 1e-10
PICARD_MAX_ITER = 50
RANNACHER_STEPS = 2  # leading full steps replaced by implicit-Euler half-steps
TIME_GRADING = 1.5   # tau_n = T (n / N)^TIME_GRADING: small steps near maturity


class NumericsError(RuntimeError):
    """A solve failed to converge or produced non-finite values."""


@dataclass(frozen=True)
class PdeGrid:
    """Log-price mesh, uniform in space and graded in time (:meth:`t_nodes`)."""

    x_min: float
    x_max: float
    nx: int
    nt: int
    maturity: float

    def __post_init__(self) -> None:
        for name, least in (("nx", 3), ("nt", 1)):
            size = getattr(self, name)
            if not isinstance(size, (int, np.integer)) or size < least:
                raise ValueError(f"{name} must be >= {least} and an integer, "
                                 f"got {size!r}")
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise ValueError("x_min must be below x_max, both finite, got "
                             f"{self.x_min!r} and {self.x_max!r}")
        if not 0.0 < self.maturity < math.inf:
            raise ValueError("maturity must be positive and finite, got "
                             f"{self.maturity!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def t_nodes(self) -> np.ndarray:
        """The nt + 1 time levels, ascending from 0 to the maturity exactly.

        Level i lies at t = T - tau with tau = T ((nt - i) / nt)^TIME_GRADING,
        so the steps shrink toward maturity.
        """
        n_left = np.arange(self.nt, -1, -1) / self.nt
        return self.maturity - self.maturity * n_left ** TIME_GRADING

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

    ``agent`` holds, for a call or put, the closed-form mark at the kept
    levels (:func:`claims.agent_value_grid`), and for a custom claim its
    marched agent surface.  A solution from :func:`solve_batch` keeps only
    the first two time levels; sampling it at a later time raises
    ValueError.
    """

    model: MarketModel
    claim: claims.ClaimSpec
    grid: PdeGrid
    agent: np.ndarray
    seller: np.ndarray
    buyer: np.ndarray
    picard_iterations: np.ndarray  # per backward step, max over both sides
    picard_residuals: np.ndarray   # per backward step, the max over both sides
    # of the estimated error each row's Picard loop stopped on (pde.settle)

    def surface(self, side: str) -> np.ndarray:
        drivers._check_side(side)
        return self.seller if side == drivers.SELLER else self.buyer


def _spatial_operator(grid: PdeGrid, model: MarketModel, zeroth: float,
                      kappa: float = 0.0):
    """Tridiagonal bands (lower, diag, upper) of the space operator.

    Interior rows discretize the diffusion/drift generator in log-space plus
    a zeroth-order coefficient.  Boundary rows impose linearity in the stock
    (vanishing second derivative in spot coordinates, u_xx = u_x in
    log-space) by eliminating a ghost node, which keeps the scheme
    tridiagonal and second-order up to the edge.  ``kappa`` times the
    stencil of :func:`_gradient` is added to the bands.
    """
    nx = grid.nx
    dx = grid.dx
    sigma = model.equity.sigma
    mu = model.rates.discount - 0.5 * sigma * sigma
    s2 = 0.5 * sigma * sigma / (dx * dx)
    s1 = 0.5 * mu / dx
    half = kappa / (2.0 * dx)  # G's weight inside; twice that at the edges
    lower = np.full(nx, s2 - s1 - half)
    diag = np.full(nx, -2.0 * s2 + zeroth)
    upper = np.full(nx, s2 + s1 + half)
    # ghost below: u[-1] = (2 u0 - (1 - dx/2) u1) / (1 + dx/2)
    ga = 2.0 / (1.0 + 0.5 * dx)
    gb = -(1.0 - 0.5 * dx) / (1.0 + 0.5 * dx)
    diag[0] = s2 * (ga - 2.0) - s1 * ga + zeroth - 2.0 * half
    upper[0] = s2 * (1.0 + gb) + s1 * (1.0 - gb) + 2.0 * half
    lower[0] = 0.0
    # ghost above: u[n] = (2 u[n-1] - (1 + dx/2) u[n-2]) / (1 - dx/2)
    ha = 2.0 / (1.0 - 0.5 * dx)
    hb = -(1.0 + 0.5 * dx) / (1.0 - 0.5 * dx)
    diag[-1] = s2 * (ha - 2.0) + s1 * ha + zeroth + 2.0 * half
    lower[-1] = s2 * (1.0 + hb) + s1 * (hb - 1.0) - 2.0 * half
    upper[-1] = 0.0
    return lower, diag, upper


class _Stepper:
    """The implicit operators of theta steps of (d/d tau) u = B u + source.

    Each of ``groups``, ranges of rows and their (rate, kappa), has its own
    operator B - rate + kappa G (by default one group of every row with B
    itself), whose (I - coef B) is LU-factored when coef changes; only the
    last coefficient's factors are kept: every step of a graded march has
    its own.  A step's explicit part is read off the previous step's own
    equation (:func:`_march`), so no band product is taken.
    """

    def __init__(self, grid: PdeGrid, model: MarketModel, zeroth: float,
                 groups=(((slice(None),), 0.0, 0.0),)):
        self.groups = [(ranges, _spatial_operator(grid, model, zeroth - c, k))
                       for ranges, c, k in groups]
        self.nx = grid.nx
        self._coef: float | None = None
        self._lu: list = []

    def factors(self, coef: float) -> list:
        """Per group, its ranges of rows and the LAPACK ``dgttrf`` LU
        factors of its (I - coef * B), kept for the last coef."""
        if coef != self._coef:
            self._lu = []
            for ranges, (lower, diag, upper) in self.groups:
                *lu, info = dgttrf(-coef * lower[1:], 1.0 - coef * diag,
                                   -coef * upper[:-1])
                if info:
                    raise np.linalg.LinAlgError("singular matrix")
                self._lu.append((ranges, tuple(lu)))
            self._coef = coef
        return self._lu


def solve_banded(stepper: _Stepper, coef: float, b: np.ndarray,
                 overwrite: bool = False) -> np.ndarray:
    """Solve (I - coef * B) x = b with the stepper's LU factors of that matrix.

    ``b`` is one column, shape (nx,), or a block of columns, shape (nx, k),
    such as the transpose of a (k, nx) block of rows; each group of the
    stepper solves its ranges of columns in place, one LAPACK call each.  The
    columns are solved independently, so NaN or inf in one column spoils
    that column alone; the caller checks what it keeps.  The factors come
    from partial pivoting as in ``scipy.linalg.solve_banded``, whose
    tridiagonal path (LAPACK ``dgtsv``) does the same arithmetic, so the two
    agree bit for bit.  With ``overwrite``, a float64 ``b`` in Fortran order
    holds the solution on return, and no copy of it is made; any other ``b``
    is copied to float64 and left as it is.
    """
    x = (b if overwrite and b.dtype == np.float64 and b.flags.f_contiguous
         else np.array(b, dtype=np.float64, order="F"))
    for ranges, lu in stepper.factors(coef):
        for rows in ranges:
            _, info = dgttrs(*lu, x[..., rows], overwrite_b=True)
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
    return (("spot and sigma", model.equity),
            ("discount rate", model.rates.discount),
            ("presence of a credit block", model.credit is None))


class Rows:
    """The 2K rows of a march of K scenarios: sellers 0..K-1, then buyers,
    each in the march's ``order`` of the scenarios (by default as given), so
    rows r and K + r are the sides of scenario ``order[r]``.

    Refuses an empty batch and one whose models differ in their
    :func:`march_key`, naming the first scenario that does, and a model that
    fails a necessary rate condition: ``allow_violations`` builds such a
    model, but neither engine values it.
    """

    def __init__(self, models: list[MarketModel], order=None):
        if not models:
            raise ValueError("a batch needs at least one model")
        shared = march_key(models[0])
        for k, model in enumerate(models):
            for (what, value), (_, first) in zip(march_key(model), shared):
                if value != first:
                    raise ValueError(f"scenario {k}: a batch shares the {what}")
        self.count = len(models)
        self.size = 2 * self.count
        self.order = list(range(self.count) if order is None else order)
        self.params = drivers.DriverParams.stack([models[k]
                                                  for k in self.order])
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
        """Index and varied parameters of given scenario k; "" alone."""
        if self.count == 1:
            return ""
        varied = ", ".join(f"{name}={values[k]:g}"
                           for name, values in self.varied.items())
        return f"scenario {k}" + (f" ({varied})" if varied else "")

    def label(self, row: int) -> str:
        """Side and, in a batch, given scenario index and varied parameters
        of a row."""
        side = drivers.SIDES[row // self.count]
        scenario = self.scenario(self.order[row % self.count])
        return f"{side} side" + (f" of {scenario}" if scenario else "")


def _operator_split(p: drivers.DriverParams):
    """``(rate, kappa)`` of the driver's linear part ``-rate u + kappa G u``,
    its u-terms averaged over the lend/borrow branches, per model or row:
    ``rate = slope (fund_lend + fund_borrow) / 2 + pull``
    (:func:`drivers.affine_rates`), ``kappa = (repo_lend + repo_borrow) / 2 -
    discount`` and G the stencil of :func:`_gradient`.  A buyer row shares
    its seller's."""
    slope, pull = drivers.affine_rates(p)
    return (slope * (0.5 * (p.fund_lend + p.fund_borrow)) + pull,
            0.5 * (p.repo_lend + p.repo_borrow) - p.discount)


def _row_groups(models: list[MarketModel]):
    """The order in which a march takes the models, models of equal
    :func:`_operator_split` next to each other, and its groups of rows as
    ``(ranges, rate, kappa)``: a range of sellers and one of buyers per
    split, or every row when all the models share one."""
    count = len(models)
    splits = [_operator_split(drivers.DriverParams.of(m, drivers.SELLER))
              for m in models]
    kinds = list(dict.fromkeys(splits))
    order = sorted(range(count), key=lambda k: kinds.index(splits[k]))
    if len(kinds) == 1:
        return order, [((slice(None),), *kinds[0])]
    ends = np.cumsum([0] + [splits.count(kind) for kind in kinds]).tolist()
    return order, [((slice(a, b), slice(count + a, count + b)), *kind)
                   for a, b, kind in zip(ends, ends[1:], kinds)]


class _Remainder(NamedTuple):
    """The per-row constants of :func:`_level_driver` that no level
    changes, built once per march by :func:`_remainder`.

    ``base`` and ``at_zero`` are the rate pairs of the affine form's fields
    (:func:`drivers.mark_coefficients`); ``kappa`` is the operator's share
    of the repo legs; ``pull`` is the pull of :func:`drivers.affine_rates`
    less the operator's rate; ``repo`` is the rate pair of the stock
    position, the repo rates less the discount rate and kappa, or None
    where the repo leg is linear and kappa its rate less the discount rate,
    so that both are exactly 0; ``funding`` is the rate pair of the funding
    account.  Each pair is :func:`drivers.sided`, so a buyer row's is
    swapped.
    """

    base: tuple
    at_zero: tuple
    kappa: float | np.ndarray
    slope: float
    pull: float | np.ndarray
    repo: tuple | None
    funding: tuple


def _remainder(params: drivers.DriverParams, split: bool = True) -> _Remainder:
    """The :class:`_Remainder` of the rows of ``params`` once the
    :func:`_operator_split` sits in the implicit operator, or without
    ``split`` of the driver g itself."""
    rate, kappa = _operator_split(params) if split else (0.0, 0.0)
    slope, pull = drivers.affine_rates(params)
    repo = None if split and drivers.linear_legs(params)[0] else drivers.sided(
        params, params.repo_borrow - params.discount - kappa,
        params.repo_lend - params.discount - kappa)
    return _Remainder(*drivers.mark_coefficients(params), kappa, slope,
                      pull - rate, repo,
                      drivers.sided(params, params.fund_lend, params.fund_borrow))


def _linear_rows(params: drivers.DriverParams, size: int) -> list[bool]:
    """Per row of the block, whether both its own lend/borrow legs are
    linear: equal rates, exactly, in that row.  Once the
    :func:`_operator_split` sits in the operator, such a row's remainder
    does not depend on u but through rounding, so Picard's map contracts
    by 0 there (:func:`settle`); the flag is the row's own, so a row stops
    alike in any batch."""
    linear = (np.equal(params.repo_lend, params.repo_borrow)
              & np.equal(params.fund_lend, params.fund_borrow))
    return np.broadcast_to(linear, (size, 1))[:, 0].tolist()


def _level_driver(rest: _Remainder, mark: np.ndarray, grad: np.ndarray,
                  dx: float):
    """The reduced driver of one time level as a function of the block u.

    In the seller's terms the driver is ``base + repo_net(z) - rate(a) a -
    pull u`` with ``a = at_zero + slope u`` (:func:`drivers.affine_rates`).
    ``base`` and ``at_zero`` are built once per level from the mark and the
    march's per-row pairs (:func:`drivers.mark_fields`).  Each call takes
    the stock position z / sigma and the account a each at the rate of its
    side of zero, one :func:`drivers.kinked` of the row's pair: a buyer row's
    pair is swapped, since it takes the seller's branches at the reflected
    argument, and a node's product is its branch's alone, so no two rates
    cancel as in ``fund_borrow a + (fund_lend - fund_borrow) a⁺``.

    ``rest``, the march's :func:`_remainder`, makes it the remainder ``g(u)
    + rate u - kappa G u``: ``kappa grad`` joins ``base``, the repo legs run
    at their rates less kappa and the pull is ``pull - rate``.  A linear
    repo leg's rates less kappa are exactly 0, so its kink, the gradient of
    u and the stock position are skipped: ``out`` starts as ``base + 0.0``,
    and the kink, where taken, is added to that.
    """
    base, at_zero = drivers.mark_fields((rest.base, rest.at_zero), mark)
    # per level, not per march: freed with the fields, it leaves room for
    # the next level's temporaries, which would otherwise grow the heap and
    # fault its pages anew at every level
    other = np.empty_like(base)
    base += np.multiply(rest.kappa, grad, out=other)
    account = np.add if rest.slope > 0.0 else np.subtract

    def g(u: np.ndarray) -> np.ndarray:
        # + 0.0 turns a -0.0 into +0.0, so a skipped linear repo leg, whose
        # product is 0.0 or -0.0 by the sign of z, moves no bit
        out = np.add(base, 0.0)
        if rest.repo is not None:
            y = _gradient(u, dx, other)
            y += grad
            out += drivers.kinked(rest.repo, y)
        out -= drivers.kinked(rest.funding, account(at_zero, u, out=other))
        # the pull toward a credit block's close-outs, less rate
        out -= np.multiply(rest.pull, u, out=other)
        return out
    return g


def _gradient(u: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """``np.gradient(u, dx, axis=-1)``, the same arithmetic written into
    ``out``: central differences inside, one-sided ones at the two edges.
    ``out`` is C-contiguous, as ``np.empty_like`` makes it."""
    # the central differences of the whole block in one pass over it read
    # flat; across a row boundary they span two rows, and the edges below
    # overwrite those cells
    flat, inner = u.reshape(-1), out.reshape(-1)[1:-1]
    np.subtract(flat[2:], flat[:-2], out=inner)
    inner /= 2.0 * dx
    first, last = out[..., :1], out[..., -1:]
    np.subtract(u[..., 1:2], u[..., :1], out=first)
    first /= dx
    np.subtract(u[..., -1:], u[..., -2:-1], out=last)
    last /= dx
    return out


def _march(models: list[MarketModel], claim: claims.ClaimSpec, grid: PdeGrid,
           keep: int):
    """Backward march of the (2K, nx) adjustment block and, for a custom
    claim, of the agent surface; a call or put takes each level's agent row
    from the closed-form mark and delta that its driver reads.

    Keeps the time levels with t-index below ``keep``.  Returns the agent
    (keep, nx), the block (keep, 2K, nx), per backward step and row the
    Picard iterations and final residuals, each (nt, 2K), and the march's
    order of the scenarios (:func:`_row_groups`), in which the block's rows
    are (:class:`Rows`).
    """
    order, groups = _row_groups(models)
    rows = Rows(models, order)
    params = rows.params
    # the given row of each row of the march, so a message names the first
    given = np.concatenate([order, np.add(order, len(models))])
    first = models[0]
    if not grid.x_min < math.log(first.equity.spot) < grid.x_max:
        raise ValueError("log-spot must lie strictly inside the grid")
    if abs(grid.maturity - claim.maturity) > 1e-12:
        raise ValueError("grid maturity must match the claim maturity")
    nx, nt = grid.nx, grid.nt
    dx = grid.dx
    s = np.exp(grid.x_nodes())
    vanilla = claim.kind in ("call", "put")

    agent = np.empty((keep, nx))
    block = np.empty((keep, rows.size, nx))
    iters = np.zeros((nt, rows.size), dtype=int)
    resids = np.zeros((nt, rows.size))

    if not vanilla:
        agent_step = _Stepper(grid, first, zeroth=-first.rates.discount)
    adj_step = _Stepper(grid, first, zeroth=0.0, groups=groups)
    tol = PICARD_TOL * claim.strike  # the test is in units of the strike
    rest = _remainder(params)
    exact = _linear_rows(params, rows.size)

    def step(a_fixed, fixed, u_start, t, dt, theta):
        """The theta step to t from the fixed parts of the agent's and the
        block's equations: the agent, and Picard's counts, residuals and
        block from u_start.  The level's driver is dropped on return."""
        if vanilla:
            a_new, delta = claims.agent_value_grid(first, claim, t, s)
            grad = s * delta
        else:
            a_new = solve_banded(agent_step, theta * dt, a_fixed)
            grad = np.gradient(a_new, dx)
        drift = _level_driver(rest, a_new, grad, dx)
        it, res, u, failed = _picard(adj_step, fixed, dt, theta, u_start,
                                     drift, tol=tol, exact=exact)
        if failed:
            row, j = min(failed, key=lambda f: given[f[0]])
            raise NumericsError(
                f"Picard iteration did not converge on the {rows.label(row)} "
                f"at t={t:.6g} within {PICARD_MAX_ITER} iterations: worst node "
                f"{j} at s={s[j]:.6g}, |u|={abs(u[row, j]):.3g}, last residual "
                f"{res[row]:.3g} (tolerance {tol:g})")
        return a_new, it, res, u

    # march tau = T - t from 0 to T; rows are stored by t-index.  fixed and
    # a_fixed hold the fixed parts of the last solves of the block and of
    # the agent, whose coefficient c' is dt_old / 2 after a half-step and a
    # Crank-Nicolson step alike, so the next explicit half, dt/2 (B' u_old
    # + g'(u_last)), is r (u_old - fixed') with r = dt / dt_old.
    t_levels = grid.t_nodes()
    a_old = np.empty(nx)
    a_old[:] = claim.payoff(s)
    u_old = np.zeros((rows.size, nx))
    u_older = u_old  # the level before u_old; the terminal one to start
    if nt < keep:
        agent[nt] = a_old
        block[nt] = u_old
    for n in range(nt):
        i_new = nt - n - 1          # t-index being computed
        t_old = t_levels[i_new + 1]
        t_new = t_levels[i_new]
        dt = t_old - t_new
        if n < RANNACHER_STEPS:
            # two implicit-Euler half-steps, each started from its own
            # level, which is its fixed part
            a_fixed, it, res, fixed = step(a_old, u_old, u_old,
                                           0.5 * (t_old + t_new), 0.5 * dt,
                                           1.0)
            a_new, it2, res2, u_new = step(a_fixed, fixed, fixed, t_new,
                                           0.5 * dt, 1.0)
            it, res = np.maximum(it, it2), np.maximum(res, res2)
        else:
            r = dt / dt_old
            # fixed = u_old + r (u_old - fixed'), in place of fixed'
            fixed -= u_old
            fixed *= -r
            fixed += u_old
            if not vanilla:
                a_fixed -= a_old
                a_fixed *= -r
                a_fixed += a_old
            # start from the linear extrapolation of the last two levels
            u_start = u_old - u_older
            u_older = None
            u_start *= r
            u_start += u_old
            a_new, it, res, u_new = step(a_fixed, fixed, u_start, t_new, dt,
                                         0.5)
            del u_start
        # a non-finite agent leaves only non-finite rows, which Picard stops
        # without raising: the agent is named first
        if not np.isfinite(a_new).all():
            raise NumericsError(
                f"non-finite values in the agent surface at t={t_new:.6g}")
        bad = np.flatnonzero(~np.all(np.isfinite(u_new), axis=1))
        if len(bad):
            row = int(bad[given[bad].argmin()])
            raise NumericsError(f"non-finite values in the {rows.label(row)} "
                                f"surface at t={t_new:.6g}")
        if i_new < keep:
            agent[i_new] = a_new
            block[i_new] = u_new
        iters[n] = it
        resids[n] = res
        a_old, u_older, u_old = a_new, u_old, u_new
        dt_old = dt
    return agent, block, iters, resids, order


def _solutions(models: list[MarketModel], claim: claims.ClaimSpec,
               grid: PdeGrid, keep: int) -> list[PdeSolution]:
    """One solution per model of one march that keeps the time levels with
    t-index below ``keep``: the model's two rows of the block, and per step
    the larger of their Picard counts and residuals."""
    agent, block, iters, resids, order = _march(models, claim, grid, keep)
    count = len(models)
    # the march's row of each given scenario
    return [PdeSolution(model=model, claim=claim, grid=grid, agent=agent.copy(),
                        seller=block[:, k].copy(),
                        buyer=block[:, count + k].copy(),
                        picard_iterations=np.maximum(iters[:, k],
                                                     iters[:, count + k]),
                        picard_residuals=np.maximum(resids[:, k],
                                                    resids[:, count + k]))
            for model, k in zip(models, np.argsort(order).tolist())]


def solve(model: MarketModel, claim: claims.ClaimSpec, grid: PdeGrid) -> PdeSolution:
    """Backward-solve both adjustment surfaces (and a custom claim's agent).

    Requires the model to pass the necessary-rate validator and the initial
    log-spot to lie strictly inside the grid.  The march of one scenario
    (K = 1); the solution keeps every time row.
    """
    return _solutions([model], claim, grid, grid.nt + 1)[0]


def solve_batch(models: list[MarketModel], claim: claims.ClaimSpec,
                grid: PdeGrid) -> list[PdeSolution]:
    """Solve K scenarios on one grid in one march; one solution per model.

    The models must share what :func:`march_key` names: the equity
    parameters, the discount rate and the presence of a credit block; they
    may differ in every other rate, credit parameter and the
    collateralization level.  Each solution equals
    :func:`solve` on its model alone, but keeps only the first two time levels
    of its surfaces, which is what :func:`xva_at` and :func:`strategies` read
    at t = 0.  A Picard or finiteness failure names the side, the scenario's
    index and varied parameters and t; a Picard failure also its worst node,
    the stock level and value there, the last residual and the tolerance.
    """
    return _solutions(list(models), claim, grid, 2)


def _picard(stepper: _Stepper, rhs_base: np.ndarray, dt: float, theta: float,
            u_start: np.ndarray, implicit_driver, tol: float = PICARD_TOL,
            exact=()):
    """Per-row fixed point of (I - theta dt B) u = rhs_base + theta dt g(u).

    ``implicit_driver(u)`` evaluates g on the block and returns a new array,
    which the step then overwrites; ``rhs_base`` is read and never written.
    Runs :func:`settle` at ``tol``, with the rows of ``exact`` taken as
    maps of contraction 0: a row that turns non-finite stops there, its
    values left for the caller to report.
    """
    coef = theta * dt

    def step(u):
        rhs = implicit_driver(u)
        rhs *= coef
        rhs += rhs_base
        return solve_banded(stepper, coef, rhs.T, overwrite=True).T
    return settle(step, u_start, tol, PICARD_MAX_ITER, exact)


def settle(step, u_start: np.ndarray, tol: float, max_iter: int,
           exact=()):
    """Per-row fixed point of ``step`` on a (rows, nodes) block.

    ``step(u)`` maps the block ``u`` to its next iterate, each row from
    that row alone.  A row stops once the estimated error of its iterate is
    below ``tol``, the stopping test of simplified-Newton loops (Hairer &
    Wanner, Solving ODEs II, IV.8): with delta_k its sup-norm change at
    iteration k and rho = delta_k / delta_{k-1}, the estimate is delta_1 at
    k = 1, and at k >= 2 the smaller of delta_k and rho / (1 - rho)
    delta_k, the distance to the fixed point of a map that contracts by
    rho, where rho < 1, else delta_k.  A row of ``exact``, a
    flag per row, is a map of contraction 0, so its first iterate is its
    fixed point, with an estimate of 0.  A stopped row keeps its values
    while the others iterate, so it takes exactly the iterations, and gets
    exactly the values, of its fixed point alone.  A row whose change is
    not finite stops at once, its values left for the caller to report.
    ``u_start`` is read, never written.  Returns per-row iteration counts
    and the estimates they stopped on, the solution, and a (row, node of
    its largest last change) pair for each finite row that did not
    converge within ``max_iter`` iterations.
    """
    iters = np.zeros(len(u_start), dtype=int)
    resid = np.zeros(len(u_start))
    rows = slice(None)  # the live rows: all, then an index array
    # each live row's change before this iterate: at the first, inf on a row
    # of contraction 0, so that rho = 0 and its estimate is 0, and nan
    # elsewhere, which no test passes, so that the estimate is the change
    before = ([math.inf if flag else math.nan for flag in exact]
              or [math.nan] * len(u_start))
    u = u_start
    for it in range(1, max_iter + 1):
        new = step(u)[rows]
        change = new - u[rows]
        np.abs(change, out=change)
        deltas = change.max(axis=1).tolist()
        iters[rows] = it
        if isinstance(rows, slice):  # always so at it = 1: u_start stays
            u = new
        else:
            u[rows] = new
        # lists, not arrays: on the two rows of a single point numpy's
        # any/all cost more per iteration than these loops; nan and inf
        # pass neither test, so a non-finite change is its own estimate
        est = [min(d, d / (b - d) * d) if d < b else d
               for d, b in zip(deltas, before)]
        resid[rows] = est
        live = [tol <= e < math.inf for e in est]
        if not any(live):
            return iters, resid, u, []
        if not all(live):
            rows = np.flatnonzero(live) if isinstance(rows, slice) else rows[live]
            deltas = [d for d, keep in zip(deltas, live) if keep]
        before = deltas
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
    levels = grid.t_nodes()
    i0 = min(int(np.searchsorted(levels, t, side="right")) - 1, grid.nt - 1)
    if i0 + 1 >= surf.shape[0]:
        raise ValueError(f"t={t} lies beyond the {surf.shape[0]} time rows "
                         "this solution keeps")
    xi = min(max((x - grid.x_min) / grid.dx, 0.0), grid.nx - 1)
    j0 = min(int(xi), grid.nx - 2)
    ft = min((t - levels[i0]) / (levels[i0 + 1] - levels[i0]), 1.0)
    fx = xi - j0
    return float((1 - ft) * (1 - fx) * surf[i0, j0]
                 + (1 - ft) * fx * surf[i0, j0 + 1]
                 + ft * (1 - fx) * surf[i0 + 1, j0]
                 + ft * fx * surf[i0 + 1, j0 + 1])


def xva_at(solution: PdeSolution, t: float, s: float, side: str) -> float:
    """Adjustment surface sampled at (t, s) by bilinear interpolation."""
    claims._check_stock(s)
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
    claims._check_stock(s)
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
