"""Binomial-lattice cross-check for the reduced valuation-adjustment equation.

A recombining two-branch lattice (equiprobable +-sqrt(dt) Brownian steps)
discretizes the stock under the valuation measure; the adjustment is obtained
by backward induction with an implicit-in-value, explicit-in-gradient step.
The scheme shares no discretization code with the PDE engine, so agreement
between the two is evidence rather than tautology; the two share only the
driver.

The lattice solves one equation, the reduced adjustment equation: terminal
data zero, the reduced adjustment driver, and the diffusion-gradient slot fed
with the lattice estimate plus the agent's closed-form delta exposure (the
driver prices repo/funding asymmetries on physical positions, which include
the mark's hedge).  The adjustment is the root's value.

The tree is pruned, as Hull & White truncate theirs (J. Derivatives 2(1),
1994): level k keeps only the nodes j whose walk ``w = (2j - k) sqrt(dt)``
lies in ``[-PRUNE_SD sqrt(t), sigma t + PRUNE_SD sqrt(t)]`` at t = k dt
(:func:`band`), the terminal level included; levels 0 .. 64 keep every
node.  The walk passes PRUNE_SD = 8 standard deviations with a probability
of about 1e-15, but what grows like s (a call's mark, the repo and funding
legs) weighs it by s, which moves its mass to ``w = sigma t``, the walk
under the share measure.  So the upper edge follows sigma t: cut
symmetrically about ``w = 0``, the adjustment of sigma = 1.5, T = 30 at
2000 steps moves by 2.25e-4 of the strike; cut so, by 2.2e-16 at most.  The
band depends on (k, dt, sigma) alone, not on s, so scaled spots and strikes
keep the same nodes.  A level whose band reaches one node past its
children's on a side gets a ghost child there, ``2 u_edge - u_inner``, the
line through the two outermost children; each edge moves by at most one
node per level, so one ghost per side suffices.

K models that share a march (:func:`pde.march_key`) are valued in one pass
(:func:`solve_batch`): their seller and buyer sides are the 2K rows of the
march, the K sellers first and their buyers after them in the same order.
:func:`solve_sides` is the pass of one model.  The march stores its arrays
nodes by rows, (kept nodes, 2K), the transpose of the PDE's (2K, nx)
block, so the nodes of one level are one contiguous run of memory and each
level's arithmetic runs on whole contiguous slices.  The driver reads the
:class:`drivers.DriverParams` record of the rows
(``DriverParams.stack(models)``), each per-row field transposed once per
march to (1, 2K).

The march walks the levels in blocks of consecutive levels, highest first,
each of at most ``BLOCK_ROW_NODES`` row-nodes (rows times kept nodes,
summed over its levels), or of one level when a level is larger: a 42-row
batch of 500 steps marches one level per block near maturity.  The march
is in the seller's terms, each row's values times its ``sign``.  It builds
the constants of the node's root once (:func:`drivers.root_rates`).  Each
block stacks its levels in one (sum of kept nodes, 2K) array and builds
once, for all its nodes and rows, what the march does not feed back: the
stock levels, the agent's mark and delta
(:func:`claims.agent_value_levels`), reflected once into the seller's terms
of each row, the driver terms that the mark fixes
(:func:`drivers.reduced_mark_terms`) and the root's coefficients that they
fix (:func:`drivers.root_terms`).  Each level then computes, straight into
its own slice of the block's arrays, only what depends on the level above:
the expectation e, the gradient and the exposure z, and the root.  With the
terms fixed each node's equation ``u = e + dt f(u)`` is piecewise linear in
u, with one kink where the funding account changes sign, so its root has a
closed form (:func:`drivers.reduced_root`, which takes the repo legs' net
from z), and that root is the level's answer.  A leg whose lend and
borrow rates are equal in every row (:func:`drivers.linear_legs`, held in
the root's constants) has no kink: its repo net is one product, and a
linear funding leg's root needs no kink test, the same bits either way.

Once a block's levels are marched, one call of the step in u
(:func:`drivers.reduced_step`) over the whole block, with the repo legs of
its z (:func:`drivers.with_repo_legs`), checks their roots: a
node whose residual ``|e + dt f(u) - u|`` exceeds ``ROOT_ULPS`` ulps of its
scale, ``max(|u|, |e|, dt * the largest addend of f)``
(:func:`drivers.reduced_step_scale`), fails the valuation, naming the side,
the level, the node (its index in the whole tree and its stock level) and
the residual.  The scale is relative, so the check
holds at any size of the claim.  The failure named is that of the highest
failing level of the block, the one a march level by level reaches first.
Rows share no arithmetic, and neither do the levels of a block beyond what
a level reads of the one above, so each row gets bit for bit the same
values in any batch and at any block size.  Values that turn non-finite
fail the valuation, naming the side, the level and, in a batch, the
scenario (:meth:`pde.Rows.label`).

The lattice converges at first order in dt, with a second-order term
behind it.  :func:`solve_extrapolated`, the valuation the CLI runs, removes
both by repeated Richardson extrapolation from the lattices of n, n // 2 and
n // 4 steps (Geske & Johnson, J. Finance 39, 1984; the two-level form is
Broadie & Detemple's, Rev. Fin. Studies 9, 1996).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import claims, drivers
from .market import MarketModel
from .pde import NumericsError, Rows

# the bound on a node's residual, in ulps of its scale: twice the 4 ulps
# that the hypothesis test of drivers.reduced_root measured; measured, not
# proved: one known input reaches 5 ulps
ROOT_ULPS = 8
# the most row-nodes (rows times kept nodes, summed over its levels) that one
# block of levels holds; a level larger than this is a block of its own
BLOCK_ROW_NODES = 12288
# the standard deviations of the walk, on either side of the band that
# level k keeps (see band), beyond which the lattice prunes its nodes
PRUNE_SD = 8


@dataclass(frozen=True)
class OracleSolution:
    """Root-node outputs of one backward induction.

    ``root_residuals`` holds, per level k = 0 .. n_steps - 1 (time k * dt),
    this side's largest node residual ``|e + dt f(u) - u|`` in ulps of the
    scale the node was checked against; none exceeds ``ROOT_ULPS``.
    ``root_widened`` holds, per level, whether a node's scale was widened
    by :func:`drivers.reduced_step_scale` beyond ``max(|u|, |e|)``.
    ``lattices`` holds, for a solution of :func:`solve_extrapolated`, this
    side's solutions of the lattices it extrapolates, finest first, each
    with its own per-level records; it is empty for one lattice's solution.
    """

    side: str
    n_steps: int
    root_gradient: float    # Brownian-integrand estimate at the root
    root_mark: float        # agent's mark at the root
    adjustment: float       # valuation adjustment at time zero
    root_residuals: np.ndarray = field(compare=False, repr=False)
    root_widened: np.ndarray = field(compare=False, repr=False)
    lattices: tuple = field(default=(), compare=False, repr=False)


def solve_reduced(model: MarketModel, claim: claims.ClaimSpec, n_steps: int,
                  side: str = drivers.SELLER) -> OracleSolution:
    """Backward induction for the reduced equation: ``side``'s solution of
    :func:`solve_sides`."""
    drivers._check_side(side)
    return solve_sides(model, claim, n_steps)[drivers.SIDES.index(side)]


def solve_sides(model: MarketModel, claim: claims.ClaimSpec, n_steps: int
                ) -> tuple[OracleSolution, OracleSolution]:
    """(seller, buyer) solutions from one backward induction of both sides.

    The valuation fails with :class:`NumericsError` if either side does.
    """
    return solve_batch([model], claim, n_steps)[0]


def solve_batch(models: list[MarketModel], claim: claims.ClaimSpec,
                n_steps: int) -> list[tuple[OracleSolution, OracleSolution]]:
    """One (seller, buyer) pair per model, from one backward induction.

    The models must share what :func:`pde.march_key` names: the equity
    parameters, the discount rate and the presence of a credit block.  Each
    pair equals :func:`solve_sides` of its model alone.  A failure of any
    model fails the batch, and names the side, the scenario's index and
    varied parameters and the level.
    """
    solutions = _march(list(models), claim, n_steps)
    return list(zip(solutions[:len(models)], solutions[len(models):]))


def solve_extrapolated(models: list[MarketModel], claim: claims.ClaimSpec,
                       n_steps: int
                       ) -> list[tuple[OracleSolution, OracleSolution]]:
    """:func:`solve_batch`, extrapolated to dt = 0.

    Marches the lattices of n = ``n_steps``, n // 2 and n // 4 steps,
    coarsest first, and returns their adjustment and root gradient
    extrapolated by :func:`extrapolate`, which cancels the terms in dt and
    dt^2: repeated Richardson extrapolation (Geske & Johnson, J. Finance 39,
    1984).  The weights are (8, -6, 1) / 3 when 4 divides n and follow the
    actual step counts otherwise.  The other fields, the per-level residuals
    included, are the n-step lattice's, and ``lattices`` holds the three
    lattices' solutions, finest first.  The time-step guard holds for the
    coarsest lattice, and its advice names n.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 4:
        raise ValueError("n_steps must be >= 4 and an integer to "
                         f"extrapolate, got {n_steps!r}")
    refines = (4, 2, 1)
    counts = [n_steps // r for r in refines]
    lattices = [_march(list(models), claim, n, refine=r)
                for n, r in zip(counts, refines)]
    solutions = [replace(row[-1], lattices=row[::-1], **{
        name: extrapolate(counts, [getattr(s, name) for s in row])
        for name in ("adjustment", "root_gradient")})
        for row in zip(*lattices)]
    return list(zip(solutions[:len(models)], solutions[len(models):]))


def extrapolate(counts, values) -> float:
    """The value at dt = 0 of the polynomial in dt through the ``values`` of
    lattices of ``counts`` steps: the sum of ``w_i values[i]`` with the
    Lagrange weights ``w_i = prod_{j != i} x_j / (x_j - x_i)``, x = 1 /
    count, taken exactly and rounded once."""
    return float(sum(
        math.prod(Fraction(n, n - m) for m in counts if m != n) * Fraction(v)
        for n, v in zip(counts, values)))


def _march(models: list[MarketModel], claim: claims.ClaimSpec, n_steps: int,
           refine: int = 1) -> list[OracleSolution]:
    """Backward induction of the 2K rows of K models in blocks of levels;
    one solution per row.

    The time-step guard advises ``refine`` times the fewest steps that this
    lattice passes it with: a coarser lattice of an extrapolation whose
    caller sets the finest.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be >= 1 and an integer, got {n_steps!r}")
    rows = Rows(models)
    first = models[0]

    T = claim.maturity
    dt = T / n_steps
    sdt = math.sqrt(dt)
    sigma = first.equity.sigma
    drift = first.rates.discount - 0.5 * sigma * sigma
    s0 = first.equity.spot

    for k, model in enumerate(models):
        lip = drivers.reduced_lipschitz_bound(model)
        # dt * lip < 1 holds from the first count above lip * T
        need = math.floor(lip * T) + 1
        if n_steps < need:
            scenario = rows.scenario(k)
            raise NumericsError(
                "time step too large for the implicit fixed point"
                + (f" of {scenario}" if scenario else "")
                + f" (dt * Lipschitz = {dt * lip:.3g} >= 1); "
                f"use n_steps >= {refine * need}")

    lowest, highest = band(n_steps, dt, sigma)
    widths = highest - lowest + 1

    def stock_levels(levels: np.ndarray) -> np.ndarray:
        sizes = widths[levels]
        k = np.repeat(levels, sizes)
        j = np.arange(len(k)) - np.repeat(np.cumsum(sizes) - sizes
                                          - lowest[levels], sizes)
        w = (2.0 * j - k) * sdt
        return s0 * np.exp(drift * (k * dt) + sigma * w)

    # the march is in the seller's terms, each row's values times its sign;
    # its arrays are nodes by rows, so a row's parameters enter as (1, 2K)
    sign = rows.params.sign[:, 0]
    params = _each(rows.params, np.transpose)._replace(sign=1.0)
    rates = drivers.root_rates(params, dt)
    # the children of level k's nodes: level k + 1's kept nodes at indices
    # 1 .. their count, and a ghost next to them where level k needs one;
    # the terminal level's are zero
    child = np.zeros((widths.max() + 2, rows.size))
    residuals = np.zeros((rows.size, n_steps))
    widened = np.zeros((rows.size, n_steps), dtype=bool)
    lo, hi = lowest.tolist(), highest.tolist()

    for levels in _blocks(widths[:-1].tolist(), rows.size):
        sizes = widths[levels]
        starts = np.cumsum(sizes) - sizes
        s = stock_levels(levels)
        mark, delta = claims.agent_value_levels(
            first, claim, [k * dt for k in levels.tolist()], sizes, s)
        delta = _reflect(delta * (sigma * s), rows.count)
        terms = drivers.reduced_mark_terms(params, _reflect(mark, rows.count))
        roots = drivers.root_terms(params, rates, terms)
        e, z, u = (np.empty_like(delta) for _ in range(3))
        for k, start, width in zip(levels.tolist(), starts.tolist(),
                                   sizes.tolist()):
            kids = hi[k + 1] - lo[k + 1] + 1
            if lo[k] < lo[k + 1]:
                np.subtract(2.0 * child[1], child[2], out=child[0])
            if hi[k] == hi[k + 1]:
                np.subtract(2.0 * child[kids], child[kids - 1],
                            out=child[kids + 1])
            left = lo[k] - lo[k + 1] + 1
            down = child[left:left + width]
            up = child[left + 1:left + width + 1]
            at = slice(start, start + width)
            level_e = np.add(up, down, out=e[at])
            level_e *= 0.5
            level_z = np.subtract(up, down, out=z[at])
            level_z /= 2.0 * sdt
            if k == 0:
                root_gradient = level_z[0] * sign
            level_z += delta[at]  # sigma s delta
            u[at] = child[1:width + 1] = drivers.reduced_root(
                rates, drivers.RootTerms(*(v[at] for v in roots)),
                level_e, level_z)
        del mark, delta, roots
        residuals[:, levels], widened[:, levels] = _check_block(
            rows, params, terms, u, e, z, levels, starts, lowest, s, dt)
        # the block's arrays go as the next block's replace them: freed at
        # once, they would let the heap shrink and fault back in

    mark0 = claims.agent_value(first, claim, 0.0, s0).value
    return [OracleSolution(
        side=drivers.SIDES[row // rows.count], n_steps=n_steps,
        root_gradient=float(root_gradient[row]), root_mark=mark0,
        adjustment=float(sign[row] * child[1, row]),
        root_residuals=residuals[row], root_widened=widened[row])
        for row in range(rows.size)]


def band(n_steps: int, dt: float, sigma: float
         ) -> tuple[np.ndarray, np.ndarray]:
    """The lowest and highest node j that level k = 0 .. n_steps keeps: those
    with ``-PRUNE_SD sqrt(k) <= 2j - k <= PRUNE_SD sqrt(k) + sigma k sqrt(dt)``,
    or ``w`` in ``[-PRUNE_SD sqrt(t), sigma t + PRUNE_SD sqrt(t)]``."""
    k = np.arange(n_steps + 1.0)
    # level 0 reaches 0, also where PRUNE_SD is inf and inf * 0 is nan
    reach = np.multiply(PRUNE_SD, np.sqrt(k), out=np.zeros_like(k),
                        where=k > 0)
    lowest = np.maximum(np.ceil((k - reach) / 2.0), 0.0)
    highest = np.minimum(
        np.floor((k + reach + sigma * math.sqrt(dt) * k) / 2.0), k)
    return lowest.astype(int), highest.astype(int)


def _blocks(widths: list[int], rows: int):
    """The levels len(widths) - 1 .. 0, highest first, in blocks of
    consecutive levels of at most ``BLOCK_ROW_NODES`` row-nodes, or of one
    level; level k keeps ``widths[k]`` nodes."""
    top = len(widths) - 1
    while top >= 0:
        k, size = top - 1, rows * widths[top]
        while k >= 0 and size + rows * widths[k] <= BLOCK_ROW_NODES:
            size += rows * widths[k]
            k -= 1
        yield np.arange(top, k, -1)
        top = k


def _reflect(x: np.ndarray, count: int) -> np.ndarray:
    """The (len(x), 2 count) block of x in the seller's terms of each row:
    x in the ``count`` seller columns, -x in the buyer columns after them."""
    out = np.empty((len(x), 2 * count))
    out[:, :count] = x[:, None]
    np.negative(x[:, None], out=out[:, count:])
    return out


def _check_block(rows: Rows, params: drivers.DriverParams,
                 terms: drivers.DriverTerms, u: np.ndarray, e: np.ndarray,
                 z: np.ndarray, levels: np.ndarray, starts: np.ndarray,
                 lowest: np.ndarray, s: np.ndarray,
                 dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The largest residual per level of a block's roots ``u`` of
    ``u = e + dt f(u)``, in ulps of the nodes' scales, from one call of the
    step, and per level whether a node's scale was widened; a failure names
    the highest failing level, the one a march level by level reaches first.
    ``params`` are the march's, ``terms`` the mark's; ``u``, ``e`` and ``z``
    are (nodes, rows) in the seller's terms, and ``e`` is spent.  Level
    ``levels[i]`` starts at index ``starts[i]`` with its node
    ``lowest[levels[i]]``.  Both results are (rows, levels)."""
    terms = drivers.with_repo_legs(params, terms, z)
    miss = drivers.reduced_step(params, terms, u)
    miss *= dt
    miss += e
    miss -= u
    np.abs(miss, out=miss)
    np.abs(e, out=e)
    scale = np.abs(u)
    np.maximum(scale, e, out=scale)
    ulps = np.divide(miss, np.spacing(scale, out=scale), out=scale)
    widened = np.zeros((u.shape[1], len(levels)), dtype=bool)
    if not ulps.max() <= ROOT_ULPS:  # nan fails too
        # where the drift's addends cancel, the step's own rounding is
        # dt times the largest of them: widen the scale there alone
        at = jj, rr = np.nonzero(~(ulps <= ROOT_ULPS))
        widened[rr, np.searchsorted(starts, jj, "right") - 1] = True
        wide = drivers.reduced_step_scale(_each(params, lambda v: v[0, rr]),
                                          _each(terms, lambda v: v[at]), u[at])
        wide *= dt
        np.maximum(wide, np.abs(u[at]), out=wide)
        np.maximum(wide, e[at], out=wide)
        ulps[at] = miss[at] / np.spacing(wide)
        failed = ~(ulps[at] <= ROOT_ULPS)
        if failed.any():
            i = np.searchsorted(starts, jj[failed].min(), "right") - 1
            ends = np.append(starts[1:], len(u))
            at = slice(starts[i], ends[i])
            k = int(levels[i])
            _fail(rows, k, int(lowest[k]), dt, s[at], miss[at], ulps[at])
    return np.maximum.reduceat(ulps, starts).T, widened


def _each(record, fn):
    """``record`` with ``fn`` applied to every array field."""
    return type(record)(*(fn(v) if isinstance(v, np.ndarray) else v
                          for v in record))


def _fail(rows: Rows, k: int, lowest: int, dt: float, s: np.ndarray,
          miss: np.ndarray, ulps: np.ndarray):
    """Raise the failure of level k's root check, from the stock levels, and
    the (nodes, rows) residuals and residuals in ulps of the scales checked
    against, of its kept nodes, the first of which is node ``lowest``."""
    finite = np.isfinite(miss).all(axis=0)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NumericsError(f"non-finite lattice values on the "
                            f"{rows.label(row)} at level {k}")
    worst = ulps.max(axis=0)
    r = int(np.argmax(~(worst <= ROOT_ULPS)))
    j = int(np.argmax(ulps[:, r]))
    raise NumericsError(
        f"implicit step not solved on the {rows.label(r)} "
        f"at level {k} (t={k * dt:.6g}): node {lowest + j} at s={s[j]:.6g}, "
        f"residual {ulps[j, r]:.3g} ulps of the node's scale "
        f"(bound {ROOT_ULPS})")
