"""Lattice cross-check: closed-form regimes, refinement behavior, route equality."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from xvaband import (BUYER, SELLER, ClaimSpec, CreditParams, EquityParams,
                     MarketModel, NumericsError, RateSet, agent_value,
                     piterbarg_defaults_xva, piterbarg_xva, solve_reduced)
from xvaband import claims, cli, drivers, lattice
from xvaband.lattice import BLOCK_ROW_NODES, ROOT_ULPS, OracleSolution
from conftest import call_spread, make_benchmark, make_symmetric

CALL = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
FIG_CREDIT = CreditParams(mu_own=0.16, mu_cpty=0.21, loss_own=0.5, loss_cpty=0.5)


def test_zero_claim_gives_zero_everywhere():
    zero = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                     payoff_fn=lambda s: np.zeros_like(np.asarray(s, float)))
    model = make_benchmark(alpha=0.5)
    for side in (SELLER, BUYER):
        sol = solve_reduced(model, zero, 40, side=side)
        assert sol.adjustment == 0.0
        assert sol.root_gradient == 0.0


def test_symmetric_defaults_matches_closed_form():
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.25,
                           credit=FIG_CREDIT)
    mark = agent_value(model, CALL, 0.0, 1.0).value
    for side in (SELLER, BUYER):
        cf = piterbarg_defaults_xva(model, CALL, 0.0, mark, side).total
        got = solve_reduced(model, CALL, 2000, side=side).adjustment
        assert abs(got - cf) < 1e-4
        assert abs(got - cf) < 5e-6  # measured headroom on this configuration


def test_symmetric_no_defaults_matches_closed_form():
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.75)
    mark = agent_value(model, CALL, 0.0, 1.0).value
    cf = piterbarg_xva(model, CALL, 0.0, mark)
    for side in (SELLER, BUYER):
        got = solve_reduced(model, CALL, 2000, side=side).adjustment
        assert abs(got - cf) < 1e-4


def test_put_claim_matches_closed_form():
    put = ClaimSpec(kind="put", strike=1.1, maturity=1.0)
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.5,
                           credit=FIG_CREDIT)
    mark = agent_value(model, put, 0.0, 1.0).value
    for side in (SELLER, BUYER):
        cf = piterbarg_defaults_xva(model, put, 0.0, mark, side).total
        got = solve_reduced(model, put, 1500, side=side).adjustment
        assert abs(got - cf) < 1e-4


def test_custom_spread_is_its_two_calls_when_every_leg_is_linear():
    """With no credit and equal lend and borrow rates the reduced equation is
    linear, so a custom call-spread's adjustment and root gradient are the
    difference of its two calls' on the same 8-step lattice, within 1e-9;
    a quadrature of the payoff's slope missed them by 1.6e-3 and 1.9e-3."""
    rates = RateSet(fund_lend=0.06, fund_borrow=0.06, repo_lend=0.04,
                    repo_borrow=0.04, coll_earn=0.01, coll_pay=0.01,
                    discount=0.02)
    model = MarketModel(rates=rates, equity=EquityParams(spot=1.0, sigma=0.15),
                        alpha=0.3)
    spread, lower, upper = call_spread(1.0, 1.2, 2.0)
    for got, low, high in zip(*(lattice.solve_batch([model], claim, 8)[0]
                                for claim in (spread, lower, upper))):
        assert got.adjustment == pytest.approx(
            low.adjustment - high.adjustment, abs=1e-9)
        assert got.root_gradient == pytest.approx(
            low.root_gradient - high.root_gradient, abs=1e-9)


def test_value_level_route_agrees_with_adjustment_level():
    # the reference march of the value-level equation, payoff terminal data
    # and the wealth-level driver, lands on the library's adjustment
    model = make_benchmark(alpha=0.9)
    for side in (SELLER, BUYER):
        adj = solve_reduced(model, CALL, 1000, side=side)
        val, _, _ = reference_solve(model, CALL, 1000, "value", side)
        assert abs(adj.adjustment - val) < 5e-5


def test_monotone_refinement():
    # first-order scheme: consecutive refinement differences halve
    model = make_benchmark(alpha=0.25)
    vals = {n: solve_reduced(model, CALL, n, side=SELLER).adjustment
            for n in (125, 250, 500, 1000)}
    d1 = vals[250] - vals[125]
    d2 = vals[500] - vals[250]
    d3 = vals[1000] - vals[500]
    assert abs(d2) < abs(d1) and abs(d3) < abs(d2)
    assert 0.35 < abs(d2 / d1) < 0.65
    assert 0.35 < abs(d3 / d2) < 0.65


def test_benchmark_regression_anchor():
    # frozen from a 4000-step run of this scheme, cross-checked against the
    # finite-difference engine to 3e-6
    model = make_benchmark(alpha=0.9)
    seller = solve_reduced(model, CALL, 2000, side=SELLER).adjustment
    buyer = solve_reduced(model, CALL, 2000, side=BUYER).adjustment
    assert seller == pytest.approx(0.0201206, abs=5e-6)
    assert buyer == pytest.approx(0.0201229, abs=5e-6)


def test_band_positive_at_high_borrow_rate():
    model = make_benchmark(alpha=0.9, fund_borrow=0.15)
    seller, buyer = (sol.adjustment
                     for sol in lattice.solve_batch([model], CALL, 1000)[0])
    assert seller - buyer > 1e-4


def test_band_zero_under_full_symmetry():
    # symmetric rates and symmetric credit: both sides solve the same equation
    credit = CreditParams(mu_own=0.18, mu_cpty=0.18, loss_own=0.4, loss_cpty=0.4)
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.3,
                           credit=credit)
    seller, buyer = (sol.adjustment
                     for sol in lattice.solve_batch([model], CALL, 400)[0])
    assert seller == pytest.approx(buyer, abs=1e-12)


def test_band_collapses_to_no_default_value_for_zero_loss():
    # zero loss rates: width vanishes; the level sits near the no-default
    # closed form when the aggregate bond return is close to the funding rate
    credit = CreditParams(mu_own=0.085, mu_cpty=0.085, loss_own=0.0,
                          loss_cpty=0.0)
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.5,
                           credit=credit)
    seller, buyer = (sol.adjustment
                     for sol in lattice.solve_batch([model], CALL, 1000)[0])
    assert seller == pytest.approx(buyer, abs=1e-12)
    mark = agent_value(model, CALL, 0.0, 1.0).value
    exact = piterbarg_defaults_xva(model, CALL, 0.0, mark).total
    assert seller == pytest.approx(exact, abs=1e-5)
    nodefault = piterbarg_xva(model, CALL, 0.0, mark)
    # decay-rate mismatch (bond aggregate vs funding) bounds the gap
    assert abs(seller - nodefault) < 1e-4


def test_step_size_guard():
    riskier = make_benchmark(mu_own=0.9, mu_cpty=0.9)
    with pytest.raises(NumericsError):
        solve_reduced(riskier, CALL, 1, side=SELLER)


def test_input_validation():
    model = make_benchmark()
    with pytest.raises(ValueError):
        solve_reduced(model, CALL, 0)
    with pytest.raises(ValueError):
        solve_reduced(model, CALL, 100, side="dealer")
    with pytest.raises(ValueError, match=r"an integer, got 10\.5$"):
        lattice.solve_batch([model], CALL, 10.5)
    for steps in (10.5, 10.0):
        with pytest.raises(ValueError, match=f"an integer to extrapolate, "
                           f"got {steps!r}$"):
            lattice.solve_extrapolated([model], CALL, steps)


def reference_solve(model, claim, n_steps, level, side):
    """One side's backward induction, with a whole driver call per level.

    The plain single-side march that the shared pass must reproduce bit for
    bit: stock levels, mark and exposure built for this side alone, and each
    level solved by the root of this side's own terms.  The root is checked
    against :func:`drivers.reduced_drift` (or its value-level twin), called
    whole: it must solve the level's equation to ``ROOT_ULPS`` ulps of
    ``max(|u|, |e|, dt * the largest addend of the drift)``.
    """
    dt = claim.maturity / n_steps
    sdt = math.sqrt(dt)
    sigma = model.equity.sigma
    drift = model.rates.discount - 0.5 * sigma * sigma
    s0 = model.equity.spot

    def stock_levels(k):
        w = (2.0 * np.arange(k + 1) - k) * sdt
        return s0 * np.exp(drift * (k * dt) + sigma * w)

    params = drivers.DriverParams.of(model, side)
    if level == "value":
        u = np.asarray(claim.payoff(stock_levels(n_steps)), dtype=float)
        drift_fn, shift_gradient = drivers.reduced_drift_value, False
    else:
        u = np.zeros(n_steps + 1)
        drift_fn, shift_gradient = drivers.reduced_drift, True
    for k in range(n_steps - 1, -1, -1):
        t = k * dt
        s = stock_levels(k)
        expectation = 0.5 * (u[1:k + 2] + u[0:k + 1])
        gradient = (u[1:k + 2] - u[0:k + 1]) / (2.0 * sdt)
        mark, delta = claims.agent_value_grid(model, claim, t, s)
        z = gradient + (sigma * s * delta if shift_gradient else 0.0)
        terms = drivers.reduced_terms(params, z, mark,
                                      at_value=not shift_gradient)
        rates = drivers.root_rates(params, dt)
        roots = drivers.root_terms(params, rates, drivers.reduced_mark_terms(
            params, mark, at_value=not shift_gradient))
        new_u = params.sign * drivers.reduced_root(
            rates, roots, params.sign * expectation, params.sign * z)
        miss = expectation + dt * drift_fn(model, side, t, new_u, z, mark) - new_u
        scale = np.maximum(np.maximum(abs(new_u), abs(expectation)),
                           dt * drivers.reduced_step_scale(params, terms, new_u))
        assert np.all(abs(miss) <= ROOT_ULPS * np.spacing(scale))
        if k == 0:
            root_gradient = float(gradient[0])
        u = new_u
    mark0 = agent_value(model, claim, 0.0, s0).value
    root = float(u[0])
    adjustment = root - mark0 if level == "value" else root
    return adjustment, root_gradient, mark0


def block_sizes(rows, n):
    """``BLOCK_ROW_NODES`` values for a march of ``rows`` rows and n steps:
    the default, one level per block, three levels in the first block (which
    divides no n used here), and the whole lattice in one block."""
    return [BLOCK_ROW_NODES, 1, rows * (3 * n - 3), rows * n * (n + 1) // 2]


@pytest.mark.parametrize("credit", [True, False], ids=["credit", "nocredit"])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_one_pass_matches_single_side_reference(credit, kind, monkeypatch):
    model = make_benchmark(alpha=0.4, fund_borrow=0.12)
    if not credit:
        model = dataclasses.replace(model, credit=None)
    claim = ClaimSpec(kind=kind, strike=1.05, maturity=1.0)
    for n in (1, 2, 200):
        want = {side: reference_solve(model, claim, n, "adjustment", side)
                for side in (SELLER, BUYER)}
        for size in block_sizes(2, n):
            monkeypatch.setattr(lattice, "BLOCK_ROW_NODES", size)
            sols = lattice.solve_batch([model], claim, n)[0]
            assert [sol.side for sol in sols] == [SELLER, BUYER]
            for sol in sols:
                adjustment, gradient, mark = want[sol.side]
                assert sol.adjustment == adjustment
                assert sol.root_gradient == gradient
                assert sol.root_mark == mark
                assert sol.root_residuals.shape == (n,)
                assert np.all(sol.root_residuals <= ROOT_ULPS)
                assert solve_reduced(model, claim, n, side=sol.side) == sol


def test_solution_reports_fixed_point_per_level():
    model = make_benchmark()
    seller, buyer = lattice.solve_batch([model], CALL, 300)[0]
    for sol in (seller, buyer):
        assert sol.root_residuals.shape == (300,)
        assert np.all(sol.root_residuals >= 0.0)
        assert np.all(sol.root_residuals <= ROOT_ULPS)
    # the records are diagnostics: equality is decided by the values alone
    assert dataclasses.replace(
        seller, root_residuals=seller.root_residuals + 1) == seller
    assert set(f.name for f in dataclasses.fields(OracleSolution)
               if not f.compare) == {"root_residuals", "root_widened",
                                     "lattices"}


def test_solution_reports_which_levels_widen_their_scale(monkeypatch):
    # at alpha = 0 some roots hold only on the scale widened by the step's
    # largest addend; on the benchmark config none needs it
    widening, plain = make_benchmark(alpha=0.0), make_benchmark()
    sides = lattice.solve_batch([widening], CALL, 300)[0]
    want = lattice.solve_batch([plain], CALL, 300)[0]
    for sol in sides + want:
        assert sol.root_widened.shape == (300,)
        assert sol.root_widened.dtype == bool
    assert any(sol.root_widened.any() for sol in sides)
    assert not any(sol.root_widened.any() for sol in want)
    # without the widening the highest level that widened fails first, and
    # a lattice that widened none is unchanged
    highest = max(np.flatnonzero(sol.root_widened).max(initial=-1)
                  for sol in sides)
    monkeypatch.setattr(drivers, "reduced_step_scale",
                        lambda params, terms, u: np.zeros_like(u))
    with pytest.raises(NumericsError, match=rf"^implicit step not solved on "
                       rf"the \w+ side at level {highest} "):
        lattice.solve_batch([widening], CALL, 300)
    for got, sol in zip(lattice.solve_batch([plain], CALL, 300)[0], want):
        assert np.array_equal(got.root_residuals, sol.root_residuals)


def unit_call_at(scale):
    """The benchmark model and an at-the-money call, spot = strike = scale."""
    model = dataclasses.replace(make_benchmark(),
                                equity=EquityParams(spot=scale, sigma=0.2))
    return model, ClaimSpec(kind="call", strike=scale, maturity=1.0)


@pytest.fixture(scope="module")
def unit_sides():
    model, claim = unit_call_at(1.0)
    return lattice.solve_batch([model], claim, 2000)[0]


@pytest.mark.parametrize("scale", [2.0 ** -20, 1e-6, 1e4, 1e7, 2.0 ** 20])
def test_solve_sides_is_homogeneous(unit_sides, scale):
    # a residual check relative to each node's size holds at any scale; an
    # absolute tolerance failed at the far edge from spot = strike = 1e4 on
    model, claim = unit_call_at(scale)
    sides = lattice.solve_batch([model], claim, 2000)[0]
    for got, unit in zip(sides, unit_sides):
        assert np.all(got.root_residuals <= ROOT_ULPS)
        if math.frexp(scale)[0] == 0.5:  # a power of two scales exactly
            assert got.adjustment == scale * unit.adjustment
            assert got.root_gradient == scale * unit.root_gradient
        else:
            assert got.adjustment == pytest.approx(scale * unit.adjustment,
                                                   rel=1e-12, abs=0.0)


def test_models_past_the_absolute_tolerance_complete():
    # each failed the parent's 1e-12 absolute fixed-point test: the buyer
    # at spot 1e6 (level 358 of 400), and sigma = 1.5 and T = 30 at 2000 steps
    base = make_benchmark(alpha=0.0)
    far = dataclasses.replace(base, credit=None,
                              equity=EquityParams(spot=1e6, sigma=0.2))
    far_call = ClaimSpec(kind="call", strike=1e6, maturity=1.0)
    sides = lattice.solve_batch([far], far_call, 400)[0]
    assert sides == tuple(solve_reduced(far, far_call, 400, side=side)
                          for side in (SELLER, BUYER))
    volatile = dataclasses.replace(make_benchmark(),
                                   equity=EquityParams(spot=1.0, sigma=1.5))
    long_call = ClaimSpec(kind="call", strike=1.0, maturity=30.0)
    for model, claim, n in ((far, far_call, 400), (volatile, CALL, 2000),
                            (make_benchmark(), long_call, 2000)):
        for sol in lattice.solve_batch([model], claim, n)[0]:
            assert math.isfinite(sol.adjustment)
            assert np.all(sol.root_residuals <= ROOT_ULPS)


def test_root_check_failure_names_side_level_and_node(monkeypatch):
    # the march takes each level's root from drivers.reduced_root, in the
    # seller's terms, as (nodes, rows) with rows (seller, buyer)
    root = drivers.reduced_root

    def off_on(rows):
        def shifted(rates, terms, e, z):
            out = root(rates, terms, e, z)
            out[:, rows] += 1e-6
            return out
        return shifted

    model = make_benchmark()
    monkeypatch.setattr(drivers, "reduced_root", off_on(slice(None)))
    with pytest.raises(NumericsError, match=(
            r"^implicit step not solved on the seller side at level 19 "
            r"\(t=0\.95\): node 0 at s=0\.\d+, residual \S+ ulps of the "
            r"node's scale \(bound 8\)$")):
        lattice.solve_batch([model], CALL, 20)
    # one failing side fails the pass, and names that side
    monkeypatch.setattr(drivers, "reduced_root", off_on(1))
    with pytest.raises(NumericsError, match="on the buyer side at level 19"):
        lattice.solve_batch([model], CALL, 20)


def test_root_failure_inside_a_block_names_its_own_level(monkeypatch):
    # levels 19 .. 12 of a 20-step lattice share the first block, checked
    # in one call; the root of level 13 alone is off, on the buyer's node 5;
    # no level below 65 is pruned, so level k keeps its k + 1 nodes
    monkeypatch.setattr(lattice, "BLOCK_ROW_NODES", 2 * sum(range(13, 21)))
    assert list(next(lattice._blocks(list(range(1, 21)), 2))) == list(
        range(19, 11, -1))
    root = drivers.reduced_root

    def off_at_level_13(rates, terms, e, z):
        out = root(rates, terms, e, z)
        if e.shape[0] == 14:
            out[5, 1] += 1e-6  # the buyer's row
        return out

    monkeypatch.setattr(drivers, "reduced_root", off_at_level_13)
    model = make_benchmark()
    dt, sigma = 0.05, model.equity.sigma
    s = math.exp((model.rates.discount - 0.5 * sigma * sigma) * (13 * dt)
                 + sigma * (2 * 5 - 13) * math.sqrt(dt))
    with pytest.raises(NumericsError, match=(
            r"^implicit step not solved on the buyer side at level 13 "
            rf"\(t=0\.65\): node 5 at s={s:.6g}, residual \S+ ulps of the "
            r"node's scale \(bound 8\)$")):
        lattice.solve_batch([model], CALL, 20)


def test_root_failure_at_a_pruned_level_names_the_absolute_node(monkeypatch):
    # level 150 of a 200-step lattice keeps nodes lowest .. highest, and the
    # second of them is off: the failure names the level, the node's index
    # in the whole tree and its own stock level
    n, k = 200, 150
    model = make_benchmark()
    dt, sigma = 1.0 / n, model.equity.sigma
    lowest, highest = lattice.band(n, dt, sigma)
    assert 0 < lowest[k] and highest[k] < k  # pruned on both sides
    j = int(lowest[k]) + 1
    root, levels = drivers.reduced_root, iter(range(n - 1, -1, -1))

    def off_at_level(rates, terms, e, z):
        out = root(rates, terms, e, z)
        if next(levels) == k:
            out[1] += 1e-6
        return out

    monkeypatch.setattr(drivers, "reduced_root", off_at_level)
    s = math.exp((model.rates.discount - 0.5 * sigma * sigma) * (k * dt)
                 + sigma * (2 * j - k) * math.sqrt(dt))
    with pytest.raises(NumericsError, match=(
            rf"^implicit step not solved on the seller side at level {k} "
            rf"\(t=0\.75\): node {j} at s={s:.6g}, residual \S+ ulps of the "
            r"node's scale \(bound 8\)$")):
        lattice.solve_batch([model], CALL, n)


def full_and_pruned(monkeypatch, model, claim, n):
    """The (seller, buyer) pair of the full tree and of the pruned one."""
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "PRUNE_SD", math.inf)
        full = lattice.solve_batch([model], claim, n)[0]
    return full, lattice.solve_batch([model], claim, n)[0]


@pytest.mark.parametrize("n", [1000, 2000])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_pruned_tree_matches_the_full_tree(kind, n, monkeypatch):
    model = make_benchmark()
    claim = ClaimSpec(kind=kind, strike=1.0, maturity=1.0)
    lowest, highest = lattice.band(n, 1.0 / n, model.equity.sigma)
    assert np.sum(highest - lowest + 1) < (n + 1) * (n + 2) // 2 // 2
    full, pruned = full_and_pruned(monkeypatch, model, claim, n)
    for want, got in zip(full, pruned):
        assert abs(got.adjustment - want.adjustment) <= 1e-12
        assert np.all(got.root_residuals <= ROOT_ULPS)


def test_pruned_tree_follows_the_share_measure(monkeypatch):
    # sigma sqrt(T) = 8.2: what grows like s (a call's mark, the repo and
    # funding legs) has its mass near w = sigma t, far above w = 0; a cut
    # at +-8 sd about w = 0 moved this adjustment by 2.25e-4 of the strike
    model = dataclasses.replace(make_benchmark(),
                                equity=EquityParams(spot=1.0, sigma=1.5))
    claim = ClaimSpec(kind="call", strike=1.0, maturity=30.0)
    full, pruned = full_and_pruned(monkeypatch, model, claim, 2000)
    for want, got in zip(full, pruned):
        assert abs(got.adjustment - want.adjustment) <= 1e-12


def test_band_keeps_every_node_of_the_first_65_levels():
    # 8 sqrt(k) >= k up to k = 64
    for dt, sigma in ((1e-3, 0.2), (0.015, 1.5), (1.0, 0.01)):
        lowest, highest = lattice.band(65, dt, sigma)
        assert lowest[:65].tolist() == [0] * 65
        assert highest[:65].tolist() == list(range(65))
    assert lattice.band(65, 1e-3, 0.2)[0][65] == 1


def test_band_does_not_depend_on_the_spot(monkeypatch):
    # the same nodes are kept at every spot, so the homogeneity of
    # test_solve_sides_is_homogeneous holds by construction
    seen = {}
    levels = claims.agent_value_levels

    def recording(model, claim, times, counts, s):
        seen.setdefault(model.equity.spot, []).append((list(counts), s))
        return levels(model, claim, times, counts, s)

    monkeypatch.setattr(claims, "agent_value_levels", recording)
    for scale in (1.0, 2.0 ** 10):
        model, claim = unit_call_at(scale)
        lattice.solve_batch([model], claim, 400)
    unit, scaled = seen[1.0], seen[2.0 ** 10]
    assert [c for c, _ in unit] == [c for c, _ in scaled]
    assert sum(sum(c) for c, _ in unit) < 401 * 400 // 2
    for (_, s), (_, t) in zip(unit, scaled):
        assert np.array_equal(t, 2.0 ** 10 * s)


@pytest.mark.parametrize("n, maturity, sigma",
                         [(1000, 1.0, 0.2), (2000, 30.0, 1.5), (500, 4.7, 0.6)])
def test_band_upper_edge_covers_the_share_measure(n, maturity, sigma):
    # every node with w in [-8 sqrt(t), sigma t + 8 sqrt(t)] is kept, and
    # the band ends at the last node inside, or at the edge of the tree
    dt = maturity / n
    sdt = math.sqrt(dt)
    lowest, highest = lattice.band(n, dt, sigma)
    k = np.arange(n + 1)
    t = k * dt
    reach = lattice.PRUNE_SD * np.sqrt(t)
    top, bottom = sigma * t + reach, -reach
    w_high, w_low = (2 * highest - k) * sdt, (2 * lowest - k) * sdt
    slack = 1e-9 * sdt
    assert np.all((w_high + 2 * sdt > top) & (w_high <= top + slack)
                  | (highest == k))
    assert np.all((w_low - 2 * sdt < bottom) & (w_low >= bottom - slack)
                  | (lowest == 0))
    assert np.any(highest < k) and np.any(lowest > 0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_non_finite_values_fail_at_once(monkeypatch):
    # a payoff that is NaN on a band of nodes fails the first level's root
    # check, and the error names the non-finite values
    nan_band = ClaimSpec(
        kind="custom", strike=1.0, maturity=1.0,
        payoff_fn=lambda s: np.where((s > 1.1) & (s < 1.3), np.nan,
                                     np.maximum(s - 1.0, 0.0)),
        payoff_slope_fn=lambda s: np.where(s >= 1.0, 1.0, 0.0))
    calls = []
    step = drivers.reduced_step

    def counted_step(*args):
        calls.append(args)
        return step(*args)
    monkeypatch.setattr(drivers, "reduced_step", counted_step)
    with pytest.raises(NumericsError, match="^non-finite lattice values on "
                                            "the seller side at level 19$"):
        lattice.solve_batch([make_benchmark()], nan_band, 20)
    assert len(calls) == 1


def lattice_stack(credit):
    """Scenarios of one march varying alpha, funding, repo and mu_cpty."""
    out = [make_benchmark(alpha=alpha, fund_borrow=rfm, mu_cpty=mu_cpty)
           for alpha, rfm, mu_cpty in ((0.0, 0.08, 0.16), (0.35, 0.15, 0.16),
                                       (0.9, 0.08, 0.3), (1.0, 0.2, 0.25))]
    repo = make_benchmark(alpha=0.5)
    out.append(dataclasses.replace(repo, rates=dataclasses.replace(
        repo.rates, repo_lend=0.03, repo_borrow=0.07)))
    if not credit:
        out = [dataclasses.replace(m, credit=None) for m in out]
    return out


@pytest.mark.parametrize("credit", [True, False], ids=["credit", "nocredit"])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_solve_batch_matches_solve_sides_bit_for_bit(credit, kind,
                                                    monkeypatch):
    models = lattice_stack(credit)
    claim = ClaimSpec(kind=kind, strike=1.05, maturity=1.0)
    sides = [lattice.solve_batch([model], claim, 150)[0] for model in models]
    for size in block_sizes(2 * len(models), 150):
        monkeypatch.setattr(lattice, "BLOCK_ROW_NODES", size)
        batch = lattice.solve_batch(models, claim, 150)
        assert len(batch) == len(models)
        for pair, wanted in zip(batch, sides):
            for got, want in zip(pair, wanted):
                assert got == want  # side, mark, adjustment
                assert got.root_gradient == want.root_gradient
                assert np.array_equal(got.root_residuals,
                                      want.root_residuals)


# adjustment, root gradient and worst root residual in ulps of each
# (seller, buyer) pair of lattice_stack, for a call at 150 steps, captured
# from the march in its earlier rows-by-nodes layout
PINNED_BITS = {
    True: [
        [(0.010072747076283584, 0.006927260413838047, 8.0),
         (0.010852193901376143, 0.00790755395296471, 8.0)],
        [(0.012681499909916885, 0.010581146574690368, 8.0),
         (0.012262885474649956, 0.009613698022409715, 8.0)],
        [(0.015825575770532292, 0.01538997827764455, 5.0),
         (0.015403718621813983, 0.014894870154434851, 4.0)],
        [(0.0180548672036477, 0.01787847779875064, 3.0),
         (0.016770869222259767, 0.01664127162463872, 2.0)],
        [(0.023612109814043082, 0.020929220200947198, 7.0),
         (0.005237829307384834, 0.004033275788139593, 8.0)]],
    False: [
        [(0.017232307249433726, 0.01584501935478334, 5.0),
         (0.014862583271166007, 0.012666518345965723, 8.0)],
        [(0.01823064122476814, 0.017239835048143137, 3.0),
         (0.012921063782182104, 0.010250093965041866, 8.0)],
        [(0.019799451757436515, 0.019431688280565736, 2.0),
         (0.019285279817174966, 0.018847574721146322, 2.0)],
        [(0.020084690036103487, 0.019830207050097085, 2.0),
         (0.018605683811923002, 0.018408579159270515, 2.0)],
        [(0.030104233886421333, 0.028105134733360883, 3.0),
         (0.0071182144259795315, 0.006329834047801695, 8.0)]],
}


@pytest.mark.parametrize("credit", [True, False], ids=["credit", "nocredit"])
def test_solve_batch_keeps_its_pinned_bits(credit):
    # the batch is compared with itself above; this holds it to fixed bits,
    # several of them at exactly ROOT_ULPS, so no reordering of the march's
    # arithmetic passes unseen
    claim = ClaimSpec(kind="call", strike=1.05, maturity=1.0)
    batch = lattice.solve_batch(lattice_stack(credit), claim, 150)
    got = [[(sol.adjustment, sol.root_gradient, float(sol.root_residuals.max()))
            for sol in pair] for pair in batch]
    assert got == PINNED_BITS[credit]


def test_solve_batch_refuses_mixed_stacks():
    base = make_benchmark()
    others = [
        (dataclasses.replace(base, equity=EquityParams(spot=1.0, sigma=0.25)),
         "sigma"),
        (dataclasses.replace(base, rates=dataclasses.replace(base.rates,
                                                             discount=0.02)),
         "discount"),
        (dataclasses.replace(base, equity=EquityParams(spot=1.05, sigma=0.2)),
         "spot"),
        (dataclasses.replace(base, credit=None), "credit block"),
    ]
    for other, what in others:
        with pytest.raises(ValueError, match=f"scenario 1: .*{what}"):
            lattice.solve_batch([base, other], CALL, 20)
    with pytest.raises(ValueError):
        lattice.solve_batch([], CALL, 20)


def test_batch_failure_names_the_scenario(monkeypatch):
    models = lattice_stack(credit=True)
    riskier = make_benchmark(mu_own=0.9, mu_cpty=0.9)
    with pytest.raises(NumericsError, match=r"^time step too large for the "
                       r"implicit fixed point of scenario 1 \(mu_own=0\.9, "
                       r"mu_cpty=0\.9\) \(dt \* Lipschitz"):
        lattice.solve_batch([make_benchmark(), riskier], CALL, 1)

    step = drivers.reduced_step

    def poisoned(params, terms, u):
        out = step(params, terms, u)
        rows = out.shape[1]
        alpha = np.broadcast_to(params.alpha, (1, rows))[0]
        # the lattice checks its (nodes, rows) block in the seller's terms,
        # the K sellers and then their buyers
        buyer = np.arange(rows) >= rows // 2
        out[:, (alpha == 0.35) & buyer] = np.nan
        return out

    monkeypatch.setattr(drivers, "reduced_step", poisoned)
    with pytest.raises(NumericsError, match=(
            r"^non-finite lattice values on the buyer side of scenario 1 "
            r"\(.*alpha=0\.35.*\) at level 19$")):
        lattice.solve_batch(models, CALL, 20)


def lagrange_at_zero(counts, values):
    """The values of lattices of ``counts`` steps extrapolated to
    x = 1 / count = 0 with the Lagrange weights
    ``prod_{j != i} x_j / (x_j - x_i)``, exactly, rounded once."""
    xs = [Fraction(1, n) for n in counts]
    total = Fraction(0)
    for i, (x, value) in enumerate(zip(xs, values)):
        weight = Fraction(1)
        for j, other in enumerate(xs):
            if j != i:
                weight *= other / (other - x)
        total += weight * Fraction(value)
    return float(total)


@pytest.mark.parametrize("n", [40, 41, 42, 43])
def test_cli_lattice_extrapolates_three_raw_lattices(n):
    # every residue of n mod 4: the weights follow the actual step counts
    model = make_benchmark(alpha=0.4, fund_borrow=0.12)
    point = cli.evaluate_point(model, CALL, "lattice", steps=n)[0]
    counts = (n, n // 2, n // 4)
    raw = [lattice.solve_batch([model], CALL, m)[0] for m in counts]
    s0, sigma = model.equity.spot, model.equity.sigma
    got = ((point.xva_seller, point.strategy_seller),
           (point.xva_buyer, point.strategy_buyer))
    for side, (xva, strategy) in enumerate(got):
        lattices = [sides[side] for sides in raw]
        assert xva == lagrange_at_zero(
            counts, [s.adjustment for s in lattices])
        gradient = lagrange_at_zero(counts,
                                    [s.root_gradient for s in lattices])
        assert strategy.stock_shares == gradient / (sigma * s0)
    (seller, buyer), = lattice.solve_extrapolated([model], CALL, n)
    assert seller.adjustment == point.xva_seller
    assert np.array_equal(seller.root_residuals, raw[0][0].root_residuals)
    assert np.array_equal(buyer.root_residuals, raw[0][1].root_residuals)
    # the records of all three lattices, finest first
    for side, sol in enumerate((seller, buyer)):
        assert sol.lattices == tuple(sides[side] for sides in raw)
        for got, want in zip(sol.lattices, raw):
            assert got.n_steps == want[side].n_steps and not got.lattices
            assert np.array_equal(got.root_residuals, want[side].root_residuals)
            assert np.array_equal(got.root_widened, want[side].root_widened)


@pytest.mark.parametrize("n", [4, 7, 40, 41, 42, 43, 500, 8001])
def test_extrapolation_weights_cancel_dt_and_dt_squared(n):
    # L(n) = a + b / n + c / n^2, each value rounded once, extrapolates to
    # a within 1e-15 of the largest |L|
    counts = (n, n // 2, n // 4)
    for a, b, c in ((1.0, -0.3, 2.0), (0.02, 0.5, -0.7), (-3.0, 1e-3, 1e-4)):
        values = [float(a + Fraction(b) / m + Fraction(c) / m ** 2)
                  for m in counts]
        assert abs(lattice.extrapolate(counts, values) - a) <= (
            1e-15 * max(map(abs, values)))
    if n % 4 == 0:
        assert lattice.extrapolate(counts, [3.0, 0.0, 0.0]) == 8.0
        assert lattice.extrapolate(counts, [0.0, 3.0, 0.0]) == -6.0
        assert lattice.extrapolate(counts, [0.0, 0.0, 3.0]) == 1.0


def test_extrapolation_removes_the_first_order_error():
    # raw lattices are off by 2.0e-6 at 2000 steps on this config
    model = make_benchmark(alpha=0.9)
    at_1000 = lattice.solve_extrapolated([model], CALL, 1000)[0]
    at_4000 = lattice.solve_extrapolated([model], CALL, 4000)[0]
    for coarse, fine in zip(at_1000, at_4000):
        assert abs(coarse.adjustment - fine.adjustment) < 2e-8
        assert abs(coarse.root_gradient - fine.root_gradient) < 1e-6


def test_extrapolation_guard_names_the_finer_steps():
    # dt * Lipschitz = 1.88 at one step and 0.94 at two: the coarsest
    # lattice of n steps has n // 4, so 4 * need passes and one fewer fails
    riskier = make_benchmark(mu_own=0.9, mu_cpty=0.9)
    need = math.floor(drivers.reduced_lipschitz_bound(riskier)
                      * CALL.maturity) + 1
    assert need == 2
    lattice.solve_batch([riskier], CALL, need)
    with pytest.raises(NumericsError, match=r"use n_steps >= 2$"):
        lattice.solve_batch([riskier], CALL, need - 1)
    lattice.solve_extrapolated([riskier], CALL, 4 * need)
    with pytest.raises(NumericsError, match=f"use n_steps >= {4 * need}$"):
        lattice.solve_extrapolated([riskier], CALL, 4 * need - 1)
    with pytest.raises(ValueError, match="n_steps must be >= 4"):
        lattice.solve_extrapolated([riskier], CALL, 3)
