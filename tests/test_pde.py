"""Finite-difference engine: terminal data, oracles, reflection, strategies."""

import functools
import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded as scipy_solve_banded

from xvaband import (BUYER, SELLER, ClaimSpec, CreditParams, EquityParams,
                     MarketModel, NumericsError, PdeGrid, RateSet, agent_value,
                     piterbarg_defaults_xva, piterbarg_strategies,
                     piterbarg_xva, solve,
                     solve_batch, solve_reduced, strategies, xva_at)
from xvaband import cli, drivers, pde
from xvaband.claims import agent_value_grid
from xvaband.drivers import jump_targets
from xvaband.lattice import ROOT_ULPS
from conftest import (CUSTOM_CALL, EQUITY, SCENARIO, drawn_models,
                      make_benchmark, make_symmetric)

CALL = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
FIG_CREDIT = CreditParams(mu_own=0.16, mu_cpty=0.21, loss_own=0.5, loss_cpty=0.5)


def small_solution(model, nx=140, nt=80, claim=CALL):
    grid = PdeGrid.default_for(model, claim, nx=nx, nt=nt)
    return solve(model, claim, grid), grid


def test_terminal_conditions_exact(benchmark_model):
    sol, grid = small_solution(benchmark_model)
    s = np.exp(grid.x_nodes())
    assert np.array_equal(sol.agent[-1], np.maximum(s - 1.0, 0.0))
    assert np.all(sol.seller[-1] == 0.0)
    assert np.all(sol.buyer[-1] == 0.0)


def test_zero_claim_all_zero(benchmark_model):
    zero = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                     payoff_fn=lambda s: np.zeros_like(np.asarray(s, float)))
    sol, _ = small_solution(benchmark_model, nx=60, nt=20, claim=zero)
    assert np.all(sol.agent == 0.0)
    assert np.all(sol.seller == 0.0)
    assert np.all(sol.buyer == 0.0)


def test_agent_surface_matches_closed_form(benchmark_model):
    """The agent march that a custom claim takes, on a call's payoff."""
    grid = PdeGrid.default_for(benchmark_model, CUSTOM_CALL, nx=400, nt=400)
    sol = solve(benchmark_model, CUSTOM_CALL, grid)
    s = np.exp(grid.x_nodes())
    worst = 0.0
    # skip the implicit-Euler start-up levels next to the payoff kink
    for i, t in enumerate(grid.t_nodes()[:-3]):
        exact, _ = agent_value_grid(benchmark_model, CALL, t, s)
        worst = max(worst, float(np.max(np.abs(sol.agent[i] - exact))))
    assert worst < 1e-4


def test_symmetric_no_default_oracle():
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.5)
    mark = agent_value(model, CALL, 0.0, 1.0).value
    cf = piterbarg_xva(model, CALL, 0.0, mark)
    sol, _ = small_solution(model, nx=200, nt=150)
    for side in (SELLER, BUYER):
        assert xva_at(sol, 0.0, 1.0, side) == pytest.approx(cf, abs=2e-5)


def test_symmetric_defaults_oracle_both_sides():
    model = make_symmetric(fund=0.1, repo=0.05, coll=0.01, alpha=0.25,
                           credit=FIG_CREDIT)
    mark = agent_value(model, CALL, 0.0, 1.0).value
    sol, _ = small_solution(model, nx=200, nt=150)
    for side in (SELLER, BUYER):
        cf = piterbarg_defaults_xva(model, CALL, 0.0, mark, side).total
        assert xva_at(sol, 0.0, 1.0, side) == pytest.approx(cf, abs=2e-5)


def test_put_claim_symmetric_defaults_oracle():
    put = ClaimSpec(kind="put", strike=1.0, maturity=1.0)
    model = make_symmetric(fund=0.1, repo=0.05, coll=0.01, alpha=0.25,
                           credit=FIG_CREDIT)
    mark = agent_value(model, put, 0.0, 1.0).value
    grid = PdeGrid.default_for(model, put, nx=200, nt=150)
    sol = solve(model, put, grid)
    for side in (SELLER, BUYER):
        cf = piterbarg_defaults_xva(model, put, 0.0, mark, side).total
        assert xva_at(sol, 0.0, 1.0, side) == pytest.approx(cf, abs=2e-5)


def test_buyer_is_exact_reflection_of_negated_claim():
    plus = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                     payoff_fn=lambda s: np.maximum(s - 1.0, 0.0))
    minus = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                      payoff_fn=lambda s: -np.maximum(s - 1.0, 0.0))
    model = make_benchmark(alpha=0.4)
    grid = PdeGrid.default_for(model, CALL, nx=80, nt=40)
    a = solve(model, plus, grid)
    b = solve(model, minus, grid)
    assert np.max(np.abs(a.buyer + b.seller)) < 1e-12
    assert np.max(np.abs(a.seller + b.buyer)) < 1e-12
    assert np.max(np.abs(a.agent + b.agent)) < 1e-12


@settings(max_examples=40, derandomize=True, deadline=None)
@example(scenario=dict(fund_lend=0.05, spread=0.03, repo_lend=0.03,
                       repo_borrow=0.07, coll_earn=0.01, coll_pay=0.01,
                       mu_own=0.21, mu_cpty=0.16, loss_own=0.5, loss_cpty=0.5,
                       alpha=0.0), credit=True, discount=0.01, alpha=0.0)
@example(scenario=dict(fund_lend=0.05, spread=0.03, repo_lend=0.03,
                       repo_borrow=0.07, coll_earn=0.01, coll_pay=0.01,
                       mu_own=0.21, mu_cpty=0.16, loss_own=0.5, loss_cpty=0.5,
                       alpha=0.0), credit=False, discount=0.01, alpha=1.0)
@given(scenario=SCENARIO, credit=st.booleans(),
       discount=st.floats(min_value=0.0, max_value=0.1),
       alpha=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0,
                                                     max_value=1.0))
def test_negated_payoff_swaps_the_sides_on_drawn_models(scenario, credit,
                                                       discount, alpha):
    """The buyer's adjustment of a claim is the seller's of the negated
    claim, negated: on a custom call-spread, whose agent surface and its
    gradient the march computes, ``solve`` of -f gives -1 times the sides
    of ``solve`` of f, swapped, and -1 times its agent surface.  Every
    value is equal, so bit for bit up to the sign of a zero."""
    [model] = drawn_models([scenario], credit, discount)
    model = replace(model, alpha=alpha)
    assume(model.validate_necessary().passed)
    grid = PdeGrid.default_for(model, SPREAD, nx=60, nt=8)
    plus = solve(model, SPREAD, grid)
    minus = solve(model, NEGATED_SPREAD, grid)
    assert np.array_equal(minus.seller, -plus.buyer)
    assert np.array_equal(minus.buyer, -plus.seller)
    assert np.array_equal(minus.agent, -plus.agent)


def test_sides_collapse_under_full_symmetry():
    credit = CreditParams(mu_own=0.18, mu_cpty=0.18, loss_own=0.4, loss_cpty=0.4)
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.3,
                           credit=credit)
    sol, _ = small_solution(model)
    assert np.max(np.abs(sol.seller - sol.buyer)) < 1e-10


def test_benchmark_cross_engine_agreement(benchmark_model):
    grid = PdeGrid.default_for(benchmark_model, CALL, nx=400, nt=400)
    sol = solve(benchmark_model, CALL, grid)
    for side in (SELLER, BUYER):
        lat = solve_reduced(benchmark_model, CALL, 2000, side=side).adjustment
        assert abs(xva_at(sol, 0.0, 1.0, side) - lat) < 5e-4
        assert abs(xva_at(sol, 0.0, 1.0, side) - lat) < 2e-5  # measured headroom


def test_picard_diagnostics(benchmark_model):
    sol, _ = small_solution(benchmark_model)
    assert np.all(sol.picard_iterations >= 1)
    assert np.all(sol.picard_residuals < 1e-10)


def test_picard_divergence_detected():
    """A borrow rate of 4 beside a lend rate of 0.05 leaves the Picard
    remainder a Lipschitz constant of (4 - 0.05) / 2 in u: at nt = 1 it
    does not contract (last residual 0.24 after 50 iterations measured)."""
    riskier = make_benchmark(fund_borrow=4.0, mu_own=0.9, mu_cpty=0.9)
    assert riskier.validate_necessary().passed
    grid = PdeGrid.default_for(riskier, CALL, nx=40, nt=1)
    with pytest.raises(NumericsError):
        solve(riskier, CALL, grid)


def test_strong_pull_converges_in_the_implicit_operator():
    """Default intensities of 0.9 pull hard toward the close-outs, but the
    pull is linear, so the implicit operator takes it and Picard contracts
    at nt = 1 (5 iterations measured)."""
    riskier = make_benchmark(mu_own=0.9, mu_cpty=0.9)
    grid = PdeGrid.default_for(riskier, CALL, nx=40, nt=1)
    sol = solve(riskier, CALL, grid)
    assert np.all(sol.picard_residuals < pde.PICARD_TOL)
    assert np.isfinite(sol.seller).all() and np.isfinite(sol.buyer).all()


@pytest.mark.parametrize("nt", [1, 2, 3])
def test_single_step_grid_smoke(nt, benchmark_model):
    """Marches of the start-up alone and of the start-up and one
    Crank-Nicolson step, of one model and of a batch."""
    grid = PdeGrid.default_for(benchmark_model, CALL, nx=50, nt=nt)
    models = [make_benchmark(alpha=a) for a in (0.0, 0.5, 0.9)]
    for sol in [solve(benchmark_model, CALL, grid),
                *solve_batch(models, CALL, grid)]:
        assert np.all(np.isfinite(sol.agent))
        assert np.all(np.isfinite(sol.seller))
        assert np.all(np.isfinite(sol.buyer))
        assert len(sol.picard_iterations) == nt


def test_interpolation_behavior(benchmark_model):
    sol, grid = small_solution(benchmark_model)
    # terminal adjustment is zero everywhere
    assert xva_at(sol, 1.0, 1.3, SELLER) == 0.0
    # node-aligned query returns the nodal value exactly
    j = grid.nx // 2
    x = grid.x_nodes()[j]
    i = grid.nt // 2
    t = grid.t_nodes()[i]
    assert xva_at(sol, t, math.exp(x), SELLER) == sol.seller[i, j]
    with pytest.raises(ValueError):
        xva_at(sol, 0.0, math.exp(grid.x_max) * 1.1, SELLER)
    with pytest.raises(ValueError):
        xva_at(sol, 2.0, 1.0, SELLER)


def test_wealth_identity_at_random_interior_nodes(benchmark_model, rng):
    sol, grid = small_solution(benchmark_model, nx=200, nt=100)
    for _ in range(100):
        t = rng.uniform(0.0, 0.95)
        s = math.exp(rng.uniform(grid.x_min + 2 * grid.dx,
                                 grid.x_max - 2 * grid.dx))
        side = SELLER if rng.uniform() < 0.5 else BUYER
        st_ = strategies(sol, t, s, side)
        assert st_.wealth == pytest.approx(st_.adjustment, abs=1e-8)
        jump_own, jump_cpty = jump_targets(benchmark_model, side, st_.mark)
        after_own = (st_.bond_cpty_dollars + st_.funding_dollars
                     - st_.collateral_account_dollars)
        assert after_own == pytest.approx(float(jump_own), abs=1e-8)


def test_strategies_match_closed_form_in_symmetric_regime(rng):
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.25,
                           credit=FIG_CREDIT)
    grid = PdeGrid.default_for(model, CALL, nx=400, nt=400)
    sol = solve(model, CALL, grid)
    for side in (SELLER, BUYER):
        for s in (0.85, 1.0, 1.2):
            got = strategies(sol, 0.0, s, side)
            ref = piterbarg_strategies(model, CALL, 0.0, s, side)
            assert got.stock_shares == pytest.approx(ref.stock_shares, abs=5e-4)
            assert got.bond_own_shares == pytest.approx(ref.bond_own_shares, abs=5e-4)
            assert got.bond_cpty_shares == pytest.approx(ref.bond_cpty_shares, abs=5e-4)
            assert got.funding_dollars == pytest.approx(ref.funding_dollars, abs=5e-4)
            assert not got.boundary


def test_strategies_full_collateral_account(benchmark_model):
    model = make_benchmark(alpha=1.0)
    sol, _ = small_solution(model)
    st_ = strategies(sol, 0.2, 1.1, SELLER)
    mark = agent_value(model, CALL, 0.2, 1.1).value
    assert st_.collateral_account_dollars == pytest.approx(-mark, abs=1e-14)


def test_boundary_flagged(benchmark_model):
    sol, grid = small_solution(benchmark_model)
    st_ = strategies(sol, 0.1, math.exp(grid.x_min + 0.5 * grid.dx), SELLER)
    assert st_.boundary


def full_surface_strategy(sol, t, s, side):
    """:func:`strategies` as it reads a whole kept surface: numpy's gradient
    of every level and node, interpolated in the cell of (t, log s)."""
    grid, surf, x = sol.grid, sol.surface(side), math.log(s)
    levels = grid.t_nodes()
    i0 = min(int(np.searchsorted(levels, t, side="right")) - 1, grid.nt - 1)
    xi = min(max((x - grid.x_min) / grid.dx, 0.0), grid.nx - 1)
    j0 = min(int(xi), grid.nx - 2)
    ft = min((t - levels[i0]) / (levels[i0 + 1] - levels[i0]), 1.0)
    fx = xi - j0

    def read(f):
        return float((1 - ft) * (1 - fx) * f[i0, j0]
                     + (1 - ft) * fx * f[i0, j0 + 1]
                     + ft * (1 - fx) * f[i0 + 1, j0]
                     + ft * fx * f[i0 + 1, j0 + 1])

    mark = (agent_value(sol.model, sol.claim, t, s).value
            if sol.claim.kind in ("call", "put") else read(sol.agent))
    boundary = (x - grid.x_min < grid.dx) or (grid.x_max - x < grid.dx)
    return drivers.build_strategy(
        sol.model, sol.claim, side, t, s, adjustment=read(surf), mark=mark,
        stock_shares=read(np.gradient(surf, grid.dx, axis=-1)) / s,
        boundary=boundary)


@pytest.mark.parametrize("claim", [CALL, CUSTOM_CALL], ids=["call", "custom"])
def test_strategies_read_the_full_surface_gradient_in_their_cell(
        claim, benchmark_model):
    """Differentiating only the cell's two levels at the nodes around it
    gives every field of the strategy that the whole surface's gradient
    gives, bit for bit: on a solution of :func:`solve` and of
    :func:`solve_batch`, at an interior stock level and in the grid's first
    and last cells, at t = 0 and, where the solution keeps it, a mid level."""
    grid = PdeGrid.default_for(benchmark_model, claim, nx=60, nt=20)
    full = solve(benchmark_model, claim, grid)
    batch = solve_batch([benchmark_model, make_benchmark(alpha=0.3)], claim,
                        grid)[0]
    x = grid.x_nodes()
    stocks = [1.07, math.exp(x[0] + 0.3 * grid.dx),
              math.exp(x[-1] - 0.6 * grid.dx), math.exp(x[-1])]
    mid = 0.5 * (grid.t_nodes()[9] + grid.t_nodes()[10])
    for sol, times in ((full, (0.0, mid)), (batch, (0.0,))):
        for t in times:
            for s in stocks:
                for side in (SELLER, BUYER):
                    want = full_surface_strategy(sol, t, s, side)
                    assert strategies(sol, t, s, side) == want
                    assert want.boundary == (s != 1.07)


def test_agent_at(benchmark_model):
    sol, grid = small_solution(benchmark_model, nx=300, nt=150,
                               claim=CUSTOM_CALL)
    exact = agent_value(benchmark_model, CALL, 0.0, 1.0).value
    mark = np.interp(math.log(1.0), grid.x_nodes(), sol.agent[0])
    assert mark == pytest.approx(exact, abs=5e-5)


def test_solve_validations(benchmark_model):
    with pytest.raises(ValueError):
        grid = PdeGrid(x_min=-0.5, x_max=0.5, nx=50, nt=10, maturity=2.0)
        solve(benchmark_model, CALL, grid)  # maturity mismatch
    with pytest.raises(ValueError):
        grid = PdeGrid(x_min=1.0, x_max=2.0, nx=50, nt=10, maturity=1.0)
        solve(benchmark_model, CALL, grid)  # spot outside
    from xvaband import EquityParams, MarketModel, RateSet
    bad = MarketModel(  # bond return below the funding rate
        rates=RateSet(fund_lend=0.05, fund_borrow=0.08, repo_lend=0.05,
                      repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01,
                      discount=0.01),
        equity=EquityParams(spot=1.0, sigma=0.2),
        credit=CreditParams(mu_own=0.03, mu_cpty=0.16, loss_own=0.5,
                            loss_cpty=0.5),
        allow_violations=True)
    grid = PdeGrid.default_for(bad, CALL, nx=50, nt=10)
    with pytest.raises(ValueError):
        solve(bad, CALL, grid)


def test_stock_level_must_be_positive_and_finite():
    """Sampling a solution names a stock level that has no log-price."""
    model = make_benchmark()
    sol = solve(model, CALL, PdeGrid.default_for(model, CALL, nx=40, nt=10))
    for s in (-1.0, 0.0, math.nan, math.inf):
        for sample in (xva_at, strategies):
            with pytest.raises(ValueError, match="stock level must be positive "
                               f"and finite, got {s!r}$"):
                sample(sol, 0.0, s, SELLER)


def test_grid_validation():
    with pytest.raises(ValueError):
        PdeGrid(x_min=0.0, x_max=1.0, nx=2, nt=10, maturity=1.0)
    with pytest.raises(ValueError):
        PdeGrid(x_min=1.0, x_max=0.0, nx=10, nt=10, maturity=1.0)
    with pytest.raises(ValueError):
        PdeGrid(x_min=0.0, x_max=1.0, nx=10, nt=0, maturity=1.0)
    with pytest.raises(ValueError,
                       match=r"^nx must be >= 3 and an integer, got 40\.5$"):
        PdeGrid(x_min=-1.0, x_max=1.0, nx=40.5, nt=10, maturity=1.0)
    with pytest.raises(ValueError,
                       match=r"^nt must be >= 1 and an integer, got 10\.5$"):
        PdeGrid(x_min=-1.0, x_max=1.0, nx=40, nt=10.5, maturity=1.0)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"maturity .* got {bad!r}$"):
            PdeGrid(x_min=0.0, x_max=1.0, nx=10, nt=10, maturity=bad)
    for lo, hi in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0),
                   (0.0, math.nan)):
        with pytest.raises(ValueError, match=f"finite, got {lo!r} and {hi!r}$"):
            PdeGrid(x_min=lo, x_max=hi, nx=10, nt=10, maturity=1.0)


@pytest.mark.parametrize("nt, maturity", [(1, 1.0), (7, 0.3), (50, 4.7)])
def test_time_levels_graded_toward_maturity(nt, maturity):
    """The levels start at 0 and end at T exactly, increase, and their steps
    grow toward t = 0: tau_n = T (n / N)^1.5 from maturity."""
    grid = PdeGrid(x_min=0.0, x_max=1.0, nx=10, nt=nt, maturity=maturity)
    levels = grid.t_nodes()
    assert len(levels) == nt + 1
    assert levels[0] == 0.0 and levels[-1] == maturity
    steps = np.diff(levels)
    assert np.all(steps > 0.0)
    assert np.all(np.diff(steps) < 0.0)
    tau = maturity - levels[::-1]
    want = maturity * (np.arange(nt + 1) / nt) ** pde.TIME_GRADING
    assert np.max(np.abs(tau - want)) <= 1e-15 * maturity


def test_graded_time_error_falls_at_order_two():
    """At nx = 800 on the band-vs-collateral base config, the differences
    between the adjustments at N = 25, 50, 100 and 200 steps fall at an
    observed order of at least 2 on both sides (2.7 to 3.3 measured)."""
    cfg = cli.figure_config("band-vs-collateral")
    spot = cfg.model.equity.spot
    values = []
    for nt in (25, 50, 100, 200):
        grid = PdeGrid.default_for(cfg.model, cfg.claim, nx=800, nt=nt)
        sol = solve_batch([cfg.model], cfg.claim, grid)[0]
        values.append([xva_at(sol, 0.0, spot, side) for side in (SELLER, BUYER)])
    diffs = np.abs(np.diff(np.array(values), axis=0))
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert np.all(orders >= 2.0), orders


def test_runtime_budget(benchmark_model):
    grid = PdeGrid.default_for(benchmark_model, CALL, nx=400, nt=400)
    start = time.monotonic()
    solve(benchmark_model, CALL, grid)
    assert time.monotonic() - start < 5.0


def test_convergence_smoke():
    from xvaband import convergence_study
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.25,
                           credit=FIG_CREDIT)

    def reference(m, c):
        mark = agent_value(m, c, 0.0, 1.0).value
        return piterbarg_defaults_xva(m, c, 0.0, mark).total

    rows = convergence_study(model, CALL, [(100, 100), (200, 200)], SELLER,
                             reference)
    assert rows[0].error > 0
    assert rows[1].order is not None


def test_convergence_single_step_grid():
    from xvaband import convergence_study
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.25,
                           credit=FIG_CREDIT)

    def reference(m, c):
        mark = agent_value(m, c, 0.0, 1.0).value
        return piterbarg_defaults_xva(m, c, 0.0, mark).total

    rows = convergence_study(model, CALL, [(50, 1)], SELLER, reference)
    assert math.isfinite(rows[0].error)


def test_convergence_zero_claim_zero_error():
    from xvaband import convergence_study
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.25,
                           credit=FIG_CREDIT)
    zero = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                     payoff_fn=lambda s: np.zeros_like(np.asarray(s, float)))
    rows = convergence_study(model, zero, [(40, 10), (80, 20)], SELLER,
                             lambda m, c: 0.0)
    assert all(r.error == 0.0 for r in rows)


SPREAD = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                   payoff_fn=lambda s: (np.maximum(s - 0.9, 0.0)
                                        - np.maximum(s - 1.2, 0.0)))
NEGATED_SPREAD = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                           payoff_fn=lambda s: -SPREAD.payoff_fn(s))


def batch_stack():
    """Scenarios on one grid varying alpha, funding, repo and mu_cpty."""
    out = []
    for alpha, rfm, mu_cpty in ((0.0, 0.08, 0.16), (0.35, 0.15, 0.16),
                                (0.9, 0.08, 0.3), (1.0, 0.2, 0.25)):
        out.append(make_benchmark(alpha=alpha, fund_borrow=rfm, mu_cpty=mu_cpty))
    repo = make_benchmark(alpha=0.5)
    out.append(replace(repo, rates=replace(repo.rates, repo_lend=0.03,
                                           repo_borrow=0.07)))
    return out


def assert_batch_matches_solve(models, claim, nx=60, nt=60):
    grid = PdeGrid.default_for(models[0], claim, nx=nx, nt=nt)
    batch = solve_batch(models, claim, grid)
    assert len(batch) == len(models)
    for model, got in zip(models, batch):
        want = solve(model, claim, grid)
        assert got.model is model
        for name in ("agent", "seller", "buyer"):
            rows = getattr(got, name)
            assert rows.shape == (2, grid.nx)  # the first two time levels
            assert rows.tobytes() == getattr(want, name)[:2].tobytes(), name
        assert np.array_equal(got.picard_iterations, want.picard_iterations)
        assert got.picard_residuals.tobytes() == want.picard_residuals.tobytes()
        for side in (SELLER, BUYER):
            assert abs(xva_at(got, 0.0, 1.0, side)
                       - xva_at(want, 0.0, 1.0, side)) <= 1e-12
            a, b = strategies(got, 0.0, 1.0, side), strategies(want, 0.0, 1.0, side)
            assert abs(a.stock_shares - b.stock_shares) <= 1e-12
            assert abs(a.funding_dollars - b.funding_dollars) <= 1e-12


def test_solve_batch_matches_solve_per_column():
    """Each column of a batch equals solve() on its model alone; stacks that
    differ in what the columns share are refused."""
    put = ClaimSpec(kind="put", strike=1.1, maturity=1.0)
    for claim in (CALL, put, SPREAD):
        assert_batch_matches_solve(batch_stack(), claim)
    no_credit = [replace(m, credit=None) for m in batch_stack()]
    assert_batch_matches_solve(no_credit, CALL)

    base = make_benchmark()
    grid = PdeGrid.default_for(base, CALL, nx=40, nt=10)
    others = [
        (replace(base, equity=EquityParams(spot=1.0, sigma=0.25)), "sigma"),
        (replace(base, rates=replace(base.rates, discount=0.02)), "discount"),
        (replace(base, equity=EquityParams(spot=1.05, sigma=0.2)), "spot"),
        (replace(base, credit=None), "credit block"),
    ]
    for other, what in others:
        with pytest.raises(ValueError, match=f"scenario 1: .*{what}"):
            solve_batch([base, other], CALL, grid)
    with pytest.raises(ValueError):
        solve_batch([], CALL, grid)


def test_solve_batch_keeps_two_rows():
    models = batch_stack()[:2]
    grid = PdeGrid.default_for(models[0], CALL, nx=40, nt=20)
    sol = solve_batch(models, CALL, grid)[0]
    t_first = grid.t_nodes()[1]
    xva_at(sol, 0.5 * t_first, 1.0, SELLER)
    with pytest.raises(ValueError, match="time rows"):
        xva_at(sol, t_first, 1.0, SELLER)


def test_batch_picard_failure_names_the_column():
    models = [make_benchmark(),
              make_benchmark(fund_borrow=4.0, mu_own=0.9, mu_cpty=0.9)]
    grid = PdeGrid.default_for(models[0], CALL, nx=40, nt=1)
    with pytest.raises(NumericsError) as info:
        solve_batch(models, CALL, grid)
    msg = str(info.value)
    assert "side of scenario 1 (fund_borrow=4, mu_own=0.9, mu_cpty=0.9)" in msg
    assert "seller" in msg or "buyer" in msg
    assert "t=" in msg and "last residual" in msg
    assert "worst node" in msg and "tolerance 1e-10" in msg
    solve_batch(models[:1], CALL, grid)  # the other column alone converges


def test_batch_failures_name_the_given_scenario_of_a_reordered_march(
        monkeypatch):
    """The march takes the models of one operator split next to each other,
    so the model given second is marched third; a Picard failure and a
    non-finite driver both name it by its given index, the driver's though
    the third turns non-finite too and is marched before it."""
    def batch(fund_borrow):
        return [make_benchmark(alpha=0.0),
                make_benchmark(fund_borrow=fund_borrow, alpha=0.5),
                make_benchmark(alpha=0.5)]

    assert pde._row_groups(batch(0.15))[0] == [0, 2, 1]
    grid = PdeGrid.default_for(make_benchmark(), CALL, nx=40, nt=1)
    diverging = batch(4.0)
    diverging[1] = replace(diverging[1], credit=replace(
        diverging[1].credit, mu_own=0.9, mu_cpty=0.9))
    with pytest.raises(NumericsError, match=r"Picard iteration did not "
                       r"converge on the \w+ side of scenario 1 \(fund_borrow=4, "
                       r"alpha=0\.5, mu_own=0\.9, mu_cpty=0\.9\) at t="):
        solve_batch(diverging, CALL, grid)

    level_driver = pde._level_driver
    march = pde.Rows(batch(0.15), pde._row_groups(batch(0.15))[0])
    rows = np.broadcast_to(march.params.alpha, (march.size, 1))[:, 0] == 0.5

    def poisoned(rest, mark, grad, dx):
        g = level_driver(rest, mark, grad, dx)

        def h(u):
            out = g(u)
            out[rows] = np.nan
            return out
        return h

    monkeypatch.setattr(pde, "_level_driver", poisoned)
    with pytest.raises(NumericsError, match=r"non-finite values in the seller "
                       r"side of scenario 1 \(fund_borrow=0\.15, alpha=0\.5\) "
                       r"surface at t="):
        solve_batch(batch(0.15), CALL, grid)


def far_edge_draw():
    """Draw 6 of the benchmark's point pool: a symmetric call at spot 1.4e3
    whose buyer residual at the far edge of the grid (s = 1.9e6, |u| = 2.6e5)
    stalls near two ulps of |u|, above 1e-10 but far below 1e-10 of the
    strike."""
    rates = RateSet(fund_lend=0.0545342574603374,
                    fund_borrow=0.0545342574603374,
                    repo_lend=0.0016836989256222123,
                    repo_borrow=0.0016836989256222123,
                    coll_earn=0.0009597072660530381,
                    coll_pay=0.0009597072660530381,
                    discount=0.0016836989256222123)
    credit = CreditParams(mu_own=0.10051338208336599,
                          mu_cpty=0.14014791822608963,
                          loss_own=0.49397004489109364,
                          loss_cpty=0.44271598581798227)
    model = MarketModel(rates=rates, credit=credit, alpha=0.3460779190181549,
                        equity=EquityParams(spot=1385.7815063059677,
                                            sigma=0.5773231517008676))
    claim = ClaimSpec(kind="call", strike=1393.5337741048634,
                      maturity=4.707681203390592)
    return model, claim


@pytest.mark.parametrize("nx, nt, bound", [(400, 400, 3e-5), (800, 100, 5e-6),
                                           (cli.DEFAULT_NX, cli.DEFAULT_NT, 2e-6)])
def test_far_edge_draw_completes(nx, nt, bound):
    """Picard tests convergence in units of the strike, so the far-edge draw
    completes, within its grid's error of the closed form (2.36e-5 of
    strike at 400 x 400, 3.2e-6 at 800 x 100, 1.43e-6 at the default
    800 x 50)."""
    model, claim = far_edge_draw()
    grid = PdeGrid.default_for(model, claim, nx=nx, nt=nt)
    sol = solve_batch([model], claim, grid)[0]
    mark = agent_value(model, claim, 0.0, model.equity.spot).value
    for side in (SELLER, BUYER):
        want = piterbarg_defaults_xva(model, claim, 0.0, mark, side).total
        got = xva_at(sol, 0.0, model.equity.spot, side)
        assert abs(got - want) <= bound * claim.strike, side
    assert np.all(sol.picard_residuals < pde.PICARD_TOL * claim.strike)


def test_picard_failure_names_node_and_applied_tolerance(monkeypatch):
    """A forced non-convergence names the side, t, the worst node, s, |u|,
    the last residual and the tolerance applied, PICARD_TOL times the
    strike; the first step's first half-step fails on the first row.  The
    far-edge draw is symmetric, so each step's first iterate is its fixed
    point: its funding borrow rate is raised to make the rows iterate."""
    monkeypatch.setattr(pde, "PICARD_MAX_ITER", 1)
    model, claim = far_edge_draw()
    model = replace(model, rates=replace(model.rates, fund_borrow=0.08))
    grid = PdeGrid.default_for(model, claim, nx=cli.DEFAULT_NX,
                               nt=cli.DEFAULT_NT)
    with pytest.raises(NumericsError) as info:
        solve(model, claim, grid)
    msg = str(info.value)
    assert msg == ("Picard iteration did not converge on the seller side at "
                   "t=4.70102 within 1 iterations: worst node 799 at "
                   "s=2.54078e+06, |u|=830, last residual 830 "
                   "(tolerance 1.39353e-07)")
    assert f"{pde.PICARD_TOL * claim.strike:g}" == "1.39353e-07"


@pytest.mark.parametrize("scale", [2.0 ** -20, 1e-6, 1e7, 2.0 ** 20])
def test_adjustment_is_homogeneous_in_spot_and_strike(scale):
    """Scaling spot and strike by lambda scales both adjustments by lambda:
    at the default grid every scale completes and matches lambda = 1 to
    1e-12 relative."""
    base = make_benchmark()
    grid_size = dict(nx=cli.DEFAULT_NX, nt=cli.DEFAULT_NT)

    def adjustments(spot):
        model = replace(base, equity=EquityParams(spot=spot, sigma=0.2))
        claim = ClaimSpec(kind="call", strike=spot, maturity=1.0)
        grid = PdeGrid.default_for(model, claim, **grid_size)
        sol = solve_batch([model], claim, grid)[0]
        return [xva_at(sol, 0.0, spot, side) for side in (SELLER, BUYER)]

    for unit, scaled in zip(adjustments(1.0), adjustments(scale)):
        assert abs(scaled / scale - unit) <= 1e-12 * abs(unit)


def test_batched_march_peak_memory():
    """One 42-scenario march (the band-vs-collateral models) at the default
    grid peaks, under tracemalloc, below 13 blocks of (84, nx) floats: it
    keeps one level of driver terms alive, two fields (base and at_zero)
    and two buffers, dropped at the end of the level's own step, and the
    last solve's fixed part, which the next step's fixed part overwrites;
    it builds the fields from the march's per-row coefficients with no
    further block, and each iteration evaluates the driver on the whole
    block (11.86 blocks measured at 800 x 50 with numpy 2.4, where the two
    funding borrow rates of the figure give the implicit operator two
    groups of rows, each with its own bands and factors)."""
    import tracemalloc
    cfg = cli.figure_config("band-vs-collateral")
    fig = cli.FIGURES["band-vs-collateral"]
    models = [cli._model_with(cfg.model, **fig.changes(x, rb))
              for x in cli._sweep_values(cfg.sweep_start, cfg.sweep_stop,
                                         cfg.sweep_points)
              for rb in fig.series]
    assert len(models) == 42
    grid = PdeGrid.default_for(models[0], cfg.claim, nx=cli.DEFAULT_NX,
                               nt=cli.DEFAULT_NT)
    tracemalloc.start()
    try:
        solve_batch(models, cfg.claim, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * (2 * len(models) * grid.nx * 8)


def test_batched_march_peak_memory_with_many_operator_groups():
    """Each group of rows of equal (rate, kappa) keeps its own bands and LU
    factors, about 7.5 vectors of nx floats.  The 30-scenario xva-vs-repo
    march, whose repo rates make 24 groups, peaks at the default grid below
    16.25 blocks of (60, nx) floats (14.89 measured with numpy 2.4)."""
    import tracemalloc
    cfg = cli.figure_config("xva-vs-repo")
    fig = cli.FIGURES["xva-vs-repo"]
    changes = [fig.changes(x, s)
               for x in cli._sweep_values(cfg.sweep_start, cfg.sweep_stop,
                                          cfg.sweep_points)
               for s in fig.series]
    models = [cli._model_with(cfg.model, **c) for c in changes if c]
    assert len(models) == 30 and len(pde._row_groups(models)[1]) == 24
    grid = PdeGrid.default_for(models[0], cfg.claim, nx=cli.DEFAULT_NX,
                               nt=cli.DEFAULT_NT)
    tracemalloc.start()
    try:
        solve_batch(models, cfg.claim, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16.25 * (2 * len(models) * grid.nx * 8)


# -- the march's parts against their references -------------------------------

def operator_cases():
    """Steppers over spots 1e-2..1e4, sigma 0.1..0.6 and T 0.25..5, both
    operators (agent and adjustment), at the march's implicit coefficients
    of its longest and shortest steps."""
    base = make_benchmark()
    for spot in (1e-2, 1.0, 1e4):
        for sigma in (0.1, 0.6):
            for maturity in (0.25, 5.0):
                model = replace(base, equity=EquityParams(spot=spot, sigma=sigma))
                claim = ClaimSpec(kind="call", strike=spot, maturity=maturity)
                grid = PdeGrid.default_for(model, claim, nx=400, nt=400)
                steps = np.diff(grid.t_nodes())
                for zeroth in (-model.rates.discount, 0.0):
                    stepper = pde._Stepper(grid, model, zeroth)
                    for coef in (0.5 * steps[0], 0.5 * steps[-1]):
                        yield spot, stepper, coef


def test_solve_banded_matches_scipy_byte_for_byte(rng):
    """The prefactored solve gives the bits of scipy's banded solve, for one
    column and for a block of 84."""
    for spot, stepper, coef in operator_cases():
        # (I - coef * B) in scipy's band layout: upper, main and lower
        # diagonal as rows
        lower, diag, upper = stepper.groups[0][1]
        ab = np.zeros((3, stepper.nx))
        ab[0, 1:] = -coef * upper[:-1]
        ab[1, :] = 1.0 - coef * diag
        ab[2, :-1] = -coef * lower[1:]
        for shape in ((stepper.nx,), (stepper.nx, 84)):
            b = spot * rng.standard_normal(shape)
            got = pde.solve_banded(stepper, coef, b)
            want = scipy_solve_banded((1, 1), ab, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_solve_banded_in_place_gives_the_same_bits(rng):
    """With ``overwrite`` the solution of the transpose of a (k, nx) block
    lands in that block, with the bits of the copying solve."""
    for spot, stepper, coef in operator_cases():
        rows = spot * rng.standard_normal((84, stepper.nx))
        want = pde.solve_banded(stepper, coef, rows.T)
        got = pde.solve_banded(stepper, coef, rows.T, overwrite=True)
        assert np.shares_memory(got, rows)
        assert got.tobytes() == want.tobytes()


def test_linear_step_solves_in_place_with_the_same_bits(rng):
    """A linear theta step's fresh right-hand side, one row such as the
    agent's or a block of rows, solves in place with the bits of the
    copying solve of that right-hand side, the step's input left alone."""
    for spot, stepper, coef in operator_cases():
        for u in (spot * rng.standard_normal(stepper.nx),
                  spot * rng.standard_normal((3, stepper.nx))):
            kept = u.copy()
            rhs = u + (1.0 - 0.5) * (2.0 * coef) * band_product(stepper, u)
            want = pde.solve_banded(stepper, coef, rhs.T).T
            got = pde.solve_banded(stepper, coef, rhs.T, overwrite=True).T
            assert np.shares_memory(got, rhs)
            assert got.tobytes() == want.tobytes()
            assert u.tobytes() == kept.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_solve_banded_solves_a_block_of_another_dtype(dtype, rng):
    """A right-hand side that is not float64 is solved in a float64 copy,
    with or without ``overwrite``, and left as it is."""
    _, stepper, coef = next(operator_cases())
    rows = np.asarray(100.0 * rng.standard_normal((4, stepper.nx)), dtype=dtype)
    kept = rows.copy()
    want = pde.solve_banded(stepper, coef, rows.T.astype(np.float64))
    for overwrite in (False, True):
        got = pde.solve_banded(stepper, coef, rows.T, overwrite=overwrite)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert rows.tobytes() == kept.tobytes()


def test_gradient_buffer_matches_numpy(rng):
    """``_gradient`` gives the bits of numpy's along the last axis, on what
    its three callers pass: one row (a custom claim's agent), a (2K, nx)
    block (the driver) and the (2, 3) or (2, 4) nodes around a cell of a
    surface, a view into it (``strategies``), down to nx = 3, the smallest
    grid, whose one central difference sits between the two one-sided
    ones."""
    for shape in ((400,), (400, 2), (400, 84), (3, 5), (3,), (2, 3), (84, 3),
                  (2, 4), (2, 800), (84, 800), (51, 800), (51, 3)):
        for dx in (0.0123, 1e-3, 0.5):
            u = np.exp(rng.standard_normal(shape)) * rng.choice([-1.0, 1.0], shape)
            got = pde._gradient(u, dx, np.empty_like(u))
            assert got.tobytes() == np.gradient(u, dx, axis=-1).tobytes()
    cell = np.exp(rng.standard_normal((51, 800)))[20:22, 300:304]
    got = pde._gradient(cell, 0.0123, np.empty(cell.shape))
    assert got.tobytes() == np.gradient(cell, 0.0123, axis=-1).tobytes()


def reference_drift(models, mark, grad, dx, u):
    """The driver the march evaluates, one public reduced drift per row (row
    r is the seller of scenario r when r < K, else the buyer of scenario
    r - K), and the scale its step rounds at, node by node
    (:func:`drivers.reduced_step_scale`, the lattice's root-check scale)."""
    count = len(models)
    z = np.gradient(u, dx, axis=-1)
    z += grad
    z *= models[0].equity.sigma
    drift, scale = np.empty_like(u), np.empty_like(u)
    for r in range(len(u)):
        side = SELLER if r < count else BUYER
        model = models[r % count]
        drift[r] = drivers.reduced_drift(model, side, 0.0, u[r], z[r], mark)
        p = drivers.DriverParams.of(model, side)
        scale[r] = drivers.reduced_step_scale(
            p, drivers.reduced_terms(p, z[r], mark), u[r])
    return drift, scale


def level_drift_ulps(models, mark, grad, dx, u):
    """The level driver of the models' block at u, and its distance from
    :func:`reference_drift` per node, in ulps of the step's scale there."""
    params = drivers.DriverParams.stack(models)
    g = pde._level_driver(pde._remainder(params, split=False), mark, grad, dx)
    got = g(u)
    want, scale = reference_drift(models, mark, grad, dx, u)
    return g, got, np.abs(got - want) / np.spacing(scale)


@pytest.mark.parametrize("credit", [True, False])
def test_level_drift_matches_reduced_drift(credit, rng):
    """The driver of one time level, built once from the mark, gives the
    public reduced drift of every row's model and side to ROOT_ULPS ulps of
    the step's scale at each node: its affine form sums in another order,
    so the last bits may differ (4 ulps measured).  The batch varies the
    funding and repo borrow rates and, with credit, both default
    intensities per row; each row's stock position and funding account are
    exactly 0 at some nodes, the kinks of both branches.  A later call
    leaves an earlier result alone."""
    models = batch_stack() + [make_benchmark(alpha=0.6, fund_borrow=0.12,
                                             mu_own=0.3)]
    if not credit:
        models = [replace(m, credit=None) for m in models]
    params = drivers.DriverParams.stack(models)
    varied = ("fund_borrow", "repo_borrow") + (
        ("intensity_own", "intensity_cpty") if credit else ())
    for name in varied:
        assert np.shape(getattr(params, name)) == (2 * len(models), 1), name
    grid = PdeGrid.default_for(models[0], CALL, nx=120, nt=10)
    s = np.exp(grid.x_nodes())
    value, delta = agent_value_grid(models[0], CALL, 0.37, s)
    mark, grad = value, s * delta
    u = 0.05 * rng.standard_normal((2 * len(models), grid.nx))
    # the stock position, gradient(u) + grad, is 0 at nodes 40..44
    grad[40:45] = 0.0
    u[:, 39:46] = u[:, 42:43]
    # the funding account, at_zero + slope u in each row's terms, is 0 at
    # every tenth node from 60
    _, at_zero = drivers.mark_fields(drivers.mark_coefficients(params), mark)
    slope, _ = drivers.affine_rates(params)
    u[:, 60:110:10] = -slope * at_zero[:, 60:110:10]
    g, got, ulps = level_drift_ulps(models, mark, grad, grid.dx, u)
    assert ulps.max() <= ROOT_ULPS
    before = got.copy()
    g(u[:, ::-1].copy())  # reuses the level's buffers
    assert got.tobytes() == before.tobytes()


VALUE = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(min_value=-1e3, max_value=1e3))


def linear_scenario(fund_lend, spread, repo_lend, repo_borrow, alpha=0.4):
    """A :data:`SCENARIO` dict of the given funding and repo rates."""
    return dict(fund_lend=fund_lend, spread=spread, repo_lend=repo_lend,
                repo_borrow=repo_borrow, coll_earn=0.01, coll_pay=0.02,
                mu_own=0.2, mu_cpty=0.25, loss_own=0.5, loss_cpty=0.4,
                alpha=alpha)


# a block whose mark, delta and u hold +0.0 and -0.0 beside values of both
# signs, each row shifted by one node
SIGNED = np.array([np.roll([0.0, -0.0, 0.37, -1.25, -0.0, 2.5], r)
                   for r in range(8)])
# scenarios, discount rate and linear legs (drivers.linear_legs): both, the
# repo leg alone, the funding leg alone, and rate pairs of signed zeros at
# a zero discount rate
LINEAR = [
    ([linear_scenario(0.05, 0.0, 0.03, 0.03),
      linear_scenario(0.02, 0.0, 0.01, 0.01, alpha=0.9)], 0.01, (True, True)),
    ([linear_scenario(0.05, 0.03, 0.03, 0.03)], 0.01, (True, False)),
    ([linear_scenario(0.05, 0.0, 0.02, 0.06)], 0.01, (False, True)),
    ([linear_scenario(-0.0, -0.0, 0.0, -0.0)], 0.0, (True, True)),
]


def linear_examples(with_legs=False):
    """Adds an ``@example`` of each :data:`LINEAR` case on the
    :data:`SIGNED` block, with and without a credit block, and
    ``with_legs`` its linear legs as ``legs``."""
    def add(test):
        for scenarios, discount, legs in LINEAR:
            for credit in (True, False):
                test = example(scenarios=scenarios, credit=credit,
                               discount=discount, dx=0.25, values=SIGNED,
                               **({"legs": legs} if with_legs else {}))(test)
        return test
    return add


# repo_borrow below repo_lend: the repo legs as (repo_lend - discount) z +
# (repo_borrow - repo_lend) z⁺ cancel, 12 ulps off at node 0 of the seller
KINKED = np.full((8, 6), 266.6875)
KINKED[[0, 2], 0] = 0.0


@settings(max_examples=100, derandomize=True, deadline=None)
@example(scenarios=[dict(fund_lend=0.125, spread=0.125,
                         repo_lend=0.17891045784544315, repo_borrow=0.0,
                         coll_earn=0.0, coll_pay=0.0, mu_own=0.0, mu_cpty=0.0,
                         loss_own=0.0, loss_cpty=0.0, alpha=0.0)],
         credit=False, discount=0.022407948971315136, dx=1.0, values=KINKED)
@linear_examples()
@given(scenarios=st.lists(SCENARIO, min_size=1, max_size=3), credit=st.booleans(),
       discount=st.floats(min_value=0.0, max_value=0.1),
       dx=st.floats(min_value=1e-3, max_value=1.0),
       values=arrays(np.float64, (8, 6), elements=VALUE))
def test_level_drift_matches_reduced_drift_on_drawn_models(scenarios, credit,
                                                           discount, dx, values):
    """On one to three drawn models that pass the necessary rate conditions,
    sharing the equity and the discount rate as a march's do, with or
    without a credit block, the level driver on a (2K, 6) block is each
    row's public reduced drift to ROOT_ULPS ulps of the step's scale."""
    models = drawn_models(scenarios, credit, discount)
    assume(all(m.validate_necessary().passed for m in models))
    mark, grad, u = values[0], values[1], values[2:2 + 2 * len(models)]
    _, _, ulps = level_drift_ulps(models, mark, grad, dx, u)
    assert ulps.max() <= ROOT_ULPS


# twice the 4 ulps measured at most over 6,000 randomly drawn examples
SPLIT_ULPS = 8


def band_product(stepper, u):
    """B u for each group of the stepper's rows: the diagonal's product, then
    the upper band's and the lower band's added, in that order.  The march
    takes no band product; this is the reference of its explicit half."""
    out = np.empty_like(u)
    for ranges, (lower, diag, upper) in stepper.groups:
        for rows in ranges:
            v, w = u[rows], out[rows]
            np.multiply(diag, v, out=w)
            w[..., :-1] += upper[:-1] * v[..., 1:]
            w[..., 1:] += lower[1:] * v[..., :-1]
    return out


def band_addends(stepper, u):
    """Per node, the largest of the three addends of ``band_product(stepper,
    u)``."""
    out = np.empty_like(u)
    for ranges, bands in stepper.groups:
        lower, diag, upper = map(np.abs, bands)
        for rows in ranges:
            v, w = np.abs(u[rows]), out[rows]
            np.multiply(diag, v, out=w)
            np.maximum(w[:, :-1], upper[:-1] * v[:, 1:], out=w[:, :-1])
            np.maximum(w[:, 1:], lower[1:] * v[:, :-1], out=w[:, 1:])
    return out


def split_ulps(models, mark, grad, dx, u):
    """``B' u + g~(u)``, the march's operator and remainder, against ``B u +
    g(u)``, the spatial operator and the level driver itself, per node in
    ulps of the largest addend of either: a band product, a term of the
    reduced step (:func:`reference_drift`), ``kappa grad`` or ``rate u``.
    The rows are in the march's order (:func:`pde._row_groups`)."""
    order, groups = pde._row_groups(models)
    models = [models[k] for k in order]
    grid = PdeGrid(x_min=0.0, x_max=(u.shape[1] - 1) * dx, nx=u.shape[1], nt=1,
                   maturity=1.0)
    params = drivers.DriverParams.stack(models)
    rate, kappa = pde._operator_split(params)
    plain = pde._Stepper(grid, models[0], 0.0)
    split = pde._Stepper(grid, models[0], 0.0, groups=groups)
    want = band_product(plain, u) + pde._level_driver(
        pde._remainder(params, split=False), mark, grad, grid.dx)(u)
    got = band_product(split, u) + pde._level_driver(
        pde._remainder(params), mark, grad, grid.dx)(u)
    _, scale = reference_drift(models, mark, grad, grid.dx, u)
    scale = functools.reduce(np.maximum, [
        scale, band_addends(plain, u), band_addends(split, u),
        np.abs(kappa * grad), np.abs(rate * u)])
    return np.abs(got - want) / np.spacing(scale)


@settings(max_examples=100, derandomize=True, deadline=None)
@linear_examples()
@given(scenarios=st.lists(SCENARIO, min_size=1, max_size=3), credit=st.booleans(),
       discount=st.floats(min_value=0.0, max_value=0.1),
       dx=st.floats(min_value=1e-3, max_value=1.0),
       values=arrays(np.float64, (8, 6), elements=VALUE))
def test_split_operator_evaluates_the_same_equation(scenarios, credit,
                                                    discount, dx, values):
    """The march moves the driver's linear part, ``-rate u + kappa G u``,
    into the implicit operator and iterates on the rest: on drawn models,
    ``B' u + g~(u)`` is ``B u + g(u)`` to SPLIT_ULPS ulps of the largest
    addend at each node."""
    models = drawn_models(scenarios, credit, discount)
    assume(all(m.validate_necessary().passed for m in models))
    mark, grad, u = values[0], values[1], values[2:2 + 2 * len(models)]
    assert split_ulps(models, mark, grad, dx, u).max() <= SPLIT_ULPS


LEGS = st.sampled_from([(True, True), (True, False), (False, True)])


@settings(max_examples=100, derandomize=True, deadline=None)
@linear_examples(with_legs=True)
# a seller's base of -0.0 where the mark, its delta and u are 0: repo below
# the discount rate, no collateral and no loss at the counterparty's default
@example(scenarios=[dict(fund_lend=0.05, spread=0.03, repo_lend=0.01,
                         repo_borrow=0.01, coll_earn=0.0, coll_pay=0.0,
                         mu_own=0.3, mu_cpty=0.3, loss_own=0.9, loss_cpty=0.0,
                         alpha=0.0)],
         credit=True, discount=0.05, dx=0.25, values=np.zeros((8, 6)),
         legs=(True, False))
@given(scenarios=st.lists(SCENARIO, min_size=1, max_size=3), credit=st.booleans(),
       discount=st.floats(min_value=0.0, max_value=0.1),
       dx=st.floats(min_value=1e-3, max_value=1.0),
       values=arrays(np.float64, (8, 6), elements=VALUE), legs=LEGS)
def test_linear_legs_give_the_bits_of_their_branches(scenarios, credit,
                                                     discount, dx, values,
                                                     legs):
    """On drawn models that pass the necessary rate conditions and whose
    repo or funding rates, or both, are equal in every row, the level
    driver that skips a linear repo leg gives the bytes of the one that
    takes its kink (:func:`drivers.linear_legs` forced to (False, False)),
    as the remainder of the march and as the driver g itself.  The funding
    leg is one selection either way, so the funding cases check that a
    linear funding leg leaves the repo leg's bits alone."""
    repo, funding = legs
    scenarios = [{**sc, **({"repo_borrow": sc["repo_lend"]} if repo else {}),
                  **({"spread": 0.0} if funding else {})} for sc in scenarios]
    models = drawn_models(scenarios, credit, discount)
    assume(all(m.validate_necessary().passed for m in models))
    mark, grad, u = values[0], values[1], values[2:2 + 2 * len(models)]
    params = drivers.DriverParams.stack(models)
    # a drawn leg of zero spread or equal repo rates is linear too
    assert all(np.greater_equal(drivers.linear_legs(params), legs))

    def drift(split):
        return pde._level_driver(pde._remainder(params, split), mark, grad,
                                 dx)(u)

    for split in (True, False):
        skipped = drift(split)
        with mock.patch.object(drivers, "linear_legs",
                               lambda p: (False, False)):
            branched = drift(split)
        assert skipped.tobytes() == branched.tobytes()


def test_equal_repo_rates_skip_the_gradient(monkeypatch):
    """With equal repo rates in every row the march's level driver never
    takes the gradient of u; one row of unequal repo rates makes it."""
    def refused(*args):
        raise AssertionError("the gradient of u was taken")

    monkeypatch.setattr(pde, "_gradient", refused)
    models = batch_stack()[:4]  # repo 0.05 / 0.05, kinked funding
    grid = PdeGrid.default_for(models[0], CALL, nx=40, nt=4)
    solve_batch(models, CALL, grid)
    solve_batch([make_symmetric()], CALL, grid)
    with pytest.raises(AssertionError, match="the gradient of u was taken"):
        solve_batch(batch_stack(), CALL, grid)  # one row of repo 0.03 / 0.07


@pytest.mark.parametrize("case", ["no credit", "credit", "far edge draw"])
def test_symmetric_rates_take_one_picard_iteration(case):
    """With equal lend and borrow rates the driver is linear in u, and the
    implicit operator holds all of that: the remainder does not depend on u
    but through rounding, so each step's first iterate is its fixed point,
    and the Picard loop stops there: exactly 1 iteration on every step of
    the default grid, the implicit-Euler start-up included."""
    if case == "far edge draw":
        model, claim = far_edge_draw()
    else:
        model = make_symmetric(alpha=0.3,
                               credit=FIG_CREDIT if case == "credit" else None)
        claim = CALL
    assert model.rates.fund_lend == model.rates.fund_borrow
    assert model.rates.repo_lend == model.rates.repo_borrow
    grid = PdeGrid.default_for(model, claim, nx=cli.DEFAULT_NX,
                               nt=cli.DEFAULT_NT)
    sol = solve(model, claim, grid)
    assert sol.picard_iterations.tolist() == [1] * grid.nt
    assert np.all(sol.picard_residuals == 0.0)


def drawn_asymmetric(seed):
    """A model of drawn asymmetric funding and repo rates, with a credit
    block, and an at-the-money call at a drawn spot of 1e-2 to 1e4."""
    rng = np.random.default_rng(seed)
    discount = rng.uniform(0.0, 0.03)
    fund_lend = discount + rng.uniform(0.01, 0.05)
    fund_borrow = fund_lend + rng.uniform(0.01, 0.08)
    repo_lend = rng.uniform(discount, fund_lend)
    rates = RateSet(fund_lend=fund_lend, fund_borrow=fund_borrow,
                    repo_lend=repo_lend,
                    repo_borrow=rng.uniform(repo_lend, fund_borrow),
                    coll_earn=rng.uniform(0.0, fund_lend),
                    coll_pay=rng.uniform(0.0, fund_lend), discount=discount)
    credit = CreditParams(mu_own=fund_borrow + rng.uniform(0.02, 0.15),
                          mu_cpty=fund_borrow + rng.uniform(0.02, 0.15),
                          loss_own=rng.uniform(0.3, 0.7),
                          loss_cpty=rng.uniform(0.3, 0.7))
    spot = 10.0 ** rng.uniform(-2.0, 4.0)
    model = MarketModel(rates=rates, credit=credit,
                        alpha=rng.uniform(0.0, 1.0),
                        equity=EquityParams(spot=spot,
                                            sigma=rng.uniform(0.1, 0.6)))
    return model, ClaimSpec(kind="call", strike=spot,
                            maturity=rng.uniform(0.25, 5.0))


@pytest.mark.parametrize("case", ["benchmark", 0, 1])
def test_each_step_stops_within_tolerance_of_its_fixed_point(case,
                                                             monkeypatch):
    """Each step's Picard loop stops on its estimated error, not on one more
    confirming solve; iterated on until its change is below 1e-3 of the
    tolerance, each step's own map moves the returned block by less than
    the tolerance, PICARD_TOL times the strike."""
    if case == "benchmark":
        model, claim = make_benchmark(), CALL
    else:
        model, claim = drawn_asymmetric(case)
    assert model.rates.fund_lend != model.rates.fund_borrow
    settle = pde.settle
    moves = []

    def checked(step, u_start, tol, max_iter, exact=()):
        iters, resid, u, failed = settle(step, u_start, tol, max_iter, exact)
        v = u
        for _ in range(max_iter):
            new = step(v)
            change = np.abs(new - v).max()
            v = new
            if change < 1e-3 * tol:
                break
        else:
            raise AssertionError("the step's map did not settle")
        moves.append(np.abs(u - v).max() / tol)
        return iters, resid, u, failed

    monkeypatch.setattr(pde, "settle", checked)
    grid = PdeGrid.default_for(model, claim, nx=cli.DEFAULT_NX,
                               nt=cli.DEFAULT_NT)
    sol = solve(model, claim, grid)
    assert len(moves) == grid.nt + pde.RANNACHER_STEPS
    assert max(moves) < 1.0
    assert sol.picard_iterations.max() >= 2  # the rows do iterate


@settings(max_examples=25, derandomize=True, deadline=None)
@example(scenarios=[dict(fund_lend=0.05, spread=0.03, repo_lend=0.05,
                         repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01,
                         mu_own=0.21, mu_cpty=0.16, loss_own=0.5,
                         loss_cpty=0.5, alpha=0.9),
                    dict(fund_lend=0.05, spread=0.1, repo_lend=0.03,
                         repo_borrow=0.07, coll_earn=0.01, coll_pay=0.01,
                         mu_own=0.21, mu_cpty=0.16, loss_own=0.5,
                         loss_cpty=0.5, alpha=0.9)],
         credit=True, discount=0.01, picks=[(0, 0.2), (1, 0.4), (0, 0.6),
                                            (1, 0.8)])
# a model of linear legs alone beside a kinked one
@example(scenarios=[linear_scenario(0.05, 0.0, 0.03, 0.03),
                    linear_scenario(0.04, 0.1, 0.02, 0.07)],
         credit=True, discount=0.01, picks=[(0, 0.2), (1, 0.5), (0, 0.8)])
@given(scenarios=st.lists(SCENARIO, min_size=1, max_size=3), credit=st.booleans(),
       discount=st.floats(min_value=0.0, max_value=0.1),
       picks=st.lists(st.tuples(st.integers(0, 2),
                                st.floats(min_value=0.0, max_value=1.0)),
                      min_size=2, max_size=5))
def test_batch_rows_match_solve_on_drawn_rates(scenarios, credit, discount,
                                               picks):
    """On drawn fund and repo rates, so a batch of several operator groups
    whose models come interleaved, each scenario of ``solve_batch`` equals
    ``solve`` on its model alone, bit for bit, Picard counts included."""
    drawn = drawn_models(scenarios, credit, discount)
    models = [replace(drawn[i % len(drawn)], alpha=alpha) for i, alpha in picks]
    assume(all(m.validate_necessary().passed for m in models))
    assert_batch_matches_solve(models, CALL, nx=30, nt=6)


def drawn_asymmetric_batch(seed, count=4):
    """``count`` models of drawn unequal lend and borrow rates, funding and
    repo, with credit blocks, sharing the benchmark's equity and one
    discount rate, each passing the necessary rate conditions."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        sc = dict(fund_lend=rng.uniform(0.0, 0.1),
                  spread=rng.uniform(0.01, 0.1),
                  repo_lend=rng.uniform(0.0, 0.1),
                  repo_borrow=rng.uniform(0.0, 0.1),
                  coll_earn=rng.uniform(0.0, 0.05),
                  coll_pay=rng.uniform(0.0, 0.05),
                  mu_own=rng.uniform(0.2, 0.5), mu_cpty=rng.uniform(0.2, 0.5),
                  loss_own=rng.uniform(0.0, 1.0),
                  loss_cpty=rng.uniform(0.0, 1.0), alpha=rng.uniform(0.0, 1.0))
        [model] = drawn_models([sc], True, 0.01)
        if model.validate_necessary().passed:
            models.append(model)
    return models


MARCH_CASES = {"benchmark": ([make_benchmark()], CALL),
               "drawn batch": (drawn_asymmetric_batch(1), CALL),
               "custom call": ([make_benchmark()], CUSTOM_CALL)}


def recorded_march(models, claim, monkeypatch):
    """``solve_batch`` at the default grid, recording per Picard solve its
    stepper, coefficient, fixed part, driver, the iterate each row's last
    solve took and the block it returned, and per agent solve its stepper,
    coefficient, right-hand side and solution."""
    picard, solve_banded = pde._picard, pde.solve_banded
    block, agent = [], []

    def recording_picard(stepper, fixed, dt, theta, u_start, driver,
                         tol=pde.PICARD_TOL, exact=()):
        seen = []

        def g(u):
            seen.append(u.copy())
            return driver(u)

        iters, resid, u, failed = picard(stepper, fixed, dt, theta, u_start,
                                         g, tol, exact)
        last = np.stack([seen[k - 1][row] for row, k in enumerate(iters)])
        block.append((stepper, theta * dt, fixed.copy(), driver, last,
                      u.copy()))
        return iters, resid, u, failed

    def recording_solve(stepper, coef, b, overwrite=False):
        out = solve_banded(stepper, coef, b, overwrite)
        if b.ndim == 1:  # the agent's row; the block's are (nx, 2K)
            agent.append((stepper, coef, b.copy(), out.copy()))
        return out

    monkeypatch.setattr(pde, "_picard", recording_picard)
    monkeypatch.setattr(pde, "solve_banded", recording_solve)
    grid = PdeGrid.default_for(models[0], claim, nx=cli.DEFAULT_NX,
                               nt=cli.DEFAULT_NT)
    solve_batch(models, claim, grid)
    return block, agent


# twice the 3.9 ulps measured at most over the three MARCH_CASES
EXPLICIT_ULPS = 8


def explicit_half_ulps(solves):
    """Per Crank-Nicolson step after the start-up, its fixed part against
    ``u_old + dt/2 (B' u_old + g'(u_last))``, the explicit half evaluated
    from the previous solve's operator B', driver g' and the iterate each
    row's last solve took, in ulps of the row's largest term: u_old, that
    solve's fixed part, dt/2 g' or dt/2 times a band product's addend.  The
    last solve's LU backward error is bounded by the row's norm, not by
    each node's, where the values fall by orders of magnitude toward an
    edge."""
    worst = []
    for before, now in zip(solves[2 * pde.RANNACHER_STEPS - 1:],
                           solves[2 * pde.RANNACHER_STEPS:]):
        stepper, _, fixed_before, driver, last, u_old = before
        half, fixed = now[1], now[2]
        u_old = np.atleast_2d(u_old)
        g = 0.0 if driver is None else driver(last)
        want = u_old + half * (band_product(stepper, u_old) + g)
        scale = functools.reduce(np.maximum, [
            np.abs(u_old), np.abs(np.atleast_2d(fixed_before)),
            half * band_addends(stepper, u_old), half * np.abs(g)])
        worst.append((np.abs(fixed - want)
                      / np.spacing(scale.max(axis=1, keepdims=True))).max())
    return worst


@pytest.mark.parametrize("case", list(MARCH_CASES))
def test_explicit_half_is_the_last_solves_equation(case, monkeypatch):
    """Each Crank-Nicolson step's fixed part, read off the previous step's
    last solve, (I - c' B') u_old = fixed' + c' g'(u_last), as u_old + dt /
    (2 c') (u_old - fixed'), is ``u_old + dt/2 (B' u_old + g'(u_last))``
    to EXPLICIT_ULPS ulps of the row's largest term, for the block and a
    custom claim's agent surface alike; g' taken at u_old instead of the
    iterate that the solve took would miss it by 10^5 ulps and more."""
    models, claim = MARCH_CASES[case]
    block, agent = recorded_march(models, claim, monkeypatch)
    steps = cli.DEFAULT_NT + pde.RANNACHER_STEPS
    assert len(block) == steps
    assert len(agent) == (steps if claim.kind == "custom" else 0)
    ulps = explicit_half_ulps(block)
    assert len(ulps) == cli.DEFAULT_NT - pde.RANNACHER_STEPS
    assert max(ulps) <= EXPLICIT_ULPS
    if agent:
        assert max(explicit_half_ulps(
            [(stepper, coef, b, None, None, a)
             for stepper, coef, b, a in agent])) <= EXPLICIT_ULPS


class ScaledBand(np.ndarray):
    """A band of the operator that takes part in no product but with a
    number: factoring (I - coef B) scales it, a band product would not."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(isinstance(x, np.ndarray) and not isinstance(x, ScaledBand)
               and x.ndim for x in inputs):
            raise AssertionError("a band product was taken")
        inputs = [x.view(np.ndarray) if isinstance(x, ScaledBand) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("case", list(MARCH_CASES))
def test_a_march_makes_one_driver_call_per_picard_iteration(case,
                                                            monkeypatch):
    """The explicit half of a Crank-Nicolson step costs no driver call and
    no band product: a march makes exactly one driver call per Picard
    iteration, one banded solve per Picard iteration and agent step, and
    its bands only ever meet the coefficient that factors them."""
    models, claim = MARCH_CASES[case]
    level_driver, settle = pde._level_driver, pde.settle
    spatial_operator, solve_banded = pde._spatial_operator, pde.solve_banded
    counts = dict.fromkeys(["driver", "picard", "solve"], 0)

    def counted_driver(*args):
        g = level_driver(*args)

        def h(u):
            counts["driver"] += 1
            return g(u)
        return h

    def counted_settle(step, u_start, tol, max_iter, exact=()):
        out = settle(step, u_start, tol, max_iter, exact)
        counts["picard"] += int(out[0].max())  # each iteration steps the block
        return out

    def counted_solve(stepper, coef, b, overwrite=False):
        counts["solve"] += 1
        return solve_banded(stepper, coef, b, overwrite)

    monkeypatch.setattr(pde, "_level_driver", counted_driver)
    monkeypatch.setattr(pde, "settle", counted_settle)
    monkeypatch.setattr(pde, "solve_banded", counted_solve)
    monkeypatch.setattr(pde, "_spatial_operator", lambda *args: tuple(
        band.view(ScaledBand) for band in spatial_operator(*args)))
    grid = PdeGrid.default_for(models[0], claim, nx=cli.DEFAULT_NX,
                               nt=cli.DEFAULT_NT)
    solve_batch(models, claim, grid)
    agent_steps = (grid.nt + pde.RANNACHER_STEPS
                   if claim.kind == "custom" else 0)
    assert counts["picard"] > grid.nt + pde.RANNACHER_STEPS  # rows iterate
    assert counts["driver"] == counts["picard"]
    assert counts["solve"] == counts["picard"] + agent_steps


def linear_driver(rates):
    """g(u) = rates * u per row, so rows converge at different speeds."""
    return lambda u: rates[:, None] * u


def reference_settle(step, v, tol, max_iter):
    """The loop of one row by the rule of :func:`pde.settle`: iterations,
    estimate and values of the iterate that it stops on."""
    before = None
    for it in range(1, max_iter + 1):
        new = step(v)
        change = np.max(np.abs(new - v))
        v = new
        estimate = change
        if before is not None and change < before:
            rho = change / before
            estimate = min(change, rho / (1.0 - rho) * change)
        if estimate < tol:
            break
        before = change
    return it, estimate, v


def test_settle_freezes_each_row_at_its_own_iteration():
    """Rows contracting at different speeds take the iterations, and get the
    values, of their own loop; a row that never settles is returned with the
    node of its largest last change; u_start is left alone."""
    target = np.linspace(-1.0, 1.0, 7)
    factors = np.array([0.0, 0.5, 0.125, -1.0])  # -1 flips about the target
    u_start = np.stack([np.zeros(7), np.ones(7), -np.ones(7),
                        [0.0, 1.0, -2.0, 3.0, -5.0, 1.0, 0.0]])
    before = u_start.copy()
    tol, max_iter = 1e-9, 40
    seen = []

    def step(u):
        seen.append(u.shape)
        return target + factors[:, None] * (u - target)

    iters, resid, u, failed = pde.settle(step, u_start, tol, max_iter)
    for row in range(3):
        it, estimate, v = reference_settle(
            lambda v: target + factors[row] * (v - target), u_start[row],
            tol, max_iter)
        assert iters[row] == it and resid[row] == pytest.approx(
            estimate, rel=1e-12, abs=0.0), row
        assert u[row].tobytes() == v.tobytes(), row
    assert len(set(iters[:3].tolist())) == 3
    assert iters[3] == max_iter and resid[3] == 2 * (5.0 + 1.0 / 3.0)
    assert failed == [(3, 4)]
    assert seen == [(4, 7)] * max_iter  # every call takes the whole block
    assert np.array_equal(u_start, before)


def test_settle_stops_on_the_estimated_error_of_known_contractions():
    """On linear maps u -> target + rho (u - target), whose iterate k lies
    rho^k e_0 from the target, the estimate rho / (1 - rho) delta_k is that
    distance: a row stops at the first k >= 2 with 3 rho^k < tol (e_0 = 3),
    so 32, 11 and 4 iterations at rho = 0.5, 0.125 and 1e-3, within tol of
    the target; a row declared exact stops after its first iterate, with an
    estimate of 0, and one whose change is not finite stops there too; the
    -1 flip never settles and fails at max_iter on its worst node."""
    target = np.linspace(-1.0, 1.0, 7)
    factors = np.array([0.5, 0.125, 1e-3, 0.0, 1.0, -1.0])
    u_start = target + np.array([3.0, -3.0, 3.0, 3.0, 3.0, 0.0])[:, None]
    u_start[5] = [0.0, 1.0, -2.0, 3.0, -5.0, 1.0, 0.0]
    exact = [False, False, False, True, True, False]
    tol, max_iter = 1e-9, 40

    def step(u):
        out = target + factors[:, None] * (u - target)
        out[4] = np.inf
        return out

    iters, resid, u, failed = pde.settle(step, u_start, tol, max_iter, exact)
    assert iters.tolist() == [32, 11, 4, 1, 1, max_iter]
    for row, rho in enumerate(factors[:3]):
        assert np.abs(u[row] - target).max() < tol
        assert resid[row] == pytest.approx(3.0 * rho ** iters[row], rel=1e-6)
    assert u[3].tobytes() == target.tobytes() and resid[3] == 0.0
    assert resid[4] == np.inf and np.isinf(u[4]).all()
    assert resid[5] == 2 * (5.0 + 1.0 / 3.0)
    assert failed == [(5, 4)]


def test_picard_leaves_u_start_unchanged():
    model = make_benchmark()
    grid = PdeGrid.default_for(model, CALL, nx=80, nt=10)
    stepper = pde._Stepper(grid, model, 0.0)
    x = grid.x_nodes()
    u_start = np.stack([np.sin(3 * x), np.cos(x), x, 0.1 * x * x])
    before = u_start.copy()
    rates = np.array([0.0, 0.5, 2.0, 8.0])
    dt = grid.t_nodes()[1]
    iters, resid, u, failed = pde._picard(stepper, u_start, dt, 0.5,
                                          u_start, linear_driver(rates))
    assert not failed
    assert len(set(iters.tolist())) > 2  # rows froze at different iterations
    assert np.array_equal(u_start, before)
    assert u is not u_start


def test_picard_leaves_a_non_finite_row_to_the_caller():
    """A row that turns non-finite after others froze stops there, in its
    own row of the block, and spoils no other row."""
    model = make_benchmark()
    grid = PdeGrid.default_for(model, CALL, nx=80, nt=10)
    stepper = pde._Stepper(grid, model, 0.0)
    u_start = np.ones((4, grid.nx))
    rates = np.array([0.0, 0.5, 2.0, 8.0])
    calls = []

    def driver(u):
        calls.append(None)
        out = rates[:, None] * u
        if len(calls) > 1:  # row 0 froze at the first call
            out[3] = np.nan
        return out

    _, _, u, failed = pde._picard(stepper, u_start, grid.t_nodes()[1], 0.5,
                                  u_start, driver)
    assert not np.isfinite(u[3]).all()
    assert failed == []
    assert np.isfinite(u[:3]).all()


def nan_at_one_node(s):
    out = np.maximum(s - 1.0, 0.0)
    out[len(out) // 2] = np.nan
    return out


def test_non_finite_payoff_names_the_agent_surface(benchmark_model):
    claim = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                      payoff_fn=nan_at_one_node)
    grid = PdeGrid.default_for(benchmark_model, claim, nx=60, nt=20)
    with pytest.raises(NumericsError,
                       match=r"non-finite values in the agent surface at t=0\.98882$"):
        solve(benchmark_model, claim, grid)


@pytest.mark.parametrize("claim", [CUSTOM_CALL])
def test_non_finite_agent_step_names_the_agent_surface(claim, monkeypatch,
                                                       benchmark_model):
    """An agent step that turns non-finite is reported at its own level,
    also at a Crank-Nicolson step.  The 8th agent step is the one to
    t=0.835683: two half-steps for each of the two implicit-Euler steps,
    then one per step."""
    solve_banded = pde.solve_banded
    calls = []

    def poisoned(stepper, coef, b, overwrite=False):
        out = solve_banded(stepper, coef, b, overwrite)
        if b.ndim == 1:  # the agent's row; the block's are (nx, 2K)
            calls.append(None)
            if len(calls) == 8:
                out[len(out) // 2] = np.nan
        return out

    monkeypatch.setattr(pde, "solve_banded", poisoned)
    grid = PdeGrid.default_for(benchmark_model, claim, nx=60, nt=20)
    with pytest.raises(NumericsError, match=r"^non-finite values in the agent "
                                            r"surface at t=0\.835683$"):
        solve(benchmark_model, claim, grid)


def test_vanilla_march_makes_no_agent_step(monkeypatch, benchmark_model):
    """A call or put marches no agent surface: each row of its ``agent`` is
    the closed-form mark that its driver reads, to the bit."""
    solve_banded = pde.solve_banded

    def no_step(stepper, coef, b, overwrite=False):
        if b.ndim == 1:  # the agent's row; the block's are (nx, 2K)
            raise AssertionError("a vanilla march stepped the agent")
        return solve_banded(stepper, coef, b, overwrite)

    monkeypatch.setattr(pde, "solve_banded", no_step)
    for kind in ("call", "put"):
        claim = ClaimSpec(kind=kind, strike=1.0, maturity=1.0)
        grid = PdeGrid.default_for(benchmark_model, claim, nx=60, nt=20)
        s = np.exp(grid.x_nodes())
        sol = solve(benchmark_model, claim, grid)
        [batch] = solve_batch([benchmark_model], claim, grid)
        assert batch.agent.tobytes() == sol.agent[:2].tobytes()
        for i, t in enumerate(grid.t_nodes()):
            mark, _ = agent_value_grid(benchmark_model, claim, t, s)
            assert sol.agent[i].tobytes() == mark.tobytes()


def test_non_finite_driver_names_the_column(monkeypatch):
    """A driver that turns non-finite on one scenario is reported on that
    scenario's seller row, with its varied parameters and t."""
    models = batch_stack()
    level_driver = pde._level_driver
    march = pde.Rows(models, pde._row_groups(models)[0])
    rows = np.broadcast_to(march.params.alpha, (march.size, 1))[:, 0] == 0.35

    def poisoned(rest, mark, grad, dx):
        g = level_driver(rest, mark, grad, dx)

        def h(u):
            out = g(u)
            out[rows] = np.nan
            return out
        return h

    monkeypatch.setattr(pde, "_level_driver", poisoned)
    grid = PdeGrid.default_for(models[0], CALL, nx=40, nt=10)
    with pytest.raises(NumericsError,
                       match=r"non-finite values in the seller side of "
                             r"scenario 1 \(.*alpha=0\.35.*\) surface at t=0\.968377$"):
        solve_batch(models, CALL, grid)
