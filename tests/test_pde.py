"""Finite-difference engine: terminal data, oracles, reflection, strategies."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded as scipy_solve_banded

from xvaband import (BUYER, SELLER, ClaimSpec, CreditParams, EquityParams,
                     MarketModel, NumericsError, PdeGrid, RateSet, agent_value,
                     piterbarg_defaults_strategies,
                     piterbarg_defaults_xva, piterbarg_xva, solve,
                     solve_batch, solve_reduced, strategies, xva_at)
from xvaband import cli, drivers, pde
from xvaband.claims import agent_value_grid
from xvaband.drivers import jump_targets
from conftest import make_benchmark, make_symmetric

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
    grid = PdeGrid.default_for(benchmark_model, CALL, nx=400, nt=400)
    sol = solve(benchmark_model, CALL, grid)
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
    riskier = make_benchmark(mu_own=0.9, mu_cpty=0.9)
    grid = PdeGrid.default_for(riskier, CALL, nx=40, nt=1)
    with pytest.raises(NumericsError):
        solve(riskier, CALL, grid)


def test_single_step_grid_smoke(benchmark_model):
    grid = PdeGrid.default_for(benchmark_model, CALL, nx=50, nt=1)
    sol = solve(benchmark_model, CALL, grid)
    assert np.all(np.isfinite(sol.seller))
    assert np.all(np.isfinite(sol.buyer))


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
            ref = piterbarg_defaults_strategies(model, CALL, 0.0, s, side)
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


def test_agent_at(benchmark_model):
    sol, grid = small_solution(benchmark_model, nx=300, nt=150)
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


def test_grid_validation():
    with pytest.raises(ValueError):
        PdeGrid(x_min=0.0, x_max=1.0, nx=2, nt=10, maturity=1.0)
    with pytest.raises(ValueError):
        PdeGrid(x_min=1.0, x_max=0.0, nx=10, nt=10, maturity=1.0)
    with pytest.raises(ValueError):
        PdeGrid(x_min=0.0, x_max=1.0, nx=10, nt=0, maturity=1.0)


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


def assert_batch_matches_solve(models, claim):
    grid = PdeGrid.default_for(models[0], claim, nx=60, nt=60)
    batch = solve_batch(models, claim, grid)
    assert len(batch) == len(models)
    for model, got in zip(models, batch):
        want = solve(model, claim, grid)
        assert got.model is model
        for name in ("agent", "seller", "buyer"):
            rows = getattr(got, name)
            assert rows.shape == (2, grid.nx)  # t = 0 and t = dt
            assert np.max(np.abs(rows - getattr(want, name)[:2])) <= 1e-12
        assert np.array_equal(got.picard_iterations, want.picard_iterations)
        assert np.max(np.abs(got.picard_residuals - want.picard_residuals)) <= 1e-12
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
    xva_at(sol, 0.5 * grid.dt, 1.0, SELLER)
    with pytest.raises(ValueError, match="time rows"):
        xva_at(sol, grid.dt, 1.0, SELLER)


def test_batch_picard_failure_names_the_column():
    models = [make_benchmark(), make_benchmark(mu_own=0.9, mu_cpty=0.9)]
    grid = PdeGrid.default_for(models[0], CALL, nx=40, nt=1)
    with pytest.raises(NumericsError) as info:
        solve_batch(models, CALL, grid)
    msg = str(info.value)
    assert "side of scenario 1 (mu_own=0.9, mu_cpty=0.9)" in msg
    assert "seller" in msg or "buyer" in msg
    assert "t=" in msg and "last residual" in msg
    assert "worst node" in msg and "tolerance 1e-10" in msg
    solve_batch(models[:1], CALL, grid)  # the other column alone converges


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


@pytest.mark.parametrize("nx, nt, bound", [(400, 400, 3e-5),
                                           (cli.DEFAULT_NX, cli.DEFAULT_NT, 5e-6)])
def test_far_edge_draw_completes(nx, nt, bound):
    """Picard tests convergence in units of the strike, so the far-edge draw
    completes, within its grid's error of the closed form (2.36e-5 of
    strike at 400 x 400, 3.3e-6 at the defaults)."""
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
    strike; the first step's first half-step fails on the first row."""
    monkeypatch.setattr(pde, "PICARD_MAX_ITER", 1)
    model, claim = far_edge_draw()
    grid = PdeGrid.default_for(model, claim, nx=cli.DEFAULT_NX,
                               nt=cli.DEFAULT_NT)
    with pytest.raises(NumericsError) as info:
        solve(model, claim, grid)
    msg = str(info.value)
    assert msg == ("Picard iteration did not converge on the seller side at "
                   "t=4.68414 within 1 iterations: worst node 799 at "
                   "s=2.54078e+06, |u|=2.94e+03, last residual 2.94e+03 "
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
    grid peaks, under tracemalloc, below 24 blocks of (84, nx) floats: it
    keeps one level of driver terms alive and gathers the live rows' terms
    as the driver reads them (19.8 blocks measured at 800 x 100)."""
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
    assert peak < 24 * (2 * len(models) * grid.nx * 8)


# -- the march's parts against their references -------------------------------

def operator_cases():
    """Steppers over spots 1e-2..1e4, sigma 0.1..0.6 and T 0.25..5, both
    operators (agent and adjustment), at the march's implicit coefficients."""
    base = make_benchmark()
    for spot in (1e-2, 1.0, 1e4):
        for sigma in (0.1, 0.6):
            for maturity in (0.25, 5.0):
                model = replace(base, equity=EquityParams(spot=spot, sigma=sigma))
                claim = ClaimSpec(kind="call", strike=spot, maturity=maturity)
                grid = PdeGrid.default_for(model, claim, nx=400, nt=400)
                for zeroth in (-model.rates.discount, 0.0):
                    stepper = pde._Stepper(grid, model, zeroth)
                    for coef in (0.5 * grid.dt, 0.25 * grid.dt):
                        yield spot, stepper, coef


def test_solve_banded_matches_scipy_byte_for_byte(rng):
    """The prefactored solve gives the bits of scipy's banded solve, for one
    column and for a block of 84."""
    for spot, stepper, coef in operator_cases():
        ab = stepper.ab_matrix(coef)
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


def test_solve_banded_refuses_non_finite_rhs():
    stepper = next(operator_cases())[1]
    b = np.ones((stepper.nx, 3))
    b[7, 1] = np.inf
    with pytest.raises(NumericsError, match="column 1"):
        pde.solve_banded(stepper, 0.01, b)
    with pytest.raises(NumericsError, match="non-finite right-hand side"):
        pde.solve_banded(stepper, 0.01, np.full(stepper.nx, np.nan))


def test_gradient_buffer_matches_numpy(rng):
    for shape in ((400,), (400, 2), (400, 84), (3, 5)):
        for dx in (0.0123, 1e-3, 0.5):
            u = np.exp(rng.standard_normal(shape)) * rng.choice([-1.0, 1.0], shape)
            got = pde._gradient(u, dx, np.empty_like(u))
            assert got.tobytes() == np.gradient(u, dx, axis=-1).tobytes()


def reference_drift(models, t, mark, grad, dx, u, rows):
    """The driver the march evaluates, one public reduced drift per row:
    row r is the seller of scenario r when r < K, else the buyer of
    scenario r - K."""
    count = len(models)
    z = np.gradient(u, dx, axis=-1)
    z += grad
    z *= models[0].equity.sigma
    out = np.empty_like(u)
    for j, r in enumerate(rows):
        side = SELLER if r < count else BUYER
        out[j] = drivers.reduced_drift(models[r % count], side, t, u[j], z[j],
                                       mark)
    return out


@pytest.mark.parametrize("credit", [True, False])
def test_level_drift_matches_reduced_drift(credit, rng):
    """The driver closure of one time level, built once from the mark, gives
    the bits of the public reduced drift of every row's model and side,
    on every row and on a subset, and a later call leaves an earlier
    result alone."""
    models = batch_stack()
    if not credit:
        models = [replace(m, credit=None) for m in models]
    grid = PdeGrid.default_for(models[0], CALL, nx=120, nt=10)
    s = np.exp(grid.x_nodes())
    t = 0.37
    value, delta = agent_value_grid(models[0], CALL, t, s)
    mark, grad = value, s * delta
    block = pde._Rows(models, grid.nx)
    g = block.drift(t, mark, grad, grid.dx)
    every = np.arange(block.size)
    for rows in (slice(None), every, np.array([1, 4, 5, 8])):
        u = 0.05 * rng.standard_normal((every[rows].size, grid.nx))
        got = g(u, rows)
        want = reference_drift(models, t, mark, grad, grid.dx, u, every[rows])
        assert got.tobytes() == want.tobytes()
        g(u[:, ::-1].copy(), rows)  # reuses the exposure buffer
        assert got.tobytes() == want.tobytes()


def linear_driver(rates):
    """g(u) = rates * u per row, so rows converge at different speeds."""
    return lambda u, rows: rates[rows, None] * u


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

    def step(u, rows):
        seen.append(rows)
        return target + factors[rows, None] * (u - target)

    iters, resid, u, failed = pde.settle(step, u_start, tol, max_iter)
    for row in range(3):
        v = u_start[row]
        for it in range(1, max_iter + 1):
            new = target + factors[row] * (v - target)
            change = np.max(np.abs(new - v))
            v = new
            if change < tol:
                break
        assert iters[row] == it and resid[row] == change, row
        assert u[row].tobytes() == v.tobytes(), row
    assert len(set(iters[:3].tolist())) == 3
    assert iters[3] == max_iter and resid[3] == 2 * (5.0 + 1.0 / 3.0)
    assert failed == [(3, 4)]
    assert seen[0] == slice(None) and seen[-1].tolist() == [3]
    assert np.array_equal(u_start, before)


def test_picard_leaves_u_start_unchanged():
    model = make_benchmark()
    grid = PdeGrid.default_for(model, CALL, nx=80, nt=10)
    stepper = pde._Stepper(grid, model, 0.0)
    x = grid.x_nodes()
    u_start = np.stack([np.sin(3 * x), np.cos(x), x, 0.1 * x * x])
    before = u_start.copy()
    rates = np.array([0.0, 0.5, 2.0, 8.0])
    iters, resid, u, failed = pde._picard(stepper, u_start, grid.dt, 0.5,
                                          u_start, linear_driver(rates), 0.0)
    assert not failed
    assert len(set(iters.tolist())) > 2  # rows froze at different iterations
    assert np.array_equal(u_start, before)
    assert u is not u_start


def test_picard_names_a_non_finite_column_of_the_block():
    """A row that turns non-finite after others froze is named by its index
    in the block, not in the live subset."""
    model = make_benchmark()
    grid = PdeGrid.default_for(model, CALL, nx=80, nt=10)
    stepper = pde._Stepper(grid, model, 0.0)
    u_start = np.ones((4, grid.nx))
    rates = np.array([0.0, 0.5, 2.0, 8.0])

    def driver(u, rows):
        out = rates[rows, None] * u
        if not isinstance(rows, slice):
            out[rows == 3] = np.nan
        return out

    with pytest.raises(pde._NonFiniteRhs) as info:
        pde._picard(stepper, u_start, grid.dt, 0.5, u_start, driver, 0.0)
    assert info.value.column == 3


def nan_at_one_node(s):
    out = np.maximum(s - 1.0, 0.0)
    out[len(out) // 2] = np.nan
    return out


def test_non_finite_payoff_names_the_agent_surface(benchmark_model):
    claim = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                      payoff_fn=nan_at_one_node)
    grid = PdeGrid.default_for(benchmark_model, claim, nx=60, nt=20)
    with pytest.raises(NumericsError,
                       match=r"non-finite values in the agent surface at t=0\.95$"):
        solve(benchmark_model, claim, grid)


def test_non_finite_driver_names_the_column(monkeypatch):
    """A driver that turns non-finite on one scenario is reported on that
    scenario's seller row, with its varied parameters and t."""
    models = batch_stack()
    step = drivers.reduced_step

    def poisoned(model, terms, u):
        out = step(model, terms, u)
        out[np.broadcast_to(model.alpha, (len(out), 1))[:, 0] == 0.35] = np.nan
        return out

    monkeypatch.setattr(drivers, "reduced_step", poisoned)
    grid = PdeGrid.default_for(models[0], CALL, nx=40, nt=10)
    with pytest.raises(NumericsError,
                       match=r"non-finite values in the seller side of "
                             r"scenario 1 \(.*alpha=0\.35.*\) surface at t=0\.9$"):
        solve_batch(models, CALL, grid)
