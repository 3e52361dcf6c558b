"""Lattice cross-check: closed-form regimes, refinement behavior, route equality."""

import dataclasses
import math

import numpy as np
import pytest

from xvaband import (BUYER, SELLER, ClaimSpec, CreditParams, EquityParams,
                     NumericsError, agent_value, piterbarg_defaults_xva,
                     piterbarg_xva, solve_reduced, solve_sides)
from xvaband import claims, drivers, lattice
from xvaband.lattice import (FIXED_POINT_MAX_ITER, FIXED_POINT_TOL, LEVELS,
                             OracleSolution)
from conftest import make_benchmark, make_symmetric

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


def test_value_level_route_agrees_with_adjustment_level():
    model = make_benchmark(alpha=0.9)
    for side in (SELLER, BUYER):
        adj = solve_reduced(model, CALL, 1000, level="adjustment", side=side)
        val = solve_reduced(model, CALL, 1000, level="value", side=side)
        assert val.root_value == pytest.approx(val.adjustment + val.root_mark)
        assert abs(adj.adjustment - val.adjustment) < 5e-5


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
                     for sol in solve_sides(model, CALL, 1000))
    assert seller - buyer > 1e-4


def test_band_zero_under_full_symmetry():
    # symmetric rates and symmetric credit: both sides solve the same equation
    credit = CreditParams(mu_own=0.18, mu_cpty=0.18, loss_own=0.4, loss_cpty=0.4)
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.3,
                           credit=credit)
    seller, buyer = (sol.adjustment
                     for sol in solve_sides(model, CALL, 400))
    assert seller == pytest.approx(buyer, abs=1e-12)


def test_band_collapses_to_no_default_value_for_zero_loss():
    # zero loss rates: width vanishes; the level sits near the no-default
    # closed form when the aggregate bond return is close to the funding rate
    credit = CreditParams(mu_own=0.085, mu_cpty=0.085, loss_own=0.0,
                          loss_cpty=0.0)
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.5,
                           credit=credit)
    seller, buyer = (sol.adjustment
                     for sol in solve_sides(model, CALL, 1000))
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
        solve_reduced(model, CALL, 100, level="price")
    with pytest.raises(ValueError):
        solve_reduced(model, CALL, 100, side="dealer")


def reference_solve(model, claim, n_steps, level, side):
    """One side's backward induction, one full driver call per iteration.

    The plain single-side march that the shared pass must reproduce bit for
    bit: stock levels, mark and exposure built for this side alone, each
    level started at the root of this side's own terms, and
    :func:`drivers.reduced_drift` (or its value-level twin) called whole at
    every fixed-point iteration.
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
    iterations = np.zeros(n_steps, dtype=int)
    for k in range(n_steps - 1, -1, -1):
        t = k * dt
        s = stock_levels(k)
        expectation = 0.5 * (u[1:k + 2] + u[0:k + 1])
        gradient = (u[1:k + 2] - u[0:k + 1]) / (2.0 * sdt)
        mark, delta = claims.agent_value_grid(model, claim, t, s)
        z = gradient + (sigma * s * delta if shift_gradient else 0.0)
        terms = drivers.reduced_terms(params, z, mark,
                                      at_value=not shift_gradient)
        new_u = drivers.reduced_root(params, terms, expectation, dt)
        for it in range(1, FIXED_POINT_MAX_ITER + 1):
            candidate = expectation + dt * drift_fn(model, side, t, new_u, z, mark)
            done = float(np.max(np.abs(candidate - new_u))) < FIXED_POINT_TOL
            new_u = candidate
            if done:
                break
        else:
            raise NumericsError(f"{side} side did not converge at level {k}")
        iterations[k] = it
        if k == 0:
            root_gradient = float(gradient[0])
        u = new_u
    mark0 = agent_value(model, claim, 0.0, s0).value
    root = float(u[0])
    adjustment = root - mark0 if level == "value" else root
    return adjustment, root_gradient, mark0, iterations


@pytest.mark.parametrize("credit", [True, False], ids=["credit", "nocredit"])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_one_pass_matches_single_side_reference(credit, kind):
    model = make_benchmark(alpha=0.4, fund_borrow=0.12)
    if not credit:
        model = dataclasses.replace(model, credit=None)
    claim = ClaimSpec(kind=kind, strike=1.05, maturity=1.0)
    for level in LEVELS:
        sols = solve_sides(model, claim, 200, level=level)
        assert [sol.side for sol in sols] == [SELLER, BUYER]
        for sol in sols:
            adjustment, gradient, mark, iterations = reference_solve(
                model, claim, 200, level, sol.side)
            assert sol.adjustment == adjustment
            assert sol.root_gradient == gradient
            assert sol.root_mark == mark
            assert np.array_equal(sol.fixed_point_iterations, iterations)
            assert solve_reduced(model, claim, 200, level=level,
                                 side=sol.side) == sol


def test_solution_reports_fixed_point_per_level():
    model = make_benchmark()
    seller, buyer = solve_sides(model, CALL, 300)
    for sol in (seller, buyer):
        assert sol.fixed_point_iterations.shape == (300,)
        assert sol.fixed_point_residuals.shape == (300,)
        assert np.all(sol.fixed_point_iterations >= 1)
        assert np.all(sol.fixed_point_residuals < FIXED_POINT_TOL)
    # the records are diagnostics: equality is decided by the values alone
    assert dataclasses.replace(
        seller, fixed_point_iterations=seller.fixed_point_iterations + 1) == seller
    assert set(f.name for f in dataclasses.fields(OracleSolution)
               if not f.compare) == {"fixed_point_iterations",
                                     "fixed_point_residuals"}


def test_fixed_point_failure_names_side_level_and_node():
    # at spot = strike = 1e4 the far-edge values reach |u| ~ 2.6e4, whose
    # spacing of doubles (3.6e-12) exceeds the absolute tolerance
    base = make_benchmark()
    model = dataclasses.replace(base, equity=EquityParams(spot=1e4, sigma=0.2))
    claim = ClaimSpec(kind="call", strike=1e4, maturity=1.0)
    with pytest.raises(NumericsError) as failure:
        solve_sides(model, claim, 2000)
    message = str(failure.value)
    assert "seller side at level 1955 (t=0.9775)" in message
    assert "worst node 1912 at s=4.22446e+07, |u|=2.65e+04" in message
    assert "last residual 3.64e-12" in message
    assert "n_steps" not in message


def test_one_failing_side_fails_the_pass():
    base = make_benchmark(alpha=0.0)
    model = dataclasses.replace(base, credit=None,
                                equity=EquityParams(spot=1e6, sigma=0.2))
    claim = ClaimSpec(kind="call", strike=1e6, maturity=1.0)
    solve_reduced(model, claim, 400, side=SELLER)
    with pytest.raises(NumericsError, match="buyer side at level 358"):
        solve_reduced(model, claim, 400, side=BUYER)
    with pytest.raises(NumericsError, match="buyer side at level 358"):
        solve_sides(model, claim, 400)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_non_finite_values_fail_at_once(monkeypatch):
    # a payoff that is NaN on a band of nodes stops the first level's fixed
    # point at its first step, and the error names the non-finite values
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
        solve_sides(make_benchmark(), nan_band, 20, level="value")
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
def test_solve_batch_matches_solve_sides_bit_for_bit(credit, kind):
    models = lattice_stack(credit)
    claim = ClaimSpec(kind=kind, strike=1.05, maturity=1.0)
    for level in LEVELS:
        batch = lattice.solve_batch(models, claim, 150, level=level)
        assert len(batch) == len(models)
        for model, pair in zip(models, batch):
            for got, want in zip(pair, solve_sides(model, claim, 150, level)):
                assert got == want  # side, level, root value, gradient, mark
                assert got.root_gradient == want.root_gradient
                assert np.array_equal(got.fixed_point_iterations,
                                      want.fixed_point_iterations)
                assert np.array_equal(got.fixed_point_residuals,
                                      want.fixed_point_residuals)


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
        alpha = np.broadcast_to(params.alpha, (len(out), 1))[:, 0]
        out[(alpha == 0.35) & (params.sign[:, 0] < 0)] = np.nan
        return out

    monkeypatch.setattr(drivers, "reduced_step", poisoned)
    with pytest.raises(NumericsError, match=(
            r"^non-finite lattice values on the buyer side of scenario 1 "
            r"\(.*alpha=0\.35.*\) at level 19$")):
        lattice.solve_batch(models, CALL, 20)
