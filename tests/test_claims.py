import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from xvaband import (AgentValuation, ClaimSpec, EquityParams, MarketModel,
                     RateSet, SymmetricRates, agent_value, lattice,
                     piterbarg_strategies, symmetric_model)
from xvaband.claims import agent_value_grid, agent_value_levels
from conftest import call_spread


def flat_model(discount, sigma):
    rates = RateSet(fund_lend=discount, fund_borrow=discount,
                    repo_lend=discount, repo_borrow=discount,
                    coll_earn=0.0, coll_pay=0.0, discount=discount)
    return MarketModel(rates=rates, equity=EquityParams(spot=1.0, sigma=sigma))


def quadrature_mark(discount, sigma, t, s, claim):
    """Independent oracle: discounted lognormal expectation of the payoff."""
    tau = claim.maturity - t
    st = sigma * math.sqrt(tau)
    mean = math.log(s) + (discount - 0.5 * sigma * sigma) * tau

    def integrand(x):
        sT = math.exp(mean + st * x)
        return float(claim.payoff(sT)) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    kink = (math.log(claim.strike) - mean) / st
    val, err = integrate.quad(integrand, -10, 10, limit=200,
                              points=[max(-10.0, min(10.0, kink))])
    assert err < 1e-8  # quad's estimate is conservative; the value is far tighter
    return math.exp(-discount * tau) * val


def test_payoff_examples():
    call = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    put = ClaimSpec(kind="put", strike=1.0, maturity=1.0)
    assert call.payoff(1.3) == pytest.approx(0.3)
    assert call.payoff(1.0) == 0.0
    assert put.payoff(0.7) == pytest.approx(0.3)


def test_agent_value_against_quadrature():
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    model = flat_model(0.05, 0.2)
    oracle = quadrature_mark(0.05, 0.2, 0.0, 1.0, claim)
    got = agent_value(model, claim, 0.0, 1.0)
    assert got.value == pytest.approx(oracle, abs=1e-9)
    # frozen oracle value for the at-the-money call, one year, 5% rate
    assert oracle == pytest.approx(0.10450583572185565, abs=1e-12)
    assert got.value == pytest.approx(0.104506, abs=1e-6)


def test_agent_value_put_against_quadrature():
    claim = ClaimSpec(kind="put", strike=1.1, maturity=2.0)
    model = flat_model(0.03, 0.25)
    oracle = quadrature_mark(0.03, 0.25, 0.5, 0.9, claim)
    got = agent_value(model, claim, 0.5, 0.9)
    assert got.value == pytest.approx(oracle, abs=1e-9)


def test_terminal_condition():
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    model = flat_model(0.05, 0.2)
    got = agent_value(model, claim, 1.0, 1.3)
    assert got.value == pytest.approx(0.3)
    # right-derivative convention at the kink
    assert agent_value(model, claim, 1.0, 1.0).delta == 1.0
    put = ClaimSpec(kind="put", strike=1.0, maturity=1.0)
    assert agent_value(model, put, 1.0, 1.0).delta == 0.0


def test_deterministic_limit_small_sigma():
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    model = flat_model(0.05, 1e-8)
    got = agent_value(model, claim, 0.0, 1.2)
    assert got.value == pytest.approx(1.2 - math.exp(-0.05), abs=1e-9)
    assert got.delta == pytest.approx(1.0, abs=1e-9)


def test_delta_matches_finite_differences(rng):
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    model = flat_model(0.05, 0.2)
    for _ in range(10):
        t = rng.uniform(0.0, 0.9)
        s = rng.uniform(0.5, 2.0)
        h = 1e-4 * s
        up = agent_value(model, claim, t, s + h).value
        dn = agent_value(model, claim, t, s - h).value
        fd = (up - dn) / (2 * h)
        delta = agent_value(model, claim, t, s).delta
        assert abs(delta - fd) / abs(fd) < 1e-6


def test_call_value_and_delta_monotone_in_spot():
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    model = flat_model(0.05, 0.2)
    s = np.linspace(0.4, 2.5, 200)
    value, delta = agent_value_grid(model, claim, 0.3, s)
    assert np.all(np.diff(value) >= 0)
    assert np.all(np.diff(delta) >= -1e-14)  # convexity
    assert np.all((delta >= 0) & (delta <= 1))


def test_call_lower_bound():
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    model = flat_model(0.05, 0.2)
    for s in (0.7, 1.0, 1.5):
        v = agent_value(model, claim, 0.0, s).value
        assert v >= max(s - math.exp(-0.05), 0.0) - 1e-14


def test_put_call_parity():
    call = ClaimSpec(kind="call", strike=1.2, maturity=1.5)
    put = ClaimSpec(kind="put", strike=1.2, maturity=1.5)
    model = flat_model(0.04, 0.3)
    c = agent_value(model, call, 0.2, 0.9)
    p = agent_value(model, put, 0.2, 0.9)
    forward = 0.9 - 1.2 * math.exp(-0.04 * 1.3)
    assert c.value - p.value == pytest.approx(forward, abs=1e-12)
    assert c.delta - p.delta == pytest.approx(1.0, abs=1e-12)


def three_erf_marks(model, claim, t, s):
    """Black-Scholes mark and delta with one erf per normal CDF, N(-d1) too."""
    r, sigma, k = model.rates.discount, model.equity.sigma, claim.strike
    tau = claim.maturity - t
    st = sigma * math.sqrt(tau)
    d1 = (np.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / st
    d2 = d1 - st
    df = math.exp(-r * tau)

    def cdf(x):
        return 0.5 * (1.0 + special.erf(x / math.sqrt(2.0)))
    if claim.kind == "call":
        return s * cdf(d1) - k * df * cdf(d2), cdf(d1)
    return k * df * cdf(-d2) - s * cdf(-d1), cdf(d1) - 1.0


@pytest.mark.parametrize("kind", ["call", "put"])
def test_vanilla_grid_matches_three_erf_expression_to_the_bit(kind, rng):
    model = flat_model(0.03, 0.25)
    claim = ClaimSpec(kind=kind, strike=1.1, maturity=2.0)
    # log-moneyness to +-15 puts nodes deep in and out of the money, where
    # erf sits in its tails or at +-1
    s = claim.strike * np.exp(rng.uniform(-15.0, 15.0, 5000))
    for t in (0.0, 1.0, 2.0 - 1e-6):
        value, delta = agent_value_grid(model, claim, t, s)
        ref_value, ref_delta = three_erf_marks(model, claim, t, s)
        assert value.tobytes() == ref_value.tobytes()
        assert delta.tobytes() == ref_delta.tobytes()


def _split_marks(model, claim, times, counts, s):
    """Each time's marks and deltas from ``agent_value_levels`` and from
    ``agent_value_grid`` at that time, as bytes."""
    value, delta = agent_value_levels(model, claim, times, np.array(counts), s)
    pieces = np.cumsum(counts)[:-1]
    got = [(v.tobytes(), d.tobytes()) for v, d in
           zip(np.split(value, pieces), np.split(delta, pieces))]
    want = [tuple(a.tobytes() for a in agent_value_grid(model, claim, t, part))
            for t, part in zip(times, np.split(s, pieces))]
    return got, want


@pytest.mark.parametrize("kind", ["call", "put"])
def test_each_level_has_the_bits_of_the_grid_at_its_time(kind, rng):
    model = flat_model(0.03, 0.25)
    claim = ClaimSpec(kind=kind, strike=1.1, maturity=2.0)
    counts = [7, 1, 12, 4]
    s = claim.strike * np.exp(rng.uniform(-3.0, 3.0, sum(counts)))
    got, want = _split_marks(model, claim, [0.0, 0.37, 0.9, 1.29], counts, s)
    assert got == want
    got, want = _split_marks(model, claim, [0.9], [5], s[:5])
    assert got == want


def test_each_level_of_a_custom_claim_has_the_bits_of_the_grid():
    model = flat_model(0.03, 0.25)
    claim = ClaimSpec(kind="custom", strike=1.1, maturity=2.0,
                      payoff_fn=lambda s: np.clip(s - 1.1, 0.0, 0.3))
    got, want = _split_marks(model, claim, [0.0, 1.29],
                             [2, 1], np.array([0.8, 1.2, 1.5]))
    assert got == want


def test_marks_over_many_levels_refuse_a_time_outside_the_claim():
    model = flat_model(0.03, 0.25)
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    s = np.array([0.9, 1.1])
    for t in (2.0, -0.1, math.nan):
        message = f"^t={t!r} outside \\[0, 1.0\\]$"
        for mark in (lambda: agent_value(model, claim, t, 1.0),
                     lambda: agent_value_grid(model, claim, t, s),
                     lambda: agent_value_levels(model, claim, [0.5, t],
                                                np.array([1, 1]), s)):
            with pytest.raises(ValueError, match=message):
                mark()
    for t in (0.0, 1.0):
        agent_value(model, claim, t, 1.0)
        agent_value_grid(model, claim, t, s)
        agent_value_levels(model, claim, [t, 0.5], np.array([1, 1]), s)


def test_custom_payoff_matches_vanilla():
    model = flat_model(0.05, 0.2)
    custom = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                       payoff_fn=lambda s: np.maximum(s - 1.0, 0.0),
                       payoff_slope_fn=lambda s: np.where(s >= 1.0, 1.0, 0.0))
    vanilla = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    got = agent_value(model, custom, 0.0, 1.1)
    ref = agent_value(model, vanilla, 0.0, 1.1)
    assert got.value == pytest.approx(ref.value, abs=1e-8)
    assert got.delta == pytest.approx(ref.delta, abs=1e-7)


@pytest.mark.parametrize("lam", [2.0**-20, 1e-6, 1e-3, 1.0, 1e4, 1e7, 2.0**20])
def test_custom_mark_scales_with_the_strike(lam):
    """A custom call at spot = strike = lam, with the finite-difference
    slope, matches the vanilla call as closely at every scale as at 1."""
    model = flat_model(0.05, 0.2)
    custom = ClaimSpec(kind="custom", strike=lam, maturity=1.0,
                       payoff_fn=lambda s: np.maximum(s - lam, 0.0))
    vanilla = ClaimSpec(kind="call", strike=lam, maturity=1.0)
    got = agent_value(model, custom, 0.0, lam)
    ref = agent_value(model, vanilla, 0.0, lam)
    assert got.value == pytest.approx(ref.value, rel=1e-9)
    assert got.delta == pytest.approx(ref.delta, abs=1e-9)


def test_validation():
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    model = flat_model(0.05, 0.2)
    for s in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="stock level must be positive"):
            agent_value(model, claim, 0.0, s)
    with pytest.raises(ValueError):
        agent_value(model, claim, 2.0, 1.0)
    with pytest.raises(ValueError):
        ClaimSpec(kind="call", strike=-1.0, maturity=1.0)
    with pytest.raises(ValueError):
        ClaimSpec(kind="straddle", strike=1.0, maturity=1.0)
    with pytest.raises(ValueError):
        ClaimSpec(kind="custom", strike=1.0, maturity=1.0)


@pytest.mark.parametrize("maturity", [0.0, -1.0, math.nan])
def test_claim_refuses_a_maturity_that_is_not_positive(maturity):
    with pytest.raises(ValueError, match="maturity must be positive"):
        ClaimSpec(kind="call", strike=1.0, maturity=maturity)


def test_custom_mark_at_maturity_is_the_payoff_and_its_right_slope():
    """At t = T a custom claim's mark is its payoff, and its delta the
    payoff's right slope: at each kink, the slope above it."""
    spread = ClaimSpec(
        kind="custom", strike=1.0, maturity=1.0,
        payoff_fn=lambda s: np.clip(s - 1.0, 0.0, 0.25),
        payoff_slope_fn=lambda s: np.where((s >= 1.0) & (s < 1.25), 1.0, 0.0))
    model = flat_model(0.05, 0.2)
    for s, value, slope in ((0.5, 0.0, 0.0), (1.0, 0.0, 1.0), (1.125, 0.125, 1.0),
                            (1.25, 0.25, 0.0), (2.0, 0.25, 0.0)):
        assert agent_value(model, spread, 1.0, s) == AgentValuation(value, slope)


# the mark's parameters of draw 4 of the benchmark's PDE point pool, a
# call-spread from its strike to 1.2 times it
DRAW4 = dict(discount=0.019912734, sigma=0.186503701, maturity=2.856794117,
             strike=3.351485630)


def quadrature_of_the_payoff(discount, sigma, t, s, claim):
    """The mark of a custom claim as :func:`claims._quadrature_value`
    integrates it, operation for operation: its payoff in units of the
    strike over x in [-12, 12]."""
    tau = claim.maturity - t
    st_ = sigma * math.sqrt(tau)
    mean = math.log(s) + (discount - 0.5 * sigma * sigma) * tau
    k = claim.strike

    def integrand(x):
        sT = math.exp(mean + st_ * x)
        return (float(claim.payoff(sT)) / k * math.exp(-0.5 * x * x)
                / math.sqrt(2.0 * math.pi))

    val, _ = integrate.quad(integrand, -12.0, 12.0, limit=200)
    return math.exp(-discount * tau) * k * val


def test_custom_spread_delta_is_its_two_calls_delta():
    """On draw 4's mark, a custom call-spread's delta is within 1e-6 of the
    difference of its two calls' closed-form deltas at nine stock levels
    from K/e to K e, at t = 0 and T/2, where a quadrature of the payoff's
    slope, non-zero on [K, 1.2 K] alone, missed by up to 0.21; its mark is
    the quadrature of the payoff to the bit."""
    k, maturity = DRAW4["strike"], DRAW4["maturity"]
    model = flat_model(DRAW4["discount"], DRAW4["sigma"])
    spread, lower, upper = call_spread(k, 1.2 * k, maturity)
    for t in (0.0, 0.5 * maturity):
        for s in k * np.exp(np.linspace(-1.0, 1.0, 9)):
            got = agent_value(model, spread, t, s)
            want = (agent_value(model, lower, t, s).delta
                    - agent_value(model, upper, t, s).delta)
            assert got.delta == pytest.approx(want, abs=1e-6)
            assert got.value == quadrature_of_the_payoff(
                DRAW4["discount"], DRAW4["sigma"], t, s, spread)


@settings(max_examples=40, derandomize=True, deadline=None)
@example(discount=DRAW4["discount"], sigma=DRAW4["sigma"],
         tau=DRAW4["maturity"], moneyness=0.34, width=0.2)
@example(discount=DRAW4["discount"], sigma=DRAW4["sigma"],
         tau=DRAW4["maturity"], moneyness=0.5, width=0.2)
@given(discount=st.floats(min_value=0.0, max_value=0.05),
       sigma=st.floats(min_value=0.1, max_value=0.6),
       tau=st.floats(min_value=0.25, max_value=5.0),
       moneyness=st.floats(min_value=math.exp(-1.0), max_value=math.e),
       width=st.floats(min_value=0.05, max_value=0.5))
def test_custom_spread_matches_its_replicating_calls_on_drawn_models(
        discount, sigma, tau, moneyness, width):
    """A custom call-spread from K to (1 + width) K, at t = 0 and s =
    moneyness K, is marked and hedged as its two calls' closed forms.  The
    delta's bound, 1e-5, is the likelihood-ratio quadrature's: over 6,000
    random draws from these ranges it missed by at most 4.1e-6.  The mark's
    bound, 2e-4 of the strike, is the quadrature's open miss near a kink,
    7.6e-5 at most over the same draws, which a payoff given as knots would
    remove."""
    k = DRAW4["strike"]
    model = flat_model(discount, sigma)
    spread, lower, upper = call_spread(k, (1.0 + width) * k, tau)
    s = moneyness * k
    got = agent_value(model, spread, 0.0, s)
    low, high = agent_value(model, lower, 0.0, s), agent_value(model, upper, 0.0, s)
    assert got.delta == pytest.approx(low.delta - high.delta, abs=1e-5)
    assert got.value == pytest.approx(low.value - high.value, abs=2e-4 * k)


def test_a_custom_claim_is_valued_without_its_slope(monkeypatch):
    """Before maturity the payoff alone marks and hedges a custom claim: with
    the payoff's slope refused, the agent's mark, the lattice and the
    closed forms each value a call-spread."""
    def refuse(self, s):
        raise AssertionError("the payoff's slope was read before maturity")

    monkeypatch.setattr(ClaimSpec, "payoff_slope", refuse)
    spread, _, _ = call_spread(1.0, 1.2, 1.5)
    equity = EquityParams(spot=1.1, sigma=0.2)
    model = symmetric_model(SymmetricRates(fund=0.05, repo=0.02, coll=0.01),
                            equity, alpha=0.3)
    assert math.isfinite(agent_value(model, spread, 0.75, 1.1).delta)
    for sol in lattice.solve_batch([model], spread, 8)[0]:
        assert math.isfinite(sol.root_gradient)
    assert math.isfinite(piterbarg_strategies(model, spread, 0.0, 1.1).stock_shares)
    with pytest.raises(AssertionError, match="slope was read"):
        agent_value(model, spread, 1.5, 1.1)
