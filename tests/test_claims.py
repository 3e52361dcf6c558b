import math

import numpy as np
import pytest
from scipy import integrate, special

from xvaband import ClaimSpec, EquityParams, MarketModel, RateSet, agent_value
from xvaband.claims import agent_value_grid, agent_value_levels


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
