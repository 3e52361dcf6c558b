import math

import numpy as np
import pytest
from scipy import integrate, special

from xvaband import ClaimSpec, EquityParams, MarketModel, RateSet, agent_value
from xvaband.claims import agent_value_grid


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


def test_validation():
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    model = flat_model(0.05, 0.2)
    with pytest.raises(ValueError):
        agent_value(model, claim, 0.0, -1.0)
    with pytest.raises(ValueError):
        agent_value(model, claim, 2.0, 1.0)
    with pytest.raises(ValueError):
        ClaimSpec(kind="call", strike=-1.0, maturity=1.0)
    with pytest.raises(ValueError):
        ClaimSpec(kind="straddle", strike=1.0, maturity=1.0)
    with pytest.raises(ValueError):
        ClaimSpec(kind="custom", strike=1.0, maturity=1.0)
