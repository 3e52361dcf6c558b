"""Closed forms: hand evaluations, algebraic identities, limit behavior."""

import math

import pytest

from xvaband import (BUYER, SELLER, ClaimSpec, CreditParams,
                     DegenerateRatesError, EquityParams, ModelError,
                     agent_value, piterbarg_defaults_xva, piterbarg_price,
                     piterbarg_stock_strategy, piterbarg_strategies,
                     piterbarg_xva, relative_adjustment, symmetric_model)
from xvaband.closed_form import (SymmetricRates, adjustment_multiplier,
                                 adjustment_multiplier_limit, decay_kernel)
from conftest import call_spread, make_symmetric

CALL = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
FIG_CREDIT = CreditParams(mu_own=0.16, mu_cpty=0.21, loss_own=0.5, loss_cpty=0.5)


# ---------------------------------------------------------------------------
# no-default regime
# ---------------------------------------------------------------------------

def test_multiplier_hand_example():
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.0)
    beta = adjustment_multiplier(model, 0.0, 1.0)
    assert beta == pytest.approx(math.exp(-0.03) - 1.0, abs=1e-15)
    xva = piterbarg_xva(model, CALL, 0.0, 0.104506)
    assert xva == pytest.approx((math.exp(-0.03) - 1.0) * 0.104506, abs=1e-15)
    assert xva == pytest.approx(-0.0030888, abs=5e-7)


def test_multiplier_vanishes_at_special_alpha():
    # collateral level that kills the second factor identically
    alpha = 0.03 / 0.07
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=alpha)
    assert piterbarg_xva(model, CALL, 0.0, 0.104506) == pytest.approx(0.0, abs=1e-16)


def test_xva_proportional_to_mark():
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.3)
    assert piterbarg_xva(model, CALL, 0.0, 0.0) == 0.0


def test_degenerate_rates_rejected():
    model = make_symmetric(fund=0.05, repo=0.05, coll=0.01, alpha=0.5)
    with pytest.raises(DegenerateRatesError):
        piterbarg_xva(model, CALL, 0.0, 0.1)
    with pytest.raises(DegenerateRatesError):
        piterbarg_price(model, CALL, 0.0, 0.1)


def test_multiplier_limit_form():
    # multiplier -> alpha * (fund - coll) * tau as fund -> repo from above
    limit_model = make_symmetric(fund=0.05, repo=0.05, coll=0.01, alpha=0.5)
    lim = adjustment_multiplier_limit(limit_model, 0.0, 1.0)
    assert lim == pytest.approx(0.5 * 0.04 * 1.0, abs=1e-15)
    errors = []
    for eps in (1e-3, 1e-5):
        model = make_symmetric(fund=0.05 + eps, repo=0.05, coll=0.01, alpha=0.5)
        errors.append(abs(adjustment_multiplier(model, 0.0, 1.0) - lim))
    assert errors[0] < 2e-3 and errors[1] < 2e-5  # linear approach to the limit


def test_asymmetric_rates_rejected():
    from conftest import make_benchmark
    with pytest.raises(ModelError):
        piterbarg_xva(make_benchmark(), CALL, 0.0, 0.1)


def test_stock_strategy_hand_example():
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.0)
    delta = agent_value(model, CALL, 0.0, 1.0).delta
    got = piterbarg_stock_strategy(model, CALL, 0.0, 1.0)
    assert got == pytest.approx((math.exp(-0.03) - 1.0) * delta, abs=1e-15)
    assert got == pytest.approx(-0.018821, abs=1e-6)


def test_stock_strategy_zero_cases():
    alpha = 0.03 / 0.07
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=alpha)
    assert piterbarg_stock_strategy(model, CALL, 0.0, 1.0) == pytest.approx(0.0, abs=1e-16)
    deep_otm = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.0)
    assert piterbarg_stock_strategy(deep_otm, CALL, 0.0, 1e-4) == \
        pytest.approx(0.0, abs=1e-12)


def test_price_consistency_with_xva(rng):
    # price - mark == adjustment, an algebraic identity, at random rate tuples
    for _ in range(100):
        repo = rng.uniform(0.0, 0.08)
        fund = repo + rng.uniform(1e-4, 0.1)
        coll = rng.uniform(0.0, repo) if repo > 0 else 0.0
        alpha = rng.uniform(0.0, 1.0)
        mark = rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.0, 0.99)
        model = make_symmetric(fund=fund, repo=repo, coll=coll, alpha=alpha)
        price = piterbarg_price(model, CALL, t, mark)
        xva = piterbarg_xva(model, CALL, t, mark)
        assert price - mark == pytest.approx(xva, abs=1e-12)


def test_price_hand_example():
    # direct evaluation: exp(-0.03) + 0.5*0.07*(1 - exp(-0.03))/0.03
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.5)
    expected = math.exp(-0.03) + 0.5 * 0.07 * (1.0 - math.exp(-0.03)) / 0.03
    got = piterbarg_price(model, CALL, 0.0, 1.0)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(1.0049257437, abs=1e-9)


def test_price_no_spread_limit():
    mark = 0.2
    for eps in (1e-3, 1e-6):
        model = make_symmetric(fund=0.05 + eps, repo=0.05, coll=0.01, alpha=0.0)
        price = piterbarg_price(model, CALL, 0.0, mark)
        assert abs(price - mark) < 2 * eps * mark * CALL.maturity + 1e-12


# ---------------------------------------------------------------------------
# default-risk regime
# ---------------------------------------------------------------------------

def defaults_model(fund=0.05, alpha=1.0, credit=None):
    return make_symmetric(fund=fund, repo=0.05, coll=0.01, alpha=alpha,
                          credit=credit or FIG_CREDIT)


def test_defaults_hand_example():
    model = defaults_model(fund=0.05, alpha=1.0)
    dec = piterbarg_defaults_xva(model, CALL, 0.0, 1.0)
    eta = 0.16 + 0.21 - 0.05
    kernel = (1.0 - math.exp(-(eta - 0.05) * 1.0)) / (eta - 0.05)
    assert dec.eta == pytest.approx(eta, abs=1e-15)
    assert dec.kernel == pytest.approx(kernel, abs=1e-15)
    assert dec.total == pytest.approx(0.04 * kernel, abs=1e-15)
    assert dec.total == pytest.approx(0.0350549, abs=1e-7)


def test_defaults_full_collateral_kills_credit_terms(rng):
    model = defaults_model(fund=0.08, alpha=1.0)
    for mark in rng.uniform(-1, 1, size=20):
        dec = piterbarg_defaults_xva(model, CALL, 0.0, mark)
        assert dec.cva == 0.0
        assert dec.dva == 0.0


def test_defaults_zero_at_maturity():
    model = defaults_model(fund=0.08, alpha=0.3)
    dec = piterbarg_defaults_xva(model, CALL, CALL.maturity, 0.7)
    assert dec.funding == 0.0 and dec.cva == 0.0 and dec.dva == 0.0


def test_defaults_additivity_exact(rng):
    model = defaults_model(fund=0.08, alpha=0.25)
    for mark in rng.uniform(-1, 1, size=50):
        dec = piterbarg_defaults_xva(model, CALL, 0.2, mark)
        assert dec.total == dec.funding + dec.cva + dec.dva


def test_defaults_buyer_is_reflection_of_seller(rng):
    model = defaults_model(fund=0.08, alpha=0.25)
    for mark in rng.uniform(-1, 1, size=100):
        buyer = piterbarg_defaults_xva(model, CALL, 0.0, mark, BUYER).total
        seller_neg = piterbarg_defaults_xva(model, CALL, 0.0, -mark, SELLER).total
        assert buyer == pytest.approx(-seller_neg, abs=1e-15)


def test_kernel_properties():
    model = defaults_model(fund=0.08, alpha=0.5)
    eta, kernel = decay_kernel(model, 0.0, 1.0)
    assert eta > 0.05 and kernel > 0.0
    _, at_maturity = decay_kernel(model, 1.0, 1.0)
    assert at_maturity == 0.0
    # removable singularity rejected; such a model also violates the
    # necessary rate conditions, so it must be forced through the validator
    from xvaband import EquityParams, MarketModel
    degen = MarketModel(
        rates=SymmetricRates(fund=0.08, repo=0.05, coll=0.01).to_rate_set(),
        equity=EquityParams(spot=1.0, sigma=0.2),
        credit=CreditParams(mu_own=0.09, mu_cpty=0.04, loss_own=0.5,
                            loss_cpty=0.5),
        alpha=0.5, allow_violations=True)
    with pytest.raises(DegenerateRatesError):
        decay_kernel(degen, 0.0, 1.0)


def test_relative_adjustment_consistency(rng):
    model = defaults_model(fund=0.08, alpha=0.25)
    for mark in rng.uniform(1e-6, 1.0, size=100):
        a = relative_adjustment(model, CALL, 0.3)
        total = piterbarg_defaults_xva(model, CALL, 0.3, mark).total
        assert a * mark == pytest.approx(total, abs=1e-12)


def test_relative_adjustment_full_collateral_simplification():
    # alpha = 1: the factor reduces to (repo - coll) * kernel
    model = defaults_model(fund=0.08, alpha=1.0)
    _, kernel = decay_kernel(model, 0.0, 1.0)
    assert relative_adjustment(model, CALL, 0.0) == \
        pytest.approx((0.05 - 0.01) * kernel, abs=1e-15)


def test_relative_adjustment_zero_case():
    credit = CreditParams(mu_own=0.16, mu_cpty=0.21, loss_own=0.0, loss_cpty=0.5)
    model = make_symmetric(fund=0.05, repo=0.05, coll=0.01, alpha=0.0,
                           credit=credit)
    assert relative_adjustment(model, CALL, 0.0) == 0.0


def test_zero_adjustment_collapse(rng):
    # equal funding/repo/collateral rates and zero loss rates: no adjustment
    credit = CreditParams(mu_own=0.2, mu_cpty=0.15, loss_own=0.0, loss_cpty=0.0)
    for alpha in (0.0, 0.4, 1.0):
        model = make_symmetric(fund=0.03, repo=0.03, coll=0.03, alpha=alpha,
                               credit=credit)
        for mark in rng.uniform(-1, 1, size=10):
            dec = piterbarg_defaults_xva(model, CALL, 0.2, mark)
            assert dec.total == 0.0
        assert adjustment_multiplier_limit(model, 0.0, 1.0) == 0.0


def test_negative_sign_structure_uncollateralized_call():
    # funding spread with no collateral: the seller's adjustment is negative
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.0)
    mark = agent_value(model, CALL, 0.0, 1.0).value
    assert mark > 0
    assert piterbarg_xva(model, CALL, 0.0, mark) < 0.0


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def test_strategies_self_financing_identity(rng):
    model = defaults_model(fund=0.08, alpha=0.25)
    for side in (SELLER, BUYER):
        for _ in range(30):
            t = rng.uniform(0.0, 0.9)
            s = rng.uniform(0.6, 1.8)
            st_ = piterbarg_strategies(model, CALL, t, s, side)
            assert st_.wealth == pytest.approx(st_.adjustment, abs=1e-10)


@pytest.mark.parametrize("credit", [None, FIG_CREDIT], ids=["no-credit", "credit"])
def test_custom_spread_is_hedged_as_its_two_calls(credit):
    """The stock shares of a custom call-spread are those of its two calls
    within 1e-8, on a symmetric model (repo = discount) at spot 1.6, above
    the spread, where a quadrature of the payoff's slope gave a delta of 0
    and missed the shares by 3.3e-4 to 9.5e-4."""
    model = symmetric_model(SymmetricRates(fund=0.05, repo=0.02, coll=0.01),
                            EquityParams(spot=1.6, sigma=0.12), credit=credit,
                            alpha=0.3)
    spread, lower, upper = call_spread(1.0, 1.2, 1.5)
    for side in (SELLER, BUYER):
        got, low, high = (piterbarg_strategies(model, claim, 0.0, 1.6, side)
                          for claim in (spread, lower, upper))
        assert got.stock_shares == pytest.approx(
            low.stock_shares - high.stock_shares, abs=1e-8)


def test_strategies_full_collateral_bond_positions(rng):
    # at full collateralization both bond positions equal the adjustment
    model = defaults_model(fund=0.08, alpha=1.0)
    for _ in range(10):
        s = rng.uniform(0.6, 1.8)
        st_ = piterbarg_strategies(model, CALL, 0.3, s, SELLER)
        assert st_.bond_own_dollars == pytest.approx(st_.adjustment, abs=1e-14)
        assert st_.bond_cpty_dollars == pytest.approx(st_.adjustment, abs=1e-14)
        # posted collateral account balance is the full mark
        assert st_.collateral_account_dollars == pytest.approx(-st_.mark, abs=1e-14)


def test_strategies_default_jump_targets(rng):
    from xvaband.drivers import jump_targets
    model = defaults_model(fund=0.08, alpha=0.25)
    for side in (SELLER, BUYER):
        for _ in range(30):
            t = rng.uniform(0.0, 0.9)
            s = rng.uniform(0.6, 1.8)
            st_ = piterbarg_strategies(model, CALL, t, s, side)
            jump_own, jump_cpty = jump_targets(model, side, st_.mark)
            after_own = (st_.bond_cpty_dollars + st_.funding_dollars
                         - st_.collateral_account_dollars)
            after_cpty = (st_.bond_own_dollars + st_.funding_dollars
                          - st_.collateral_account_dollars)
            assert after_own == pytest.approx(float(jump_own), abs=1e-10)
            assert after_cpty == pytest.approx(float(jump_cpty), abs=1e-10)


def test_strategies_stock_matches_bumped_mark(rng):
    # stock shares equal the spot-derivative of the adjustment (chain rule)
    model = defaults_model(fund=0.08, alpha=0.25)
    for _ in range(10):
        s = rng.uniform(0.7, 1.6)
        h = 1e-5 * s
        up = piterbarg_defaults_xva(
            model, CALL, 0.2, agent_value(model, CALL, 0.2, s + h).value).total
        dn = piterbarg_defaults_xva(
            model, CALL, 0.2, agent_value(model, CALL, 0.2, s - h).value).total
        fd = (up - dn) / (2 * h)
        st_ = piterbarg_strategies(model, CALL, 0.2, s, SELLER)
        assert st_.stock_shares == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_strategies_without_credit_hedge_a_multiple_of_the_mark():
    model = make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.75)
    mark = agent_value(model, CALL, 0.2, 1.1).value
    for side in (SELLER, BUYER):
        st_ = piterbarg_strategies(model, CALL, 0.2, 1.1, side)
        assert st_.mark == mark
        assert st_.adjustment == piterbarg_xva(model, CALL, 0.2, mark)
        assert st_.stock_shares == piterbarg_stock_strategy(model, CALL,
                                                            0.2, 1.1)
        assert st_.bond_own_shares == st_.bond_cpty_shares == 0.0
        assert st_.wealth == pytest.approx(st_.adjustment, abs=1e-14)


def test_strict_ordering_enforced():
    with pytest.raises(ModelError):
        SymmetricRates(fund=0.04, repo=0.05, coll=0.01)
    with pytest.raises(ModelError):
        SymmetricRates(fund=0.08, repo=0.05, coll=0.06)


def test_default_risk_forms_refuse_a_model_without_credit():
    model = make_symmetric()
    with pytest.raises(ModelError, match="decay_kernel requires credit"):
        decay_kernel(model, 0.0, 1.0)
    with pytest.raises(ModelError, match="closed form requires credit"):
        piterbarg_defaults_xva(model, CALL, 0.0, 0.1)
