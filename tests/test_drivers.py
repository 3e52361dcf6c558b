"""Driver properties: hand examples, reflection, homogeneity, regime collapses.

The buyer-side checks go through an independently hand-expanded driver rather
than the library's reflection, so the antisymmetry is tested and not assumed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xvaband import (BUYER, SELLER, ClaimSpec, CreditParams, MarketModel,
                     RateSet, closeout)
from xvaband.drivers import (DriverParams, ReplicationStrategy,
                             adjustment_drift, build_strategy,
                             closeout_adjustments, jump_targets, neg, pos,
                             reduced_drift, reduced_drift_value, reduced_root,
                             reduced_step, reduced_terms, wealth_drift)
from conftest import EQUITY, make_benchmark, make_symmetric


def model_with(alpha=0.0, **kw):
    rates = dict(fund_lend=0.05, fund_borrow=0.08, repo_lend=0.05,
                 repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01, discount=0.01)
    rates.update({k: v for k, v in kw.items() if k in rates})
    credit = CreditParams(mu_own=kw.get("mu_own", 0.21),
                          mu_cpty=kw.get("mu_cpty", 0.16),
                          loss_own=kw.get("loss_own", 0.5),
                          loss_cpty=kw.get("loss_cpty", 0.5))
    return MarketModel(rates=RateSet(**rates), equity=EQUITY, credit=credit,
                       alpha=alpha, allow_violations=True)


def random_args(rng, n=1):
    out = rng.uniform(-1.0, 1.0, size=(n, 5))
    return out  # columns: v, z, z_own, z_cpty, mark


# ---------------------------------------------------------------------------
# close-out
# ---------------------------------------------------------------------------

def test_closeout_hand_examples():
    m = model_with(alpha=0.5, loss_cpty=0.5)
    c = closeout(m, -2.0)
    assert c.wealth_cpty_default == pytest.approx(-1.5)

    m = model_with(alpha=1.0)
    c = closeout(m, 0.3)
    assert c.wealth_own_default == pytest.approx(0.3)
    assert c.wealth_cpty_default == pytest.approx(0.3)

    m = model_with(alpha=0.0, loss_own=0.5)
    c = closeout(m, 1.0)
    assert c.wealth_own_default == pytest.approx(0.5)
    assert c.adjustment_own_default == pytest.approx(-0.5)


def test_closeout_signs(rng):
    m = model_with(alpha=0.3)
    for mark in rng.uniform(-2, 2, size=50):
        c = closeout(m, mark)
        assert c.adjustment_own_default <= 0.0
        assert c.adjustment_cpty_default >= 0.0


# ---------------------------------------------------------------------------
# wealth-level driver
# ---------------------------------------------------------------------------

def test_wealth_drift_hand_example():
    # funding 0.05/0.08, repo 0.05 both, collateral 0.01 both, discount 0.01,
    # sigma 0.2; v=1, z=0.2, no jump exposure, posted collateral 0.5
    m = model_with(alpha=0.5)
    got = wealth_drift(m, SELLER, 0.0, 1.0, 0.2, 0.0, 0.0, 1.0)
    expected = -(0.05 * 0.5 + (0.01 - 0.05) * (0.2 / 0.2) + 0.01 * 0.5)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(0.01, abs=1e-15)


def test_wealth_drift_zero_args():
    m = model_with(alpha=0.5)
    for side in (SELLER, BUYER):
        assert wealth_drift(m, side, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == 0.0


def test_wealth_drift_symmetric_collapse(rng):
    # all rates equal and no collateral/jumps: drift is -r*v regardless of z
    r = 0.04
    rates = RateSet(fund_lend=r, fund_borrow=r, repo_lend=r, repo_borrow=r,
                    coll_earn=r, coll_pay=r, discount=r)
    m = MarketModel(rates=rates, equity=EQUITY, alpha=0.0)
    for v, z in rng.uniform(-2, 2, size=(50, 2)):
        got = wealth_drift(m, SELLER, 0.0, v, z, 0.0, 0.0, 0.7)
        assert got == pytest.approx(-r * v, abs=1e-14)


def hand_expanded_buyer(m, v, z, z_own, z_cpty, mark):
    """Buyer wealth driver expanded by hand (minus distributed through)."""
    r = m.rates
    sigma = m.equity.sigma
    coll = m.alpha * mark
    funding = v + z_own + z_cpty - coll
    return (r.fund_lend * neg(funding) - r.fund_borrow * pos(funding)
            + (r.discount - r.repo_borrow) * neg(z) / sigma
            - (r.discount - r.repo_lend) * pos(z) / sigma
            + r.discount * z_own + r.discount * z_cpty
            + r.coll_earn * neg(coll) - r.coll_pay * pos(coll))


def test_buyer_reflection_against_hand_expansion(rng):
    m = model_with(alpha=0.7, repo_borrow=0.06, coll_pay=0.02)
    for v, z, zo, zc, mark in random_args(rng, 1000):
        got = wealth_drift(m, BUYER, 0.0, v, z, zo, zc, mark)
        assert got == hand_expanded_buyer(m, v, z, zo, zc, mark)


def test_reflection_antisymmetry_exact(rng):
    m = model_with(alpha=0.4, repo_borrow=0.07)
    for v, z, zo, zc, mark in random_args(rng, 1000):
        plus = wealth_drift(m, SELLER, 0.0, -v, -z, -zo, -zc, -mark)
        minus = wealth_drift(m, BUYER, 0.0, v, z, zo, zc, mark)
        assert minus == -plus  # same code path: exact


@settings(max_examples=200, derandomize=True)
@given(gamma=st.floats(min_value=1e-6, max_value=10.0),
       v=st.floats(min_value=-2, max_value=2),
       z=st.floats(min_value=-2, max_value=2),
       zo=st.floats(min_value=-2, max_value=2),
       zc=st.floats(min_value=-2, max_value=2),
       mark=st.floats(min_value=-2, max_value=2))
def test_positive_homogeneity(gamma, v, z, zo, zc, mark):
    # absolute floor: the drift can vanish by cancellation of O(1) terms,
    # where a purely relative comparison amplifies rounding noise
    m = model_with(alpha=0.6, repo_borrow=0.06)
    for side in (SELLER, BUYER):
        base = wealth_drift(m, side, 0.0, v, z, zo, zc, mark)
        scaled = wealth_drift(m, side, 0.0, gamma * v, gamma * z, gamma * zo,
                              gamma * zc, gamma * mark)
        assert scaled == pytest.approx(gamma * base, rel=1e-12, abs=1e-12)


def test_lipschitz_componentwise_bound(rng):
    m = model_with(alpha=0.5, repo_borrow=0.07, coll_pay=0.03)
    r = m.rates
    sigma = m.equity.sigma
    fund = max(r.fund_lend, r.fund_borrow)
    c_v = fund
    c_z = max(abs(r.discount - r.repo_lend), abs(r.discount - r.repo_borrow)) / sigma
    c_j = fund + r.discount
    c_m = m.alpha * (fund + max(r.coll_earn, r.coll_pay))
    for _ in range(500):
        a = rng.uniform(-2, 2, size=5)
        b = rng.uniform(-2, 2, size=5)
        fa = wealth_drift(m, SELLER, 0.0, *a)
        fb = wealth_drift(m, SELLER, 0.0, *b)
        bound = (c_v * abs(a[0] - b[0]) + c_z * abs(a[1] - b[1])
                 + c_j * (abs(a[2] - b[2]) + abs(a[3] - b[3]))
                 + c_m * abs(a[4] - b[4]))
        assert abs(fa - fb) <= bound + 1e-12


# ---------------------------------------------------------------------------
# adjustment-level driver and its identity with the wealth level
# ---------------------------------------------------------------------------

def test_adjustment_wealth_identity(rng):
    m = model_with(alpha=0.9, repo_borrow=0.06)
    r_d = m.rates.discount
    for side in (SELLER, BUYER):
        for v, z, zo, zc, mark in random_args(rng, 100):
            lhs = adjustment_drift(m, side, 0.0, v, z, zo, zc, mark)
            rhs = wealth_drift(m, side, 0.0, v + mark, z, zo, zc, mark) + r_d * mark
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_adjustment_drift_zero():
    m = model_with(alpha=0.5)
    for side in (SELLER, BUYER):
        assert adjustment_drift(m, side, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == 0.0


def test_adjustment_matches_reduced_at_pinned_jumps(benchmark_model):
    mark = 0.104506
    own, cpty = closeout_adjustments(benchmark_model, mark)
    u, z = 0.0, 0.0
    h_own = benchmark_model.default_intensity("own")
    h_cpty = benchmark_model.default_intensity("cpty")
    manual = (h_own * (own - u) + h_cpty * (cpty - u)
              + adjustment_drift(benchmark_model, SELLER, 0.0, u, z,
                                 own - u, cpty - u, mark))
    assert reduced_drift(benchmark_model, SELLER, 0.0, u, z, mark) == \
        pytest.approx(manual, abs=1e-15)


# ---------------------------------------------------------------------------
# reduced driver
# ---------------------------------------------------------------------------

def test_reduced_drift_zero_mark():
    m = model_with(alpha=0.5)
    assert reduced_drift(m, SELLER, 0.0, 0.0, 0.0, 0.0) == 0.0
    assert reduced_drift(m, BUYER, 0.0, 0.0, 0.0, 0.0) == 0.0


def independent_linear_driver(credit, alpha, fund, repo, coll, u, mark):
    """Symmetric-regime reduced driver coded from its linear form."""
    eta = credit.mu_own + credit.mu_cpty - fund
    adj_own = -credit.loss_own * max((1 - alpha) * mark, 0.0)
    adj_cpty = credit.loss_cpty * max(-(1 - alpha) * mark, 0.0)
    return ((fund - coll) * alpha * mark + (repo - fund) * mark
            + (credit.mu_own - fund) * adj_own
            + (credit.mu_cpty - fund) * adj_cpty
            - eta * u)


def test_reduced_symmetric_regime_collapses_to_linear_driver(rng):
    credit = CreditParams(mu_own=0.16, mu_cpty=0.21, loss_own=0.5, loss_cpty=0.5)
    fund, repo, coll, alpha = 0.08, 0.05, 0.01, 0.25
    m = make_symmetric(fund=fund, repo=repo, coll=coll, alpha=alpha,
                       credit=credit)
    for _ in range(100):
        u = rng.uniform(-1, 1)
        z = rng.uniform(-1, 1)
        mark = rng.uniform(-1, 1)
        expected = independent_linear_driver(credit, alpha, fund, repo, coll,
                                             u, mark)
        got = reduced_drift(m, SELLER, 0.0, u, z, mark)
        assert got == pytest.approx(expected, abs=1e-12)


def test_reduced_buyer_seller_reflection(rng):
    m = make_benchmark(alpha=0.4)
    for _ in range(200):
        u, z, mark = rng.uniform(-1, 1, size=3)
        lhs = reduced_drift(m, BUYER, 0.0, u, z, mark)
        rhs = -reduced_drift(m, SELLER, 0.0, -u, -z, -mark)
        assert lhs == rhs


def test_reduced_value_level_consistency(rng):
    # shifting the reduced adjustment driver by the mark gives the value level
    m = make_benchmark(alpha=0.7)
    r_d = m.rates.discount
    for side in (SELLER, BUYER):
        for _ in range(100):
            u, z, mark = rng.uniform(-1, 1, size=3)
            adj = reduced_drift(m, side, 0.0, u, z, mark)
            val = reduced_drift_value(m, side, 0.0, u + mark, z, mark)
            assert adj == pytest.approx(val + r_d * mark, abs=1e-12)


def hand_expanded_reduced(m, side, at_value, u, z, mark):
    """Reduced driver expanded by hand per side and level, without reflection."""
    r = m.rates
    sigma = m.equity.sigma
    coll = m.alpha * mark
    residual = (1 - m.alpha) * mark
    if m.credit is None:
        h_own = h_cpty = z_own = z_cpty = 0.0
    else:
        h_own = m.default_intensity("own")
        h_cpty = m.default_intensity("cpty")
        c = m.credit
        if side == SELLER:
            own = -c.loss_own * pos(residual)
            cpty = c.loss_cpty * neg(residual)
        else:
            own = c.loss_own * neg(residual)
            cpty = -c.loss_cpty * pos(residual)
        shift = mark if at_value else 0.0
        z_own = shift + own - u
        z_cpty = shift + cpty - u
    if at_value:
        funding = u + z_own + z_cpty - coll
    else:
        funding = u + z_own + z_cpty + residual
    if side == SELLER:
        accrual = -(r.fund_lend * pos(funding) - r.fund_borrow * neg(funding)
                    + (r.discount - r.repo_borrow) * pos(z) / sigma
                    - (r.discount - r.repo_lend) * neg(z) / sigma
                    - r.discount * (z_own + z_cpty)
                    + r.coll_earn * pos(coll) - r.coll_pay * neg(coll))
    else:
        accrual = (r.fund_lend * neg(funding) - r.fund_borrow * pos(funding)
                   + (r.discount - r.repo_borrow) * neg(z) / sigma
                   - (r.discount - r.repo_lend) * pos(z) / sigma
                   + r.discount * (z_own + z_cpty)
                   + r.coll_earn * neg(coll) - r.coll_pay * pos(coll))
    carry = 0.0 if at_value else r.discount * mark
    return h_own * z_own + h_cpty * z_cpty + accrual + carry


def test_reduced_drivers_against_hand_expansion(rng):
    credit = model_with(alpha=0.6, repo_borrow=0.07, coll_pay=0.03)
    for m in (credit, dataclasses.replace(credit, credit=None)):
        for side in (SELLER, BUYER):
            for at_value, fn in ((False, reduced_drift), (True, reduced_drift_value)):
                for u, z, mark in rng.uniform(-1, 1, size=(200, 3)):
                    want = hand_expanded_reduced(m, side, at_value, u, z, mark)
                    got = fn(m, side, 0.0, u, z, mark)
                    assert got == pytest.approx(want, abs=1e-12), \
                        (m.credit is None, side, at_value)


def unsplit_seller_reduced(m, at_value, u, z, mark):
    """The seller's reduced driver as one expression, in the accrual's order.

    The reference that the split into per-level terms and a step in u must
    match bit for bit.
    """
    r = m.rates
    sigma = m.equity.sigma
    collateral = m.alpha * mark
    if m.credit is None:
        z_own = z_cpty = u * 0.0
    else:
        own, cpty = closeout_adjustments(m, mark)
        if at_value:
            own, cpty = mark + own, mark + cpty
        z_own, z_cpty = own - u, cpty - u
    if at_value:
        funding = u + z_own + z_cpty - collateral
    else:
        funding = u + z_own + z_cpty + (1.0 - m.alpha) * mark
    drift = -(r.fund_lend * pos(funding) - r.fund_borrow * neg(funding)
              + (r.discount - r.repo_borrow) * pos(z) / sigma
              - (r.discount - r.repo_lend) * neg(z) / sigma
              - r.discount * z_own - r.discount * z_cpty
              + r.coll_earn * pos(collateral) - r.coll_pay * neg(collateral))
    if not at_value:
        drift = drift + r.discount * mark
    if m.credit is None:
        return drift
    return (m.default_intensity("own") * z_own
            + m.default_intensity("cpty") * z_cpty + drift)


def test_split_driver_matches_unsplit_kernel(rng):
    credit = model_with(alpha=0.6, repo_borrow=0.07, repo_lend=0.03,
                        coll_pay=0.03)
    scale = rng.choice([0.0, -0.0, 1.0, 1e8], size=(3, 64))
    u, z, mark = rng.uniform(-1, 1, size=(3, 64)) * scale
    for m in (credit, dataclasses.replace(credit, credit=None)):
        for at_value, fn in ((False, reduced_drift), (True, reduced_drift_value)):
            seller = unsplit_seller_reduced(m, at_value, u, z, mark)
            buyer = -unsplit_seller_reduced(m, at_value, -u, -z, -mark)
            assert fn(m, SELLER, 0.0, u, z, mark).tobytes() == seller.tobytes()
            assert fn(m, BUYER, 0.0, u, z, mark).tobytes() == buyer.tobytes()


def test_driver_params_stack_matches_per_model():
    """Row j of the stacked record is the record of model j % K on its
    side; a field equal in every model stays a float."""
    models = [model_with(alpha=0.0), model_with(alpha=0.35, fund_borrow=0.15),
              model_with(alpha=0.9, mu_cpty=0.3, repo_borrow=0.07),
              model_with(alpha=0.9, loss_own=0.4)]
    count = len(models)
    stacked = DriverParams.stack(models)
    for name in ("fund_lend", "discount", "sigma", "loss_cpty", "intensity_own"):
        assert isinstance(getattr(stacked, name), float), name
    for name in ("alpha", "fund_borrow", "repo_borrow", "loss_own",
                 "intensity_cpty", "sign"):
        assert getattr(stacked, name).shape == (2 * count, 1), name
    for j in range(2 * count):
        model = models[j % count]
        one = DriverParams.of(model, SELLER if j < count else BUYER)
        row = stacked.take(np.array([j]))
        for name, got, want in zip(DriverParams._fields, row, one):
            assert np.array_equal(np.broadcast_to(got, (1, 1)), [[want]]), (j, name)
        assert one.intensity_own == model.default_intensity("own")
        assert one.intensity_cpty == model.default_intensity("cpty")
    no_credit = DriverParams.stack([dataclasses.replace(m, credit=None)
                                    for m in models])
    assert no_credit.loss_own is no_credit.intensity_cpty is None
    assert stacked.take(slice(None)) is stacked


def test_reduced_drift_vectorized(benchmark_model, rng):
    u = rng.uniform(-1, 1, size=32)
    z = rng.uniform(-1, 1, size=32)
    mark = rng.uniform(-1, 1, size=32)
    vec = reduced_drift(benchmark_model, BUYER, 0.0, u, z, mark)
    for i in range(32):
        assert vec[i] == reduced_drift(benchmark_model, BUYER, 0.0, u[i],
                                       z[i], mark[i])


# ---------------------------------------------------------------------------
# replication accounting
# ---------------------------------------------------------------------------

def test_jump_targets_buyer_call_mark():
    m = model_with(alpha=0.0)
    own, cpty = jump_targets(m, BUYER, 0.5)
    assert own == 0.0                      # no own-default relief when long
    assert cpty == pytest.approx(-0.25)    # counterparty-default loss


def test_build_strategy_wealth_and_jump_identities(rng):
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    for alpha in (0.0, 0.5, 1.0):
        m = make_benchmark(alpha=alpha)
        for side in (SELLER, BUYER):
            for _ in range(25):
                s = rng.uniform(0.5, 2.0)
                mark = rng.uniform(-0.5, 0.5)
                adj = rng.uniform(-0.2, 0.2)
                shares = rng.uniform(-1, 1)
                st_ = build_strategy(m, claim, side, 0.4, s, adjustment=adj,
                                     mark=mark, stock_shares=shares)
                assert st_.wealth == pytest.approx(adj, abs=1e-10)
                jump_own, jump_cpty = jump_targets(m, side, mark)
                # own default: own bond wiped out, stock/repo cancel
                surviving = (st_.bond_cpty_dollars + st_.funding_dollars
                             - st_.collateral_account_dollars)
                assert surviving == pytest.approx(float(jump_own), abs=1e-10)
                # counterparty default: counterparty bond wiped out
                surviving = (st_.bond_own_dollars + st_.funding_dollars
                             - st_.collateral_account_dollars)
                assert surviving == pytest.approx(float(jump_cpty), abs=1e-10)


def test_build_strategy_buyer_is_exact_reflection(rng):
    # every leg, the collateral account included, negates under reflection;
    # the wealth and jump identities above cannot see a collateral leg coded
    # per side, because funding - collateral_account does not change
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    legs = [f.name for f in dataclasses.fields(ReplicationStrategy)
            if f.name not in ("side", "t", "spot", "boundary")]
    for alpha in (0.0, 0.5, 1.0):
        for m in (make_benchmark(alpha=alpha), make_symmetric(alpha=alpha)):
            for _ in range(25):
                s = rng.uniform(0.5, 2.0)
                mark = rng.uniform(-0.5, 0.5)
                adj = rng.uniform(-0.2, 0.2)
                shares = rng.uniform(-1, 1)
                buyer = build_strategy(m, claim, BUYER, 0.4, s,
                                       adjustment=adj, mark=mark,
                                       stock_shares=shares)
                seller = build_strategy(m, claim, SELLER, 0.4, s,
                                        adjustment=-adj, mark=-mark,
                                        stock_shares=-shares)
                for leg in legs:
                    assert getattr(buyer, leg) == -getattr(seller, leg), \
                        (alpha, leg)


def test_build_strategy_no_credit_has_no_bonds():
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    m = make_symmetric(alpha=0.5)
    st_ = build_strategy(m, claim, SELLER, 0.0, 1.0, adjustment=0.01,
                         mark=0.1, stock_shares=0.2)
    assert st_.bond_own_dollars == 0.0
    assert st_.bond_cpty_dollars == 0.0
    # funding absorbs the adjustment net of posted collateral
    assert st_.funding_dollars == pytest.approx(0.01 - 0.05, abs=1e-15)


# ---------------------------------------------------------------------------
# exact root of the implicit step

RATE = st.floats(min_value=0.0, max_value=0.2)
NODE = st.one_of(st.sampled_from([0.0, -0.0]),
                 st.floats(min_value=-1e8, max_value=1e8))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lend=RATE, spread=st.floats(min_value=1e-4, max_value=0.2),
       repo_lend=RATE, repo_borrow=RATE, coll_earn=RATE, coll_pay=RATE,
       discount=st.floats(min_value=0.0, max_value=0.1),
       mu_own=st.floats(min_value=0.11, max_value=0.6),
       mu_cpty=st.floats(min_value=0.11, max_value=0.6),
       loss_own=st.floats(min_value=0.0, max_value=1.0),
       loss_cpty=st.floats(min_value=0.0, max_value=1.0),
       alpha=st.floats(min_value=0.0, max_value=1.0),
       credit=st.booleans(), side=st.sampled_from([SELLER, BUYER]),
       at_value=st.booleans(), dt=st.floats(min_value=1e-6, max_value=0.1),
       nodes=st.lists(st.tuples(NODE, NODE, NODE), min_size=1, max_size=12))
def test_reduced_root_solves_the_implicit_step(
        lend, spread, repo_lend, repo_borrow, coll_earn, coll_pay, discount,
        mu_own, mu_cpty, loss_own, loss_cpty, alpha, credit, side, at_value,
        dt, nodes):
    m = model_with(alpha=alpha, fund_lend=lend, fund_borrow=lend + spread,
                   repo_lend=repo_lend, repo_borrow=repo_borrow,
                   coll_earn=coll_earn, coll_pay=coll_pay, discount=discount,
                   mu_own=mu_own, mu_cpty=mu_cpty, loss_own=loss_own,
                   loss_cpty=loss_cpty)
    if not credit:
        m = dataclasses.replace(m, credit=None)
    p = DriverParams.of(m, side)
    e, z, mark = np.array(nodes).T
    terms = reduced_terms(p, z, mark, at_value)
    x = reduced_root(p, terms, e, dt)
    # the step rounds at the size of the largest addend of its drift, so a
    # root to rounding solves the equation to a few ulps of that size times
    # dt, where the addends cancel, as well as of |x| and |e|
    top = p.fund_borrow
    addends = [top * abs(terms.offset), top * abs(x), abs(terms.repo_long),
               abs(terms.repo_short), abs(terms.coll_earn),
               abs(terms.coll_pay), discount * abs(mark)]
    if credit:
        pull = 2 * p.discount + p.intensity_own + p.intensity_cpty
        addends += [(top + p.discount + p.intensity_own) * abs(terms.own),
                    (top + p.discount + p.intensity_cpty) * abs(terms.cpty),
                    pull * abs(x)]
    scale = np.maximum(np.maximum(abs(x), abs(e)),
                       dt * np.max(addends, axis=0))
    residual = x - e - dt * reduced_step(p, terms, x)
    assert np.all(np.abs(residual) <= 4 * np.spacing(scale))
    # the branch the root took: the root of the lend or the borrow rate alone
    as_lend = x == reduced_root(p._replace(fund_borrow=p.fund_lend), terms,
                                e, dt)
    as_borrow = x == reduced_root(p._replace(fund_lend=p.fund_borrow), terms,
                                  e, dt)
    assert np.all(as_lend | as_borrow)
    lend_only, borrow_only = as_lend & ~as_borrow, as_borrow & ~as_lend
    # the funding account at the root has that branch's sign, to rounding
    xs = p.sign * x
    if credit:
        parts = [terms.own, terms.cpty, terms.offset, -xs]
    else:
        parts = [xs, terms.offset]
    account = sum(parts)
    slack = 4 * np.spacing(np.maximum(np.max(np.abs(parts), axis=0), scale))
    assert np.all(account[lend_only] >= -slack[lend_only])
    assert np.all(account[borrow_only] <= slack[borrow_only])
