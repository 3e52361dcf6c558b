"""Driver properties: hand examples, reflection, homogeneity, regime collapses.

The buyer-side checks go through an independently hand-expanded driver rather
than the library's reflection, so the antisymmetry is tested and not assumed.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from xvaband import (BUYER, SELLER, ClaimSpec, CreditParams, MarketModel,
                     RateSet, drivers)
from xvaband.drivers import (DriverParams, ReplicationStrategy,
                             adjustment_drift, build_strategy, jump_targets,
                             linear_legs, mark_coefficients, mark_fields, neg,
                             pos, reduced_drift, reduced_drift_value,
                             reduced_mark_terms, reduced_root, reduced_step,
                             reduced_step_scale, reduced_terms, root_rates,
                             root_terms, wealth_drift)
from xvaband.lattice import ROOT_ULPS
from conftest import (EQUITY, SCENARIO, drawn_models, make_benchmark,
                      make_symmetric)


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
    # the seller's jump targets are its close-out adjustments; the wealth
    # held at a default is the mark plus the adjustment
    m = model_with(alpha=0.5, loss_cpty=0.5)
    own, cpty = jump_targets(m, SELLER, -2.0)
    assert -2.0 + cpty == pytest.approx(-1.5)

    m = model_with(alpha=1.0)
    own, cpty = jump_targets(m, SELLER, 0.3)
    assert 0.3 + own == pytest.approx(0.3)
    assert 0.3 + cpty == pytest.approx(0.3)

    m = model_with(alpha=0.0, loss_own=0.5)
    own, cpty = jump_targets(m, SELLER, 1.0)
    assert 1.0 + own == pytest.approx(0.5)
    assert own == pytest.approx(-0.5)


def test_closeout_signs(rng):
    m = model_with(alpha=0.3)
    for mark in rng.uniform(-2, 2, size=50):
        own, cpty = jump_targets(m, SELLER, mark)
        assert own <= 0.0
        assert cpty >= 0.0


def test_jump_targets_without_a_credit_block_are_zeros_of_the_marks_shape():
    """A default-free model has no close-outs: both targets, on both sides,
    are zeros of the mark's shape, for a scalar mark and for an array that
    holds signed zeros and both signs."""
    m = dataclasses.replace(model_with(alpha=0.4), credit=None)
    for mark in (0.7, -1.25, np.array([[-1.5, 0.0], [2.0, -0.0], [3e-300, 4.0]])):
        for side in (SELLER, BUYER):
            targets = jump_targets(m, side, mark)
            assert len(targets) == 2
            for target in targets:
                assert np.shape(target) == np.shape(mark)
                assert not np.any(target)


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
    own, cpty = jump_targets(benchmark_model, SELLER, mark)
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
        own, cpty = jump_targets(m, SELLER, mark)
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
        for name, field, want in zip(DriverParams._fields, stacked, one):
            got = np.broadcast_to(field, (2 * count, 1))[j]
            assert np.array_equal(got, [want]), (j, name)
        assert one.intensity_own == model.default_intensity("own")
        assert one.intensity_cpty == model.default_intensity("cpty")
    no_credit = DriverParams.stack([dataclasses.replace(m, credit=None)
                                    for m in models])
    assert no_credit.loss_own is no_credit.intensity_cpty is None


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
MODEL = st.fixed_dictionaries(dict(
    fund_lend=RATE, spread=st.floats(min_value=1e-4, max_value=0.2),
    repo_lend=RATE, repo_borrow=RATE, coll_earn=RATE, coll_pay=RATE,
    discount=st.floats(min_value=0.0, max_value=0.1),
    mu_own=st.floats(min_value=0.11, max_value=0.6),
    mu_cpty=st.floats(min_value=0.11, max_value=0.6),
    loss_own=st.floats(min_value=0.0, max_value=1.0),
    loss_cpty=st.floats(min_value=0.0, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=1.0)))


def root_of(p, e, z, mark, at_value, dt):
    """The root of ``u = e + dt * reduced_step`` in the side's own terms, as
    the lattice takes it: constants per dt, coefficients per mark, and the
    fused root in the seller's terms."""
    rates = root_rates(p, dt)
    roots = root_terms(p, rates, reduced_mark_terms(p, mark, at_value))
    return p.sign * reduced_root(rates, roots, p.sign * e, p.sign * z)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(models=st.lists(MODEL, min_size=1, max_size=3), stacked=st.booleans(),
       credit=st.booleans(), side=st.sampled_from([SELLER, BUYER]),
       at_value=st.booleans(), dt=st.floats(min_value=1e-6, max_value=0.1),
       nodes=st.lists(st.tuples(NODE, NODE, NODE), min_size=1, max_size=12))
def test_reduced_root_solves_the_implicit_step(models, stacked, credit, side,
                                               at_value, dt, nodes):
    models = [model_with(fund_borrow=m["fund_lend"] + m["spread"], **m)
              for m in models]
    if not credit:
        models = [dataclasses.replace(m, credit=None) for m in models]
    e, z, mark = np.array(nodes).T
    if stacked:
        # the batched path: (rows, 1) parameter arrays, the sellers of the
        # models and then their buyers, each row on its own nodes
        p = DriverParams.stack(models)
        e, z, mark = (np.array([np.roll(v, r) for r in range(len(p.sign))])
                      for v in (e, z, mark))
    else:
        p = DriverParams.of(models[0], side)
    terms = reduced_terms(p, z, mark, at_value)
    x = root_of(p, e, z, mark, at_value, dt)
    # the step rounds at the size of the largest addend of its drift, so a
    # root to rounding solves the equation to a few ulps of that size times
    # dt, where the addends cancel, as well as of |x| and |e|
    top = p.fund_borrow
    addends = [top * abs(terms.offset), top * abs(x), abs(terms.repo_long),
               abs(terms.repo_short), abs(terms.coll_earn),
               abs(terms.coll_pay), p.discount * abs(mark)]
    if credit:
        pull = 2 * p.discount + p.intensity_own + p.intensity_cpty
        addends += [(top + p.discount + p.intensity_own) * abs(terms.own),
                    (top + p.discount + p.intensity_cpty) * abs(terms.cpty),
                    pull * abs(x)]
    scale = np.maximum(np.maximum(abs(x), abs(e)),
                       dt * np.max(addends, axis=0))
    residual = x - e - dt * reduced_step(p, terms, x)
    assert np.all(np.abs(residual) <= 4 * np.spacing(scale))
    # the scale the lattice checks each root against
    checked = np.maximum(np.maximum(abs(x), abs(e)),
                         dt * reduced_step_scale(p, terms, x))
    assert np.all(np.abs(residual) <= ROOT_ULPS * np.spacing(checked))
    # the branch the root took: the root of the lend or the borrow rate alone
    as_lend = x == root_of(p._replace(fund_borrow=p.fund_lend), e, z, mark,
                           at_value, dt)
    as_borrow = x == root_of(p._replace(fund_lend=p.fund_borrow), e, z, mark,
                             at_value, dt)
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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(models=st.lists(MODEL, min_size=1, max_size=3), stacked=st.booleans(),
       credit=st.booleans(), side=st.sampled_from([SELLER, BUYER]),
       at_value=st.booleans(), dt=st.floats(min_value=1e-6, max_value=0.1),
       nodes=st.lists(st.tuples(NODE, NODE, NODE), min_size=1, max_size=12),
       legs=st.sampled_from([(True, True), (True, False), (False, True)]))
def test_reduced_root_of_linear_legs_gives_the_bits_of_their_branches(
        models, stacked, credit, side, at_value, dt, nodes, legs):
    """On drawn models whose repo or funding rates, or both, are equal in
    every row, the root that skips the linear legs' branches gives the
    bytes of the one that takes them (:func:`linear_legs` forced to
    (False, False)), alone and stacked, on nodes that hold +0.0 and -0.0."""
    repo, funding = legs
    models = [model_with(**m, fund_borrow=m["fund_lend"] + (
        0.0 if funding else m["spread"])) for m in models]
    if repo:
        models = [dataclasses.replace(m, rates=dataclasses.replace(
            m.rates, repo_borrow=m.rates.repo_lend)) for m in models]
    if not credit:
        models = [dataclasses.replace(m, credit=None) for m in models]
    e, z, mark = np.array(nodes).T
    if stacked:
        p = DriverParams.stack(models)
        e, z, mark = (np.array([np.roll(v, r) for r in range(len(p.sign))])
                      for v in (e, z, mark))
    else:
        p = DriverParams.of(models[0], side)
    assert all(np.greater_equal(linear_legs(p), legs))
    skipped = root_of(p, e, z, mark, at_value, dt)
    with mock.patch.object(drivers, "linear_legs", lambda p: (False, False)):
        branched = root_of(p, e, z, mark, at_value, dt)
    assert skipped.tobytes() == branched.tobytes()


# ---------------------------------------------------------------------------
# the PDE's fields from per-row coefficients of the mark's parts
# ---------------------------------------------------------------------------

# the fields' distance from the reference, in ulps of a row's scale (1
# measured on both scales below)
FIELD_ULPS = 2


def affine_reference(p, mark):
    """``base`` and ``at_zero`` of the rows of ``p`` at ``mark``, in each
    row's own terms, from the mark's reduced terms as the lattice's root
    builds them: at dt = 0 its ``account`` is ``at_zero`` itself."""
    roots = root_terms(p, root_rates(p, 0.0), reduced_mark_terms(p, mark))
    return p.sign * roots.base, p.sign * roots.account


def field_ulps(p, mark):
    """The largest distance of :func:`mark_fields` from
    :func:`affine_reference` over both fields, in ulps of the row's largest
    |field|, and in ulps of the row's largest mark term, the largest
    addend of the reference's sums."""
    got = mark_fields(mark_coefficients(p), mark)
    terms = [np.broadcast_to(np.abs(term), got[0].shape)
             for term in reduced_mark_terms(p, mark) if term is not None]
    addend = np.max(np.max(terms, axis=0), axis=-1, keepdims=True)
    by_field = by_addend = 0.0
    for field, want in zip(got, affine_reference(p, mark)):
        assert field.shape == want.shape
        miss = np.abs(field - want)
        largest = np.max(np.abs(want), axis=-1, keepdims=True)
        by_field = max(by_field, float(np.max(miss / np.spacing(largest))))
        by_addend = max(by_addend, float(np.max(miss / np.spacing(addend))))
    return by_field, by_addend


SIGNED_MARK = np.array([0.0, -0.0, 1e-300, -1e-300, 0.37, -0.37, 2.5, -2.5,
                        1234.5, -1234.5, 0.0, 7.1e-3, -0.0, -6.6e-2])


@pytest.mark.parametrize("credit", [True, False])
@pytest.mark.parametrize("alphas", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                    (0.0, 0.35, 1.0)],
                         ids=["alpha0", "alpha1", "varied"])
def test_mark_fields_match_the_affine_reference(credit, alphas):
    """On both sides of three models, with and without a credit block, the
    fields from the coefficients are the reduced terms' affine fields,
    negated on the buyer rows, to FIELD_ULPS ulps of the row's largest
    |field|, on a mark that holds +0.0, -0.0, tiny values and both signs."""
    models = [model_with(alpha=a, fund_borrow=fb, coll_pay=cp, mu_cpty=mu,
                         loss_own=lo)
              for a, fb, cp, mu, lo in zip(alphas, (0.08, 0.15, 0.12),
                                           (0.01, 0.02, 0.005),
                                           (0.16, 0.3, 0.25), (0.5, 0.4, 0.9))]
    if not credit:
        models = [dataclasses.replace(m, credit=None) for m in models]
    p = DriverParams.stack(models)
    assert field_ulps(p, SIGNED_MARK)[0] <= FIELD_ULPS
    for side in (SELLER, BUYER):
        one = DriverParams.of(models[1], side)
        assert field_ulps(one, SIGNED_MARK)[0] <= FIELD_ULPS


@settings(max_examples=60, derandomize=True, deadline=None)
@given(scenarios=st.lists(SCENARIO, min_size=1, max_size=3), credit=st.booleans(),
       discount=st.floats(min_value=0.0, max_value=0.1),
       mark=st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                               st.floats(min_value=-1e3, max_value=1e3)),
                     min_size=1, max_size=8))
def test_mark_fields_match_the_affine_reference_on_drawn_models(
        scenarios, credit, discount, mark):
    """On one to three drawn models that pass the necessary rate conditions,
    both fields of every row are the reference's to FIELD_ULPS ulps of the
    row's largest mark term.  Not of its largest |field|: where the
    reference's addends cancel, it is itself off the exact field by more
    (loss_cpty = 0.965 drew a reference 15.6 ulps of the field off, the
    coefficients 0.42), and rates that underflow a coefficient leave a
    subnormal field 85 ulps of itself off."""
    models = drawn_models(scenarios, credit, discount)
    assume(all(m.validate_necessary().passed for m in models))
    p = DriverParams.stack(models)
    assert field_ulps(p, np.array(mark))[1] <= FIELD_ULPS


def test_mark_fields_are_the_same_bits_alone_and_in_a_batch():
    """One model's ``base`` and ``at_zero`` rows are the same bits alone
    (K = 1) and as the middle scenario of three that vary alpha and
    fund_borrow: elementwise products, which no batch size reorders."""
    mark = SIGNED_MARK * np.linspace(0.5, 1.5, len(SIGNED_MARK))
    for credit in (True, False):
        models = [model_with(alpha=a, fund_borrow=fb)
                  for a, fb in ((0.2, 0.09), (0.65, 0.13), (1.0, 0.06))]
        if not credit:
            models = [dataclasses.replace(m, credit=None) for m in models]
        alone = mark_fields(mark_coefficients(DriverParams.stack(models[1:2])),
                            mark)
        batch = mark_fields(mark_coefficients(DriverParams.stack(models)), mark)
        for one, three in zip(alone, batch):
            assert one.shape == (2, len(mark))
            assert three.shape == (6, len(mark))
            for side in (0, 1):
                assert one[side].tobytes() == three[3 * side + 1].tobytes()
