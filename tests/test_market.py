import math

import pytest

from xvaband import CreditParams, MarketModel, ModelError, RateSet
from conftest import BENCH_CREDIT, BENCH_RATES, EQUITY


def test_negative_rates_rejected():
    with pytest.raises(ModelError):
        RateSet(fund_lend=-0.01, fund_borrow=0.08, repo_lend=0.05,
                repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01, discount=0.01)
    with pytest.raises(ModelError):
        RateSet(fund_lend=0.05, fund_borrow=math.inf, repo_lend=0.05,
                repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01, discount=0.01)


def test_symmetric_predicate():
    assert not BENCH_RATES.symmetric()
    sym = RateSet(fund_lend=0.08, fund_borrow=0.08, repo_lend=0.05,
                  repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01, discount=0.05)
    assert sym.symmetric()
    # repo must also equal the discount rate
    off = RateSet(fund_lend=0.08, fund_borrow=0.08, repo_lend=0.05,
                  repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01, discount=0.01)
    assert not off.symmetric()


def test_default_intensity_benchmark(benchmark_model):
    assert benchmark_model.default_intensity("own") == pytest.approx(0.20, abs=1e-15)
    assert benchmark_model.default_intensity("cpty") == pytest.approx(0.15, abs=1e-15)


def test_default_intensity_positive_whenever_necessary_passes(benchmark_model):
    assert benchmark_model.validate_necessary().passed
    assert benchmark_model.default_intensity("own") > 0
    assert benchmark_model.default_intensity("cpty") > 0


def test_default_intensity_rejects_boundary():
    # bond return equal to the discount rate: no valuation measure
    model = MarketModel(
        rates=BENCH_RATES, equity=EQUITY,
        credit=CreditParams(mu_own=0.21, mu_cpty=0.01, loss_own=0.5, loss_cpty=0.5),
        allow_violations=True)
    with pytest.raises(ModelError):
        model.default_intensity("cpty")


def test_default_intensity_requires_credit():
    model = MarketModel(rates=BENCH_RATES, equity=EQUITY)
    with pytest.raises(ModelError):
        model.default_intensity("own")


def test_validate_necessary_benchmark_passes(benchmark_model):
    assert benchmark_model.validate_necessary().passed


def test_validate_necessary_fund_ordering_violation():
    rates = RateSet(fund_lend=0.08, fund_borrow=0.05, repo_lend=0.05,
                    repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01, discount=0.01)
    model = MarketModel(rates=rates, equity=EQUITY, credit=BENCH_CREDIT,
                        allow_violations=True)
    failed = {c.name for c in model.validate_necessary().failures}
    assert "fund_lend <= fund_borrow" in failed
    with pytest.raises(ModelError):
        MarketModel(rates=rates, equity=EQUITY, credit=BENCH_CREDIT)


def test_validate_necessary_strictness_at_bond_return_boundary():
    # discount equal to a bond return fails the strict inequality
    rates = RateSet(fund_lend=0.05, fund_borrow=0.08, repo_lend=0.05,
                    repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01, discount=0.16)
    model = MarketModel(rates=rates, equity=EQUITY, credit=BENCH_CREDIT,
                        allow_violations=True)
    report = model.validate_necessary()
    assert not report.passed


def test_validate_arbitrage_free_benchmark(benchmark_model):
    assert benchmark_model.validate_arbitrage_free().passed


def test_validate_arbitrage_free_repo_bracket_violation():
    rates = RateSet(fund_lend=0.04, fund_borrow=0.08, repo_lend=0.05,
                    repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01, discount=0.01)
    model = MarketModel(rates=rates, equity=EQUITY, credit=BENCH_CREDIT,
                        allow_violations=True)
    report = model.validate_arbitrage_free()
    failed = {c.name for c in report.failures}
    assert "repo_lend <= fund_lend" in failed
    assert all(c.group == "market" for c in report.failures)


def test_validate_arbitrage_free_collateral_violation():
    rates = RateSet(fund_lend=0.05, fund_borrow=0.08, repo_lend=0.05,
                    repo_borrow=0.05, coll_earn=0.10, coll_pay=0.01, discount=0.01)
    model = MarketModel(rates=rates, equity=EQUITY, credit=BENCH_CREDIT,
                        allow_violations=True)
    failed = {c.name for c in model.validate_arbitrage_free().failures}
    assert "max(collateral rates) <= fund_borrow" in failed


def test_arbitrage_free_implies_necessary(benchmark_model):
    full = benchmark_model.validate_arbitrage_free()
    nec = benchmark_model.validate_necessary()
    names = {c.name for c in full.checks}
    assert {c.name for c in nec.checks} <= names


def test_alpha_bounds():
    with pytest.raises(ModelError):
        MarketModel(rates=BENCH_RATES, equity=EQUITY, credit=BENCH_CREDIT,
                    alpha=1.5)
    with pytest.raises(ModelError):
        CreditParams(mu_own=0.2, mu_cpty=0.2, loss_own=1.2, loss_cpty=0.5)


def test_bond_price(benchmark_model):
    p = benchmark_model.bond_price("own", 0.0, 1.0)
    assert p == pytest.approx(math.exp(-0.21), rel=1e-14)
    assert benchmark_model.bond_price("cpty", 1.0, 1.0) == 1.0
    with pytest.raises(ValueError,
                       match=r"^party must be 'own' or 'cpty', got 'bogus'$"):
        benchmark_model.bond_price("bogus", 0.0, 1.0)


def test_model_is_frozen(benchmark_model):
    with pytest.raises(AttributeError):
        benchmark_model.alpha = 0.5
