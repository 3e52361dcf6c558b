"""Shared fixtures: the asymmetric benchmark model and symmetric-regime
models, and the environment and record checks of the studies in ``tools/``."""

import numpy as np
import pytest
from hypothesis import strategies as st

from xvaband import (ClaimSpec, CreditParams, EquityParams, MarketModel,
                     RateSet, SymmetricRates, symmetric_model)

BENCH_RATES = RateSet(fund_lend=0.05, fund_borrow=0.08, repo_lend=0.05,
                      repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01,
                      discount=0.01)
BENCH_CREDIT = CreditParams(mu_own=0.21, mu_cpty=0.16, loss_own=0.5,
                            loss_cpty=0.5)
EQUITY = EquityParams(spot=1.0, sigma=0.2)
# a call's payoff as a custom claim: the PDE marches its agent surface, which
# a call takes from the closed form instead
CUSTOM_CALL = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                        payoff_fn=lambda s: np.maximum(s - 1.0, 0.0))


def call_spread(lower, upper, maturity):
    """A custom claim long the call struck at ``lower`` and short the one at
    ``upper``, and those two calls."""
    return (ClaimSpec(kind="custom", strike=lower, maturity=maturity,
                      payoff_fn=lambda s: np.clip(s - lower, 0.0, upper - lower)),
            ClaimSpec(kind="call", strike=lower, maturity=maturity),
            ClaimSpec(kind="call", strike=upper, maturity=maturity))


@pytest.fixture
def atm_call():
    return ClaimSpec(kind="call", strike=1.0, maturity=1.0)


@pytest.fixture
def benchmark_model():
    """Asymmetric funding benchmark: treasury spread, symmetric repo/collateral."""
    return MarketModel(rates=BENCH_RATES, equity=EQUITY, credit=BENCH_CREDIT,
                       alpha=0.9)


def make_benchmark(alpha=0.9, fund_borrow=0.08, **credit_overrides):
    rates = RateSet(fund_lend=0.05, fund_borrow=fund_borrow, repo_lend=0.05,
                    repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01,
                    discount=0.01)
    credit_kwargs = dict(mu_own=0.21, mu_cpty=0.16, loss_own=0.5, loss_cpty=0.5)
    credit_kwargs.update(credit_overrides)
    return MarketModel(rates=rates, equity=EQUITY,
                       credit=CreditParams(**credit_kwargs), alpha=alpha)


def make_symmetric(fund=0.08, repo=0.05, coll=0.01, alpha=0.0, credit=None):
    return symmetric_model(SymmetricRates(fund=fund, repo=repo, coll=coll),
                           EQUITY, credit=credit, alpha=alpha)


_RATE = st.floats(min_value=0.0, max_value=0.2)
# one drawn scenario's rates, credit block and alpha; fund_borrow is
# fund_lend plus the spread (:func:`drawn_models`)
SCENARIO = st.fixed_dictionaries(dict(
    fund_lend=_RATE, spread=st.floats(min_value=0.0, max_value=0.2),
    repo_lend=_RATE, repo_borrow=_RATE, coll_earn=_RATE, coll_pay=_RATE,
    mu_own=st.floats(min_value=0.0, max_value=0.6),
    mu_cpty=st.floats(min_value=0.0, max_value=0.6),
    loss_own=st.floats(min_value=0.0, max_value=1.0),
    loss_cpty=st.floats(min_value=0.0, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=1.0)))


def drawn_models(scenarios, credit, discount):
    """The models of drawn :data:`SCENARIO` dicts, sharing the equity and
    the discount rate as a march's do, with or without their credit
    blocks; a model may fail the necessary rate conditions."""
    models = []
    for sc in scenarios:
        rates = RateSet(fund_lend=sc["fund_lend"],
                        fund_borrow=sc["fund_lend"] + sc["spread"],
                        repo_lend=sc["repo_lend"], repo_borrow=sc["repo_borrow"],
                        coll_earn=sc["coll_earn"], coll_pay=sc["coll_pay"],
                        discount=discount)
        block = CreditParams(mu_own=sc["mu_own"], mu_cpty=sc["mu_cpty"],
                             loss_own=sc["loss_own"], loss_cpty=sc["loss_cpty"])
        models.append(MarketModel(rates=rates, equity=EQUITY,
                                  credit=block if credit else None,
                                  alpha=sc["alpha"], allow_violations=True))
    return models


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# fields that only a timed study writes
TIME_KEYS = {"time_s", "times_s", "repeats"}


def record_keys(node) -> set:
    """Every key of every dict in a JSON record."""
    if isinstance(node, dict):
        return set(node).union(*map(record_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(record_keys, node))
    return set()


@pytest.fixture
def study_env(monkeypatch):
    """A study pins BLAS to one thread in the environment; undo it after."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
