"""Seeded scenario generator for the point workloads and the sweep base config.

The generator is the only source of inputs: it takes a seed and returns plain
parameter records, which ``build`` turns into xvaband model and claim objects.
Each record carries the tags the benchmark reports shares of: rate regime,
credit block, scale (decade of the spot) and claim type; ``shares`` adds the
share of scenarios that share a grid with another scenario of the set.
"""

from __future__ import annotations

import math
import random

SPREAD_WIDTH = 0.2  # upper strike of the custom call-spread, as a share of the lower

# The point workloads value a fixed set of draws: the asymmetric-rate oracle is
# a 1600 x 1600 PDE solve (about 4 s), too costly to repeat in every run, so
# bench/make_reference.py stores it once for these draws.  The run's --seed
# sets the order in which the set is valued.  Each set takes 20 to 30 s to
# value at the CLI defaults, which is one pass of a run.
POOL_SEED = 1
PDE_POOL = 48
LATTICE_POOL = 30

# band-vs-collateral: 21 collateral levels x 2 borrow rates on one grid
SWEEP_ALPHAS = tuple(i * 0.05 for i in range(21))  # as cli._sweep_values(0, 1, 21)
SWEEP_BORROW = (0.08, 0.15)


def draw_point(rng: random.Random, vanilla_only: bool) -> dict:
    """One independent valuation: its own spot, sigma, maturity, claim, rates, alpha."""
    spot = 10.0 ** rng.uniform(-2.0, 4.0)
    sigma = rng.uniform(0.1, 0.6)
    maturity = rng.uniform(0.25, 5.0)
    strike = spot * math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
    kind = rng.choice(("call", "put") if vanilla_only else ("call", "put", "spread"))
    regime = rng.choice(("symmetric", "asymmetric"))
    with_credit = rng.random() < 0.5
    discount = rng.uniform(0.0, 0.03)
    if regime == "symmetric":
        # fund > repo strictly: the no-default closed form is singular at fund == repo
        fund = discount + rng.uniform(0.005, 0.06)
        coll = rng.uniform(0.0, discount)
        rates = dict(fund_lend=fund, fund_borrow=fund, repo_lend=discount,
                     repo_borrow=discount, coll_earn=coll, coll_pay=coll,
                     discount=discount)
    else:
        fund_lend = discount + rng.uniform(0.01, 0.05)
        fund_borrow = fund_lend + rng.uniform(0.01, 0.08)
        repo_lend = rng.uniform(discount, fund_lend)
        repo_borrow = rng.uniform(repo_lend, fund_borrow)
        rates = dict(fund_lend=fund_lend, fund_borrow=fund_borrow,
                     repo_lend=repo_lend, repo_borrow=repo_borrow,
                     coll_earn=rng.uniform(0.0, fund_lend),
                     coll_pay=rng.uniform(0.0, fund_lend), discount=discount)
    credit = None
    if with_credit:
        top = rates["fund_borrow"]
        credit = dict(mu_own=top + rng.uniform(0.02, 0.15),
                      mu_cpty=top + rng.uniform(0.02, 0.15),
                      loss_own=rng.uniform(0.3, 0.7),
                      loss_cpty=rng.uniform(0.3, 0.7))
    return dict(spot=spot, sigma=sigma, maturity=maturity, strike=strike,
                kind=kind, regime=regime, rates=rates, credit=credit,
                alpha=rng.uniform(0.0, 1.0), scale=math.floor(math.log10(spot)))


def draw_points(seed: int, n: int, vanilla_only: bool) -> list[dict]:
    """The first ``n`` draws of the stream for ``seed``, each passing validate_necessary."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        scenario = draw_point(rng, vanilla_only)
        scenario["id"] = i
        model, _ = build(scenario)  # MarketModel refuses a failing validator
        if not model.validate_necessary().passed:
            raise AssertionError(f"draw {i} fails validate_necessary")
        out.append(scenario)
    return out


def sweep_scale(seed: int) -> float:
    """Currency unit of the sweep's base config: 1 for seed 0, else log-uniform on [1/4, 1].

    The model is degree-1 homogeneous in (spot, strike), so the stored
    unit-scale reference scales by this factor; over this range the Picard
    work per step does not change (3.0 iterations per step, measured).
    """
    if seed == 0:
        return 1.0
    return 4.0 ** -random.Random(seed).random()


def sweep_cells() -> list[tuple[float, float]]:
    """(alpha, fund_borrow) of each sweep scenario, in the figure's row order."""
    return [(a, rb) for a in SWEEP_ALPHAS for rb in SWEEP_BORROW]


def with_alpha_borrow(model, alpha: float, fund_borrow: float):
    """The sweep scenario's model: the base model at one (alpha, fund_borrow) cell."""
    from dataclasses import replace
    return replace(model, alpha=alpha,
                   rates=replace(model.rates, fund_borrow=fund_borrow))


def build(scenario: dict):
    """(MarketModel, ClaimSpec) for a drawn scenario."""
    from xvaband import (ClaimSpec, CreditParams, EquityParams, MarketModel,
                         RateSet)
    credit = scenario["credit"]
    model = MarketModel(rates=RateSet(**scenario["rates"]),
                        equity=EquityParams(spot=scenario["spot"],
                                            sigma=scenario["sigma"]),
                        credit=CreditParams(**credit) if credit else None,
                        alpha=scenario["alpha"])
    strike, maturity = scenario["strike"], scenario["maturity"]
    if scenario["kind"] == "spread":
        claim = ClaimSpec(kind="custom", strike=strike, maturity=maturity,
                          payoff_fn=_call_spread(strike,
                                                 strike * (1.0 + SPREAD_WIDTH)))
    else:
        claim = ClaimSpec(kind=scenario["kind"], strike=strike,
                          maturity=maturity)
    return model, claim


def _call_spread(lower: float, upper: float):
    import numpy as np

    def payoff(s):
        return np.maximum(s - lower, 0.0) - np.maximum(s - upper, 0.0)
    return payoff


def grid_key(spot, strike, sigma, maturity, discount) -> tuple:
    """What fixes the PDE grid and spatial operator of a scenario."""
    return (spot, strike, sigma, maturity, discount)


def grid_sharing(keys: list[tuple]) -> float:
    """Share of scenarios whose grid another scenario of the set also uses."""
    counts: dict = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    return sum(counts[k] > 1 for k in keys) / len(keys)


def shares(scenarios: list[dict]) -> dict:
    """Share of scenarios with each tag value, for the run record."""
    n = len(scenarios)
    out: dict = {}
    for key in ("regime", "kind", "scale"):
        counts: dict = {}
        for s in scenarios:
            counts[str(s[key])] = counts.get(str(s[key]), 0) + 1
        out[key] = {k: v / n for k, v in sorted(counts.items())}
    out["credit"] = sum(s["credit"] is not None for s in scenarios) / n
    out["shares_grid"] = grid_sharing(
        [grid_key(s["spot"], s["strike"], s["sigma"], s["maturity"],
                  s["rates"]["discount"]) for s in scenarios])
    return out
