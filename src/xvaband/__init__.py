"""Buyer's and seller's total valuation adjustment (XVA) for European claims.

The package values a claim from the hedger's side under asymmetric funding,
repo and collateral rates with bilateral default risk:

* ``market`` -- parameters, piecewise rate functions, no-arbitrage validators;
* ``claims`` -- claim specification and the valuation agent's mark;
* ``drivers`` -- the drift functionals of the replication equations and the
  replication-portfolio accounting;
* ``closed_form`` -- exact adjustments in the symmetric-rate regime;
* ``pde`` -- the Crank-Nicolson engine for the general semilinear equations;
* ``lattice`` -- an independent binomial backward-induction cross-check;
* ``cli`` -- batch front end (valuation, sweeps, table/figure data, validation).
"""

from .claims import AgentValuation, ClaimSpec, agent_value
from .closed_form import (SymmetricRates, XvaDecomposition,
                          adjustment_multiplier, piterbarg_defaults_xva,
                          piterbarg_price, piterbarg_stock_strategy,
                          piterbarg_strategies, piterbarg_xva,
                          relative_adjustment, symmetric_model)
from .drivers import (BUYER, SELLER, ReplicationStrategy, adjustment_drift,
                      reduced_drift, wealth_drift)
from .lattice import OracleSolution, solve_reduced
from .market import (CreditParams, DegenerateRatesError, EquityParams,
                     MarketModel, ModelError, RateSet, ValidationReport)
from .pde import (NumericsError, PdeGrid, PdeSolution, convergence_study,
                  solve, solve_batch, strategies, xva_at)

__version__ = "0.1.0"

__all__ = [
    "AgentValuation", "ClaimSpec", "agent_value",
    "SymmetricRates", "XvaDecomposition", "adjustment_multiplier",
    "piterbarg_defaults_xva", "piterbarg_price", "piterbarg_stock_strategy",
    "piterbarg_strategies", "piterbarg_xva",
    "relative_adjustment", "symmetric_model",
    "BUYER", "SELLER", "ReplicationStrategy",
    "adjustment_drift", "reduced_drift", "wealth_drift",
    "OracleSolution", "solve_reduced",
    "CreditParams", "DegenerateRatesError", "EquityParams", "MarketModel",
    "ModelError", "RateSet", "ValidationReport",
    "NumericsError", "PdeGrid", "PdeSolution", "convergence_study", "solve",
    "solve_batch", "strategies", "xva_at",
    "__version__",
]
