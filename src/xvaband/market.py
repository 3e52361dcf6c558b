"""Market model: rates, credit parameters, equity dynamics, validators.

The model carries three groups of flat (deterministic, constant) parameters:

* ``RateSet`` -- the hedger's funding (treasury) lend/borrow rates, the repo
  lend/borrow rates used to finance stock positions, the collateral rates
  earned/paid on posted/received cash collateral, and the valuation agent's
  discount rate.
* ``CreditParams`` -- return rates of the zero-recovery bonds issued by the
  hedger and the counterparty, the loss rates applied at close-out, and the
  collateralization level.  A model without ``CreditParams`` is a pure
  funding/repo/collateral model with no default risk (and no bonds in the
  replication portfolio).
* ``EquityParams`` -- spot and volatility of the underlying stock; the
  valuation needs no physical drift.

All position-dependent rates are piecewise constant with a single breakpoint
at zero; a zero position accrues nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class ModelError(ValueError):
    """Market parameters violate a structural model assumption."""


class DegenerateRatesError(ModelError):
    """A closed form is evaluated at a removable-singularity rate configuration."""


def _require_finite_nonneg(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ModelError(f"{name} must be finite, got {value!r}")
    if value < 0.0:
        raise ModelError(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class RateSet:
    """Flat per-year rates. All must be finite and nonnegative.

    fund_lend / fund_borrow
        Rate received when lending cash to the treasury / paid when borrowing
        from it.
    repo_lend / repo_borrow
        Rate received when lending cash to the repo market (short stock
        position) / paid when borrowing from it (long stock position).
    coll_earn / coll_pay
        Rate earned on cash collateral the hedger has posted / paid on cash
        collateral the hedger has received.
    discount
        The valuation agent's discount rate, used for the public mark of the
        claim and as the growth rate of all assets under the valuation
        measure.
    """

    fund_lend: float
    fund_borrow: float
    repo_lend: float
    repo_borrow: float
    coll_earn: float
    coll_pay: float
    discount: float

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_finite_nonneg(f.name, getattr(self, f.name))

    def symmetric(self) -> bool:
        """True iff lend/borrow spreads vanish and the repo rate equals the discount rate.

        This is the regime in which buyer's and seller's valuations are
        governed by linear equations and closed forms exist.
        """
        return (self.fund_lend == self.fund_borrow
                and self.coll_earn == self.coll_pay
                and self.discount == self.repo_lend == self.repo_borrow)


@dataclass(frozen=True)
class CreditParams:
    """Default/credit block: bond returns and close-out loss rates.

    ``mu_own`` and ``mu_cpty`` are the return rates of the zero-recovery bonds
    issued by the hedger and the counterparty.  ``loss_own`` is the loss rate
    applied against the counterparty's claim when the hedger defaults first;
    ``loss_cpty`` the loss rate against the hedger's claim when the
    counterparty defaults first.
    """

    mu_own: float
    mu_cpty: float
    loss_own: float
    loss_cpty: float

    def __post_init__(self) -> None:
        _require_finite_nonneg("mu_own", self.mu_own)
        _require_finite_nonneg("mu_cpty", self.mu_cpty)
        for name in ("loss_own", "loss_cpty"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ModelError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class EquityParams:
    """Underlying stock: spot and volatility."""

    spot: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.spot) and self.spot > 0.0):
            raise ModelError(f"spot must be positive, got {self.spot!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ModelError(f"sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class RateCheck:
    """One validated inequality: name, group, outcome and the two sides."""

    name: str
    group: str  # "necessary" | "market" | "valuation"
    passed: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[RateCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[RateCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            out.append(f"[{status}] ({c.group}) {c.name}: {c.lhs:.6g} vs {c.rhs:.6g}")
        return out


@dataclass(frozen=True)
class MarketModel:
    """Immutable bundle of rates, optional credit block, and equity dynamics.

    ``alpha`` is the collateralization level: the fraction of the public mark
    posted as cash collateral (0 = uncollateralized, 1 = full); it applies
    with or without default risk.  Construction runs the necessary-condition
    validator and refuses structurally inconsistent parameter sets unless
    ``allow_violations`` is set (used by the CLI for deliberate what-if runs).
    """

    rates: RateSet
    equity: EquityParams
    credit: CreditParams | None = None
    alpha: float = 0.0
    allow_violations: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ModelError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not self.allow_violations:
            report = self.validate_necessary()
            if not report.passed:
                msgs = "; ".join(c.name for c in report.failures)
                raise ModelError(f"model violates necessary rate conditions: {msgs}")

    def default_intensity(self, party: str) -> float:
        """Default intensity of ``party`` ("own" | "cpty") under the valuation measure.

        Equals the bond return in excess of the agent's discount rate and must
        be strictly positive for the valuation measure to exist.
        """
        mu = self._bond_return(party)
        h = mu - self.rates.discount
        if h <= 0.0:
            raise ModelError(
                f"bond return for {party} ({mu}) must exceed the discount rate "
                f"({self.rates.discount}) for the valuation measure to exist")
        return h

    def bond_price(self, party: str, t: float, maturity: float) -> float:
        """Pre-default price of the zero-recovery bond of ``party`` at time t."""
        return math.exp(-self._bond_return(party) * (maturity - t))

    def _bond_return(self, party: str) -> float:
        """Bond return of ``party`` ("own" | "cpty") of the credit block."""
        if self.credit is None:
            raise ModelError("operation requires credit parameters, but the "
                             "model has no default risk block")
        if party not in ("own", "cpty"):
            raise ValueError(f"party must be 'own' or 'cpty', got {party!r}")
        return getattr(self.credit, f"mu_{party}")

    def validate_necessary(self) -> ValidationReport:
        """Minimal consistency conditions precluding outright money pumps."""
        r = self.rates
        checks = [
            RateCheck("repo_lend <= fund_borrow", "necessary",
                      r.repo_lend <= r.fund_borrow, r.repo_lend, r.fund_borrow),
            RateCheck("fund_lend <= fund_borrow", "necessary",
                      r.fund_lend <= r.fund_borrow, r.fund_lend, r.fund_borrow),
        ]
        if self.credit is not None:
            lo = max(r.fund_lend, r.discount)
            hi = min(self.credit.mu_own, self.credit.mu_cpty)
            checks.append(RateCheck(
                "max(fund_lend, discount) < min(bond returns)", "necessary",
                lo < hi, lo, hi))
        return ValidationReport(tuple(checks))

    def validate_arbitrage_free(self) -> ValidationReport:
        """Necessary conditions plus the sufficient ones for arbitrage-free valuation.

        Group "market": the treasury lend rate is bracketed by the repo rates,
        which makes the underlying market free of arbitrage for the hedger.
        Group "valuation": collateral rates sit below the treasury borrow rate,
        itself below the bond returns; under these the buyer/seller valuations
        delimit the arbitrage-free prices of the claim.
        """
        r = self.rates
        checks = list(self.validate_necessary().checks)
        checks.append(RateCheck("repo_lend <= fund_lend", "market",
                                r.repo_lend <= r.fund_lend, r.repo_lend, r.fund_lend))
        checks.append(RateCheck("fund_lend <= repo_borrow", "market",
                                r.fund_lend <= r.repo_borrow, r.fund_lend, r.repo_borrow))
        cmax = max(r.coll_earn, r.coll_pay)
        checks.append(RateCheck("max(collateral rates) <= fund_borrow", "valuation",
                                cmax <= r.fund_borrow, cmax, r.fund_borrow))
        if self.credit is not None:
            mmin = min(self.credit.mu_own, self.credit.mu_cpty)
            checks.append(RateCheck("fund_borrow <= min(bond returns)", "valuation",
                                    r.fund_borrow <= mmin, r.fund_borrow, mmin))
        return ValidationReport(tuple(checks))
