"""Batch front end: valuation, sweeps, table/figure data and validator reports.

Subcommands
-----------
value         single-point valuation with one or all engines; warns on
              stderr of an inverted band and of engines that disagree
band          buyer/seller adjustment sweep over the collateralization level
table         funding-account positions on an (alpha, borrow-rate) grid
figure        CSV data behind the standard comparative-statics figures
validate      rate-condition report with nonzero exit on failure
convergence   refinement study against the symmetric-regime closed form

``band``, ``table`` and every figure are :class:`Figure` records, run by one
function, :func:`cmd_sweep`: it values the model variants of the record's
keys and writes one CSV row per key; a swept axis comes out ascending.

Every valuation, of one point or of a sweep, goes through one function,
:func:`_batched`, with one engine: closed forms one model at a time
(:func:`closed_form.piterbarg_strategies`), and the models that share a
march (:func:`pde.march_key`) as one batch of :func:`pde.solve_batch` or
:func:`lattice.solve_extrapolated`.

Configuration is a flat ``key = value`` text file (``#`` comments allowed);
every run is fully determined by the config plus documented numerical
defaults (800x50 PDE grid, graded in time; lattices of 500, 250 and 125
steps, extrapolated).  ``steps`` names the finest lattice.  CSV output is
deterministic byte-for-byte: 10 significant digits, ``.`` decimal separator,
``\\n`` line endings, one header row.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable

from . import claims, closed_form, drivers, lattice, pde
from .market import (CreditParams, EquityParams, MarketModel, ModelError,
                     RateSet)

DEFAULT_NX = 800
DEFAULT_NT = 50
DEFAULT_STEPS = 500
ENGINES = ("closed", "pde", "lattice", "all")
# value warns when two engines' adjustments differ by more than this share
# of the strike
ENGINE_GAP = 1e-4

_RATE_KEYS = tuple(f.name for f in fields(RateSet))
_CREDIT_KEYS = tuple(f.name for f in fields(CreditParams))
_FLOAT_KEYS = _RATE_KEYS + _CREDIT_KEYS + (
    "alpha", "spot", "sigma", "strike", "maturity",
    "sweep_start", "sweep_stop")
_INT_KEYS = ("nx", "nt", "steps", "sweep_points")
_STR_KEYS = ("kind", "engine", "out", "sweep_param")
_ALL_KEYS = set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_STR_KEYS) | {"allow_violations"}
_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed run description: model, claim, numerics, sweep, output."""

    model: MarketModel
    claim: claims.ClaimSpec
    engine: str = "pde"
    nx: int = DEFAULT_NX
    nt: int = DEFAULT_NT
    steps: int = DEFAULT_STEPS
    out: str | None = None
    sweep_param: str | None = None
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_points: int = 21


# the run settings a config may give, each defaulting to RunConfig's
_RUN_KEYS = tuple(f.name for f in fields(RunConfig))[2:]


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value format; rejects unknown or repeated keys."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _ALL_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        if key in _FLOAT_KEYS or key in _INT_KEYS:
            number = float if key in _FLOAT_KEYS else int
            try:
                values[key] = number(val)
            except ValueError:
                what = "a number" if number is float else "an integer"
                raise ValueError(f"config line {lineno}: {key} must be {what}, "
                                 f"got {val!r}") from None
        elif key == "allow_violations":
            if val.lower() not in _BOOLEANS:
                raise ValueError(f"config line {lineno}: allow_violations must be "
                                 f"one of {', '.join(_BOOLEANS)}, got {val!r}")
            values[key] = _BOOLEANS[val.lower()]
        else:
            values[key] = val
    return values


def build_config(values: dict) -> RunConfig:
    """The run that parsed config values describe, with the defaults filled in."""
    missing = [k for k in _RATE_KEYS if k not in values]
    if missing:
        raise ValueError(f"config missing rate keys: {', '.join(missing)}")
    rates = RateSet(**{k: values[k] for k in _RATE_KEYS})
    present = [k for k in _CREDIT_KEYS if k in values]
    if present and len(present) != len(_CREDIT_KEYS):
        raise ValueError("credit keys must be given all together or not at all: "
                         f"got only {', '.join(present)}")
    credit = CreditParams(**{k: values[k] for k in _CREDIT_KEYS}) if present else None
    equity = EquityParams(spot=values.get("spot", 1.0),
                          sigma=values.get("sigma", 0.2))
    model = MarketModel(rates=rates, equity=equity, credit=credit,
                        alpha=values.get("alpha", 0.0),
                        allow_violations=bool(values.get("allow_violations", False)))
    kind = values.get("kind", "call")
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}: custom "
                         "payoffs are valued through the library, "
                         "ClaimSpec(payoff_fn=...)")
    claim = claims.ClaimSpec(kind=kind, strike=values.get("strike", 1.0),
                             maturity=values.get("maturity", 1.0))
    cfg = RunConfig(model=model, claim=claim,
                    **{k: values[k] for k in _RUN_KEYS if k in values})
    if cfg.engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {cfg.engine!r}")
    for key, least in (("nx", 3), ("nt", 1), ("sweep_points", 1)):
        value = getattr(cfg, key)
        if value < least:
            raise ValueError(f"{key} must be >= {least}, got {value}")
    if cfg.steps < 4:
        raise ValueError(f"steps must be >= 4, got {cfg.steps}: the lattice "
                         "extrapolates from steps, steps // 2 and steps // 4")
    for key in ("sweep_start", "sweep_stop"):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
    if cfg.sweep_param not in (None, "alpha", *_RATE_KEYS, *_CREDIT_KEYS):
        raise ValueError("sweep_param must name a rate, a credit parameter or "
                         f"alpha, got {cfg.sweep_param!r}")
    return cfg


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointResult:
    """One engine's valuation of a claim at t = 0 and the spot: both sides'
    replication strategies, which hold the mark and the adjustments, and
    the solution they were read from: the :class:`pde.PdeSolution`, the
    lattice's (seller, buyer) :class:`lattice.OracleSolution` pair, or None
    for the closed forms."""

    engine: str
    strategy_seller: drivers.ReplicationStrategy
    strategy_buyer: drivers.ReplicationStrategy
    solution: object = field(default=None, compare=False, repr=False)

    mark = property(attrgetter("strategy_seller.mark"))
    xva_seller = property(attrgetter("strategy_seller.adjustment"))
    xva_buyer = property(attrgetter("strategy_buyer.adjustment"))

    @property
    def width(self) -> float:
        return self.xva_seller - self.xva_buyer


def _closed_point(model, claim) -> PointResult:
    return PointResult("closed", *(closed_form.piterbarg_strategies(
        model, claim, 0.0, model.equity.spot, side) for side in drivers.SIDES))


def _pde_result(sol: pde.PdeSolution) -> PointResult:
    s0 = sol.model.equity.spot
    return PointResult("pde", *(pde.strategies(sol, 0.0, s0, side)
                                for side in drivers.SIDES), sol)


def _lattice_result(model, claim, sides) -> PointResult:
    s0 = model.equity.spot
    return PointResult("lattice", *(drivers.build_strategy(
        model, claim, sol.side, 0.0, s0, adjustment=sol.adjustment,
        mark=sol.root_mark,
        stock_shares=sol.root_gradient / (model.equity.sigma * s0))
        for sol in sides), sides)


def _batched(models, claim, engine, nx, nt, steps) -> list[PointResult]:
    """One engine's valuations, one per model: closed forms one model at a
    time; for the PDE and the lattice, the models that share a march
    (:func:`pde.march_key`) are valued as one batch."""
    if engine == "closed":
        return [_closed_point(model, claim) for model in models]
    groups: dict = {}
    for i, model in enumerate(models):
        groups.setdefault(pde.march_key(model), []).append(i)
    results: list = [None] * len(models)
    for idx in groups.values():
        batch = [models[i] for i in idx]
        if engine == "pde":
            grid = pde.PdeGrid.default_for(batch[0], claim, nx=nx, nt=nt)
            values = map(_pde_result, pde.solve_batch(batch, claim, grid))
        else:
            pairs = lattice.solve_extrapolated(batch, claim, steps)
            values = (_lattice_result(model, claim, sides)
                      for model, sides in zip(batch, pairs))
        for i, result in zip(idx, values):
            results[i] = result
    return results


def evaluate_point(model: MarketModel, claim: claims.ClaimSpec, engine: str,
                   nx: int = DEFAULT_NX, nt: int = DEFAULT_NT,
                   steps: int = DEFAULT_STEPS) -> list[PointResult]:
    """Run one valuation with the requested engine, or with each engine for
    "all", the closed forms only where the rates are symmetric.  Each
    result keeps the engine's solution, so what the march did (a PDE's
    Picard counts, a lattice's root residuals) is read off ``solution``."""
    engines = ((engine,) if engine != "all" else
               ENGINES[:-1] if model.rates.symmetric() else ENGINES[1:-1])
    results = []
    for name in engines:
        results += _batched([model], claim, name, nx, nt, steps)
    return results


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.10g}"


def write_csv(header: list[str], rows: list[list[float]], out: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        sys.stdout.write(text)


def _model_with(model: MarketModel, **changes) -> MarketModel:
    """Variant of a model with selected leaf parameters replaced."""
    rates = model.rates
    credit = model.credit
    alpha = changes.pop("alpha", model.alpha)
    rate_changes = {k: v for k, v in changes.items() if k in _RATE_KEYS}
    credit_changes = {k: v for k, v in changes.items() if k in _CREDIT_KEYS}
    unknown = set(changes) - set(rate_changes) - set(credit_changes)
    if unknown:
        raise ValueError(f"unknown model parameters: {sorted(unknown)}")
    if rate_changes:
        rates = replace(rates, **rate_changes)
    if credit_changes:
        if credit is None:
            raise ModelError("cannot vary credit parameters of a default-free model")
        credit = replace(credit, **credit_changes)
    return MarketModel(rates=rates, equity=model.equity, credit=credit,
                       alpha=alpha, allow_violations=model.allow_violations)


def _sweep_values(start: float, stop: float, points: int) -> list[float]:
    if points == 1:
        return [start]
    step = (stop - start) / (points - 1)
    return [start + i * step for i in range(points)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_value(cfg: RunConfig) -> int:
    results = evaluate_point(cfg.model, cfg.claim, cfg.engine,
                             cfg.nx, cfg.nt, cfg.steps)
    print(f"mark (agent value) at t=0, spot={cfg.model.equity.spot}: "
          f"{_fmt(results[0].mark)}")
    for r in results:
        print(f"engine={r.engine:8s} xva_seller={_fmt(r.xva_seller):>15s} "
              f"xva_buyer={_fmt(r.xva_buyer):>15s} width={_fmt(r.width):>13s}")
    if len(results) > 1:
        print("cross-engine deltas (seller / buyer):")
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                a, b = results[i], results[j]
                print(f"  |{a.engine}-{b.engine}|: "
                      f"{_fmt(abs(a.xva_seller - b.xva_seller))} / "
                      f"{_fmt(abs(a.xva_buyer - b.xva_buyer))}")
    if cfg.out:
        header = ["engine_idx", "xva_seller", "xva_buyer", "width",
                  "xi_stock", "xi_I", "xi_C", "funding_dollars"]
        rows = []
        for idx, r in enumerate(results):
            st = r.strategy_seller
            rows.append([idx, r.xva_seller, r.xva_buyer, r.width,
                         st.stock_shares, st.bond_own_shares,
                         st.bond_cpty_shares, st.funding_dollars])
        write_csv(header, rows, cfg.out)
    for line in _value_warnings(results, cfg.claim.strike):
        print(line, file=sys.stderr)
    return 0


def _value_warnings(results: list[PointResult], strike: float) -> list[str]:
    """What a valuation's output shows without comment: a band inverted
    (seller below buyer, which the model admits), and engines whose
    adjustments differ by more than ``ENGINE_GAP`` of the strike."""
    lines = [f"warning: inverted band from the {r.engine} engine: seller "
             f"{_fmt(r.xva_seller)} < buyer {_fmt(r.xva_buyer)}"
             for r in results if r.xva_seller < r.xva_buyer]
    for i, a in enumerate(results):
        for b in results[i + 1:]:
            gap = max(abs(a.xva_seller - b.xva_seller),
                      abs(a.xva_buyer - b.xva_buyer))
            if gap > ENGINE_GAP * strike:
                lines.append(f"warning: the {a.engine} and {b.engine} engines "
                             f"differ by {_fmt(gap)}, more than {ENGINE_GAP:g} "
                             "of the strike")
    return lines


@dataclass(frozen=True)
class Figure:
    """A sweep as data: ``band``, ``table`` and every figure are records
    run by :func:`cmd_sweep`.

    A row's key is a tuple with one value per column named in ``axis``: the
    record's own ``cells``, or else the configured sweep, ascending.  Every
    (key, series value) pair is one valuation of the model changed by
    ``changes(*key, s)`` (``None`` leaves NaN cells).  A row is the key
    followed, per series value, by the ``columns``, each named
    ``name + suffix.format(s)`` and computed as ``fn(result, model, claim)``.
    ``defaults`` is the config under the user's (``None``: ``--config`` is
    required); ``engine`` fixes the engine, ``None`` uses the configured one.
    """

    caption: str
    defaults: dict | None
    axis: tuple
    changes: Callable[..., dict | None]
    columns: tuple
    series: tuple = (None,)
    suffix: str = ""
    engine: str | None = None
    cells: tuple | None = None


_SHAPE = dict(spot=1.0, sigma=0.2, kind="call", strike=1.0, maturity=1.0)
_SYMMETRIC = dict(_SHAPE, fund_lend=0.08, fund_borrow=0.08, repo_lend=0.05,
                  repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01,
                  discount=0.05)
_BENCHMARK = dict(_SHAPE, fund_lend=0.05, fund_borrow=0.08, repo_lend=0.05,
                  repo_borrow=0.05, coll_earn=0.01, coll_pay=0.01,
                  discount=0.01, mu_own=0.21, mu_cpty=0.16, loss_own=0.5,
                  loss_cpty=0.5, alpha=0.9)
_FUNDING_SWEEP = dict(sweep_start=0.05, sweep_stop=0.15, sweep_points=21)
_NODEF_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
_CPTY_ALPHAS = (0.5, 0.75, 0.9, 1.0)


def _funding(x, alpha):
    return dict(fund_lend=x, fund_borrow=x, alpha=alpha)


def _get(path):
    """Column reading an attribute path of the point result."""
    get = attrgetter(path)
    return lambda res, model, claim: get(res)


def _decomposition_pct(part):
    def column(res, model, claim):
        dec = closed_form.piterbarg_defaults_xva(model, claim, 0.0, res.mark)
        return 100.0 * getattr(dec, part) / res.mark
    return column


_BAND_COLUMNS = (("xva_buyer", _get("xva_buyer")),
                 ("xva_seller", _get("xva_seller")), ("width", _get("width")))
_SHARES = (("stock", _get("strategy_seller.stock_shares")),
           ("bond_own", _get("strategy_seller.bond_own_shares")),
           ("bond_cpty", _get("strategy_seller.bond_cpty_shares")))
_DEFAULTS_FIGURE = dict(axis=("fund",), changes=_funding, series=_NODEF_ALPHAS,
                        columns=(("xva", _get("strategy_seller.adjustment")),)
                        + _SHARES, suffix="_a{:g}", engine="closed")

FIGURES = {
    "xva-vs-funding-nodefault": Figure(
        "no-default symmetric regime: adjustment and stock hedge vs the "
        "funding rate, one series per collateralization level",
        dict(_SYMMETRIC, sweep_start=0.055, sweep_stop=0.15, sweep_points=20),
        ("fund",), _funding, (("xva", _get("xva_seller")),
                           ("shares", _get("strategy_seller.stock_shares"))),
        _NODEF_ALPHAS, "_a{:g}", "closed"),
    "decomposition-vs-funding": Figure(
        "default-risk symmetric regime: funding and own-default components of "
        "the relative adjustment vs the funding rate",
        dict(_SYMMETRIC, mu_own=0.2, mu_cpty=0.25, loss_own=0.5, loss_cpty=0.5,
             alpha=0.25, **_FUNDING_SWEEP),
        ("fund",), lambda x, s: dict(fund_lend=x, fund_borrow=x),
        tuple((f"{part}_pct", _decomposition_pct(part))
              for part in ("funding", "dva", "total")),
        engine="closed"),
    "xva-vs-funding-defaults": Figure(
        "default-risk symmetric regime: seller adjustment and share counts vs "
        "the funding rate",
        dict(_SYMMETRIC, mu_own=0.16, mu_cpty=0.21, loss_own=0.5,
             loss_cpty=0.5, **_FUNDING_SWEEP),
        **_DEFAULTS_FIGURE),
    "xva-vs-funding-riskier": Figure(
        "same as xva-vs-funding-defaults with riskier bond returns",
        dict(_SYMMETRIC, mu_own=0.51, mu_cpty=0.51, loss_own=0.5,
             loss_cpty=0.5, **_FUNDING_SWEEP),
        **_DEFAULTS_FIGURE),
    "band-vs-collateral": Figure(
        "asymmetric benchmark: buyer/seller adjustments vs collateralization, "
        "one pair per borrow rate",
        dict(_BENCHMARK, sweep_start=0.0, sweep_stop=1.0, sweep_points=21),
        ("alpha",), lambda x, s: dict(alpha=x, fund_borrow=s),
        _BAND_COLUMNS + _SHARES,
        (0.08, 0.15), "_rb{:g}"),
    "xva-vs-repo": Figure(
        "asymmetric benchmark: adjustments vs the repo borrow rate, one pair "
        "per repo lend rate",
        dict(_BENCHMARK, sweep_start=0.05, sweep_stop=0.12, sweep_points=15),
        ("repo_borrow",),
        lambda x, s: None if x < s else dict(repo_lend=s, repo_borrow=x),
        (("xva_buyer", _get("xva_buyer")), ("xva_seller", _get("xva_seller")),
         ("stock_seller", _get("strategy_seller.stock_shares")),
         ("stock_buyer", _get("strategy_buyer.stock_shares"))),
        (0.03, 0.05), "_rl{:g}"),
    "xva-vs-cpty-return": Figure(
        "asymmetric benchmark: seller adjustment vs the counterparty bond "
        "return, one series per collateralization level",
        dict(_BENCHMARK, sweep_start=0.10, sweep_stop=0.30, sweep_points=21),
        ("mu_cpty",), lambda x, s: dict(mu_cpty=x, alpha=s),
        (("xva_seller", _get("xva_seller")),) + _SHARES,
        _CPTY_ALPHAS, "_a{:g}"),
}


# ``band`` and ``table`` run on the user's config; they are not figure ids
BAND = Figure(
    "buyer/seller adjustment sweep over collateralization", None,
    ("alpha",), lambda x, s: dict(alpha=x),
    _BAND_COLUMNS + (("xi_stock", _get("strategy_seller.stock_shares")),
                     ("xi_I", _get("strategy_seller.bond_own_shares")),
                     ("xi_C", _get("strategy_seller.bond_cpty_shares")),
                     ("funding_dollars", _get("strategy_seller.funding_dollars"))))
TABLE = Figure(
    "funding-account positions on an (alpha, borrow-rate) grid", None,
    ("alpha", "fund_borrow"), lambda a, rfm, s: dict(alpha=a, fund_borrow=rfm),
    (("xva_seller", _get("xva_seller")), ("xva_buyer", _get("xva_buyer")),
     ("funding_seller", _get("strategy_seller.funding_dollars")),
     ("funding_buyer", _get("strategy_buyer.funding_dollars"))),
    cells=tuple((a, rfm) for a in (0.0, 0.25, 0.75, 1.0) for rfm in (0.08, 0.15))
    + tuple((0.9, rfm) for rfm in (0.08, 0.10, 0.15, 0.20)))


def _band(cfg: RunConfig) -> tuple[Figure, RunConfig]:
    """The band over the configured ``sweep_param``, and the config with its
    range: ``alpha`` over [0, 1] unless the config says otherwise; any other
    axis needs ``sweep_start`` and ``sweep_stop``."""
    axis = cfg.sweep_param or "alpha"
    if axis in _CREDIT_KEYS and cfg.model.credit is None:
        raise ModelError(f"sweep_param {axis!r} is a credit parameter, and the "
                         "model has no credit block")
    if axis == "alpha":
        start = 0.0 if cfg.sweep_start is None else cfg.sweep_start
        stop = 1.0 if cfg.sweep_stop is None else cfg.sweep_stop
        cfg = replace(cfg, sweep_start=start, sweep_stop=stop)
    elif cfg.sweep_start is None or cfg.sweep_stop is None:
        raise ValueError(f"sweeping {axis!r} requires sweep_start and "
                         "sweep_stop")
    return replace(BAND, axis=(axis,), changes=lambda x, s: {axis: x}), cfg


def figure_config(figure_id: str, user_values: dict | None = None) -> RunConfig:
    """Defaults for the figure, overlaid with the user's config."""
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; "
                         f"known: {', '.join(sorted(FIGURES))}")
    return build_config({**FIGURES[figure_id].defaults, **(user_values or {})})


def cmd_sweep(cfg: RunConfig, fig: Figure) -> int:
    """Write the CSV of one record: a row per key, a valuation per cell, with
    the record's engine or else the configured one ("all" runs the PDE).
    A configured ``sweep_param`` must name a column of the record's axis,
    and a sweep bound that gives no model is refused by its key."""
    if cfg.sweep_param not in (None, *fig.axis):
        raise ValueError(f"sweep_param {cfg.sweep_param!r} is not swept here: "
                         f"the axis is {', '.join(fig.axis)}")
    for key in () if fig.cells else ("sweep_start", "sweep_stop"):
        bound = getattr(cfg, key)
        try:
            for s in fig.series:
                changes = fig.changes(bound, s)
                if changes is not None:
                    _model_with(cfg.model, **changes)
        except ModelError as exc:
            raise ModelError(f"{key} = {bound:g}: {exc}") from None
    keys = fig.cells or [(x,) for x in sorted(_sweep_values(
        cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points))]
    cells = {}
    for key in keys:
        for s in fig.series:
            changes = fig.changes(*key, s)
            if changes is not None:
                cells[key, s] = _model_with(cfg.model, **changes)
    models = list(cells.values())
    engine = fig.engine or (cfg.engine if cfg.engine != "all" else "pde")
    results = dict(zip(cells, _batched(models, cfg.claim, engine, cfg.nx,
                                       cfg.nt, cfg.steps)))
    header = list(fig.axis) + [name + fig.suffix.format(s)
                               for s in fig.series for name, _ in fig.columns]
    rows = []
    for key in keys:
        row = list(key)
        for s in fig.series:
            res = results.get((key, s))
            if res is None:
                row += [math.nan] * len(fig.columns)
            else:
                row += [fn(res, cells[key, s], cfg.claim) for _, fn in fig.columns]
        rows.append(row)
    write_csv(header, rows, cfg.out)
    return 0


def cmd_validate(values: dict) -> int:
    """Print every rate check; exit 1 on a failure unless violations are
    allowed.  The model is built without its own necessary-condition check,
    which would refuse it before the report."""
    model = build_config({**values, "allow_violations": True}).model
    report = model.validate_arbitrage_free()
    for line in report.lines():
        print(line)
    if report.passed:
        print("all rate conditions satisfied")
        return 0
    print(f"{len(report.failures)} condition(s) violated")
    return 0 if values.get("allow_violations") else 1


def cmd_convergence(cfg: RunConfig) -> int:
    model, claim = cfg.model, cfg.claim
    if not model.rates.symmetric():
        raise ModelError("convergence study requires symmetric rates "
                         "(the closed form is the reference)")

    def reference(m, c):
        return closed_form.piterbarg_strategies(m, c, 0.0,
                                                m.equity.spot).adjustment

    grids = [(50, 50), (100, 100), (200, 200), (400, 400)]
    rows = pde.convergence_study(model, claim, grids, drivers.SELLER, reference)
    print(f"{'nx':>6} {'nt':>6} {'abs error':>14} {'order':>8}")
    for r in rows:
        order = f"{r.order:.2f}" if r.order is not None else "-"
        print(f"{r.nx:>6} {r.nt:>6} {r.error:>14.3e} {order:>8}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--engine", choices=ENGINES, default=None)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--allow-violations", action="store_true", default=None,
                   help="run despite failed rate validators")
    p.add_argument("--nx", type=int, default=None, help="PDE space nodes")
    p.add_argument("--nt", type=int, default=None, help="PDE time steps")
    p.add_argument("--steps", type=int, default=None,
                   help="lattice steps (the finest of three lattices)")


def _values(args, defaults: dict | None = None) -> dict:
    """Config file over ``defaults`` (required when there are none), then flags."""
    values = dict(defaults or {})
    if args.config:
        with open(args.config) as fh:
            values.update(parse_config_text(fh.read()))
    elif defaults is None:
        raise ValueError("--config is required for this command")
    for key in ("engine", "out", "nx", "nt", "steps", "allow_violations"):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xvaband",
        description="Buyer/seller valuation adjustments for European claims "
                    "under asymmetric funding, repo and collateral rates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("value", "single-point valuation"),
            ("band", BAND.caption),
            ("table", TABLE.caption),
            ("figure", "emit the data behind a comparative-statics figure"),
            ("validate", "check the rate conditions"),
            ("convergence", "refinement study against the closed form")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "figure":
            p.add_argument("figure_id", choices=sorted(FIGURES), help="; ".join(
                f"{k}: {f.caption}" for k, f in sorted(FIGURES.items())))
    args = parser.parse_args(argv)

    try:
        if args.command in ("band", "table", "figure"):
            fig = (FIGURES[args.figure_id] if args.command == "figure"
                   else TABLE if args.command == "table" else BAND)
            cfg = build_config(_values(args, fig.defaults))
            if fig is BAND:
                fig, cfg = _band(cfg)
            return cmd_sweep(cfg, fig)
        if args.command == "validate":
            return cmd_validate(_values(args))
        cfg = build_config(_values(args))
        if args.command == "value":
            return cmd_value(cfg)
        if args.command == "convergence":
            return cmd_convergence(cfg)
        raise ValueError(f"unhandled command {args.command!r}")
    except pde.NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
