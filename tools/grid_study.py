"""Error and Picard iterations of the PDE at several grids, per benchmark draw: BENCH_grid.json.

    python3 tools/grid_study.py [--grids 800x100,800x50] [--out BENCH_grid.json]

For each grid, every draw of the benchmark's ``point-pde`` pool
(``bench/scenarios.py``) is valued by ``cli.evaluate_point(engine="pde")``.
Each draw's row holds the error against the benchmark's oracle (``oracle``
in ``bench/run.py``: the closed forms for symmetric draws, the stored
1600 x 1600 PDE of ``bench/reference.json`` otherwise) as a share of the
strike and the Picard iterations of its march, read off the result's
solution (``PdeSolution.picard_iterations`` summed over the steps, the
larger of the two sides per step), or the error that stopped it, and which
of its lend/borrow legs, repo and funding, are linear
(``drivers.linear_legs``, read as the march reads it).  The 42 scenarios of
``figure band-vs-collateral`` are valued as the figure values them, by
``cli._batched`` in one march, against the stored sweep reference.  Per
grid the file also holds the time grading of the march (the exponent p of
tau_n = T (n / N)^p and its first and last steps, as shares of the
maturity), the completed count, the worst and median errors and the count
of draws with each leg linear, and both; the machine details come from
``bench/run.py``.  The file holds no times: those come
from the paced runs of ``bench/run.py``.

The script reads ``bench/`` and imports xvaband from the ``src/`` next to it;
it writes only the output file.  BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


def load_bench():
    """bench/run.py (for ``oracle`` and ``machine``) and bench/scenarios.py,
    with BLAS pinned to one thread before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import scenarios
    return run, scenarios


def command(tool: str, argv) -> str:
    return " ".join(["python3", f"tools/{tool}",
                     *(sys.argv[1:] if argv is None else argv)])


def value_draws(run, draws, stored, value) -> list[dict]:
    """One row per draw: ``value(model, claim)`` returns the point result and
    the engine's own fields, and the row adds the error against the oracle
    as a share of the strike, or holds the error that stopped the
    valuation."""
    from xvaband import ModelError, NumericsError
    rows = []
    for draw, (model, claim) in draws:
        row = {"id": draw["id"]}
        try:
            res, fields = value(model, claim)
        except (NumericsError, ModelError, ValueError) as exc:
            row["failed"] = f"{type(exc).__name__}: {exc}"
        else:
            seller, buyer = run.oracle(draw, model, claim, stored)
            row["error"] = max(abs(res.xva_seller - seller),
                               abs(res.xva_buyer - buyer)) / claim.strike
            row.update(fields)
        rows.append(row)
    return rows


def error_summary(rows: list[dict]) -> dict:
    errors = [r["error"] for r in rows if "error" in r]
    return {"draws": len(rows), "completed": len(errors),
            "worst_error": max(errors) if errors else None,
            "median_error": statistics.median(errors) if errors else None}


def parse_grids(text: str) -> list[tuple[int, int]]:
    grids = []
    for item in text.split(","):
        nx, _, nt = item.partition("x")
        grids.append((int(nx), int(nt)))
    return grids


def linear_legs(models) -> dict:
    """Which lend/borrow legs of the march of ``models`` are linear, by
    ``drivers.linear_legs``."""
    from xvaband import drivers
    repo, funding = drivers.linear_legs(drivers.DriverParams.stack(models))
    return {"repo": repo, "funding": funding}


def leg_counts(rows: list[dict]) -> dict:
    """The count of rows with each leg linear, and with both."""
    legs = [r["linear_legs"] for r in rows if "linear_legs" in r]
    return {"repo": sum(leg["repo"] for leg in legs),
            "funding": sum(leg["funding"] for leg in legs),
            "both": sum(leg["repo"] and leg["funding"] for leg in legs)}


def value_pde(model, claim, nx: int, nt: int):
    """The point result of ``cli.evaluate_point(engine="pde")``, the
    Picard iterations of its march and its linear legs."""
    from xvaband import cli
    res, = cli.evaluate_point(model, claim, "pde", nx=nx, nt=nt)
    return res, {
        "picard_iterations": int(res.solution.picard_iterations.sum()),
        "linear_legs": linear_legs([model])}


def march_sweep(scenarios, reference, nx, nt) -> dict:
    """The 42 band-vs-collateral scenarios in one march: error, iterations
    and linear legs."""
    from xvaband import cli
    base = cli.figure_config("band-vs-collateral")
    cells = scenarios.sweep_cells()
    models = [scenarios.with_alpha_borrow(base.model, a, rb) for a, rb in cells]
    results = cli._batched(models, base.claim, "pde", nx, nt,
                           cli.DEFAULT_STEPS)
    stored = {(r["alpha"], r["fund_borrow"]): r for r in reference}
    worst = max(max(abs(res.xva_seller - stored[cell]["seller"]),
                    abs(res.xva_buyer - stored[cell]["buyer"]))
                for cell, res in zip(cells, results)) / base.claim.strike
    return {"scenarios": len(models), "error": worst,
            "picard_iterations": int(sum(res.solution.picard_iterations.sum()
                                         for res in results)),
            "linear_legs": linear_legs(models)}


def time_grading(nt: int) -> dict:
    """The march's time steps on a unit maturity, read off ``t_nodes``: the
    first step (next to maturity), the last (ending at t = 0) and the
    exponent p of tau_n = T (n / N)^p that the first step implies (None for
    one step)."""
    from xvaband import pde
    levels = pde.PdeGrid(x_min=0.0, x_max=1.0, nx=3, nt=nt,
                         maturity=1.0).t_nodes()
    first, last = float(levels[-1] - levels[-2]), float(levels[1] - levels[0])
    exponent = round(math.log(first) / math.log(1.0 / nt), 6) if nt > 1 else None
    return {"exponent": exponent, "first_step": first, "last_step": last}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", type=parse_grids, default="800x100,800x50",
                        help="comma-separated NXxNT grids")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_grid.json")
    args = parser.parse_args(argv)
    run, scenarios = load_bench()
    reference = json.loads((BENCH / "reference.json").read_text())
    stored = {r["id"]: r for r in reference["point-pde"]}
    draws = [(d, scenarios.build(d)) for d in
             scenarios.draw_points(scenarios.POOL_SEED, scenarios.PDE_POOL, False)]
    grids = []
    for nx, nt in args.grids:
        rows = value_draws(run, draws, stored,
                           functools.partial(value_pde, nx=nx, nt=nt))
        grids.append({
            "nx": nx, "nt": nt, "time_grading": time_grading(nt),
            "points": {**error_summary(rows), "picard_iterations": sum(
                r.get("picard_iterations", 0) for r in rows),
                "linear_legs": leg_counts(rows), "rows": rows},
            "sweep": march_sweep(scenarios, reference["sweep-collateral"],
                                 nx, nt)})
    record = {
        "command": command("grid_study.py", argv), "machine": run.machine(),
        "error_unit": "share of the strike, worse of the two sides",
        "oracle": "bench/run.py oracle: closed forms for symmetric draws, the "
                  "stored 1600 x 1600 PDE (bench/reference.json) otherwise",
        "grids": grids,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for grid in grids:
        pts, sw = grid["points"], grid["sweep"]
        legs = pts["linear_legs"]
        sweep_legs = [leg for leg, linear in sw["linear_legs"].items()
                      if linear]
        print(f"{grid['nx']}x{grid['nt']}: {pts['completed']}/{pts['draws']} "
              f"completed, worst {pts['worst_error']:.3g}, median "
              f"{pts['median_error']:.3g}, {pts['picard_iterations']} Picard "
              f"iterations, linear repo/funding/both legs in "
              f"{legs['repo']}/{legs['funding']}/{legs['both']} of "
              f"{pts['draws']} draws; sweep worst {sw['error']:.3g}, "
              f"{sw['picard_iterations']} Picard iterations, linear legs: "
              f"{', '.join(sweep_legs) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
