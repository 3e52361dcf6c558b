"""Error and time of the PDE at several grids, per benchmark draw: BENCH_grid.json.

    python3 tools/grid_study.py [--grids 800x100,800x50] [--repeats 3]
                                [--out BENCH_grid.json]

For each grid, every draw of the benchmark's ``point-pde`` pool
(``bench/scenarios.py``) is valued as ``cli.evaluate_point(engine="pde")``
values it, ``--repeats`` times.  Each draw's row holds the median time, the
Picard iterations of its march (summed over the steps, the larger of the two
sides per step) and the error against the benchmark's oracle (``oracle`` in
``bench/run.py``: the closed forms for symmetric draws, the stored 1600 x 1600
PDE of ``bench/reference.json`` otherwise) as a share of the strike, or the
error that stopped it.  The 42 scenarios of ``figure band-vs-collateral`` are
marched the same way, as one ``pde.solve_batch``, against the stored sweep
reference.  Per grid the file also holds the time grading of the march (the
exponent p of tau_n = T (n / N)^p and its first and last steps, as shares of
the maturity), the completed count, the worst and median errors and, per
repeat, the time of all draws, with its median; the machine details come
from ``bench/run.py``.  Repeats run the grids in turn,
so drift in the machine's speed spreads over all of them.

The script reads ``bench/`` and imports xvaband from the ``src/`` next to it;
it writes only the output file.  BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


def load_bench():
    """bench/run.py (for ``oracle`` and ``machine``) and bench/scenarios.py."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import scenarios
    return run, scenarios


def parse_grids(text: str) -> list[tuple[int, int]]:
    grids = []
    for item in text.split(","):
        nx, _, nt = item.partition("x")
        grids.append((int(nx), int(nt)))
    return grids


class Capture:
    """Keeps the solutions of every ``pde.solve_batch`` call while active."""

    def __init__(self, pde):
        self.pde = pde
        self.real = pde.solve_batch
        self.solutions: list = []

    def __enter__(self):
        def capturing(*args, **kwargs):
            solutions = self.real(*args, **kwargs)
            self.solutions += solutions
            return solutions
        self.pde.solve_batch = capturing
        return self

    def __exit__(self, *exc):
        self.pde.solve_batch = self.real


def value_points(run, draws, reference, nx, nt, first: bool) -> tuple[list, float]:
    """One pass over the draws at one grid: per-draw rows (errors and
    iterations on the first pass) and times."""
    from xvaband import ModelError, NumericsError, cli, pde
    rows = []
    for draw, (model, claim) in draws:
        row = {"id": draw["id"]}
        with Capture(pde) as captured:
            start = time.perf_counter()
            try:
                res = cli.evaluate_point(model, claim, "pde", nx=nx, nt=nt)[0]
            except (NumericsError, ModelError, ValueError) as exc:
                res, row["failed"] = None, f"{type(exc).__name__}: {exc}"
            row["time_s"] = time.perf_counter() - start
        if res is not None and first:
            seller, buyer = run.oracle(draw, model, claim, reference)
            row["error"] = max(abs(res.xva_seller - seller),
                               abs(res.xva_buyer - buyer)) / claim.strike
            row["picard_iterations"] = int(
                captured.solutions[0].picard_iterations.sum())
        rows.append(row)
    return rows, sum(r["time_s"] for r in rows)


def march_sweep(scenarios, reference, nx, nt) -> dict:
    """The 42 band-vs-collateral scenarios in one march: error, time, iterations."""
    from xvaband import cli, drivers, pde
    base = cli.figure_config("band-vs-collateral")
    cells = scenarios.sweep_cells()
    models = [scenarios.with_alpha_borrow(base.model, a, rb) for a, rb in cells]
    grid = pde.PdeGrid.default_for(models[0], base.claim, nx=nx, nt=nt)
    start = time.perf_counter()
    solutions = pde.solve_batch(models, base.claim, grid)
    elapsed = time.perf_counter() - start
    stored = {(r["alpha"], r["fund_borrow"]): r for r in reference}
    spot = base.model.equity.spot
    worst = 0.0
    for cell, sol in zip(cells, solutions):
        want = stored[cell]
        for side in drivers.SIDES:
            got = pde.xva_at(sol, 0.0, spot, side)
            worst = max(worst, abs(got - want[side]) / base.claim.strike)
    return {"scenarios": len(models), "time_s": elapsed, "error": worst,
            "picard_iterations": int(sum(s.picard_iterations.sum()
                                         for s in solutions))}


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


def summary(nx, nt, passes: list[list[dict]], sweeps: list[dict]) -> dict:
    first = passes[0]
    errors = [r["error"] for r in first if "error" in r]
    rows = []
    for k, row in enumerate(first):
        times = [p[k]["time_s"] for p in passes]
        rows.append({**row, "time_s": statistics.median(times), "times_s": times})
    totals = [sum(r["time_s"] for r in p) for p in passes]
    sweep_times = [s["time_s"] for s in sweeps]
    return {
        "nx": nx, "nt": nt, "time_grading": time_grading(nt),
        "points": {
            "draws": len(first), "completed": len(errors),
            "worst_error": max(errors) if errors else None,
            "median_error": statistics.median(errors) if errors else None,
            "picard_iterations": sum(r.get("picard_iterations", 0) for r in first),
            "time_s": statistics.median(totals), "times_s": totals,
            "rows": rows},
        "sweep": {
            "scenarios": sweeps[0]["scenarios"], "error": sweeps[0]["error"],
            "picard_iterations": sweeps[0]["picard_iterations"],
            "time_s": statistics.median(sweep_times), "times_s": sweep_times},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", type=parse_grids, default="800x100,800x50",
                        help="comma-separated NXxNT grids")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_grid.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, as in the benchmark
    run, scenarios = load_bench()
    from xvaband import cli
    reference = json.loads((BENCH / "reference.json").read_text())
    stored = {r["id"]: r for r in reference["point-pde"]}
    draws = [(d, scenarios.build(d)) for d in
             scenarios.draw_points(scenarios.POOL_SEED, scenarios.PDE_POOL, False)]
    model, claim = draws[0][1]
    cli.evaluate_point(model, claim, "pde", nx=20, nt=20)  # lazy imports
    passes = {grid: [] for grid in args.grids}
    sweeps = {grid: [] for grid in args.grids}
    for repeat in range(args.repeats):
        for nx, nt in args.grids:
            rows, total = value_points(run, draws, stored, nx, nt, repeat == 0)
            passes[(nx, nt)].append(rows)
            sweeps[(nx, nt)].append(march_sweep(
                scenarios, reference["sweep-collateral"], nx, nt))
            print(f"repeat {repeat + 1}/{args.repeats}, {nx}x{nt}: points "
                  f"{total:.2f} s, sweep {sweeps[(nx, nt)][-1]['time_s']:.2f} s",
                  file=sys.stderr)
    record = {
        "command": "python3 tools/grid_study.py " + " ".join(argv or sys.argv[1:]),
        "machine": run.machine(), "repeats": args.repeats,
        "error_unit": "share of the strike, worse of the two sides",
        "oracle": "bench/run.py oracle: closed forms for symmetric draws, the "
                  "stored 1600 x 1600 PDE (bench/reference.json) otherwise",
        "grids": [summary(nx, nt, passes[(nx, nt)], sweeps[(nx, nt)])
                  for nx, nt in args.grids],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for grid in record["grids"]:
        pts, sw = grid["points"], grid["sweep"]
        print(f"{grid['nx']}x{grid['nt']}: {pts['completed']}/{pts['draws']} "
              f"completed, worst {pts['worst_error']:.3g}, median "
              f"{pts['median_error']:.3g}, {pts['time_s']:.2f} s, "
              f"{pts['picard_iterations']} Picard iterations; sweep worst "
              f"{sw['error']:.3g}, {sw['time_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
