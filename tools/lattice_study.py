"""Time, error and root residuals of the CLI's lattice, per benchmark draw: BENCH_lattice.json.

    python3 tools/lattice_study.py [--steps 1000] [--repeats 3]
                                   [--out BENCH_lattice.json]

Every draw of the benchmark's ``point-lattice`` pool (``bench/scenarios.py``)
is valued as ``cli.evaluate_point(engine="lattice")`` values it, the
lattices of ``--steps`` and half as many steps extrapolated, ``--repeats``
times.  Each draw's row holds the median time, the error against the
benchmark's oracle (``oracle`` in ``bench/run.py``: the closed forms for
symmetric draws, the stored 1600 x 1600 PDE of ``bench/reference.json``
otherwise) as a share of the strike, or the error that stopped it, the
worst root residual of both lattices and both sides, in ulps of the node's
scale (``lattice.ROOT_ULPS`` bounds it) and the worst over the levels whose
scale was not widened, and the nodes both lattices march within the band
that ``lattice.band`` keeps.  The file also holds the
completed count, the worst and median errors, the kept nodes of all draws
and their share of the full trees, the time of all draws per repeat with
its median, and the machine details from ``bench/run.py``.

The script reads ``bench/`` through ``tools/grid_study.py``'s loaders and
imports xvaband from the ``src/`` next to it, so a copy placed in another
checkout studies that checkout; it writes only the output file.  BLAS runs
on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from grid_study import BENCH, ROOT, load_bench  # noqa: E402


class Residuals:
    """The worst root residual of every lattice marched while active, and
    the worst of the levels checked on the plain scale ``max(|u|, |e|)``
    alone (``OracleSolution.root_widened``; None in a checkout that does
    not record it)."""

    def __init__(self, lattice):
        self.lattice = lattice
        self.real = lattice._march
        self.worst = 0.0
        self.plain = 0.0

    def __enter__(self):
        def capturing(*args, **kwargs):
            solutions = self.real(*args, **kwargs)
            for s in solutions:
                self.worst = max(self.worst, float(s.root_residuals.max()))
                widened = getattr(s, "root_widened", None)
                if widened is None:
                    self.plain = None
                elif self.plain is not None and not widened.all():
                    self.plain = max(self.plain, float(
                        s.root_residuals[~widened].max()))
            return solutions
        self.lattice._march = capturing
        return self

    def __exit__(self, *exc):
        self.lattice._march = self.real


def value_points(run, draws, stored, steps, first: bool) -> list[dict]:
    """One pass over the draws: per-draw times, and on the first pass the
    kept nodes, errors and worst residuals."""
    from xvaband import ModelError, NumericsError, cli, lattice
    rows = []
    for draw, (model, claim) in draws:
        row = {"id": draw["id"]}
        with Residuals(lattice) as residuals:
            start = time.perf_counter()
            try:
                res = cli.evaluate_point(model, claim, "lattice", steps=steps)[0]
            except (NumericsError, ModelError, ValueError) as exc:
                res, row["failed"] = None, f"{type(exc).__name__}: {exc}"
            row["time_s"] = time.perf_counter() - start
        if first:
            row["nodes"] = sum(kept_nodes(n, claim.maturity,
                                          model.equity.sigma)
                               for n in (steps, steps // 2))
        if res is not None and first:
            seller, buyer = run.oracle(draw, model, claim, stored)
            row["error"] = max(abs(res.xva_seller - seller),
                               abs(res.xva_buyer - buyer)) / claim.strike
            row["worst_residual_ulps"] = residuals.worst
            row["worst_plain_residual_ulps"] = residuals.plain
        rows.append(row)
    return rows


def kept_nodes(n_steps: int, maturity: float, sigma: float) -> int:
    """Nodes that the lattice of n steps marches, levels 0 .. n - 1, within
    the band that ``lattice.band`` keeps."""
    from xvaband import lattice
    lowest, highest = lattice.band(n_steps, maturity / n_steps, sigma)
    return int((highest[:-1] - lowest[:-1] + 1).sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=None,
                        help="the finer lattice (default: cli.DEFAULT_STEPS)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_lattice.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, as in the benchmark
    run, scenarios = load_bench()
    from xvaband import cli, lattice
    steps = args.steps or cli.DEFAULT_STEPS
    reference = json.loads((BENCH / "reference.json").read_text())
    stored = {r["id"]: r for r in reference["point-lattice"]}
    draws = [(d, scenarios.build(d)) for d in scenarios.draw_points(
        scenarios.POOL_SEED, scenarios.LATTICE_POOL, True)]
    model, claim = draws[0][1]
    cli.evaluate_point(model, claim, "lattice", steps=20)  # warm up
    passes = []
    for repeat in range(args.repeats):
        passes.append(value_points(run, draws, stored, steps, repeat == 0))
        print(f"repeat {repeat + 1}/{args.repeats}: "
              f"{sum(r['time_s'] for r in passes[-1]):.2f} s", file=sys.stderr)
    first = passes[0]
    errors = [r["error"] for r in first if "error" in r]
    rows = [{**row, "time_s": statistics.median(p[k]["time_s"] for p in passes),
             "times_s": [p[k]["time_s"] for p in passes]}
            for k, row in enumerate(first)]
    totals = [sum(r["time_s"] for r in p) for p in passes]
    nodes = sum(r["nodes"] for r in first)
    full = sum(n * (n + 1) // 2 for n in (steps, steps // 2))
    record = {
        "command": "python3 tools/lattice_study.py "
                   + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": run.machine(), "repeats": args.repeats,
        "steps": [steps, steps // 2],
        # None in a checkout that marches level by level
        "block_row_nodes": getattr(lattice, "BLOCK_ROW_NODES", None),
        "error_unit": "share of the strike, worse of the two sides",
        "oracle": "bench/run.py oracle: closed forms for symmetric draws, the "
                  "stored 1600 x 1600 PDE (bench/reference.json) otherwise",
        "residual_unit": "ulps of the node's scale, worst over both "
                         "lattices and both sides; the plain residual over "
                         "the levels checked on max(|u|, |e|) alone",
        "points": {
            "draws": len(first), "completed": len(errors),
            "worst_error": max(errors) if errors else None,
            "median_error": statistics.median(errors) if errors else None,
            "worst_residual_ulps": max((r.get("worst_residual_ulps", 0.0)
                                        for r in first), default=None),
            "worst_plain_residual_ulps": max(
                (r["worst_plain_residual_ulps"] for r in first
                 if r.get("worst_plain_residual_ulps") is not None),
                default=None),
            "nodes": nodes, "kept_share": nodes / (len(first) * full),
            "time_s": statistics.median(totals), "times_s": totals,
            "rows": rows},
        "prune_sd": lattice.PRUNE_SD,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    pts = record["points"]
    print(f"{pts['completed']}/{pts['draws']} completed, worst error "
          f"{pts['worst_error']:.3g}, median {pts['median_error']:.3g}, worst "
          f"residual {pts['worst_residual_ulps']:.3g} ulps "
          f"({pts['worst_plain_residual_ulps']} on the plain scale), "
          f"{pts['kept_share']:.1%} of the nodes kept, {pts['time_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
