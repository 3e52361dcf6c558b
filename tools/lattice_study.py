"""Error, root residuals and kept nodes of the CLI's lattice, per benchmark draw: BENCH_lattice.json.

    python3 tools/lattice_study.py [--steps 500] [--out BENCH_lattice.json]

Every draw of the benchmark's ``point-lattice`` pool (``bench/scenarios.py``)
is valued by ``cli.evaluate_point(engine="lattice")``: the lattices of
``--steps``, half and a quarter as many steps, extrapolated.  Each draw's
row holds, as shares of the strike and the worse of the two sides,
the error against the benchmark's oracle (``oracle`` in ``bench/run.py``:
the closed forms for symmetric draws, the stored 1600 x 1600 PDE of
``bench/reference.json`` otherwise) and the converged error against
``solve_extrapolated`` at ``CONVERGED_REFINE`` times ``--steps`` (8000 at
the default 500), or the error that stopped it; the worst root residual of
the three lattices and both sides, in ulps of the node's scale
(``lattice.ROOT_ULPS`` bounds it), and the worst over the levels whose
scale was not widened, read off the ``root_residuals`` and ``root_widened``
of the three lattices that the result's solutions keep (their
``lattices``); and the nodes the three lattices march within the
band that ``lattice.band`` keeps.  The file also holds the completed count,
the worst and median errors of both kinds, the kept nodes of all draws and
their share of the full trees, and the machine details from
``bench/run.py``.  It holds no times: those come from the paced runs of
``bench/run.py``.

The script reads ``bench/`` through ``tools/grid_study.py``'s loaders and
shares its per-draw loop; it imports xvaband from the ``src/`` next to it,
so a copy placed in another checkout studies that checkout.  It writes only
the output file.  BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from grid_study import (BENCH, ROOT, command, error_summary,  # noqa: E402
                        load_bench, value_draws)

# the converged reference extrapolates from this many times the steps
CONVERGED_REFINE = 16


def residuals(solutions) -> tuple[float, float]:
    """The worst root residual of the solutions, and the worst of the levels
    checked on the plain scale ``max(|u|, |e|)`` alone (0 if none was)."""
    worst = max(float(s.root_residuals.max()) for s in solutions)
    plain = max((float(s.root_residuals[~s.root_widened].max())
                 for s in solutions if not s.root_widened.all()), default=0.0)
    return worst, plain


def value_lattice(model, claim, steps: int, converged_steps: int):
    """The point result of ``cli.evaluate_point(engine="lattice")``, the root
    residuals of its three lattices and its converged error."""
    from xvaband import cli, lattice
    res, = cli.evaluate_point(model, claim, "lattice", steps=steps)
    worst, plain = residuals([raw for s in res.solution for raw in s.lattices])
    converged, = lattice.solve_extrapolated([model], claim, converged_steps)
    error = max(abs(s.adjustment - c.adjustment)
                for s, c in zip(res.solution, converged)) / claim.strike
    return res, {"converged_error": error, "worst_residual_ulps": worst,
                 "worst_plain_residual_ulps": plain}


def kept_nodes(n_steps: int, maturity: float, sigma: float) -> int:
    """Nodes that the lattice of n steps marches, levels 0 .. n - 1, within
    the band that ``lattice.band`` keeps."""
    from xvaband import lattice
    lowest, highest = lattice.band(n_steps, maturity / n_steps, sigma)
    return int((highest[:-1] - lowest[:-1] + 1).sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=None,
                        help="the finest lattice (default: cli.DEFAULT_STEPS)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_lattice.json")
    args = parser.parse_args(argv)
    run, scenarios = load_bench()
    from xvaband import cli, lattice
    steps = args.steps or cli.DEFAULT_STEPS
    reference = json.loads((BENCH / "reference.json").read_text())
    stored = {r["id"]: r for r in reference["point-lattice"]}
    draws = [(d, scenarios.build(d)) for d in scenarios.draw_points(
        scenarios.POOL_SEED, scenarios.LATTICE_POOL, True)]
    counts = [steps, steps // 2, steps // 4]
    converged_steps = CONVERGED_REFINE * steps
    rows = value_draws(run, draws, stored, functools.partial(
        value_lattice, steps=steps, converged_steps=converged_steps))
    for row, (_, (model, claim)) in zip(rows, draws):
        row["nodes"] = sum(kept_nodes(n, claim.maturity, model.equity.sigma)
                           for n in counts)
    nodes = sum(r["nodes"] for r in rows)
    full = sum(n * (n + 1) // 2 for n in counts)
    converged = [r["converged_error"] for r in rows if "converged_error" in r]
    record = {
        "command": command("lattice_study.py", argv), "machine": run.machine(),
        "steps": counts, "converged_steps": converged_steps,
        "block_row_nodes": lattice.BLOCK_ROW_NODES,
        "error_unit": "share of the strike, worse of the two sides",
        "oracle": "bench/run.py oracle: closed forms for symmetric draws, the "
                  "stored 1600 x 1600 PDE (bench/reference.json) otherwise",
        "converged_oracle": "lattice.solve_extrapolated at converged_steps",
        "residual_unit": "ulps of the node's scale, worst over the three "
                         "lattices and both sides; the plain residual over "
                         "the levels checked on max(|u|, |e|) alone",
        "points": {
            **error_summary(rows),
            "worst_converged_error": max(converged, default=None),
            "median_converged_error": (statistics.median(converged)
                                       if converged else None),
            "worst_residual_ulps": max((r.get("worst_residual_ulps", 0.0)
                                        for r in rows), default=None),
            "worst_plain_residual_ulps": max(
                (r.get("worst_plain_residual_ulps", 0.0) for r in rows),
                default=None),
            "nodes": nodes, "kept_share": nodes / (len(rows) * full),
            "rows": rows},
        "prune_sd": lattice.PRUNE_SD,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    pts = record["points"]
    print(f"{pts['completed']}/{pts['draws']} completed, worst error "
          f"{pts['worst_error']:.3g}, median {pts['median_error']:.3g}; "
          f"converged worst {pts['worst_converged_error']:.3g}, median "
          f"{pts['median_converged_error']:.3g}; worst "
          f"residual {pts['worst_residual_ulps']:.3g} ulps "
          f"({pts['worst_plain_residual_ulps']:.3g} on the plain scale), "
          f"{pts['kept_share']:.1%} of the nodes kept")
    return 0


if __name__ == "__main__":
    sys.exit(main())
