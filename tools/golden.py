"""Golden CSV output of every CLI subcommand and figure, and a cell-by-cell diff.

    python3 tools/golden.py capture <dir>
    python3 tools/golden.py compare <a> <b> [--tol 1e-9]

``capture`` writes, at the CLI defaults (800 x 50 PDE grid; lattices of
500, 250 and 125 steps, extrapolated), the CSV of ``value --engine all``, and of
``band`` and ``table`` with the PDE and with the lattice, on the benchmark
config, and of every ``figure`` id at its own defaults, one file each, to
<dir>.  It also writes ``points-pde.csv`` and ``points-lattice.csv``: the
seller and buyer values at ``repr`` precision, or the error class, of every
draw of the benchmark's point pools (``bench/scenarios.py``, read only), so
that ``compare --tol 0`` sees last-bit drift that the 10-digit CSVs round
away.  It imports xvaband from
the ``src/`` and the pools from the ``bench/`` next to this script, so a copy
of the script placed in another checkout captures that checkout.

``compare`` checks that both directories hold the same files and, per file,
that headers and row shapes are equal and that every numeric cell agrees
within ``--tol`` (absolute; two NaNs agree).  It prints one line per file
and exits 1 if any file is missing or differs beyond the tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"

BENCHMARK_CONFIG = """\
fund_lend = 0.05
fund_borrow = 0.08
repo_lend = 0.05
repo_borrow = 0.05
coll_earn = 0.01
coll_pay = 0.01
discount = 0.01
mu_own = 0.21
mu_cpty = 0.16
loss_own = 0.5
loss_cpty = 0.5
alpha = 0.9
spot = 1.0
sigma = 0.2
kind = call
strike = 1.0
maturity = 1.0
"""


def runs(cli, config: Path) -> dict[str, list[str]]:
    """CSV file name -> cli.main arguments (without --out)."""
    out = {"value-all.csv": ["value", "--config", str(config), "--engine", "all"],
           "band.csv": ["band", "--config", str(config)],
           "table.csv": ["table", "--config", str(config)],
           "band-lattice.csv": ["band", "--config", str(config),
                                "--engine", "lattice"],
           "table-lattice.csv": ["table", "--config", str(config),
                                 "--engine", "lattice"]}
    for figure_id in sorted(cli.FIGURES):
        out[f"figure-{figure_id}.csv"] = ["figure", figure_id]
    return out


def capture(directory: Path) -> int:
    sys.path.insert(0, str(SRC))
    from xvaband import cli
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "benchmark.cfg"
    config.write_text(BENCHMARK_CONFIG)
    for name, argv in runs(cli, config).items():
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(directory / name)])
        if code != 0:
            print(f"{name}: cli.main returned {code}", file=sys.stderr)
            return 1
        print(f"{name}: {time.perf_counter() - start:.1f} s")
    capture_points(directory)
    return 0


def capture_points(directory: Path) -> None:
    """One row per draw of each benchmark point pool: id, seller, buyer."""
    sys.path.insert(0, str(BENCH))
    import scenarios
    from xvaband import ModelError, NumericsError, cli
    pools = (("points-pde.csv", "pde", scenarios.PDE_POOL, False),
             ("points-lattice.csv", "lattice", scenarios.LATTICE_POOL, True))
    for name, engine, size, vanilla_only in pools:
        start = time.perf_counter()
        lines = ["id,seller,buyer"]
        for draw in scenarios.draw_points(scenarios.POOL_SEED, size, vanilla_only):
            model, claim = scenarios.build(draw)
            try:
                res = cli.evaluate_point(model, claim, engine)[0]
                cells = [repr(float(res.xva_seller)), repr(float(res.xva_buyer))]
            except (NumericsError, ModelError, ValueError) as exc:
                cells = [type(exc).__name__] * 2
            lines.append(",".join([str(draw["id"])] + cells))
        (directory / name).write_text("\n".join(lines) + "\n")
        print(f"{name}: {time.perf_counter() - start:.1f} s")


def _cell_difference(a: str, b: str) -> float | None:
    """Absolute difference of two cells, 0 if equal, None if not both numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if math.isnan(x) and math.isnan(y):
        return 0.0
    return abs(x - y)


def compare_file(a: Path, b: Path, tol: float) -> tuple[bool, str]:
    if a.read_bytes() == b.read_bytes():
        return True, "identical"
    rows_a = [line.split(",") for line in a.read_text().splitlines()]
    rows_b = [line.split(",") for line in b.read_text().splitlines()]
    if rows_a[:1] != rows_b[:1]:
        return False, "headers differ"
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return False, "row counts or lengths differ"
    worst, bad = 0.0, []
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for j, (ca, cb) in enumerate(zip(ra, rb)):
            diff = _cell_difference(ca, cb)
            if diff is None or not diff <= tol:
                bad.append(f"row {i} {rows_a[0][j]}: {ca} vs {cb}")
            else:
                worst = max(worst, diff)
    if bad:
        return False, f"{len(bad)} cell(s) beyond {tol:g}: " + "; ".join(bad[:10])
    return True, f"within {tol:g} (largest difference {worst:.3g})"


def compare(a: Path, b: Path, tol: float) -> int:
    names_a = {p.name for p in a.glob("*.csv")}
    names_b = {p.name for p in b.glob("*.csv")}
    ok = True
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}: only in {a if name in names_a else b}")
            ok = False
            continue
        same, note = compare_file(a / name, b / name, tol)
        ok &= same
        print(f"{name}: {note}")
    if not names_a | names_b:
        print("no CSV files to compare")
        ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cap = sub.add_parser("capture", help="write the golden CSVs to a directory")
    cap.add_argument("directory", type=Path)
    cmp_ = sub.add_parser("compare", help="diff two captured directories")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    cmp_.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    if args.command == "capture":
        return capture(args.directory)
    return compare(args.a, args.b, args.tol)


if __name__ == "__main__":
    sys.exit(main())
