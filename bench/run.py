"""xvaband benchmark: seeded workloads through the public API, checked against an oracle.

    python3 bench/run.py --workload point-pde --seed 3 --seconds 10 --trace 0

Workloads (closed loop, one client, one process, BLAS pinned to one thread):

* ``sweep-collateral`` -- ``xvaband figure band-vs-collateral`` in-process via
  ``cli.main`` with CSV output: 42 asymmetric scenarios on one shared grid;
* ``point-pde`` -- independent valuations via ``cli.evaluate_point(engine="pde")``;
* ``point-lattice`` -- the same generator, vanilla claims only, via
  ``engine="lattice"``.

A pass values the workload's whole scenario set once (one figure, or every
draw of the point set in seeded order).  A run makes whole passes while the
next one is expected to end within ``--seconds``, and at least one.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run makes its passes untraced, then traced, and reports the
per-layer metrics.  Times are scaled to a reference machine speed by
interleaved calibration blocks (``Pace``).  ``--smoke`` runs on a small grid,
for bench/test_bench.py.  bench/NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep-collateral", "point-pde", "point-lattice")
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "max_rel_err": "ratio",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
TOL = 1e-4          # correctness tolerance on |adjustment - oracle|, share of strike
SMOKE_TOL = 2e-2    # same, on the smoke grid
SETUP_REPEATS = 3
SMOKE = {"nx": 40, "nt": 40, "steps": 50, "pool": 6}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from xvaband import cli, pde
cfg = cli.figure_config("band-vs-collateral")
pde.PdeGrid.default_for(cfg.model, cfg.claim, nx=cli.DEFAULT_NX, nt=cli.DEFAULT_NT)
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small grid and few steps, for the benchmark's own tests")
    return p.parse_args(argv)


def import_program():
    """Import xvaband from the checkout's src/; refuse any other copy."""
    if not (SRC / "xvaband" / "__init__.py").is_file():
        raise SystemExit(f"error: no xvaband sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import xvaband
    if Path(xvaband.__file__).resolve().parent != (SRC / "xvaband").resolve():
        raise SystemExit(f"error: imported xvaband from {xvaband.__file__}")


def measure_setup(repeats: int) -> tuple[float, float]:
    """Fresh process: import xvaband and build the first model and grid; (scaled, raw) median s.

    Each child is timed inside itself and scaled by the calibration blocks run
    just before and after it, since set-up is short next to the speed drift.
    """
    scaled, raw = [], []
    for _ in range(repeats):
        pace = Pace()
        pace.block()
        pace.block()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
                              capture_output=True, text=True, timeout=120, check=True)
        pace.block()
        pace.block()
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * pace.factor())
    return statistics.median(scaled), statistics.median(raw)


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "platform": platform.platform()}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or the pinned setting."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


# ---------------------------------------------------------------------------
# workloads: warm_up(), one_pass() -> raw records, check(records, tol) -> rows
# ---------------------------------------------------------------------------

class PointWorkload:
    """Independent valuations of a seeded order of the stored draw set."""

    def __init__(self, name: str, seed: int, smoke: bool, reference: dict):
        import scenarios
        from xvaband import cli
        self.engine = "pde" if name == "point-pde" else "lattice"
        size = scenarios.PDE_POOL if self.engine == "pde" else scenarios.LATTICE_POOL
        if smoke:
            size = SMOKE["pool"]
        self.draws = scenarios.draw_points(scenarios.POOL_SEED, size,
                                           vanilla_only=self.engine == "lattice")
        random.Random(seed).shuffle(self.draws)
        self.inputs = [scenarios.build(d) for d in self.draws]
        self.numerics = ({"nx": SMOKE["nx"], "nt": SMOKE["nt"], "steps": SMOKE["steps"]}
                         if smoke else {"nx": cli.DEFAULT_NX, "nt": cli.DEFAULT_NT,
                                        "steps": cli.DEFAULT_STEPS})
        self.stored = {r["id"]: r for r in reference[name]}
        self.tags = scenarios.shares(self.draws)
        self.unit = "valuation"

    def warm_up(self) -> None:
        """Load lazily imported modules before timing; a coarse solve may fail."""
        from xvaband import ModelError, NumericsError, cli
        model, claim = self.inputs[0]
        with contextlib.suppress(NumericsError, ModelError, ValueError):
            cli.evaluate_point(model, claim, self.engine, nx=20, nt=20, steps=20)

    def one_pass(self, pace: "Pace") -> list[dict]:
        from xvaband import ModelError, NumericsError, cli
        records = []
        for draw, (model, claim) in zip(self.draws, self.inputs):
            pace.block()
            t0 = time.perf_counter()
            try:
                res = cli.evaluate_point(model, claim, self.engine, **self.numerics)[0]
                out = {"seller": res.xva_seller, "buyer": res.xva_buyer}
            except (NumericsError, ModelError, ValueError) as exc:
                out = {"error": f"{type(exc).__name__}: {exc}"}
            out["s"] = time.perf_counter() - t0
            out["id"] = draw["id"]
            records.append(out)
        return records

    def check(self, records: list[dict], tol: float) -> list[dict]:
        """Per-valuation outcome: error against the oracle, or the failure."""
        by_id = {d["id"]: (d, m, c) for d, (m, c) in zip(self.draws, self.inputs)}
        checked = []
        for rec in records:
            draw, model, claim = by_id[rec["id"]]
            row = {"id": rec["id"], "s": rec["s"], "valuations": 1}
            if "error" in rec:
                row.update(failed=1, wrong=0, why=rec["error"])
            else:
                seller, buyer = oracle(draw, model, claim, self.stored)
                err = max(abs(rec["seller"] - seller),
                          abs(rec["buyer"] - buyer)) / claim.strike
                wrong = int(not err <= tol)
                row.update(err=err, failed=wrong, wrong=wrong,
                           why=f"error {err:.3g} > {tol:g}" if wrong else None)
            checked.append(row)
        return checked


def oracle(draw: dict, model, claim, stored: dict) -> tuple[float, float]:
    """(seller, buyer) reference: closed forms if symmetric, else the stored refined PDE."""
    from xvaband import claims, closed_form
    if draw["regime"] == "asymmetric":
        ref = stored[draw["id"]]
        if not (math.isclose(ref["spot"], draw["spot"], rel_tol=1e-12)
                and math.isclose(ref["strike"], draw["strike"], rel_tol=1e-12)):
            raise SystemExit(f"error: stored reference for draw {draw['id']} does "
                             "not match the generator; rerun bench/make_reference.py")
        return ref["seller"], ref["buyer"]
    mark = claims.agent_value(model, claim, 0.0, model.equity.spot).value
    if model.credit is None:
        adj = closed_form.piterbarg_xva(model, claim, 0.0, mark)
        return adj, adj
    return tuple(closed_form.piterbarg_defaults_xva(model, claim, 0.0, mark, side).total
                 for side in ("seller", "buyer"))


class SweepWorkload:
    """One ``figure band-vs-collateral`` per pass, on a seeded currency unit."""

    def __init__(self, seed: int, smoke: bool, reference: dict):
        import scenarios
        from xvaband import cli
        self.scale = scenarios.sweep_scale(seed)
        self.cells = scenarios.sweep_cells()
        self.stored = reference["sweep-collateral"]
        OUT.mkdir(exist_ok=True)
        self.config = OUT / f"sweep-seed{seed}.cfg"
        self.csv = OUT / f"sweep-seed{seed}.csv"
        self.config.write_text(f"spot = {self.scale!r}\nstrike = {self.scale!r}\n")
        self.argv = ["figure", "band-vs-collateral", "--config", str(self.config),
                     "--out", str(self.csv)]
        if smoke:
            self.argv += ["--nx", str(SMOKE["nx"]), "--nt", str(SMOKE["nt"])]
        base = cli.figure_config("band-vs-collateral", {"spot": self.scale,
                                                        "strike": self.scale})
        models = [scenarios.with_alpha_borrow(base.model, a, rb) for a, rb in self.cells]
        self.tags = {"scale": self.scale, "scenarios": len(self.cells),
                     "shares_grid": scenarios.grid_sharing(
                         [scenarios.grid_key(m.equity.spot, base.claim.strike,
                                             m.equity.sigma, base.claim.maturity,
                                             m.rates.discount) for m in models])}
        self.unit = "figure"

    def _main(self, argv) -> int:
        from xvaband import cli
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self) -> None:
        self._main(self.argv[:4] + ["--out", str(self.csv), "--nx", "20", "--nt", "20"])

    def one_pass(self, pace: "Pace") -> list[dict]:
        """One figure, with calibration blocks before, after and on a timer during it.

        The blocks' number depends on the figure's wall time only, not on how
        xvaband structures its calls; their time is taken out of the figure's.
        """
        if self.csv.exists():
            self.csv.unlink()
        pace.block()
        pace.block()
        with pace.on_timer(Pace.EVERY) as taken:
            t0 = time.perf_counter()
            code = self._main(self.argv)
            s = time.perf_counter() - t0 - sum(taken)
        pace.block()
        pace.block()
        text = self.csv.read_text() if code == 0 and self.csv.exists() else ""
        return [{"s": s, "code": code, "csv": text}]

    def check(self, records: list[dict], tol: float) -> list[dict]:
        return [self._check_csv(rec, tol) for rec in records]

    def _check_csv(self, rec: dict, tol: float) -> dict:
        """Row count, header, finiteness, sweep axis and values against the scaled reference."""
        n = len(self.cells)
        row = {"s": rec["s"], "valuations": n, "failed": n, "wrong": n}
        if rec["code"] != 0:  # the CLI caught a NumericsError, ModelError or ValueError
            row.update(wrong=0, why=f"cli.main returned {rec['code']}")
            return row
        rows = list(csv.reader(io.StringIO(rec["csv"])))
        header = ["alpha"] + [f"{col}_rb{rb:g}" for rb in (0.08, 0.15)
                              for col in ("xva_buyer", "xva_seller", "width", "stock",
                                          "bond_own", "bond_cpty")]
        alphas = sorted({a for a, _ in self.cells})
        if rows[:1] != [header] or len(rows) != len(alphas) + 1:
            row["why"] = "CSV header or row count differs from the figure's"
            return row
        if any(len(r) != len(header) for r in rows):
            row["why"] = "CSV row length differs from the header's"
            return row
        try:
            values = [[float(v) for v in r] for r in rows[1:]]
        except ValueError as exc:
            row["why"] = f"non-numeric cell in the CSV: {exc}"
            return row
        if not all(math.isfinite(v) for r in values for v in r):
            row["why"] = "non-finite value in the CSV"
            return row
        if any(abs(r[0] - a) > 1e-12 for r, a in zip(values, alphas)):
            row["why"] = "CSV alpha column differs from the sweep"
            return row
        ref = {(r["alpha"], r["fund_borrow"]): r for r in self.stored}
        worst, bad = 0.0, 0
        for r, alpha in zip(values, alphas):
            for k, rb in enumerate((0.08, 0.15)):
                buyer, seller, width = r[1 + 6 * k: 4 + 6 * k]
                want = ref[(alpha, rb)]
                err = max(abs(seller - self.scale * want["seller"]),
                          abs(buyer - self.scale * want["buyer"])) / self.scale
                worst = max(worst, err)
                consistent = abs(width - (seller - buyer)) <= 1e-8 * self.scale
                bad += int(not (err <= tol and consistent))
        row.update(err=worst, failed=bad, wrong=bad,
                   why=f"{bad} scenario(s) out of tolerance" if bad else None)
        return row


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Pace:
    """Interleaved calibration: times a fixed numpy/scipy kernel that uses no xvaband code.

    On a virtual machine shared with other tenants the speed drifts (by up to
    40 % over seconds to minutes on a 2-vCPU Xeon VM), which moves every wall
    time with it.  The point workloads run a block before each valuation; a
    sweep figure runs blocks before and after it and on a wall-clock timer
    during it (``on_timer``).  Reported times are wall times
    scaled by ``C_REF / mean block``, i.e. seconds at the reference speed.  Raw
    times are in the run record.  bench/NOTES.md gives the measured effect.
    """

    C_REF = 0.0160  # typical block, s, on the 2.1 GHz Xeon VM the bounds were set on
    EVERY = 0.4     # s of wall time between timed blocks, about one per sweep valuation

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded
        rng = np.random.default_rng(0)
        self._np, self._solve = np, solve_banded
        self._ab = np.vstack([0.1 * rng.random(400), 1.0 + rng.random(400),
                              0.1 * rng.random(400)])
        self._b = rng.random(400)
        self.starts: list[float] = []
        self.times: list[float] = []

    def block(self) -> float:
        np, u = self._np, self._b
        t0 = time.perf_counter()
        for _ in range(300):
            u = self._solve((1, 1), self._ab, u)
            u = np.maximum(u, 0.0) - 0.5 * np.minimum(u, 0.0) + 1e-3 * np.gradient(u, 0.1)
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)
        return dt

    @contextlib.contextmanager
    def on_timer(self, every: float):
        """Run a block every ``every`` s of wall time (SIGALRM) inside the context.

        Yields the list of the blocks' durations.  The timer is re-armed after
        each block, so blocks never overlap.
        """
        taken: list[float] = []
        armed = [True]

        def on_alarm(signum, frame):
            taken.append(self.block())
            if armed[0]:
                signal.setitimer(signal.ITIMER_REAL, every)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, every)
        try:
            yield taken
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        if not self.times:
            raise RuntimeError("Pace.factor: no calibration block was run, "
                               "so no time can be scaled")
        # the mean, not the median: the valuations' total time integrates the
        # machine's speed over the run, and the speed switches between states
        return self.C_REF / statistics.fmean(self.times)


def timed(workload, seconds: float, pace: Pace, passes: int = 0) -> tuple[list[dict], int]:
    """Whole passes while the next is expected to end within ``seconds``, at least
    one; or exactly ``passes``."""
    start = time.perf_counter()
    records: list[dict] = []
    done = 0
    while True:
        records += workload.one_pass(pace)
        done += 1
        elapsed = time.perf_counter() - start
        if done == passes or not passes and elapsed * (done + 1) / done > seconds:
            return records, done


def summarize(checked: list[dict], factor: float) -> dict:
    """End-to-end figures; times are scaled to the reference speed by ``factor``."""
    attempted = sum(r["valuations"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    wall = factor * sum(r["s"] for r in checked)
    ok_times = sorted(factor * r["s"] for r in checked if not r["failed"])
    errs = [r["err"] for r in checked if "err" in r]
    n = len(ok_times)
    if n >= 11:
        tail, tail_pct = ok_times[n - 11], 100.0 * (n - 10) / n
    else:  # no percentile has ten samples beyond it: report the slowest
        tail, tail_pct = (ok_times[-1] if ok_times else math.nan), 100.0
    return {
        "attempted": attempted, "failed": failed,
        "throughput_per_s": (attempted - failed) / wall,
        "latency_p50_s": statistics.median(ok_times) if ok_times else math.nan,
        "latency_tail_s": tail, "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "max_rel_err": max(errs) if errs else math.nan,
        "completed_ratio": (attempted - failed) / attempted,
        "failed_ratio": failed / attempted,
        "valuing_s": wall, "pace_factor": factor,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread (fewer than nproc), set before numpy loads; children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    reference = json.loads((HERE / "reference.json").read_text())
    tol = SMOKE_TOL if args.smoke else TOL
    if args.workload == "sweep-collateral":
        workload = SweepWorkload(args.seed, args.smoke, reference)
    else:
        workload = PointWorkload(args.workload, args.seed, args.smoke, reference)

    workload.warm_up()
    pace = Pace()
    records, passes = timed(workload, args.seconds, pace)
    checked = workload.check(records, tol)
    summary = summarize(checked, pace.factor())
    if args.trace == 0:
        setup_s, setup_raw_s = measure_setup(1 if args.smoke else SETUP_REPEATS)
        metrics = dict(summary, setup_s=setup_s, setup_raw_s=setup_raw_s,
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        reported = summary
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    else:  # the same passes again, traced
        import tracer
        traced_pace = Pace()
        with tracer.Tracer() as spans:
            traced, _ = timed(workload, 0.0, traced_pace, passes)
        traced_checked = workload.check(traced, tol)
        reported = summarize(traced_checked, traced_pace.factor())
        OUT.mkdir(exist_ok=True)
        spans.write(OUT / f"spans-{args.workload}.npz")
        result_metrics = spans.layer_metrics(
            reported["attempted"], reported["valuing_s"] / summary["valuing_s"],
            pauses=[(t0, t0 + dt) for t0, dt in zip(traced_pace.starts, traced_pace.times)])
        metrics = {"untraced": summary, "traced": reported}
        checked += traced_checked

    correct = not any(r["wrong"] for r in checked)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "unit": workload.unit,
              "passes": passes, "machine": machine(), "inputs": workload.tags,
              "reference": {"command": reference["command"], "grid": reference["grid"],
                            "lattice_crosscheck": reference["lattice_crosscheck"]},
              "tolerance": tol, "metrics": metrics, "checked": checked,
              "pace": {"c_ref_s": Pace.C_REF, "blocks_s": pace.times}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": reported["attempted"],
                      "failed": reported["failed"], "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
