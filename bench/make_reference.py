"""Compute the stored oracle for asymmetric-rate scenarios: bench/reference.json.

Asymmetric rates have no closed form, so the reference is the PDE engine on a
grid refined 4x in each axis (1600 x 1600) against the CLI default of
400 x 400.  Each reference is cross-checked against the 2000-step lattice
wherever the lattice converges on a vanilla claim; the worst disagreement is
stored beside the values.  Takes about five minutes on one core:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import scenarios  # noqa: E402
from xvaband import NumericsError, cli, drivers, lattice  # noqa: E402

REF_NX = REF_NT = 1600
LATTICE_STEPS = 2000
COMMAND = "python3 bench/make_reference.py"


def refined(model, claim) -> tuple[float, float]:
    res = cli.evaluate_point(model, claim, "pde", nx=REF_NX, nt=REF_NT)[0]
    return res.xva_seller, res.xva_buyer


def lattice_gap(model, claim, ref) -> float | None:
    """Worst |lattice - reference| / strike over both sides, None if the lattice fails."""
    if claim.kind == "custom":
        return None  # quad at every lattice node: hours per valuation
    try:
        seller = lattice.solve_reduced(model, claim, LATTICE_STEPS,
                                       side=drivers.SELLER).adjustment
        buyer = lattice.solve_reduced(model, claim, LATTICE_STEPS,
                                      side=drivers.BUYER).adjustment
    except NumericsError:
        return None
    return max(abs(seller - ref[0]), abs(buyer - ref[1])) / claim.strike


def point_references(vanilla_only: bool, size: int, gaps: list) -> list[dict]:
    out = []
    for sc in scenarios.draw_points(scenarios.POOL_SEED, size, vanilla_only):
        if sc["regime"] != "asymmetric":
            continue
        model, claim = scenarios.build(sc)
        ref = refined(model, claim)
        gap = lattice_gap(model, claim, ref)
        if gap is not None:
            gaps.append(gap)
        out.append({"id": sc["id"], "spot": sc["spot"], "strike": sc["strike"],
                    "seller": ref[0], "buyer": ref[1], "lattice_gap": gap})
        print(f"  draw {sc['id']}: seller {ref[0]:.10g} buyer {ref[1]:.10g} "
              f"lattice gap {gap}", flush=True)
    return out


def sweep_references(gaps: list) -> list[dict]:
    base = cli.figure_config("band-vs-collateral")
    out = []
    for alpha, fund_borrow in scenarios.sweep_cells():
        model = scenarios.with_alpha_borrow(base.model, alpha, fund_borrow)
        ref = refined(model, base.claim)
        gap = lattice_gap(model, base.claim, ref)
        if gap is not None:
            gaps.append(gap)
        out.append({"alpha": alpha, "fund_borrow": fund_borrow,
                    "seller": ref[0], "buyer": ref[1], "lattice_gap": gap})
        print(f"  alpha {alpha:g} rb {fund_borrow:g}: seller {ref[0]:.10g} "
              f"buyer {ref[1]:.10g} lattice gap {gap}", flush=True)
    return out


def main() -> int:
    start = time.perf_counter()
    gaps: list = []
    doc = {"command": COMMAND, "grid": {"nx": REF_NX, "nt": REF_NT},
           "lattice_steps": LATTICE_STEPS, "pool_seed": scenarios.POOL_SEED}
    print("sweep-collateral (unit scale):", flush=True)
    doc["sweep-collateral"] = sweep_references(gaps)
    print("point-pde:", flush=True)
    doc["point-pde"] = point_references(False, scenarios.PDE_POOL, gaps)
    print("point-lattice:", flush=True)
    doc["point-lattice"] = point_references(True, scenarios.LATTICE_POOL, gaps)
    doc["lattice_crosscheck"] = {"converged": len(gaps),
                                 "max_rel_gap": max(gaps) if gaps else math.nan}
    doc["seconds"] = time.perf_counter() - start
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote bench/reference.json in {doc['seconds']:.0f} s; lattice "
          f"cross-check on {len(gaps)} scenarios, worst gap "
          f"{doc['lattice_crosscheck']['max_rel_gap']:.3g} of strike")
    return 0


if __name__ == "__main__":
    sys.exit(main())
