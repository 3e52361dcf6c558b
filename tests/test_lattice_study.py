"""``tools/lattice_study.py``: the lattice's error, residuals and nodes per draw."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from conftest import TIME_KEYS, record_keys
from xvaband import lattice

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lattice_study.py"
_spec = importlib.util.spec_from_file_location("lattice_study", TOOL)
study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(study)


def test_small_study_writes_every_draw(tmp_path, study_env):
    out = tmp_path / "BENCH_lattice.json"
    assert study.main(["--steps", "20", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["steps"] == [20, 10, 5]
    assert record["converged_steps"] == study.CONVERGED_REFINE * 20
    assert not record_keys(record) & TIME_KEYS
    assert record["block_row_nodes"] == lattice.BLOCK_ROW_NODES
    assert {"python", "numpy", "blas_threads"} <= set(record["machine"])
    points = record["points"]
    assert points["draws"] == points["completed"] == len(points["rows"]) == 30
    for row in points["rows"]:
        assert 0.0 <= row["error"] <= points["worst_error"]
        assert 0.0 <= row["converged_error"] <= points["worst_converged_error"]
        assert 0.0 <= row["worst_residual_ulps"] <= lattice.ROOT_ULPS
        assert (0.0 <= row["worst_plain_residual_ulps"]
                <= row["worst_residual_ulps"])
    assert points["worst_plain_residual_ulps"] == max(
        row["worst_plain_residual_ulps"] for row in points["rows"])
    assert points["median_converged_error"] == np.median(
        [row["converged_error"] for row in points["rows"]])
    # no level below 65 is pruned: each lattice keeps its whole tree
    assert {row["nodes"] for row in points["rows"]} == {210 + 55 + 15}
    assert points["nodes"] == 30 * (210 + 55 + 15)
    assert points["kept_share"] == 1.0
    assert record["prune_sd"] == lattice.PRUNE_SD


def test_a_draw_reads_its_residuals_and_converged_error(study_env):
    _, scenarios = study.load_bench()
    draws = scenarios.draw_points(scenarios.POOL_SEED, scenarios.LATTICE_POOL,
                                  True)
    for draw in (draws[0], draws[3]):  # an asymmetric put and call
        model, claim = scenarios.build(draw)
        res, fields = study.value_lattice(model, claim, 20, 40)
        assert 0.0 <= fields["worst_residual_ulps"] <= lattice.ROOT_ULPS
        converged, = lattice.solve_extrapolated([model], claim, 40)
        assert fields["converged_error"] == max(
            abs(res.xva_seller - converged[0].adjustment),
            abs(res.xva_buyer - converged[1].adjustment)) / claim.strike


def test_pruned_nodes_keep_eight_deviations():
    # every node of the first 65 levels lies within 8 sd (8 sqrt(k) >= k)
    assert study.kept_nodes(65, 1.0, 0.25) == 65 * 66 // 2
    # level 100 at dt = 0.01 keeps -80 <= 2j - 100 <= 80 + 0.25 * 100 * 0.1:
    # j = 10 .. 91, one node more above than a cut symmetric about the spot
    assert study.kept_nodes(101, 1.01, 0.25) - study.kept_nodes(
        100, 1.0, 0.25) == 82


def test_residuals_report_the_plain_scale_apart():
    # levels checked on the widened scale count for the worst residual only
    def solution(residuals, widened):
        return SimpleNamespace(root_residuals=np.array(residuals),
                               root_widened=np.array(widened))

    solutions = [solution([8.0, 3.0, 5.0], [True, False, False]),
                 solution([2.0, 8.0], [False, True]),
                 solution([8.0], [True])]
    assert study.residuals(solutions) == (8.0, 5.0)
