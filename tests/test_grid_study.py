"""``tools/grid_study.py``: the PDE's errors and Picard iterations per draw."""

import importlib.util
import json
from pathlib import Path

from conftest import TIME_KEYS, record_keys

TOOL = Path(__file__).resolve().parent.parent / "tools" / "grid_study.py"
_spec = importlib.util.spec_from_file_location("grid_study", TOOL)
study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(study)


def test_small_study_writes_every_draw_and_the_sweep(tmp_path, study_env):
    out = tmp_path / "BENCH_grid.json"
    assert study.main(["--grids", "40x10", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert not record_keys(record) & TIME_KEYS
    assert {"python", "numpy", "blas_threads"} <= set(record["machine"])
    grid, = record["grids"]
    assert (grid["nx"], grid["nt"]) == (40, 10)
    assert grid["time_grading"]["exponent"] == 1.5
    points = grid["points"]
    assert points["draws"] == points["completed"] == len(points["rows"]) == 48
    for row in points["rows"]:
        assert 0.0 <= row["error"] <= points["worst_error"]
        assert row["picard_iterations"] >= 10  # one or more per step
    assert points["picard_iterations"] == sum(
        row["picard_iterations"] for row in points["rows"])
    # the symmetric draws have both legs linear, the asymmetric ones neither
    legs = [row["linear_legs"] for row in points["rows"]]
    assert points["linear_legs"] == {
        name: sum(leg[name] for leg in legs) for name in ("repo", "funding")
    } | {"both": sum(leg["repo"] and leg["funding"] for leg in legs)}
    assert 0 < points["linear_legs"]["both"] < 48
    assert points["linear_legs"]["repo"] == points["linear_legs"]["both"]
    assert points["linear_legs"]["funding"] == points["linear_legs"]["both"]
    sweep = grid["sweep"]
    assert sweep["scenarios"] == 42
    assert 0.0 <= sweep["error"] < 1e-3 and sweep["picard_iterations"] >= 10
    # repo 0.05 / 0.05 in every scenario, two funding borrow rates
    assert sweep["linear_legs"] == {"repo": True, "funding": False}

