"""Smoke tests of the benchmark itself (40 x 40 grid, 50 lattice steps).

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert got["value"] >= 0  # pauses taken out of spans at most once


def test_a_failed_valuation_is_counted_not_dropped():
    run.import_program()
    reference = json.loads((HERE / "reference.json").read_text())
    workload = run.PointWorkload("point-lattice", 0, True, reference)
    workload.numerics["steps"] = 0  # solve_reduced raises ValueError on every draw
    records = workload.one_pass(run.Pace())
    summary = run.summarize(workload.check(records, run.SMOKE_TOL), 1.0)
    assert summary["attempted"] == len(workload.draws)
    assert summary["failed"] == len(workload.draws)
    assert summary["completed_ratio"] == 0.0
    assert summary["throughput_per_s"] == 0.0


def test_pace_refuses_to_scale_from_no_blocks():
    with pytest.raises(RuntimeError, match="no calibration block"):
        run.Pace().factor()


def test_sweep_blocks_do_not_depend_on_the_program_calls():
    pace = run.Pace()
    with pace.on_timer(0.05) as taken:
        end = run.time.perf_counter() + 0.3
        while run.time.perf_counter() < end:  # no xvaband call in here
            pass
    assert len(taken) >= 2 and len(pace.times) == len(taken)


@pytest.mark.parametrize("cell", ["", "nan", "x"])
def test_a_malformed_sweep_csv_is_wrong_not_a_crash(cell):
    run.import_program()
    reference = json.loads((HERE / "reference.json").read_text())
    workload = run.SweepWorkload(3, True, reference)
    rows = [["alpha"] + [f"{col}_rb{rb:g}" for rb in (0.08, 0.15)
                         for col in ("xva_buyer", "xva_seller", "width", "stock",
                                     "bond_own", "bond_cpty")]]
    rows += [[f"{a:g}"] + ["0.0"] * 12 for a in sorted({a for a, _ in workload.cells})]
    rows[3] = rows[3][:-1] + [cell] if cell else rows[3][:-1]
    text = "\n".join(",".join(r) for r in rows) + "\n"
    row = workload.check([{"s": 1.0, "code": 0, "csv": text}], run.SMOKE_TOL)[0]
    assert row["wrong"] == row["failed"] == len(workload.cells)
    assert row["why"]
