"""``tools/golden.py compare``: the gate that golden CSV output is unchanged."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

HEADER = "id,seller,buyer"


def write(directory: Path, files: dict[str, list[str]]) -> Path:
    directory.mkdir(parents=True)
    for name, rows in files.items():
        (directory / name).write_text("\n".join([HEADER] + rows) + "\n")
    return directory


def compare(tmp_path, left, right, tol):
    a = write(tmp_path / "a", left)
    b = write(tmp_path / "b", right)
    return golden.main(["compare", str(a), str(b), "--tol", repr(tol)])


def test_identical_files_pass_at_zero_tolerance(tmp_path, capsys):
    files = {"p.csv": ["0,0.1,0.2", "1,NumericsError,NumericsError"]}
    assert compare(tmp_path, files, files, 0.0) == 0
    assert capsys.readouterr().out == "p.csv: identical\n"


def test_files_within_tolerance_pass(tmp_path, capsys):
    left = {"p.csv": ["0,0.1,0.2"]}
    right = {"p.csv": ["0,0.1000000000004,0.2"]}
    assert compare(tmp_path, left, right, 1e-9) == 0
    assert "within 1e-09 (largest difference 4e-13)" in capsys.readouterr().out


def test_files_beyond_tolerance_fail(tmp_path, capsys):
    left = {"p.csv": ["0,0.1,0.2"]}
    right = {"p.csv": ["0,0.1,0.2000001"]}
    assert compare(tmp_path, left, right, 1e-9) == 1
    assert "1 cell(s) beyond 1e-09: row 1 buyer: 0.2 vs 0.2000001" \
        in capsys.readouterr().out
    last_bit = {"p.csv": ["0,0.1,0.20000000000000004"]}
    assert compare(tmp_path / "last-bit", left, last_bit, 0.0) == 1


def test_a_failing_file_names_its_largest_difference_of_the_cell(tmp_path,
                                                                 capsys):
    """Beyond the tolerance, a file also reports its largest difference
    relative to the cell, the larger magnitude of the two, and where; an
    error class against a number has none, and the exit status is 1."""
    left = {"p.csv": ["0,0.1,200.0", "1,0.3,NumericsError"]}
    right = {"p.csv": ["0,0.1000001,200.0001", "1,0.3,0.4"]}
    assert compare(tmp_path, left, right, 1e-9) == 1
    out = capsys.readouterr().out
    assert out.startswith("p.csv: 3 cell(s) beyond 1e-09: row 1 seller: ")
    assert out.endswith(" (largest difference 1e-06 of the cell, "
                        "at row 1 seller)\n")
    errors = {"p.csv": ["0,NumericsError,0.2"]}
    assert compare(tmp_path / "errors", errors, {"p.csv": ["0,0.1,0.2"]},
                   1e-9) == 1
    assert "of the cell" not in capsys.readouterr().out


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e300, math.inf])
def test_value_against_error_class_fails_at_any_tolerance(tmp_path, tol):
    left = {"p.csv": ["0,0.1,0.2"]}
    right = {"p.csv": ["0,NumericsError,NumericsError"]}
    assert compare(tmp_path, left, right, tol) == 1


def test_nan_agrees_with_nan_only(tmp_path):
    nan = {"p.csv": ["0,nan,0.2"]}
    assert compare(tmp_path / "same", nan, {"p.csv": ["0,NaN,0.2"]}, 0.0) == 0
    assert compare(tmp_path / "other", nan, {"p.csv": ["0,0.1,0.2"]}, 1e300) == 1


def test_missing_file_exits_1(tmp_path, capsys):
    both = {"p.csv": ["0,0.1,0.2"]}
    assert compare(tmp_path, both | {"q.csv": ["0,1,2"]}, both, 1e300) == 1
    assert f"q.csv: only in {tmp_path / 'a'}" in capsys.readouterr().out


def test_empty_directories_fail(tmp_path):
    assert compare(tmp_path, {}, {}, 0.0) == 1
