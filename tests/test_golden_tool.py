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


@pytest.mark.parametrize("name", sorted(golden.POINT_POOLS))
def test_a_point_pool_reports_its_largest_difference_of_the_strike(
        tmp_path, capsys, name):
    """A point pool's file also reports its largest difference as a share
    of the draw's strike, which it reads by the row's id from the pool of
    ``bench/scenarios.py``, within the tolerance and beyond it; any other
    file has no such share."""
    strike = {d["id"]: d["strike"] for d in golden.pool_draws(name)}[12]
    left = {name: ["0,0.1,0.2", "12,3.0,4.0"]}
    right = {name: ["0,0.1,0.2", "12,3.0,4.001"]}
    share = f"{abs(4.001 - 4.0) / strike:.3g} of the draw's strike, at row 2 buyer"
    assert compare(tmp_path / "beyond", left, right, 1e-9) == 1
    assert capsys.readouterr().out.endswith(
        f" (largest difference 0.00025 of the cell, at row 2 buyer; {share})\n")
    assert compare(tmp_path / "within", left, right, 1e-2) == 0
    assert capsys.readouterr().out == (
        f"{name}: within 0.01 of the strike (largest difference 0.001; {share})\n")
    other = {"p.csv": left[name]}
    assert compare(tmp_path / "other", other, {"p.csv": right[name]}, 1e-2) == 0
    assert "strike" not in capsys.readouterr().out


def test_a_point_pool_is_judged_in_units_of_each_draws_strike(tmp_path, capsys):
    """In ``points-pde.csv`` a cell agrees within ``--tol`` times its draw's
    strike: a move of 2e-9 on draw 12 (strike 3,870) is within 1e-9 of it,
    one of 5e-11 on draw 46 (strike 0.0103) is not, and a row whose id the
    pool lacks agrees only where it is equal.  Any other file stays
    absolute."""
    name = "points-pde.csv"
    strikes = {d["id"]: d["strike"] for d in golden.pool_draws(name)}
    assert round(strikes[12]) == 3870 and round(strikes[46], 4) == 0.0103
    left = {name: ["12,170.0,-214.0", "46,0.001,0.002"]}
    large = {name: ["12,170.000000002,-214.0", "46,0.001,0.002"]}
    assert compare(tmp_path / "large", left, large, 1e-9) == 0
    assert capsys.readouterr().out.startswith(
        f"{name}: within 1e-09 of the strike (largest difference 2e-09; ")
    small = {name: ["12,170.0,-214.0", "46,0.00100000005,0.002"]}
    assert compare(tmp_path / "small", left, small, 1e-9) == 1
    assert capsys.readouterr().out.startswith(
        f"{name}: 1 cell(s) beyond 1e-09 of the strike: row 2 seller: ")
    unknown = {name: ["1000,0.1,0.2"] + large[name]}
    assert compare(tmp_path / "equal", {name: ["1000,0.1,0.2"] + left[name]},
                   unknown, 1e-9) == 0
    assert compare(tmp_path / "unknown", unknown,
                   {name: ["1000,0.1,0.2000000000001"] + large[name]}, 1e-3) == 1
    assert compare(tmp_path / "absolute", {"p.csv": left[name]},
                   {"p.csv": large[name]}, 1e-9) == 1


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path, capsys):
    """``lines`` counts every line of a directory's Python files, and as code
    only those with a token that is not a comment, outside docstrings; a
    string that is not a statement is code, over every line it spans."""
    source = '''"""Module docstring
over two lines."""

import math  # a comment on a code line

TEXT = """a string
that is code"""


def f(x):
    """One line."""
    # a comment alone
    return (x
            + 1)
'''
    assert golden.code_lines(source) == 6
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "c.txt").write_text("not python\n")
    assert golden.main(["lines", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "15 / 7\n"
