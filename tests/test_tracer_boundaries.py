"""The names that the benchmark's tracer wraps exist, with the arguments it reads.

``bench/tracer.py`` wraps the layer boundaries of xvaband by name and reads
some of their arguments by position, so a rename or a reordered signature
breaks only a traced benchmark run (``--trace 1``).  The tracer is run from
its file, read only, and its table of boundaries checked against the library.
"""

import inspect
import runpy
from pathlib import Path

import pytest

from xvaband import claims, drivers, lattice, pde
from conftest import make_benchmark

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    return runpy.run_path(str(TRACER))


def test_every_boundary_exists(tracer):
    for owner, attr, span_name in tracer["BOUNDARIES"]:
        assert attr in owner.__dict__, span_name


@pytest.mark.parametrize("fn, position, name", [
    (pde.solve_banded, 2, "b"),
    (drivers.reduced_drift, 3, "u"),
    (lattice.solve_reduced, 2, "n_steps"),
    (claims.agent_value_grid, 2, "t"),
    (claims.agent_value_grid, 3, "s"),
])
def test_arguments_read_by_position(fn, position, name):
    assert list(inspect.signature(fn).parameters)[position] == name


def test_banded_solves_see_block_columns(monkeypatch):
    """The tracer counts ``b.shape[1]`` as the columns of one banded solve:
    a batch march hands it the (nx, k) transpose of its live rows."""
    models = [make_benchmark(alpha=a) for a in (0.0, 0.5, 0.9)]
    claim = claims.ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    grid = pde.PdeGrid.default_for(models[0], claim, nx=40, nt=10)
    shapes = []
    solve_banded = pde.solve_banded

    def recording(stepper, coef, b, **options):
        shapes.append(b.shape)
        return solve_banded(stepper, coef, b, **options)

    monkeypatch.setattr(pde, "solve_banded", recording)
    pde.solve_batch(models, claim, grid)
    blocks = [shape for shape in shapes if len(shape) == 2]
    assert blocks
    assert all(nx == grid.nx and 1 <= k <= 6 for nx, k in blocks)
