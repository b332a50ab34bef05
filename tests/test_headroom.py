"""Precision sentinel: every cell reads at machine precision, not just below tolerance.

The declared tolerances (1e-9 for constructions, 1e-8 for theorems, 1e-7 for
d_h omega) sit five to seven orders of magnitude above what the cells read,
so a wrong value that is merely small, such as a relative error of 1e-11 in
omega, passes every one of them.  HEADROOM bounds the residual of every
default cell and of every runner on the Funk metric (``test_funk.funk_cells``)
at the seeds below; the worst of them reads about 2e-14.  A change that moves
a residual above it is a defect or a loss of precision, and the bound moves
only with a measurement that explains it.
"""

import pytest

from finslerlab.checks import run_checks
from finslerlab.config import RunConfig
from test_funk import funk_cells

HEADROOM = 1e-12
SEEDS = (42, 7, 11)
SAMPLES = 32


def cells(seed, samples=SAMPLES):
    """``(cell, max_residual, passed)`` of every default cell and every Funk cell."""
    results, _ = run_checks(RunConfig(seed=seed, samples=samples))
    return [(f"{r.id}/{r.fixture}", r.max_residual, r.passed) for r in results] \
        + [(f"{c}/funk", residual, passed) for c, residual, _, passed in funk_cells(seed, samples)]


def above_headroom(cell_list):
    """The cells whose residual is not at most HEADROOM (a NaN is not)."""
    return [(cell, residual) for cell, residual, _ in cell_list if not residual <= HEADROOM]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_cell_reads_below_the_headroom(seed):
    cell_list = cells(seed)
    assert len(cell_list) == 16 * 3 + 16
    assert above_headroom(cell_list) == []
