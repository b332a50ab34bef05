"""Precision sentinel: every cell reads at machine precision, not just below tolerance.

The declared tolerances (1e-9 for constructions, 1e-8 for theorems, 1e-7 for
d_h omega) sit five to seven orders of magnitude above what the cells read,
so a wrong value that is merely small, such as a relative error of 1e-11 in
omega, passes every one of them.  HEADROOM bounds the residual of every
runner on every energy of ``tests/energies.py``, the default cells and Funk's,
at the seeds below; the worst of them reads about 2e-14.  A change that moves
a residual above it is a defect or a loss of precision, and the bound moves
only with a measurement that explains it.
"""

import pytest

from finslerlab.core import sample_slit_points

import energies

HEADROOM = 1e-12
SEEDS = (42, 7, 11)
SAMPLES = 32


def cells(seed, samples=SAMPLES):
    """``(cell, max_residual, passed)`` of every runner on every energy, each
    run as ``finslerlab check`` runs a fixture's cells."""
    grid = sample_slit_points(2, samples, seed)
    return [(f"{check}/{eid}", residual, passed) for eid in energies.IDS
            for check, residual, _, passed
            in energies.cells(energies.structure(eid, grid), grid, seed)]


def above_headroom(cell_list):
    """The cells whose residual is not at most HEADROOM (a NaN is not)."""
    return [(cell, residual) for cell, residual, _ in cell_list if not residual <= HEADROOM]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_cell_reads_below_the_headroom(seed):
    cell_list = cells(seed)
    assert len(cell_list) == 16 * len(energies.IDS)
    assert above_headroom(cell_list) == []
