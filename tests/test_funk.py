"""The Funk metric of a disk (``tests/energies.py``) against its closed form.

Funk satisfies Theta_{x^k} = Theta Theta_{y^k}, so it is projectively flat
with G^i = Theta y^i / 2: S0 = (y, -Theta y), and the lower left block of
h0's matrix is -G^i_j = -(Theta_{y^j} y^i + Theta delta^i_j) / 2 (Chern &
Shen, *Riemann-Finsler Geometry*, 2005; Shen, *Differential Geometry of Spray
and Finsler Spaces*, 2001).
"""

import numpy as np
import pytest

from finslerlab.core import grid_coords, point, sample_slit_points
from finslerlab.finsler import berwald_connection, canonical_spray

import energies

R = energies.FUNK_RADIUS


def _theta_and_dy(z, n):
    """Theta and its fiber derivatives Theta_{y^j} in closed form, on floats or batches."""
    x, y = z[:n], z[n:]
    s = 1.0 - sum(a * a for a in x) / (R * R)
    p = sum(a * b for a, b in zip(x, y)) / (R * R)
    root = np.sqrt(s * sum(b * b for b in y) / (R * R) + p * p)
    theta = (root + p) / s
    return theta, [((s * y[j] + p * x[j]) / (R * R * root) + x[j] / (R * R)) / s
                   for j in range(n)]


def _relative_error(actual, expected):
    """max |actual - expected| / max |expected| over values of floats and batches."""
    values = np.broadcast_arrays(*actual, *expected)
    a, e = np.array(values[:len(actual)]), np.array(values[len(actual):])
    return np.abs(a - e).max() / np.abs(e).max()


@pytest.mark.parametrize("n", [2, 3])
def test_spray_and_berwald_block_match_the_closed_form(n):
    grid = sample_slit_points(n, 8, seed=42)
    F = energies.structure("funk", grid, n)
    z0 = point(*([0.4, -0.7, 0.2][:n] + [0.9, 0.3, -0.6][:n])).coords()
    for z in (z0, grid_coords(grid)):   # a float point and a batch point
        theta, theta_y = _theta_and_dy(z, n)
        s0 = canonical_spray(F)(z)
        y = z[n:]
        assert _relative_error(s0, list(y) + [-theta * c for c in y]) < 1e-12
        m = berwald_connection(F).matrix(z)
        block = [m[n + i][j] for i in range(n) for j in range(n)]
        expected = [-(theta_y[j] * y[i] + (theta if i == j else 0.0)) / 2.0
                    for i in range(n) for j in range(n)]
        assert _relative_error(block, expected) < 1e-12


@pytest.mark.parametrize("seed", [42, 7])
def test_every_runner_passes_on_funk(seed):
    grid = sample_slit_points(2, 32, seed)
    cells = energies.cells(energies.structure("funk", grid), grid, seed)
    assert len(cells) == 16
    assert all(passed for _, _, _, passed in cells), cells
    assert energies.expected_notes(cells), cells
