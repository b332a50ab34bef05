"""The Funk metric of a disk: an x-dependent, non-Riemannian test input.

Each fixture is degenerate in some way (euclidean has a constant omega,
riemannian-exp is Riemannian, randers-0.3 does not depend on x), so no
fixture has every block of omega and h0 nonzero and x-dependent.  The Funk
metric of the disk of radius R has, with s = 1 - |x|^2 / R^2:

    Theta = (sqrt(s |y|^2 / R^2 + <x,y>^2 / R^4) + <x,y> / R^2) / s,
    E = Theta^2 / 2.

It satisfies Theta_{x^k} = Theta Theta_{y^k}, so it is projectively flat with
G^i = Theta y^i / 2: S0 = (y, -Theta y), and the lower left block of h0's
matrix is -G^i_j = -(Theta_{y^j} y^i + Theta delta^i_j) / 2 (Chern & Shen,
*Riemann-Finsler Geometry*, 2005; Shen, *Differential Geometry of Spray and
Finsler Spaces*, 2001).  R = 3 puts the base box [-1, 1]^n inside the disk.
It is a test input, not a fixture: the report keeps its three fixtures.
"""

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.checks import CheckContext, list_checks
from finslerlab.core import PointBatch, ScalarField, grid_coords, point, sample_slit_points
from finslerlab.errors import FinslerLabError
from finslerlab.finsler import berwald_connection, canonical_spray, validate_finsler

R = 3.0


def funk_energy(n, radius=R):
    """E = Theta^2 / 2, written with ``jets.sqrt`` and products only; the
    radius may be an ``mpmath.mpf`` (``tests/test_precision.py``)."""
    def ev(z):
        x, y = z[:n], z[n:]
        s = 1.0 - sum(a * a for a in x) / (radius * radius)
        p = sum(a * b for a, b in zip(x, y)) / (radius * radius)
        theta = (jets.sqrt(s * sum(b * b for b in y) / (radius * radius) + p * p) + p) / s
        return 0.5 * theta * theta

    return ScalarField(ev, n, "E_funk")


def funk(grid, n, radius=R):
    return validate_finsler(funk_energy(n, radius), grid, n=n, name="funk")


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
    F = funk(grid, n)
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


def funk_cells(seed, samples, checks=None):
    """``(check, residual, note, passed)`` of the runners on Funk at n = 2, as
    ``run_checks`` runs them on a fixture: on the grid as one batch point,
    every cell reading the objects kept on one structure, a raise recorded as
    inf."""
    grid = (PointBatch(sample_slit_points(2, samples, seed)),)
    F = funk(grid, 2)
    out = []
    for spec in list_checks(checks):
        ctx = CheckContext(grid=grid, seed=seed, tol=spec.tolerance)
        try:
            outcome = spec.runner(F, ctx)
            residual, note = float(outcome.max_residual), outcome.note
        except FinslerLabError as e:
            residual, note = float("inf"), f"{type(e).__name__}: {e}"
        out.append((spec.id, residual, note, residual < spec.tolerance))
    return out


@pytest.mark.parametrize("seed", [42, 7])
def test_every_runner_passes_on_funk(seed):
    cells = funk_cells(seed, 32)
    assert len(cells) == 16
    assert all(passed for _, _, _, passed in cells), cells
    notes = {check: note for check, _, note, _ in cells if note is not None}
    assert set(notes) == {"CHK-10", "CHK-13"}
    assert notes["CHK-10"].startswith("HypothesisFailure (expected) for E-dy1")
    assert notes["CHK-13"] == "DegenerateDegree (expected) for r=-1"
