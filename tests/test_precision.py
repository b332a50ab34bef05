"""A precision oracle: every identity must vanish at 40 digits, not only at 16.

The tolerances and ``HEADROOM`` are absolute bounds, so they cannot tell
rounding from a small defect: a relative error of 1e-14 in omega passes
both.  Run at 40 digits instead, and the two part.  Rounding shrinks with the
unit roundoff, and a defect does not (Kahan, "How Futile are Mindless
Assessments of Roundoff in Floating-Point Computation?", 2006).

Under ``mpmath.workdps(40)``, ``jets.LIBM`` is swapped to mpmath's elementary
functions, and all 16 runners run on one ``TangentPoint`` with mpf
coordinates, on the three fixtures and on the Funk metric.  Such a point has
no memo key, so every point memo is bypassed; conditioning runs in double
(``finsler._omega_entry``) and residuals are floats
(``calculus.sup_abs``).  Every cell read at most 1.4e-40 when BOUND was set,
and BOUND moves only the way a tolerance moves.  CHK-01 evaluates the grid at
its own coordinates (``core.grid_coords``), so it runs at 40 digits too.
Batch points are not covered at mpf precision: a batch is a float array, and
its sqrt is ``np.sqrt``.
"""

import math

import mpmath
import pytest

from finslerlab import finsler, jets
from finslerlab.checks import CheckContext, list_checks
from finslerlab.core import ScalarField, TangentPoint
from finslerlab.errors import FinslerLabError, NondegeneracyFailure
from finslerlab.finsler import (
    FinslerStructure, energy_axioms_residual, finsler_fixture, fixture_energy, fixture_ids,
)
from test_funk import funk
from test_mutants import patch

BOUND = 1e-30
COORDS = ("0.3", "-0.2", "0.7", "-0.4")


@pytest.fixture
def grid(monkeypatch):
    """The one-point grid at 40 digits, with mpmath's elementary functions."""
    with mpmath.workdps(40):
        for name in list(jets.LIBM):
            monkeypatch.setitem(jets.LIBM, name, getattr(mpmath, name))
        base, fiber = map(mpmath.mpf, COORDS[:2]), map(mpmath.mpf, COORDS[2:])
        yield (TangentPoint(tuple(base), tuple(fiber)),)


def residuals(F, grid, checks=None):
    """Each runner's residual on F at the grid, a raise read as inf."""
    out = {}
    for spec in list_checks(checks):
        try:
            ctx = CheckContext(grid=grid, seed=42, tol=spec.tolerance)
            out[spec.id] = float(spec.runner(F, ctx).max_residual)
        except FinslerLabError:
            out[spec.id] = math.inf
    return out


def structure(name, grid):
    # Funk's radius is an mpf: with R = 3.0, <x, y> / (R * R) forms its
    # second-order jet part from the float 1.0 / 9.0, and CHK-02 reads about
    # 3e-20 at any precision (test_a_float_radius_keeps_double_rounding)
    return funk(grid, 2, mpmath.mpf(3)) if name == "funk" else finsler_fixture(name, grid)


@pytest.mark.parametrize("name", fixture_ids() + ["funk"])
def test_every_cell_vanishes_at_40_digits(name, grid):
    cells = residuals(structure(name, grid), grid)
    assert len(cells) == 16
    assert {c: r for c, r in cells.items() if not r <= BOUND} == {}


def test_a_non_finite_omega_at_an_mpf_point_is_a_typed_failure(grid):
    F = finsler_fixture("randers-0.3", grid)
    z = grid[0].coords()
    z[2] = mpmath.mpf("nan")
    with pytest.raises(NondegeneracyFailure, match="not finite"):
        F.shared_omega_at(z)


@pytest.mark.parametrize("name", fixture_ids())
def test_the_energy_axioms_run_at_the_precision_of_the_point(name, grid):
    # a 1-homogeneous defect of 1e-20 y1, which double rounding hides:
    # 1.0 + 1e-20 y1 is 1.0 in double; CE - 2E is -1e-20 y1 = -7e-21 here
    E = fixture_energy(name)
    defect = ScalarField(lambda z: E.fn(z) + ((1.0 + 1e-20 * z[2]) - 1.0), 2, "E + 1e-20 y1")
    F = FinslerStructure(defect, 2, grid)  # validation's 1e-9 passes the defect
    assert BOUND < energy_axioms_residual(F, grid) < 1e-20
    assert residuals(F, grid, ["CHK-01"])["CHK-01"] == energy_axioms_residual(F, grid)


def test_a_float_radius_keeps_double_rounding(grid):
    assert residuals(funk(grid, 2, 3.0), grid, ["CHK-02"])["CHK-02"] > BOUND


# the cells that the g-scaling mutants move, on every fixture: at 1e-14
# they read 3.5e-15 to 4.9e-14, as at 16 digits, and far above BOUND
SCALED_G_CELLS = {f"CHK-{i:02d}" for i in (5, 6, 7, 8, 9, 10, 12, 13, 15, 16)}


@pytest.mark.parametrize("eps", ["1e-14", "1e-13"])
def test_g_scaled_by_one_plus_eps_is_caught(eps, grid, monkeypatch):
    patch(monkeypatch, finsler, "omega_and_dE", "g = h[n + i][j] if i <= j else h[n + j][i]",
          f"g = (h[n + i][j] if i <= j else h[n + j][i]) * (1.0 + {eps})")
    cells = residuals(finsler_fixture("riemannian-exp", grid), grid)
    assert {c for c, r in cells.items() if not r <= BOUND} == SCALED_G_CELLS
