"""The energies that the trust tests run on, in one table: adding an energy is one entry.

A test that runs on every energy parametrizes over ``IDS`` and builds each with
``structure``; a test of the 16 runners reads ``cells``, which runs each cell as
``finslerlab check`` does (``checks.run_cell``).  Each fixture is degenerate in
some way (euclidean has a constant omega, riemannian-exp is Riemannian,
randers-0.3 does not depend on x), so the table also holds the Funk metric of
the disk of radius R = 3, a test input with every block of omega and h0 nonzero
and x-dependent on the base box [-1, 1]^n.  With s = 1 - |x|^2 / R^2,

    Theta = (sqrt(s |y|^2 / R^2 + <x,y>^2 / R^4) + <x,y> / R^2) / s,   E = Theta^2 / 2.
"""

from collections import namedtuple
from functools import partial

import mpmath

from finslerlab import jets
from finslerlab.checks import CheckContext, list_checks, run_cell
from finslerlab.core import ScalarField
from finslerlab.finsler import fixture_energy, validate_finsler

FUNK_RADIUS = 3.0


def funk_energy(n, radius=FUNK_RADIUS):
    """E = Theta^2 / 2, with ``jets.sqrt`` and products only; the radius may be an mpf."""
    def ev(z):
        x, y = z[:n], z[n:]
        s = 1.0 - sum(a * a for a in x) / (radius * radius)
        p = sum(a * b for a, b in zip(x, y)) / (radius * radius)
        theta = (jets.sqrt(s * sum(b * b for b in y) / (radius * radius) + p * p) + p) / s
        return 0.5 * theta * theta

    return ScalarField(ev, n, "E_funk")


# build(n) is the energy at n; riemannian, that its g does not depend on y;
# exact(n), the energy with exact constants, where build's are not
Energy = namedtuple("Energy", "build riemannian exact", defaults=[None])
ENERGIES = {
    "euclidean": Energy(partial(fixture_energy, "euclidean"), riemannian=True),
    "riemannian-exp": Energy(partial(fixture_energy, "riemannian-exp"), riemannian=True),
    "randers-0.3": Energy(partial(fixture_energy, "randers-0.3"), riemannian=False),
    # at R = 3.0, <x, y> / (R * R) forms its second-order jet part from the float
    # 1.0 / 9.0 (test_precision.py::test_a_float_radius_keeps_double_rounding)
    "funk": Energy(funk_energy, riemannian=False, exact=lambda n: funk_energy(n, mpmath.mpf(3))),
}
IDS = list(ENERGIES)


def structure(eid, grid, n=2, exact=False):
    """The energy ``eid`` at n, validated on the grid as a fixture is; ``exact``
    builds it with its exact constants, for runs at 40 digits."""
    entry = ENERGIES[eid]
    return validate_finsler((entry.exact if exact and entry.exact else entry.build)(n),
                            grid, n=n, name=eid)


def cells(F, grid, seed, checks=None):
    """``(check, residual, note, passed)`` of the runners on F at the grid,
    each cell run as ``run_checks`` runs it, on the objects kept on F."""
    out = []
    for spec in list_checks(checks):
        residual, note = run_cell(spec, F, CheckContext(grid=grid, seed=seed, tol=spec.tolerance))
        out.append((spec.id, residual, note, residual < spec.tolerance))
    return out


def expected_notes(cell_list):
    """Whether only the expected errors of CHK-10 (E d/dy1 is not conservative)
    and CHK-13 (r = -1 is a degenerate degree) leave a note, as on every energy."""
    notes = {check: note for check, _, note, _ in cell_list if note is not None}
    return notes.keys() == {"CHK-10", "CHK-13"} \
        and notes["CHK-10"].startswith("HypothesisFailure (expected) for E-dy1: residual ") \
        and notes["CHK-13"] == "DegenerateDegree (expected) for r=-1"
