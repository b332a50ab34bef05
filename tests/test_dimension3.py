"""Dimension-genericity: the calculus must not bake in n = 2."""

import pytest

from finslerlab.calculus import (
    fn_bracket, frame_vector, liouville_field, vertical_endomorphism,
)
from finslerlab.core import ScalarField, point, sample_slit_points
from finslerlab.errors import NondegeneracyFailure
from finslerlab.finsler import (
    FinslerStructure, berwald_connection, canonical_spray, finsler_fixture, fixture_ids,
    projector_residual, sharp, validate_finsler,
)
from finslerlab.connections import (
    l_ehresmann_connection, form_matrix_residual, vector_form1_residual,
    tension, wagner_connection,
)
from finslerlab.checks import random_one_forms
from finslerlab.registry import base_function, build_field

import energies
from helpers import maxabs
from test_headroom import HEADROOM

N, N2 = 3, 6
GRID = sample_slit_points(N, 6, seed=13)
P0 = point(0.0, 0.0, 0.0, 1.0, 2.0, 0.5)


def test_fixtures_validate_in_3d():
    for fid in fixture_ids():
        F = finsler_fixture(fid, GRID, n=N)
        assert F.n == N


def test_an_indefinite_energy_fails_validation_in_3d():
    # g = diag(1, -1, -1) has det g = +1, so only its leading minors (1, -1, 1)
    # show that it is not positive definite; E > 0 at both points
    E = ScalarField(lambda z: 0.5 * (z[3] * z[3] - z[4] * z[4] - z[5] * z[5]), N)
    pts = [point(0.1, 0.2, 0.3, 2.0, 0.5, 0.4), point(-0.5, 0.4, 0.9, -1.5, 1.0, 0.2)]
    with pytest.raises(NondegeneracyFailure, match="not positive definite") as err:
        validate_finsler(E, pts)
    assert err.value.point == pts[0] and err.value.value == -1.0
    # unvalidated, the sharp solve stops at its second pivot, -1
    F = FinslerStructure(E, N, pts, validate=False)
    z = pts[0].coords()
    with pytest.raises(NondegeneracyFailure, match="not positive definite during sharp solve") as err:
        F.sharp_at(list(z), z)
    assert err.value.value == -1.0


def test_canonical_objects_in_3d():
    F = finsler_fixture("riemannian-exp", GRID, n=N)
    J = vertical_endomorphism(N)
    C = liouville_field(N)
    z = P0.coords()
    s0 = canonical_spray(F)
    assert maxabs([a - b for a, b in zip(J(z, s0(z)), C(z))]) < 1e-10
    # first fiber slot carries the only geodesic coefficient: -y1^2 e^{0}
    assert abs(s0(z)[N] + 1.0) < 1e-10
    br = fn_bracket(J, C)
    m = br.matrix(z)
    jm = J.matrix(z)
    assert maxabs([m[a][b] - jm[a][b] for a in range(N2) for b in range(N2)]) < 1e-12


def test_sharp_round_trip_in_3d():
    F = finsler_fixture("randers-0.3", GRID, n=N)
    for beta in random_one_forms(N, 2, seed=77):
        x = sharp(F, beta)
        for p in list(GRID)[:3]:
            z = p.coords()
            xz = x(z)
            m = F.omega_matrix_at(z)
            for b in range(N2):
                ins = sum(xz[a] * m[a][b] for a in range(N2))
                assert abs(ins - beta(z, frame_vector(N2, b))) < 1e-9


def test_connections_in_3d():
    F = finsler_fixture("euclidean", GRID, n=N)
    assert projector_residual(F, berwald_connection(F), GRID) < 1e-9
    hbar, L_W = wagner_connection(F, base_function("x1", N))
    hL = l_ehresmann_connection(F, L_W)
    assert form_matrix_residual(hbar, hL, list(GRID)[:3]) < 1e-8
    assert vector_form1_residual(tension(F, hbar), list(GRID)[:3]) < 1e-8


def test_registry_fields_in_3d():
    F = finsler_fixture("euclidean", GRID, n=N)
    v = build_field(F, "vlift:3")
    z = P0.coords()
    assert v(z) == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    c = build_field(F, "half-y1-C")
    assert maxabs([a - b for a, b in zip(c(z), [0, 0, 0, 0.5, 1.0, 0.25])]) < 1e-12


@pytest.mark.parametrize("fid", energies.IDS)
def test_every_runner_passes_at_n3(fid):
    # each of the 16 runners on an 8-point batch of seed 42 at n = 3, as
    # run_checks runs a fixture's cells: all of them on one structure.
    # Every cell reads below HEADROOM (the worst about 4e-15), and only the
    # expected-error checks leave a note
    grid = sample_slit_points(N, 8, seed=42)
    cells = energies.cells(energies.structure(fid, grid, N), grid, 42)
    assert len(cells) == 16
    assert [cell for cell in cells if not cell[1] <= HEADROOM] == []
    assert energies.expected_notes(cells), cells
