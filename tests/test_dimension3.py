"""Dimension-genericity: the calculus must not bake in n = 2."""

from finslerlab.calculus import (
    fn_bracket, frame_vector, liouville_field, vertical_endomorphism,
)
from finslerlab.core import point, sample_slit_points
from finslerlab.errors import HypothesisFailure
from finslerlab.finsler import (
    berwald_connection, canonical_spray, finsler_fixture, fundamental_form,
    projector_residual, sharp,
)
from finslerlab.connections import (
    l_ehresmann_connection, form_matrix_residual, vector_form1_residual,
    tension, wagner_connection,
)
from finslerlab.checks import random_one_forms
from finslerlab.registry import base_function, build_field

from helpers import maxabs

N, N2 = 3, 6
GRID = sample_slit_points(N, 6, seed=13)
P0 = point(0.0, 0.0, 0.0, 1.0, 2.0, 0.5)


def test_fixtures_validate_in_3d():
    for fid in ("euclidean", "riemannian-exp", "randers-0.3"):
        F = finsler_fixture(fid, GRID, n=N)
        assert F.n == N


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
    om = fundamental_form(F)
    for beta in random_one_forms(N, 2, seed=77):
        x = sharp(F, beta)
        for p in list(GRID)[:3]:
            z = p.coords()
            xz = x(z)
            m = om.matrix_at(z)
            for b in range(N2):
                ins = sum(xz[a] * m[a][b] for a in range(N2))
                assert abs(ins - beta(z, frame_vector(N2, b))) < 1e-9


def test_connections_in_3d():
    F = finsler_fixture("euclidean", GRID, n=N)
    assert projector_residual(F, berwald_connection(F), GRID) < 1e-9
    hbar, L_W = wagner_connection(F, base_function("x1", N))
    hL = l_ehresmann_connection(F, L_W)
    assert form_matrix_residual(hbar.form, hL.form, list(GRID)[:3]) < 1e-8
    assert vector_form1_residual(tension(F, hbar.form), list(GRID)[:3]) < 1e-8


def test_registry_fields_in_3d():
    F = finsler_fixture("euclidean", GRID, n=N)
    v = build_field(F, "vlift:3")
    z = P0.coords()
    assert v(z) == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    c = build_field(F, "half-y1-C")
    assert maxabs([a - b for a, b in zip(c(z), [0, 0, 0, 0.5, 1.0, 0.25])]) < 1e-12
