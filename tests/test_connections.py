"""Connection constructions and the residual predicates of the theorem layer."""

import math
from unittest import mock

import numpy as np
import pytest

from finslerlab import calculus, connections, finsler, jets, memo
from finslerlab.calculus import (
    VectorField, VectorForm, d_K, field_apply, fn_bracket, frame_vector,
    identity_form, liouville_field, potential, semispray_residual, sup_abs,
    vertical_endomorphism, vertical_lift_function, vertical_lift_vector,
)
from finslerlab.core import BaseFunction, ScalarField, grid_coords, point, sample_slit_points
from finslerlab.errors import (
    DegenerateDegree, HomogeneityFailure, HypothesisFailure, NotConnection,
    NotSemispray, NotVertical,
)
from finslerlab.finsler import (
    berwald_connection, canonical_spray, finsler_fixture, fixture_ids,
    conservative_connection_residual, conservative_form_residual, gradient,
)
from finslerlab.connections import (
    associated_semispray, connection_from_semispray, conservative_lift,
    dh_omega_residual, form_matrix_residual, l_ehresmann_connection,
    projective_factor, semispray_from_vertical, sharp_of_dLE, tension,
    theta_operator, torsion_free_residual, v_from_homogeneous,
    v_from_torsion_free, vector_field_residual, vector_form1_residual,
    vector_form2_residual, vertical_lift_test, vertical_residual,
    vincze_residual, wagner_connection, weak_torsion,
)

from finslerlab.registry import base_function, build_field

import energies
from helpers import dh_omega_form, maxabs, point_memo, sharp_of_dLE_reference

N, N2 = 2, 4
P0 = point(0.0, 0.0, 1.0, 2.0)
GRID = sample_slit_points(N, 8, seed=9)

EUC = finsler_fixture("euclidean", GRID)
RIE = finsler_fixture("riemannian-exp", GRID)
RAN = finsler_fixture("randers-0.3", GRID)
ALL = [EUC, RIE, RAN]

F_X1 = BaseFunction(lambda x: x[0], N, "x1")
J = vertical_endomorphism(N)
C = liouville_field(N)


def E_dy1(F):
    return VectorField(lambda z: [0.0, 0.0, F.E(z), 0.0], F.n, "E.dy1")


def close(a, b, tol=1e-9):
    return maxabs([x - y for x, y in zip(a, b)]) < tol


# -- generation from semisprays --------------------------------------------------


def test_connection_from_canonical_spray_is_berwald():
    for F in ALL:
        h = connection_from_semispray(F, canonical_spray(F))
        assert form_matrix_residual(h, berwald_connection(F), GRID) < 1e-9


def test_vertical_lift_shift_keeps_connection():
    shift = VectorField(lambda z: [a + 2.0 * b for a, b in zip(
        canonical_spray(EUC)(z), [0, 0, 1.0, 0])], N, "S0+2dy1")
    h = connection_from_semispray(EUC, shift)
    assert form_matrix_residual(h, berwald_connection(EUC), GRID) < 1e-10


def test_connection_from_semispray_rejects_non_semispray():
    with pytest.raises(NotSemispray):
        connection_from_semispray(EUC, C)


def test_the_constructors_return_the_connection_form():
    # a connection is its vector 1-form, with its frame arrays memoised
    hbar, _ = wagner_connection(EUC, F_X1)
    for h in (connection_from_semispray(EUC, semispray_from_vertical(EUC, E_dy1(EUC))),
              l_ehresmann_connection(EUC, fn_bracket(J, E_dy1(EUC))), hbar):
        assert type(h) is VectorForm and h.degree == 1
        assert isinstance(point_memo(h.matrix), memo.PointMemo)
    # Id is a projector, but its kernel is not the vertical bundle
    with pytest.raises(NotConnection, match=r"projector laws fail for Id: residual 1\.000e\+00"):
        connections._wrap_connection(EUC, identity_form(N))


def test_associated_semispray_of_berwald():
    for F in ALL:
        s = associated_semispray(F, berwald_connection(F))
        s0 = canonical_spray(F)
        for p in GRID:
            assert close(s(p.coords()), s0(p.coords()))
    assert close(associated_semispray(RIE, berwald_connection(RIE))(P0.coords()),
                 [1.0, 2.0, -1.0, 0.0])


def test_torsion_free_round_trip_and_idempotence():
    # the S^V construction is recovered by its own connection, and
    # regenerating the connection from the recovered semispray is stable
    sV = semispray_from_vertical(EUC, E_dy1(EUC))
    h = connection_from_semispray(EUC, sV)
    s_back = associated_semispray(EUC, h)
    for p in GRID:
        assert close(s_back(p.coords()), sV(p.coords()), tol=1e-9)
    h2 = connection_from_semispray(EUC, s_back)
    assert form_matrix_residual(h, h2, GRID) < 1e-9


# -- L-Ehresmann machinery ---------------------------------------------------------


def test_l_ehresmann_zero_is_berwald():
    for F in ALL:
        h = l_ehresmann_connection(F, J.scale(0.0))
        assert form_matrix_residual(h, berwald_connection(F), GRID) < 1e-10


def test_l_ehresmann_of_conservative_form_is_translation():
    for F in ALL:
        hbar, _ = wagner_connection(F, F_X1)
        L = hbar - berwald_connection(F)
        assert conservative_form_residual(F, L, GRID) < 1e-9
        hL = l_ehresmann_connection(F, L)
        direct = berwald_connection(F) + L
        assert form_matrix_residual(hL, direct, GRID) < 1e-8


def test_theta_zero():
    th = theta_operator(EUC, J.scale(0.0))
    assert vector_form1_residual(th, GRID) < 1e-12


def test_theta_matches_connection_difference():
    for F in (EUC, RIE):
        hbar, L_W = wagner_connection(F, F_X1)
        th = theta_operator(F, L_W)
        diff = hbar - berwald_connection(F)
        assert form_matrix_residual(th, diff, GRID) < 1e-8


def test_theta_commutes_with_liouville_bracket():
    # [C, Theta_L] = Theta_[C, L]
    for F in (EUC, RAN):
        _, L_W = wagner_connection(F, F_X1)
        for L in (L_W, fn_bracket(J, E_dy1(F))):
            lhs = fn_bracket(C, theta_operator(F, L))
            rhs = theta_operator(F, fn_bracket(C, L))
            assert form_matrix_residual(lhs, rhs, list(GRID)[:5]) < 1e-8


def _dLE_forms(F):
    """The semibasic forms whose (d_L E)# the checks read: [J, E-dy1], L_W and f^v J."""
    n = F.n
    J_n = vertical_endomorphism(n)
    f = base_function("x1", n)
    fvJ = J_n.scale(vertical_lift_function(f))
    fvJ.name = "fvJ"
    return [fn_bracket(J_n, build_field(F, "E-dy1")), wagner_connection(F, f)[1], fvJ]


def _value_and_slots(xs, tag, k):
    """A field's value at a point lifted with ``tag`` (None: not lifted): its
    primal parts and then the k tangent slots of each component, as one array."""
    if tag is not None:
        xs = [jets.primal(x, tag) for x in xs] \
            + [s for x in xs for s in jets.slots(jets.tangent(x, tag), k)]
    return np.array(np.broadcast_arrays(*xs))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", energies.IDS)
def test_sharp_of_dLE_matches_the_sharp_of_d_L_E(fid, n):
    # the contraction of L's matrix with the memo's dE against a fresh pass of E
    # along L's columns: they round differently, so the bound is relative, to
    # the largest part of the reference's value and slots (a slot that is zero
    # in exact arithmetic, such as D_{x2} of (d_fvJ E)# on Funk, reads rounding
    # noise of about 1e-18 on both paths)
    grid = sample_slit_points(n, 4, seed=1)
    F = energies.structure(fid, grid, n)
    n2 = 2 * n
    z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
    scalar, vector = jets.fresh_tag(), jets.fresh_tag()
    points = [(z0, None, 0), (grid_coords(grid), None, 0),
              (jets.lift(z0, [0.5, -0.25, 1.0, 0.75, -0.5, 0.3][:n2], scalar), scalar, 1),
              (jets.lift(z0, jets.vec_frame(n2), vector), vector, n2)]
    for L in _dLE_forms(F):
        W, reference = sharp_of_dLE(F, L), sharp_of_dLE_reference(F, L)
        assert W.name == reference.name == f"sharp(d_{L.name}{F.E.name})"
        for z, tag, k in points:
            actual, expected = (_value_and_slots(X(z), tag, k) for X in (W, reference))
            scale = np.abs(expected).max()
            assert scale > 0.0 and np.abs(actual - expected).max() <= 1e-12 * scale, (L.name, k)


def test_sharp_of_dLE_reads_dE_where_its_solve_reads_omega(monkeypatch):
    # one omega pass per point: the solve's, whose memo entry holds dE too.  The
    # frame arrays of these L read no omega
    calls = []
    omega = finsler.omega_and_dE
    monkeypatch.setattr(finsler, "omega_and_dE", lambda *args: calls.append(1) or omega(*args))
    z0 = P0.coords()
    for fid in ("euclidean", "randers-0.3"):
        for z in (z0, grid_coords(GRID), jets.lift(z0, [0.5, -0.25, 1.0, 0.75], jets.fresh_tag()),
                  jets.lift(z0, jets.vec_frame(N2), jets.fresh_tag())):
            for L in (lambda F: fn_bracket(J, build_field(F, "E-dy1")),
                      lambda F: J.scale(vertical_lift_function(F_X1))):
                F = finsler_fixture(fid, GRID)  # its memo is empty
                W = sharp_of_dLE(F, L(F))
                calls.clear()
                W(z)
                assert len(calls) == 1


# -- Wagner connection ----------------------------------------------------------------


def test_wagner_zero_function():
    h, L_W = wagner_connection(EUC, BaseFunction(lambda x: 0.0, N, "0"))
    assert form_matrix_residual(h, berwald_connection(EUC), GRID) < 1e-12
    assert vector_form1_residual(L_W, GRID) < 1e-12


def test_wagner_form_hand_value():
    _, L_W = wagner_connection(EUC, F_X1)
    col = L_W(P0.coords(), frame_vector(N2, 0))
    assert close(col, [0.0, 0.0, 0.0, -1.0], tol=1e-12)  # -(y2/2) dy2 at p0


def test_wagner_conservative_everywhere():
    for F in ALL:
        h, L_W = wagner_connection(F, F_X1)
        assert conservative_connection_residual(F, h, GRID) < 1e-8
        pot = potential(L_W, canonical_spray(F), points=GRID)
        assert vector_field_residual(pot, GRID) < 1e-9


def test_wagner_equals_its_l_ehresmann_connection():
    for F in ALL:
        h, L_W = wagner_connection(F, F_X1)
        hL = l_ehresmann_connection(F, L_W)
        assert form_matrix_residual(h, hL, GRID) < 1e-8


def test_wagner_form_residual_hand_value():
    _, L_W = wagner_connection(EUC, F_X1)
    dle = d_K(L_W, EUC.E)
    assert abs(dle(P0.coords(), frame_vector(N2, 0)) + 2.0) < 1e-12  # -(y2^2)/2


# -- torsion and tension ----------------------------------------------------------------


def test_berwald_torsion_and_tension_vanish():
    pts = list(GRID)[:5]
    for F in ALL:
        h0 = berwald_connection(F)
        assert vector_form2_residual(weak_torsion(F, h0), pts) < 1e-8
        assert vector_form1_residual(tension(F, h0), pts) < 1e-8
        assert conservative_connection_residual(F, h0, pts) < 1e-9


def test_weak_torsion_of_hL_equals_JL():
    F = EUC
    L = fn_bracket(J, E_dy1(F))
    hL = l_ehresmann_connection(F, L)
    t = weak_torsion(F, hL)
    jl = fn_bracket(J, L)
    pts = list(GRID)[:4]
    for p in pts:
        z = p.coords()
        for a in range(N2):
            for b in range(a + 1, N2):
                ea, eb = frame_vector(N2, a), frame_vector(N2, b)
                assert maxabs([u - v for u, v in zip(t(z, ea, eb), jl(z, ea, eb))]) < 1e-8
    assert vector_form2_residual(t, pts) < 1e-8  # L itself is torsion-free


def test_tension_sign_empirical():
    # the tension of h_L satisfies H_L = h_[C,L] - h0 = Theta_[C,L] (recorded
    # sign); L = f^v J has [C, L] = -f^v J != 0, so the test is not vacuous
    F = EUC
    L = J.scale(ScalarField(lambda z: z[0], N))
    hL = l_ehresmann_connection(F, L)
    H = tension(F, hL)
    th = theta_operator(F, fn_bracket(C, L))
    pts = list(GRID)[:5]
    assert form_matrix_residual(H, th, pts) < 1e-8
    # and the opposite sign does not hold
    assert form_matrix_residual(H, th.scale(-1.0), pts) > 1e-3
    # the Wagner form itself is 1-homogeneous, so its connection is homogeneous
    _, L_W = wagner_connection(F, F_X1)
    hW = l_ehresmann_connection(F, L_W)
    assert vector_form1_residual(tension(F, hW), pts) < 1e-8


def test_torsion_free_residual_examples():
    F = EUC
    assert torsion_free_residual(F, fn_bracket(J, E_dy1(F))) < 1e-10
    assert torsion_free_residual(F, J.scale(0.0)) < 1e-15
    # [J, fJ] = d_J f ^ J: zero for a vertical lift f = x1^v, nonzero for f = y1
    f_v = ScalarField(lambda z: z[0], N)
    assert torsion_free_residual(F, J.scale(f_v)) < 1e-10
    f_c = ScalarField(lambda z: z[2], N)
    assert torsion_free_residual(F, J.scale(f_c)) > 0.5


# -- vertical correspondence --------------------------------------------------------------


def test_v_from_torsion_free_round_trip():
    for F in (EUC, RIE):
        V0 = E_dy1(F)
        L = fn_bracket(J, V0)
        V = v_from_torsion_free(F, L)
        assert form_matrix_residual(fn_bracket(J, V), L, list(GRID)[:5]) < 1e-8
        # for the 2-homogeneous source the construction recovers V0 itself
        for p in list(GRID)[:5]:
            assert close(V(p.coords()), V0(p.coords()), tol=1e-8)
        # degeneracy: V + X^v solves the same equation
        xv = vertical_lift_vector([BaseFunction(lambda x: 1.0, N),
                                   BaseFunction(lambda x: 0.0, N)], N)
        V_shift = V + xv
        assert form_matrix_residual(fn_bracket(J, V_shift), L, list(GRID)[:5]) < 1e-8


def test_v_from_torsion_free_zero():
    for F in ALL:
        V = v_from_torsion_free(F, J.scale(0.0))
        assert vector_field_residual(V, GRID) < 1e-9


def test_v_from_homogeneous():
    F = EUC
    V0 = E_dy1(F)
    L = fn_bracket(J, V0)  # 1-homogeneous: [C, L] = 0
    V = v_from_homogeneous(F, L, r=1.0)
    for p in list(GRID)[:5]:
        assert close(V(p.coords()), V0(p.coords()), tol=1e-9)
    assert form_matrix_residual(fn_bracket(J, V), L, list(GRID)[:4]) < 1e-8
    with pytest.raises(DegenerateDegree):
        v_from_homogeneous(F, L, r=-1.0)
    with pytest.raises(HomogeneityFailure):
        v_from_homogeneous(F, L, r=3.0)  # wrong degree


# -- the S^V family ------------------------------------------------------------------------


def test_v_from_homogeneous_degree_zero():
    # J itself is a torsion-free semibasic form of degree 0 ([C, J] = -J), and
    # J = [J, C]; the reconstruction V = J°/(0+1) must therefore return C
    V = v_from_homogeneous(EUC, J, r=0.0)
    for p in list(GRID)[:5]:
        z = p.coords()
        assert close(V(z), C(z), tol=1e-10)
    assert form_matrix_residual(fn_bracket(J, V), J, list(GRID)[:4]) < 1e-9


def test_scaled_J_with_nowhere_vanishing_potential_is_conservative():
    # for K = J the potential energy K°E = CE = 2E never vanishes off the zero
    # section, and L = (f^v / K°E) K yields a conservative deformation
    for F in (EUC, RAN):
        f_v = ScalarField(lambda z: z[0], N)
        L = J.scale(f_v / (2.0 * F.E))
        hL = l_ehresmann_connection(F, L)
        assert conservative_connection_residual(F, hL, GRID) < 1e-8
        # and it is a genuine deformation: d_L E != 0
        assert conservative_form_residual(F, L, GRID) > 1e-3


def test_potential_independence_on_wagner_form():
    _, L_W = wagner_connection(EUC, F_X1)
    s0 = canonical_spray(EUC)
    xv = vertical_lift_vector([BaseFunction(lambda x: x[1], N),
                               BaseFunction(lambda x: 1.0, N)], N)
    p1 = potential(L_W, s0, points=GRID)
    p2 = potential(L_W, s0 + xv, points=GRID)
    for p in GRID:
        z = p.coords()
        assert close(p1(z), p2(z), tol=1e-12)


def test_semispray_from_vertical_examples():
    assert close(semispray_from_vertical(EUC, VectorField(
        lambda z: [0.0] * 4, N))(P0.coords()), canonical_spray(EUC)(P0.coords()))
    dy1 = VectorField(lambda z: [0, 0, 1.0, 0], N)
    sV = semispray_from_vertical(EUC, dy1)
    expected = [a + b for a, b in zip(canonical_spray(EUC)(P0.coords()), [0, 0, 2.0, 0])]
    assert close(sV(P0.coords()), expected)
    # V = E dy1: hand-assembled S^V(p0) = (1, 2, 7, 4)
    sV0 = semispray_from_vertical(EUC, E_dy1(EUC))
    assert close(sV0(P0.coords()), [1.0, 2.0, 7.0, 4.0], tol=1e-10)


def test_semispray_from_vertical_rejects_horizontal():
    with pytest.raises(NotVertical):
        semispray_from_vertical(EUC, canonical_spray(EUC))


def test_sV_generates_the_JV_connection():
    for F in (EUC, RAN):
        V0 = E_dy1(F)
        sV = semispray_from_vertical(F, V0)
        h1 = connection_from_semispray(F, sV)
        h2 = l_ehresmann_connection(F, fn_bracket(J, V0))
        assert form_matrix_residual(h1, h2, list(GRID)[:6]) < 1e-8


def test_homogeneity_lemma_and_sprayness():
    from finslerlab.calculus import homogeneity_residual
    for F in (EUC, RIE):
        V0 = E_dy1(F)
        hL = l_ehresmann_connection(F, fn_bracket(J, V0))
        assert vector_form1_residual(tension(F, hL), list(GRID)[:5]) < 1e-8
        sV = semispray_from_vertical(F, V0)
        assert homogeneity_residual(sV, 2.0, list(GRID)[:6]) < 1e-8


# -- projective factors -----------------------------------------------------------------------


def test_projective_factor_candidate_only():
    # V = y1 C / 2 and U = 0 are not projectively related; the candidate factor
    # is 3 y1 and the measured deviation at p0 is (0, 0, 4, -2)
    V = VectorField(lambda z: [0, 0, 0.5 * z[2] * z[2], 0.5 * z[2] * z[3]], N, "y1C/2")
    U = VectorField(lambda z: [0.0] * 4, N, "0")
    lam, residual = projective_factor(EUC, V, U)
    assert abs(lam(P0.coords()) - 3.0) < 1e-12
    assert residual > 0.5
    sV = semispray_from_vertical(EUC, V)
    sU = semispray_from_vertical(EUC, U)
    z = P0.coords()
    dev = [a - b - 3.0 * c for a, b, c in zip(sV(z), sU(z), C(z))]
    assert close(dev, [0.0, 0.0, 4.0, -2.0], tol=1e-10)


def test_projective_factor_related_pair():
    for F in (EUC, RAN):
        V = VectorField(lambda z: [0.0, 0.0] + [0.5 * jets.sqrt(F.E(z)) * z[2],
                                                0.5 * jets.sqrt(F.E(z)) * z[3]],
                        N, "sqrtE.C/2")
        U = VectorField(lambda z: [0.0] * 4, N, "0")
        lam, residual = projective_factor(F, V, U)
        assert residual < 1e-9
        z = P0.coords()
        assert abs(lam(z) - 3.0 * math.sqrt(F.E(z))) < 1e-10
        from finslerlab.calculus import homogeneity_residual
        lam_radial = VectorField(lambda zz: [0.0] * 4, N)  # placeholder, see below
        # 1-homogeneity of the factor: C(lam) = lam
        for p in list(GRID)[:6]:
            zz = p.coords()
            c_lam = jets.directional(lam.fn, zz, C(zz))
            assert abs(c_lam - lam(zz)) < 1e-8


def test_projective_factor_preconditions():
    U = VectorField(lambda z: [0.0] * 4, N)
    with pytest.raises(NotVertical):
        projective_factor(EUC, canonical_spray(EUC), U)
    not_homog = VectorField(lambda z: [0, 0, 1.0, 0], N)
    with pytest.raises(HomogeneityFailure):
        projective_factor(EUC, not_homog, U)


# -- conservative vertical fields ----------------------------------------------------------------


def test_vincze_examples():
    xv = vertical_lift_vector([BaseFunction(lambda x: 1.0, N),
                               BaseFunction(lambda x: 0.0, N)], N)
    for F in ALL:
        assert vincze_residual(F, xv) < 1e-9
    assert vincze_residual(EUC, VectorField(lambda z: [0.0] * 4, N)) < 1e-15
    # V = C: the deviation 1-form is -d_J E; sup at p0 equals 2
    assert abs(vincze_residual(EUC, C, points=[P0]) - 2.0) < 1e-12


def test_conservative_lift_trivial_cases():
    xv = vertical_lift_vector([BaseFunction(lambda x: 1.0, N),
                               BaseFunction(lambda x: 0.0, N)], N)
    for F in ALL:
        U = conservative_lift(F, xv)
        for p in list(GRID)[:5]:
            assert close(U(p.coords()), xv(p.coords()), tol=1e-9)
        assert vincze_residual(F, U) < 1e-8
    U0 = conservative_lift(EUC, VectorField(lambda z: [0.0] * 4, N))
    assert vector_field_residual(U0, GRID) < 1e-12


def test_conservative_lift_hypothesis_failure():
    for F in ALL:
        with pytest.raises(HypothesisFailure) as err:
            conservative_lift(F, E_dy1(F))
        assert err.value.residual > 0.01


def test_conservative_lift_nontrivial():
    # V = (sqrt(E) - x1^v) / (2E) * C satisfies the hypothesis with U != V:
    # U = C / (2 sqrt(E)), and U is conservative
    for F in ALL:
        def V_fn(z, F=F):
            e = F.E(z)
            c = (jets.sqrt(e) - z[0]) / (2.0 * e)
            return [0.0, 0.0, c * z[2], c * z[3]]

        V = VectorField(V_fn, N, "w-over-2E.C")
        U = conservative_lift(F, V)
        assert vincze_residual(F, U) < 1e-8

        def U_expected(z, F=F):
            c = 1.0 / (2.0 * math.sqrt(F.E(z)))
            return [0.0, 0.0, c * z[2], c * z[3]]

        for p in list(GRID)[:5]:
            z = p.coords()
            assert close(U(z), U_expected(z), tol=1e-8)
        # genuinely different from V wherever x1 != 0
        gap = max(maxabs([a - b for a, b in zip(U(p.coords()), V(p.coords()))])
                  for p in GRID)
        assert gap > 0.05


def test_semibasic_forms_annihilate_vertical_lifts():
    # d_K phi = 0 for any semibasic vector 1-form K and any vertical lift phi,
    # the mechanism behind conformal invariance of conservativity
    phi = ScalarField(lambda z: jets.exp(z[0] * z[1]), N)
    _, L_W = wagner_connection(EUC, F_X1)
    for K in (L_W, fn_bracket(J, E_dy1(EUC)), J.scale(ScalarField(lambda z: z[2], N))):
        dkphi = d_K(K, phi)
        for p in list(GRID)[:5]:
            z = p.coords()
            for a in range(N2):
                assert abs(dkphi(z, frame_vector(N2, a))) < 1e-12


def test_vincze_closure_for_conservative_torsion_free_forms():
    # for torsion-free L with conservative h_L, the field V_L + (d_L E)# is
    # conservative; exercised on a nontrivial L = [J, V] built from the
    # vertical field whose connection is known to be conservative
    for F in (EUC, RIE):
        def V_fn(z, F=F):
            e = F.E(z)
            c = (jets.sqrt(e) - z[0]) / (2.0 * e)
            return [0.0, 0.0, c * z[2], c * z[3]]

        L = fn_bracket(J, VectorField(V_fn, N))
        assert torsion_free_residual(F, L, list(GRID)[:5]) < 1e-9
        hL = l_ehresmann_connection(F, L)
        assert conservative_connection_residual(F, hL, GRID) < 1e-8
        V_L = v_from_torsion_free(F, L)
        W = sharp_of_dLE(F, L)
        U = V_L + W
        assert vincze_residual(F, U, list(GRID)[:6]) < 1e-8


def test_vertical_lift_test_examples():
    f = BaseFunction(lambda x: x[0] * x[1], N)
    assert vertical_lift_test(EUC, vertical_lift_function(f)) < 1e-12
    assert abs(vertical_lift_test(EUC, EUC.E, points=[P0]) - 2.0) < 1e-12
    # L_W potential annihilates E, certifying Wagner conservativity
    _, L_W = wagner_connection(EUC, F_X1)
    pot = potential(L_W, canonical_spray(EUC), points=GRID)
    potE = field_apply(pot, EUC.E)
    assert vertical_lift_test(EUC, potE) < 1e-9


def test_vincze_identity_oracle():
    # d_[J,V] E = d_J(V E) - i_V omega for any vertical V (independent check
    # of the bracket, sharp, and omega plumbing working together)
    rng = np.random.default_rng(31)
    coef = rng.uniform(-1, 1, (2, N2))
    V = VectorField(lambda z: [0.0, 0.0] + [
        sum(coef[i][a] * z[a] for a in range(N2)) for i in range(2)], N)
    for F in ALL:
        L = fn_bracket(J, V)
        lhs = d_K(L, F.E)
        VE = field_apply(V, F.E)
        dj_ve = d_K(J, VE)
        for p in list(GRID)[:5]:
            z = p.coords()
            vz = V(z)
            m = F.omega_matrix_at(z)
            for b in range(N2):
                eb = frame_vector(N2, b)
                ivo = sum(vz[a] * m[a][b] for a in range(N2))
                assert abs(lhs(z, eb) - (dj_ve(z, eb) - ivo)) < 1e-9


# -- third-order identity -------------------------------------------------------------------------


def test_dh_omega_berwald_and_torsion_free():
    F = EUC
    assert dh_omega_residual(F, berwald_connection(F), points=list(GRID)[:4]) < 1e-7
    hL = l_ehresmann_connection(F, fn_bracket(J, E_dy1(F)))
    assert dh_omega_residual(F, hL, points=list(GRID)[:4]) < 1e-7


def test_dh_omega_driver_matches_generic_form():
    F = RIE
    hL = l_ehresmann_connection(F, fn_bracket(J, E_dy1(F)))
    generic = dh_omega_form(F, hL)
    p = list(GRID)[0]
    z = p.coords()
    worst = 0.0
    for a in range(N2):
        for b in range(a + 1, N2):
            for c in range(b + 1, N2):
                worst = max(worst, abs(generic(z, frame_vector(N2, a),
                                               frame_vector(N2, b), frame_vector(N2, c))))
    # driver reports the same magnitude as the generic composition
    driver = dh_omega_residual(F, hL, points=[p])
    assert abs(worst - driver) < 1e-8


def _dh_omega_per_direction(F, form, z):
    """d_h omega's residual with one scalar lift of the point per frame vector,
    and the derivatives of h's and omega's matrices along each of them."""
    n2 = 2 * F.n
    rng = range(n2)
    h_real = form.matrix(z)
    d_m, d_om, d_ihom = [], [], []
    for a in rng:
        tag = jets.fresh_tag()
        za = jets.lift(z, frame_vector(n2, a), tag)
        m, w = form.matrix(za), F.omega_matrix_at(za)
        d_m.append([[jets.tangent(m[b][c], tag) for c in rng] for b in rng])
        d_om.append([[jets.tangent(w[b][c], tag) for c in rng] for b in rng])
        d_ihom.append([[jets.tangent(sum(m[d][b] * w[d][c] for d in rng)
                                     + sum(m[d][c] * w[b][d] for d in rng), tag)
                        for c in rng] for b in rng])

    def d_omega(a, b, c):
        return d_om[a][b][c] - d_om[b][a][c] + d_om[c][a][b]

    devs = []
    for a in rng:
        for b in range(a + 1, n2):
            for c in range(b + 1, n2):
                d_ih = d_ihom[a][b][c] - d_ihom[b][a][c] + d_ihom[c][a][b]
                ih_d = sum(h_real[d][a] * d_omega(d, b, c) for d in rng) \
                    + sum(h_real[d][b] * d_omega(a, d, c) for d in rng) \
                    + sum(h_real[d][c] * d_omega(a, b, d) for d in rng)
                devs.append(ih_d - d_ih)
    return sup_abs(devs), d_m, d_om


@pytest.mark.parametrize("fid, n", [(fid, n) for fid, energy in energies.ENERGIES.items()
                                    for n in (2, 3) if n == 2 or not energy.riemannian])
def test_dh_omega_vector_lift_matches_per_direction_lifts(fid, n):
    # every energy at n = 2, and those whose g depends on y at n = 3.  Funk is
    # the one input whose omega and h have every block nonzero and
    # x-dependent, so an index slip in the stacked contractions shows there
    grid = sample_slit_points(n, 4, seed=1)
    F = energies.structure(fid, grid, n)
    hL = l_ehresmann_connection(
        F, fn_bracket(vertical_endomorphism(n), build_field(F, "E-dy1")))
    p = point(*([0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]))
    z = p.coords()
    n2 = 2 * n
    for h in (berwald_connection(F), hL):
        residual, d_m, d_om = _dh_omega_per_direction(F, h, z)
        assert dh_omega_residual(F, h, [p]) == residual
        # the grid as one 4-point batch point gives the largest per-point residual
        assert dh_omega_residual(F, h, grid) == \
            max(_dh_omega_per_direction(F, h, q.coords())[0] for q in grid)
        tag = jets.fresh_tag()
        za = jets.lift(z, jets.vec_frame(n2), tag)
        for mat, per_direction in ((h.matrix(za), d_m), (F.shared_omega_at(za)[0], d_om)):
            for b in range(n2):
                for c in range(n2):
                    assert jets.slots(jets.tangent(mat[b][c], tag), n2) == \
                        [per_direction[a][b][c] for a in range(n2)]


def test_dh_omega_is_nan_where_one_batch_point_is():
    points = list(GRID)
    coords = list(points[2].coords())
    coords[N + 1] = math.nan
    points[2] = point(*coords)
    for h in (berwald_connection(RAN), l_ehresmann_connection(RAN, fn_bracket(J, E_dy1(RAN)))):
        assert math.isnan(dh_omega_residual(RAN, h, points))


# -- NaN-safe residuals ------------------------------------------------------------


def test_sup_abs():
    assert sup_abs([]) == 0.0
    assert sup_abs([-3.0, 2.0, 0.5]) == 3.0
    assert math.isnan(sup_abs([0.0, math.nan, 5.0]))


def nan_at_second(z):
    """NaN at the grid's second point, slot 1 of the batch GRID is evaluated as; else 0."""
    return np.where(jets.realpart(z[0]) == list(GRID)[1].base[0], math.nan, 0.0)


def test_residual_helpers_propagate_nan_past_the_first_point():
    # max(0.0, nan) == 0.0, so a hand-written sup loop would read 0.0 here
    assert np.isnan(nan_at_second(grid_coords(GRID))).tolist() == [False, True] + [False] * 6
    X = VectorField(lambda z: [nan_at_second(z)] * N2, N)
    S = VectorField(lambda z: [c + nan_at_second(z) for c in z[N:]] * 2, N)
    K1 = VectorForm(1, lambda z: [[nan_at_second(z)] * N2 for _ in range(N2)], N)
    K2 = VectorForm(2, lambda z: [[[nan_at_second(z)] * N2 for _ in range(N2)]
                              for _ in range(N2)], N)
    g = ScalarField(lambda z: z[N] * (1.0 + nan_at_second(z)), N)
    zero = VectorForm(1, lambda z: [[0.0] * N2 for _ in range(N2)], N)
    for r in (vector_field_residual(X, GRID), vertical_residual(X, GRID),
              semispray_residual(S, GRID), vector_form1_residual(K1, GRID),
              form_matrix_residual(K1, zero, GRID), vector_form2_residual(K2, GRID),
              vertical_lift_test(EUC, g, GRID)):
        assert math.isnan(r)


def test_sup_loops_propagate_nan_past_the_first_point():
    from finslerlab.calculus import DifferentialForm, homogeneity_residual, semibasic_residual
    from finslerlab.checks import _sup_form1, _sup_form2
    from finslerlab.finsler import _d_form_E_residual, projector_residual
    X = VectorField(lambda z: [nan_at_second(z)] * N2, N)
    K1 = VectorForm(1, lambda z: [[nan_at_second(z)] * N2 for _ in range(N2)], N)
    K2 = VectorForm(2, lambda z: [[[nan_at_second(z)] * N2 for _ in range(N2)]
                              for _ in range(N2)], N)
    a1 = DifferentialForm(1, lambda z, v: nan_at_second(z), N)
    a2 = DifferentialForm(2, lambda z, u, v: nan_at_second(z), N)
    z = grid_coords(GRID)
    for r in (_sup_form1(a1, z, N2), _sup_form2(a2, z, N2),
              projector_residual(EUC, K1, GRID), _d_form_E_residual(EUC, K1, GRID),
              homogeneity_residual(X, 2.0, GRID), homogeneity_residual(K1, 1.0, GRID),
              semibasic_residual(K1, GRID), semibasic_residual(K2, GRID),
              semibasic_residual(a1, GRID)):
        assert math.isnan(r)


# -- the (1,1) bracket against the pairwise formula --------------------------------------


def pairwise_bracket_1_1(K, L, z, X, Y):
    """[K, L](X, Y) by eight scalar directional passes per frame pair.

    [K,L](X,Y) = [KX,LY] + [LX,KY] - K([LX,Y] + [X,LY]) - L([KX,Y] + [X,KY])
    for constant X, Y: the reference for the bracket's vector-lift path.
    """

    def kcol(z, v):
        return K(z, v)

    def lcol(z, v):
        return L(z, v)

    kX, kY = kcol(z, X), kcol(z, Y)
    lX, lY = lcol(z, X), lcol(z, Y)
    # [KX, LY] and [LX, KY] with constant-extended coefficient fields
    d_kX_LY = jets.directional(lambda w: lcol(w, Y), z, kX)
    d_lY_KX = jets.directional(lambda w: kcol(w, X), z, lY)
    d_lX_KY = jets.directional(lambda w: kcol(w, Y), z, lX)
    d_kY_LX = jets.directional(lambda w: lcol(w, X), z, kY)
    # [LX, Y] = -D_Y(LX), [X, LY] = D_X(LY) for constant X, Y
    d_Y_LX = jets.directional(lambda w: lcol(w, X), z, Y)
    d_X_LY = jets.directional(lambda w: lcol(w, Y), z, X)
    d_Y_KX = jets.directional(lambda w: kcol(w, X), z, Y)
    d_X_KY = jets.directional(lambda w: kcol(w, Y), z, X)
    k_arg = [a - b for a, b in zip(d_X_LY, d_Y_LX)]
    l_arg = [a - b for a, b in zip(d_X_KY, d_Y_KX)]
    k_term = K(z, k_arg)
    l_term = L(z, l_arg)
    return [(p - q) + (r - s) - t - u
            for p, q, r, s, t, u in
            zip(d_kX_LY, d_lY_KX, d_lX_KY, d_kY_LX, k_term, l_term)]


def _parts(x, tag, k):
    """x at the point and the slots of its tangent along a vector lift, with
    every zero made +0.0 (the two paths may differ in the signs of zeros)."""
    return [v + 0.0 for v in [jets.primal(x, tag)] + list(jets.slots(jets.tangent(x, tag), k))]


def _bracket_pairs(F):
    """(J, L) for the weak torsions of h0 and of h_L with L = [J, E-dy1], for
    [J, [J, E-dy1]], and for two brackets that do not vanish: [J, f J] and
    [J, f h0] with a polynomial f."""
    n = F.n
    Jn = vertical_endomorphism(n)
    L = fn_bracket(Jn, build_field(F, "E-dy1"))
    f = ScalarField(lambda z: z[n] * z[0] + z[2 * n - 1] * z[1] * z[n], n)
    h0 = berwald_connection(F)
    return [(Jn, h0), (Jn, l_ehresmann_connection(F, L)), (Jn, L),
            (Jn, Jn.scale(f)), (Jn, h0.scale(f))]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", fixture_ids())
def test_bracket_1_1_matches_pairwise_formula(fid, n):
    # entry for entry as the pairwise scalar passes give it, up to zero signs,
    # at float points (every ordered pair) and at a point lifted along the
    # vector frame (every tangent slot, pairs a < b)
    n2 = 2 * n
    F = finsler_fixture(fid, sample_slit_points(n, 4, seed=1), n=n)
    fr = [frame_vector(n2, a) for a in range(n2)]
    z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
    for K, L in _bracket_pairs(F):
        br = fn_bracket(K, L)
        for z in (z0, list(F.grid)[0].coords()):
            t = br.matrix(z)
            for a in range(n2):
                for b in range(n2):
                    ref = pairwise_bracket_1_1(K, L, z, fr[a], fr[b])
                    assert [x + 0.0 for x in t[a][b]] == [x + 0.0 for x in ref]
            assert br(z, fr[0], fr[n]) == t[0][n] and br(z, fr[n], fr[0]) == t[n][0]
        tag = jets.fresh_tag()
        za = jets.lift(z0, jets.vec_frame(n2), tag)
        t = br.matrix(za)
        for a in range(n2):
            for b in range(a + 1, n2):
                ref = pairwise_bracket_1_1(K, L, za, fr[a], fr[b])
                assert [_parts(x, tag, n2) for x in t[a][b]] == \
                    [_parts(x, tag, n2) for x in ref]


def test_bracket_1_1_of_nonconstant_forms_matches_pairwise_formula():
    # columns of K that are not frame vectors: the contractions round
    # differently from the scalar passes, within a few ulps
    for n in (2, 3):
        n2 = 2 * n
        F = finsler_fixture("randers-0.3", sample_slit_points(n, 4, seed=1), n=n)
        Jn = vertical_endomorphism(n)
        f = ScalarField(lambda z: z[n] * z[0] + z[2 * n - 1] * z[1] * z[n], n)
        h0 = berwald_connection(F)
        fr = [frame_vector(n2, a) for a in range(n2)]
        z = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
        for K, L in ((h0.scale(f), Jn), (Jn.scale(f), h0), (h0, h0.scale(f))):
            t = fn_bracket(K, L).matrix(z)
            devs, size = [], 0.0
            for a in range(n2):
                for b in range(n2):
                    ref = pairwise_bracket_1_1(K, L, z, fr[a], fr[b])
                    devs += [x - y for x, y in zip(t[a][b], ref)]
                    size = max(size, maxabs(ref))
            assert maxabs(devs) < 1e-12
            assert size > 0.1


# -- the (1,0) bracket against the column formula ----------------------------------------


def column_bracket_1_0(K, Y, z, X):
    """[K, Y] X = [KX, Y] - K [X, Y] by scalar directional passes, for constant X.

    [KX, Y] = D_{KX} Y - D_Y(KX) and [X, Y] = D_X Y: the reference for the
    bracket's path from one vector lift of Y.
    """
    d_kx_y = jets.directional(Y.fn, z, K(z, X))
    d_y_kx = jets.directional(lambda w: K(w, X), z, Y(z))
    k_dxy = K(z, jets.directional(Y.fn, z, X))
    return [a - b - c for a, b, c in zip(d_kx_y, d_y_kx, k_dxy)]


def _bracket_fields(F):
    """S0, E-dy1 and grad f^v with f = x1 x2."""
    f_v = vertical_lift_function(base_function("x1x2", F.n))
    return [canonical_spray(F), build_field(F, "E-dy1"), gradient(F, f_v)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", fixture_ids())
def test_bracket_1_0_matches_column_formula(fid, n):
    # for K = J and K = Id, entry for entry as the column formula's scalar
    # passes give it, up to zero signs, at float points (every column) and at
    # a point lifted along the vector frame (every tangent slot)
    n2 = 2 * n
    F = finsler_fixture(fid, sample_slit_points(n, 4, seed=1), n=n)
    fr = [frame_vector(n2, a) for a in range(n2)]
    z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
    for K in (vertical_endomorphism(n), identity_form(n)):
        for Y in _bracket_fields(F):
            br = fn_bracket(K, Y)
            for z in (z0, list(F.grid)[0].coords()):
                m = br.matrix(z)
                for b in range(n2):
                    ref = column_bracket_1_0(K, Y, z, fr[b])
                    assert [m[a][b] + 0.0 for a in range(n2)] == [x + 0.0 for x in ref]
            tag = jets.fresh_tag()
            za = jets.lift(z0, jets.vec_frame(n2), tag)
            m = br.matrix(za)
            for b in range(n2):
                ref = column_bracket_1_0(K, Y, za, fr[b])
                assert [_parts(m[a][b], tag, n2) for a in range(n2)] == \
                    [_parts(x, tag, n2) for x in ref]


def test_bracket_1_0_of_nonconstant_forms_matches_column_formula():
    # K = h0 and K = f J: the contractions round differently from the scalar
    # passes, within a few ulps.  Some of these brackets vanish ([h0, C], as
    # h0 is homogeneous), so only each K's largest entry must be sizeable.
    for fid in ("riemannian-exp", "randers-0.3"):
        for n in (2, 3):
            n2 = 2 * n
            F = finsler_fixture(fid, sample_slit_points(n, 4, seed=1), n=n)
            f = ScalarField(lambda z: z[n] * z[0] + z[2 * n - 1] * z[1] * z[n], n)
            fr = [frame_vector(n2, a) for a in range(n2)]
            z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
            for K in (berwald_connection(F), vertical_endomorphism(n).scale(f)):
                devs, size = [], 0.0
                for Y in _bracket_fields(F) + [liouville_field(n)]:
                    for z in (z0, list(F.grid)[0].coords()):
                        m = fn_bracket(K, Y).matrix(z)
                        for b in range(n2):
                            ref = column_bracket_1_0(K, Y, z, fr[b])
                            devs += [m[a][b] - ref[a] for a in range(n2)]
                            size = max(size, maxabs(ref))
                assert maxabs(devs) < 1e-12
                assert size > 0.1


def test_sum_of_vector_two_forms_builds_each_array_once():
    # (t + t).matrix adds the two summands' frame arrays entry by entry: two
    # arrays, each reading the lifted columns of h0 once (J, a shared
    # constant, is not lifted)
    t = weak_torsion(RAN, berwald_connection(RAN))
    z = P0.coords()
    lifted = []
    lifted_columns = calculus._lifted_columns

    def counting(m, tag, n2):
        lifted.append(tag)
        return lifted_columns(m, tag, n2)

    with mock.patch.object(calculus, "_lifted_columns", counting):
        s = (t + t).matrix(z)
    assert len(lifted) == 2
    assert s == [[[x + x for x in v] for v in row] for row in t.matrix(z)]


def test_bracket_with_j_takes_no_primal_columns_of_l():
    # [J, h0] reads the tangents of h0's lifted matrix and never its primal
    # columns, so it takes none of them: 46 calls, (2n)^2 = 16 more, when it did
    h0 = berwald_connection(RAN)
    t = fn_bracket(J, h0)
    t.matrix([0.2, -0.3, 0.9, 0.4])  # builds what the first call builds
    primal = jets.primal
    calls = []

    def counting(x, tag):
        calls.append(tag)
        return primal(x, tag)

    with mock.patch.object(jets, "primal", counting):
        t.matrix([0.4, 0.1, -0.6, 1.1])
    assert len(calls) == 30
