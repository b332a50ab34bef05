"""Frolicher-Nijenhuis toolbox: lifts, brackets, derivations, residuals."""

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.calculus import (
    DifferentialForm, VectorField, VectorForm, complete_lift_function,
    coordinate_one_form, d_K, d_function, exterior_derivative, field_apply,
    fn_bracket, frame, frame_vector, homogeneity_residual,
    identity_form, insert_one_form, insert_vector, lie_bracket, lie_derivative,
    liouville_field, potential, semibasic_residual, tensor_one_form_field,
    vertical_endomorphism, vertical_lift_function, vertical_lift_vector,
)
from finslerlab.core import BaseFunction, ScalarField, point, sample_slit_points
from finslerlab.errors import DegreeOutOfRange, NotSemibasic, NotSemispray

from helpers import constant_vector_field, fd_vector, maxabs

N = 2
N2 = 4
P0 = point(0.0, 0.0, 1.0, 2.0)
GRID = sample_slit_points(N, 8, seed=11)

E_EUC = ScalarField(lambda z: 0.5 * (z[2] * z[2] + z[3] * z[3]), N, "E")
S0_EUC = VectorField(lambda z: [z[2], z[3], 0.0, 0.0], N, "S0")
J = vertical_endomorphism(N)
C = liouville_field(N)
DY1 = constant_vector_field([0, 0, 1, 0], N, "dy1")

F_X1 = BaseFunction(lambda x: x[0], N, "x1")
F_X1X2 = BaseFunction(lambda x: x[0] * x[1], N, "x1x2")


def randfield(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, (N2, N2))
    b = rng.uniform(-1, 1, N2)

    def ev(z):
        return sum(b[a] * z[a] for a in range(N2)) + \
            sum(c[i][j] * z[i] * z[j] for i in range(N2) for j in range(N2))

    return ScalarField(ev, N)


def randvector(seed):
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1, 1, (N2, N2))
    lin = rng.uniform(-1, 1, N2)

    def ev(z):
        return [lin[a] + sum(coef[a][b] * z[b] for b in range(N2)) for a in range(N2)]

    return VectorField(ev, N)


# -- lifts -------------------------------------------------------------------


def test_function_lifts():
    assert vertical_lift_function(F_X1)(P0.coords()) == 0.0
    assert complete_lift_function(F_X1)(P0.coords()) == 1.0
    const = BaseFunction(lambda x: 3.0, N)
    for p in GRID:
        assert complete_lift_function(const)(p.coords()) == 0.0
    assert abs(complete_lift_function(F_X1X2)(P0.coords())) < 1e-15


def test_vertical_lift_vector():
    xv = vertical_lift_vector([BaseFunction(lambda x: 1.0, N), BaseFunction(lambda x: 0.0, N)], N)
    for p in GRID:
        assert xv(p.coords()) == [0.0, 0.0, 1.0, 0.0]
    assert J(P0.coords(), xv(P0.coords())) == [0.0, 0.0, 0.0, 0.0]
    # [J, X^v] = 0 for base-constant X
    br = fn_bracket(J, xv)
    for p in GRID:
        assert maxabs([x for row in br.matrix(p.coords()) for x in row]) < 1e-12


def test_liouville():
    assert C(P0.coords()) == [0.0, 0.0, 1.0, 2.0]
    assert abs(field_apply(C, E_EUC)(P0.coords()) - 5.0) < 1e-15
    cc = lie_bracket(C, C)
    assert maxabs(cc(P0.coords())) < 1e-15


def test_vertical_endomorphism():
    z = P0.coords()
    assert J(z, [1.0, 0.0, 0.0, 0.0]) == [0.0, 0.0, 1.0, 0.0]
    assert J(z, [0.0, 0.0, 1.0, 0.0]) == [0.0, 0.0, 0.0, 0.0]
    assert J(z, S0_EUC(z)) == C(z)  # J(S) = C for a semispray
    assert J(z, C(z)) == [0.0] * 4
    # J o J = 0
    for a in range(N2):
        assert J(z, J(z, frame_vector(N2, a))) == [0.0] * 4


# -- Lie bracket ---------------------------------------------------------------


def test_lie_bracket_hand_values():
    b = lie_bracket(C, DY1)
    for p in GRID:
        assert maxabs([u - v for u, v in zip(b(p.coords()), [0, 0, -1, 0])]) < 1e-12
    b2 = lie_bracket(S0_EUC, DY1)
    for p in GRID:
        assert maxabs([u - v for u, v in zip(b2(p.coords()), [-1, 0, 0, 0])]) < 1e-12


def test_lie_bracket_antisymmetry_and_self():
    s = lie_bracket(S0_EUC, S0_EUC)
    assert maxabs(s(P0.coords())) < 1e-12
    x, y = randvector(1), randvector(2)
    ab = lie_bracket(x, y)
    ba = lie_bracket(y, x)
    for p in GRID:
        assert maxabs([u + v for u, v in zip(ab(p.coords()), ba(p.coords()))]) < 1e-10


def test_lie_bracket_jacobi():
    x, y, w = randvector(3), randvector(4), randvector(5)
    j1 = lie_bracket(x, lie_bracket(y, w))
    j2 = lie_bracket(y, lie_bracket(w, x))
    j3 = lie_bracket(w, lie_bracket(x, y))
    for p in GRID:
        total = [a + b + c for a, b, c in zip(j1(p.coords()), j2(p.coords()), j3(p.coords()))]
        assert maxabs(total) < 1e-8


def test_lie_bracket_fd_oracle():
    x, y = randvector(6), randvector(7)
    br = lie_bracket(x, y)
    z = P0.coords()
    xz, yz = x(z), y(z)
    fd = [a - b for a, b in zip(fd_vector(y.fn, z, xz), fd_vector(x.fn, z, yz))]
    assert maxabs([u - v for u, v in zip(br(z), fd)]) < 1e-6


# -- insertions and exterior derivative ---------------------------------------


def test_insert_vector():
    alpha = coordinate_one_form(N, 2)  # dy1
    val = insert_vector(DY1, alpha)
    assert val(P0.coords()) == 1.0
    with pytest.raises(TypeError):  # a function is a ScalarField, not a 0-form
        insert_vector(DY1, E_EUC)


def test_insert_one_form_on_exact_forms():
    dE = d_function(E_EUC)
    djE = insert_one_form(J, dE)  # p = 1: composition with J
    z = P0.coords()
    vals = [djE(z, frame_vector(N2, a)) for a in range(N2)]
    assert maxabs([u - v for u, v in zip(vals, [1.0, 2.0, 0.0, 0.0])]) < 1e-12
    with pytest.raises(DegreeOutOfRange):  # a form has degree 1..3
        DifferentialForm(0, lambda z: E_EUC(z), N)


def test_exterior_derivative_basics():
    dx1 = coordinate_one_form(N, 0)
    ddx1 = exterior_derivative(dx1)
    z = P0.coords()
    for a in range(N2):
        for b in range(N2):
            assert ddx1(z, frame_vector(N2, a), frame_vector(N2, b)) == 0.0
    # d o d = 0 on a random 1-form
    beta = DifferentialForm(1, lambda z_, v: sum(
        (z_[0] * z_[2] + z_[3] * z_[3] * z_[1]) * v[a] * (a + 1) for a in range(N2)), N)
    ddb = exterior_derivative(exterior_derivative(beta))
    for p in GRID:
        zc = p.coords()
        for a in range(N2):
            for b in range(a + 1, N2):
                for c in range(b + 1, N2):
                    assert abs(ddb(zc, frame_vector(N2, a), frame_vector(N2, b),
                                   frame_vector(N2, c))) < 1e-10
    with pytest.raises(DegreeOutOfRange):
        exterior_derivative(DifferentialForm(3, lambda z_, u, v, w: 0.0, N))


def test_skewness_of_derived_forms():
    beta = DifferentialForm(1, lambda z_, v: z_[2] * v[0] + z_[0] * z_[3] * v[3], N)
    db = exterior_derivative(beta)
    rng = np.random.default_rng(0)
    z = P0.coords()
    for _ in range(5):
        u = list(rng.uniform(-1, 1, N2))
        v = list(rng.uniform(-1, 1, N2))
        assert abs(db(z, u, v) + db(z, v, u)) < 1e-12


def test_d_K_examples():
    djE = d_K(J, E_EUC)
    z = P0.coords()
    vals = [djE(z, frame_vector(N2, a)) for a in range(N2)]
    assert maxabs([u - v for u, v in zip(vals, [1.0, 2.0, 0.0, 0.0])]) < 1e-12
    # d_J of a vertical lift vanishes
    phi = ScalarField(lambda z_: jets.exp(z_[0]), N)  # exp o f^v for f = x1
    djphi = d_K(J, phi)
    for p in GRID:
        zc = p.coords()
        assert maxabs([djphi(zc, frame_vector(N2, a)) for a in range(N2)]) < 1e-12


# -- FN brackets ----------------------------------------------------------------


def matrix_residual(form, reference, pts=GRID):
    worst = 0.0
    for p in pts:
        m = form.matrix(p.coords())
        r = reference(p.coords()) if callable(reference) else reference
        worst = max(worst, maxabs([m[a][b] - r[a][b] for a in range(N2) for b in range(N2)]))
    return worst


def test_fn_bracket_J_C_is_J():
    br = fn_bracket(J, C)
    assert matrix_residual(br, J.matrix(P0.coords())) < 1e-12


def test_fn_bracket_J_J_is_zero():
    br = fn_bracket(J, J)
    fr = frame(N2)
    for p in GRID:
        z = p.coords()
        for a in range(N2):
            for b in range(a + 1, N2):
                assert maxabs(br(z, fr[a], fr[b])) < 1e-12


def test_fn_bracket_J_spray_matrix():
    br = fn_bracket(J, S0_EUC)
    expected = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, -1.0]]
    assert matrix_residual(br, expected) < 1e-12


def test_fn_bracket_identity_is_null():
    L = fn_bracket(J, S0_EUC)
    br = fn_bracket(identity_form(N), L)
    fr = frame(N2)
    for p in GRID:
        z = p.coords()
        for a in range(N2):
            for b in range(a + 1, N2):
                assert maxabs(br(z, fr[a], fr[b])) < 1e-10


def test_fn_bracket_1_1_hand_value():
    # [J, y1 J](dx1, dx2) = dy2 by direct computation
    L = J.scale(ScalarField(lambda z: z[2], N))
    br = fn_bracket(J, L)
    z = P0.coords()
    val = br(z, frame_vector(N2, 0), frame_vector(N2, 1))
    assert maxabs([u - v for u, v in zip(val, [0.0, 0.0, 0.0, 1.0])]) < 1e-12


def test_bracket_matrix_matches_columns():
    # the form applied to a frame vector is the matrix's column
    for K, Y in ((J, S0_EUC), (J, randvector(8)), (fn_bracket(J, S0_EUC), C)):
        br = fn_bracket(K, Y)
        for p in list(GRID)[:3]:
            z = p.coords()
            m = br.matrix(z)
            for b in range(N2):
                col = br(z, frame_vector(N2, b))
                assert maxabs([m[a][b] - col[a] for a in range(N2)]) < 1e-11


def test_constant_bracket_vector_pass_matches_columns_exactly():
    # the form applied to each frame vector gives the matrix's columns exactly,
    # and applied to the vector frame gives them slot by slot
    for K, Y in ((J, S0_EUC), (J, randvector(8)), (identity_form(N), randvector(9))):
        br = fn_bracket(K, Y)
        for p in list(GRID)[:3]:
            z = p.coords()
            cols = [br(z, frame_vector(N2, b)) for b in range(N2)]
            assert br.matrix(z) == [[cols[b][a] for b in range(N2)] for a in range(N2)]
            framed = br(z, jets.vec_frame(N2))
            assert [jets.slots(c, N2) for c in framed] == \
                [[cols[b][a] for b in range(N2)] for a in range(N2)]


def _equal_up_to_zero_signs(a, b, tag):
    """Equal values, a zero's sign aside: batches point by point (a float
    stands for every point), jets by their value and tangent slots along
    ``tag`` (the lift of a jet point)."""
    if type(a) is jets.Jet or type(b) is jets.Jet:
        return _equal_up_to_zero_signs(jets.primal(a, tag), jets.primal(b, tag), None) and \
            jets.slots(jets.tangent(a, tag), N2) == jets.slots(jets.tangent(b, tag), N2)
    return bool(np.array_equal(*np.broadcast_arrays(a, b)))


def test_bracket_with_a_structural_zero_D_Y_K_matches_the_general_branch():
    # J's entries plus a field equal to 0 that depends on z (s - s for the sum
    # s of the coordinates): every entry of its lifted matrix carries the lift's
    # tag, with zero tangents, so the bracket forms D_Y K from them; with J
    # itself, every entry of D_Y K is a structural zero.  A jet zero, not a
    # product with 0.0 or 1.0: exact zeros and units are structural in jets
    # and in the array layer, so 0.0 * s is the float zero and carries no tag
    from finslerlab.core import PointBatch
    from finslerlab.finsler import canonical_spray, finsler_fixture

    def zero(z):
        s = z[0] + z[1] + z[2] + z[3]
        return s - s

    K1 = VectorForm(1, lambda z: [[x + zero(z) for x in row] for row in J.matrix(z)], N, "J+0")
    z0 = list(GRID)[0].coords()
    tag = jets.fresh_tag()
    zj = jets.lift(z0, jets.vec_frame(N2), tag)
    points = [(z0, None), (PointBatch(list(GRID)[:3]).coords(), None), (zj, tag)]
    for Y in (randvector(8), canonical_spray(finsler_fixture("randers-0.3", GRID))):
        lift_tag = jets.fresh_tag()
        assert all(type(x) is jets.Jet and x.tag == lift_tag
                   for row in K1.matrix(jets.lift(z0, Y(z0), lift_tag)) for x in row)
        for z, t in points:
            general, structural = fn_bracket(K1, Y).matrix(z), fn_bracket(J, Y).matrix(z)
            assert all(_equal_up_to_zero_signs(a, b, t)
                       for ra, rb in zip(general, structural) for a, b in zip(ra, rb))


def test_brackets_of_J_equal_those_of_an_unshared_copy(monkeypatch):
    # J is a shared constant: [J, Y] and [J, L] read its matrix at the point,
    # with float zeros for its derivatives; a copy of J that is not shared
    # takes the general path, lifting the point along Y and along the frame
    from finslerlab.calculus import constant_vector_form
    from finslerlab.core import PointBatch
    from finslerlab.finsler import berwald_connection, finsler_fixture

    J_copy = constant_vector_form(J.matrix(P0.coords()), N, "J'")
    assert J._built is False and J_copy._built is None
    z0 = list(GRID)[0].coords()
    tag = jets.fresh_tag()
    points = [(z0, None), (PointBatch(list(GRID)[:3]).coords(), None),
              (jets.lift(z0, jets.vec_frame(N2), tag), tag)]
    h0 = berwald_connection(finsler_fixture("randers-0.3", GRID))
    for L in (randvector(8), S0_EUC, h0):
        for z, t in points:
            shared, copy = fn_bracket(J, L).matrix(z), fn_bracket(J_copy, L).matrix(z)
            if L is h0:
                shared = [x for row in shared for x in row]
                copy = [x for row in copy for x in row]
            assert all(_equal_up_to_zero_signs(a, b, t)
                       for ra, rb in zip(shared, copy) for a, b in zip(ra, rb))
    # [J, Y] makes no lift but the point's frame lift, which is made once per point
    Y = randvector(8)
    z = P0.coords()
    jets.frame_lift(z, N2)
    lifts = []
    lift = jets.lift
    monkeypatch.setattr(jets, "lift", lambda *args: lifts.append(args) or lift(*args))
    fn_bracket(J, Y).matrix(z)
    assert lifts == []
    fn_bracket(J_copy, Y).matrix(z)
    assert len(lifts) == 1


def test_float_memo_keys_tell_zero_signs_apart():
    import math

    def sign_field(z):
        return [math.copysign(1.0, z[0]), 0.0, 0.0, 0.0]

    X = VectorField(sign_field, N).memoize()
    assert X([0.0, 1.0, 1.0, 1.0])[0] == 1.0
    assert X([-0.0, 1.0, 1.0, 1.0])[0] == -1.0
    K = VectorForm(1, lambda z: [[math.copysign(1.0, z[0]) if a == b else 0.0 for b in range(N2)]
                                 for a in range(N2)], N).memoize()
    m = K.matrix([0.0, 1.0, 1.0, 1.0])
    assert K.matrix([0.0, 1.0, 1.0, 1.0]) is m
    assert K.matrix([-0.0, 1.0, 1.0, 1.0])[0][0] == -1.0
    zj = jets.lift([0.0, 1.0, 1.0, 1.0], frame_vector(N2, 1), jets.fresh_tag())
    assert K.matrix(zj) is not m and X(zj)[0] == 1.0


def graded_defect(K, L, f, sign, pts):
    """sup | d_[K,L] f - (d_K d_L f - sign * d_L d_K f) | over frame pairs."""
    br = fn_bracket(K, L)
    dk_dl = d_K(K, d_K(L, f))
    dl_dk = d_K(L, d_K(K, f))
    fr = frame(N2)
    worst = 0.0
    for p in pts:
        z = p.coords()
        for a in range(N2):
            for b in range(a + 1, N2):
                lhs = jets.directional(f.fn, z, br(z, fr[a], fr[b]))
                rhs = dk_dl(z, fr[a], fr[b]) - sign * dl_dk(z, fr[a], fr[b])
                worst = max(worst, abs(lhs - rhs))
    return worst


def test_eq4_contract_one_one():
    # d_[K,L] = d_K d_L + d_L d_K for two vector 1-forms (graded commutator)
    L = J.scale(ScalarField(lambda z: z[2], N))
    f = randfield(21)
    assert graded_defect(J, L, f, -1.0, list(GRID)[:4]) < 1e-9


def test_eq4_contract_one_zero():
    # d_[K,Y] = d_K d_Y - d_Y d_K for a vector 1-form and a vector field
    f = randfield(22)
    br = fn_bracket(J, C)  # = J
    dk_dy = d_K(J, field_apply(C, f))
    dy_dk = lie_derivative(C, d_K(J, f))
    fr = frame(N2)
    for p in list(GRID)[:4]:
        z = p.coords()
        for a in range(N2):
            lhs = jets.directional(f.fn, z, br(z, fr[a]))
            rhs = dk_dy(z, fr[a]) - dy_dk(z, fr[a])
            assert abs(lhs - rhs) < 1e-9


def test_ee2_insertion_identity():
    # i_[K,Y] a = i_Y d_K a + d_K(i_Y a) - L_{KY} a on 1-forms
    K, Y = J, randvector(9)
    alpha = d_function(randfield(23))
    br = fn_bracket(K, Y)
    lhs = insert_one_form(br, alpha)
    ky = VectorField(lambda z: K(z, Y(z)), N)
    rhs1 = insert_vector(Y, d_K(K, alpha))
    rhs2 = d_K(K, insert_vector(Y, alpha))
    rhs3 = lie_derivative(ky, alpha)
    fr = frame(N2)
    for p in list(GRID)[:4]:
        z = p.coords()
        for a in range(N2):
            val = lhs(z, fr[a]) - (rhs1(z, fr[a]) + rhs2(z, fr[a]) - rhs3(z, fr[a]))
            assert abs(val) < 1e-9


def test_new1_insertion_commutation():
    # i_Y i_K = i_K i_Y + i_{KY} on 2-forms
    gamma = DifferentialForm(2, lambda z, u, v: (z[0] + z[2] * z[2]) * (u[0] * v[3] - u[3] * v[0])
                             + z[3] * (u[1] * v[2] - u[2] * v[1]), N)
    Y = randvector(10)
    ky = VectorField(lambda z: J(z, Y(z)), N)
    lhs = insert_vector(Y, insert_one_form(J, gamma))
    rhs_a = insert_one_form(J, insert_vector(Y, gamma))
    rhs_b = insert_vector(ky, gamma)
    fr = frame(N2)
    for p in list(GRID)[:4]:
        z = p.coords()
        for a in range(N2):
            assert abs(lhs(z, fr[a]) - rhs_a(z, fr[a]) - rhs_b(z, fr[a])) < 1e-10


# -- potential, homogeneity, semibasicity ----------------------------------------


def test_potential_independence_on_semibasic():
    L = fn_bracket(J, VectorField(lambda z: [0, 0, 0.5 * (z[2] ** 2 + z[3] ** 2), 0.0], N))
    xv = vertical_lift_vector([BaseFunction(lambda x: 1.0, N), BaseFunction(lambda x: 0.0, N)], N)
    s_alt = S0_EUC + xv
    p1 = potential(L, S0_EUC, points=GRID)
    p2 = potential(L, s_alt, points=GRID)
    for p in GRID:
        assert maxabs([a - b for a, b in zip(p1(p.coords()), p2(p.coords()))]) < 1e-10


def test_potential_of_vector_two_form():
    # t = [J, y1 J] = d_J(y1) ^ J is a semibasic vector 2-form; its potential
    # is the vector 1-form X -> y1 JX - dx1(X) C; at p0 on dx1 that is -2 dy2
    t = fn_bracket(J, J.scale(ScalarField(lambda z: z[2], N)))
    pot = potential(t, S0_EUC, points=GRID)
    val = pot(P0.coords(), frame_vector(N2, 0))
    assert maxabs([u - v for u, v in zip(val, [0.0, 0.0, 0.0, -2.0])]) < 1e-12
    with pytest.raises(DegreeOutOfRange):
        potential(C, S0_EUC, points=GRID)


def test_potential_preconditions():
    L = fn_bracket(J, VectorField(lambda z: [0, 0, z[2] * z[2], 0.0], N))
    with pytest.raises(NotSemispray):
        potential(L, C, points=GRID)
    with pytest.raises(NotSemibasic):
        potential(identity_form(N), S0_EUC, points=GRID)


def test_homogeneity_examples():
    assert homogeneity_residual(S0_EUC, 2.0, GRID) < 1e-12
    assert homogeneity_residual(C, 1.0, GRID) < 1e-12
    v = VectorField(lambda z: [0, 0, 0.5 * (z[2] ** 2 + z[3] ** 2), 0.0], N)
    assert homogeneity_residual(v, 2.0, GRID) < 1e-10
    assert homogeneity_residual(v, 1.0, GRID) > 0.01
    # vector 1-form: J has degree 0 under the adopted convention ([C,J] = -J)
    assert homogeneity_residual(J, 0.0, GRID) < 1e-10


def test_semibasic_examples():
    dy1 = coordinate_one_form(N, 2)
    assert abs(semibasic_residual(dy1, GRID) - 1.0) < 1e-12
    v = VectorField(lambda z: [0, 0, 0.5 * (z[2] ** 2 + z[3] ** 2), 0.0], N)
    assert semibasic_residual(fn_bracket(J, v), GRID) < 1e-10
    assert semibasic_residual(J, GRID) < 1e-15
    assert semibasic_residual(identity_form(N), GRID) == 1.0


def test_tensor_one_form_field():
    alpha = coordinate_one_form(N, 0)
    t = tensor_one_form_field(alpha, C)
    z = P0.coords()
    assert t(z, frame_vector(N2, 0)) == [0.0, 0.0, 1.0, 2.0]
    assert t(z, frame_vector(N2, 1)) == [0.0, 0.0, 0.0, 0.0]
    m = t.matrix(z)
    assert m[2][0] == 1.0 and m[3][0] == 2.0 and m[2][1] == 0.0


def _semibasic_per_pair(K, points):
    """semibasic_residual of a vector 2-form with one ``fn`` call per frame pair."""
    fr = frame(N2)
    devs = []
    for p in points:
        z = p.coords()
        for i in range(N):
            for b in range(N2):
                devs.extend(K(z, fr[N + i], fr[b]))
        for a in range(N2):
            for b in range(a + 1, N2):
                devs.extend(K(z, fr[a], fr[b])[:N])
    return max(abs(v) for v in devs)


def test_vector_two_form_matrix_and_semibasic_residual():
    # the form applied to a frame pair is its array's entry; the semibasic
    # residual reads the array once per point
    def ev(z, u, v):
        w = u[0] * v[2] - u[2] * v[0]
        return [z[2] * w, 0.0, u[0] * v[1] - u[1] * v[0], z[3] * w]

    fr = frame(N2)
    K = VectorForm(2, lambda z: [[ev(z, u, v) for v in fr] for u in fr], N)
    for p in list(GRID)[:3]:
        z = p.coords()
        assert [[K(z, u, v) for v in fr] for u in fr] == [[ev(z, u, v) for v in fr] for u in fr]
    for form in (K, fn_bracket(J, J.scale(ScalarField(lambda z: z[2] * z[0], N)))):
        assert semibasic_residual(form, GRID) == _semibasic_per_pair(form, GRID)
    assert semibasic_residual(K, GRID) > 0.1
