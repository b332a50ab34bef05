"""Connection constructions and theorem predicates on a Finsler structure.

This module houses the deformation h_L = h0 + L + [J, (d_L E)#] of the
Berwald connection by a semibasic vector 1-form L, the Wagner connection,
the correspondence between torsion-free semibasic 1-forms and vertical
vector fields, the spray family S^V = S0 + 2V + 2 (d_[J,V] E)#, projective
factors, and the conservativity criterion i_V omega = d_J(V E) for vertical
fields.  Every predicate is a sup-norm residual over sample points; nothing
is proved symbolically.  A residual helper evaluates its points as one point
(``core.grid_coords``: one batch point for a grid of several) and takes the
sup over that point's values.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import jets
from .calculus import (
    VectorField, VectorForm, complete_lift_function, d_K, d_function,
    exterior_derivative, field_apply, fn_bracket, frame_vector,
    homogeneity_residual, identity_form, insert_one_form, insert_vector,
    liouville_field, semibasic_residual, semispray_residual, sup_abs,
    tensor_one_form_field, vertical_endomorphism, vertical_lift_function,
)
from .core import BaseFunction, ScalarField, grid_coords
from .errors import (
    DegenerateDegree, HomogeneityFailure, HypothesisFailure, NotConnection,
    NotSemibasic, NotSemispray, NotTorsionFree, NotVertical,
)
from .finsler import (
    FinslerStructure, berwald_connection, canonical_spray,
    conservative_connection_residual, gradient, projector_residual, sharp,
)

PRE_TOL = 1e-8


@dataclass(frozen=True)
class EhresmannConnection:
    """A projector-valued vector 1-form h with vertical kernel, plus provenance."""

    form: VectorForm
    provenance: str

    @property
    def n(self) -> int:
        return self.form.n

    def __call__(self, z, v):
        return self.form(z, v)

    def matrix(self, z):
        return self.form.matrix(z)


@dataclass(frozen=True)
class ConnectionDiagnostics:
    """Everything recomputable from a connection alone."""

    torsion: VectorForm
    tension: VectorForm
    torsion_residual: float
    tension_residual: float
    conservativity_residual: float


def _wrap_connection(F: FinslerStructure, form: VectorForm, provenance: str,
                     validate: bool = True, tol: float = PRE_TOL) -> EhresmannConnection:
    form.memoize_matrix()
    if validate:
        r = projector_residual(F, form, F.grid)
        if r > tol:
            raise NotConnection(f"projector laws fail for {provenance}: residual {r:.3e}")
    return EhresmannConnection(form=form, provenance=provenance)


def _as_form(h) -> VectorForm:
    return h.form if isinstance(h, EhresmannConnection) else h


# ---------------------------------------------------------------------------
# residual helpers


def vertical_residual(V: VectorField, points) -> float:
    """sup of the horizontal components of V."""
    return sup_abs(V(grid_coords(points))[:V.n])


def form_matrix_residual(A: VectorForm, B: VectorForm, points) -> float:
    """sup over points and frame of the matrix difference of two 1-forms."""
    z = grid_coords(points)
    return sup_abs(x - y for ra, rb in zip(A.matrix(z), B.matrix(z)) for x, y in zip(ra, rb))


def vector_form2_residual(K: VectorForm, points) -> float:
    """sup |K(e_a, e_b)| over points and frame pairs a < b, for a vector 2-form.

    Reads the form's frame array once.
    """
    n2 = 2 * K.n
    t = K.matrix(grid_coords(points))
    return sup_abs(v for a in range(n2) for b in range(a + 1, n2) for v in t[a][b])


def vector_form1_residual(K: VectorForm, points) -> float:
    return sup_abs(x for row in K.matrix(grid_coords(points)) for x in row)


def vector_field_residual(X: VectorField, points) -> float:
    return sup_abs(X(grid_coords(points)))


# ---------------------------------------------------------------------------
# constructions


def connection_from_semispray(F: FinslerStructure, S: VectorField,
                              pre_tol: float = PRE_TOL) -> EhresmannConnection:
    """h = (Id + [J, S]) / 2; zero weak torsion by construction."""
    if semispray_residual(S, F.grid) > pre_tol:
        raise NotSemispray("J(S) != C on the sample grid")
    J = vertical_endomorphism(F.n)
    form = (identity_form(F.n) + fn_bracket(J, S)).scale(0.5)
    form.name = f"h({S.name})"
    return _wrap_connection(F, form, f"from-semispray({S.name or 'S'})")


def associated_semispray(F: FinslerStructure, h) -> VectorField:
    """S = h(S0); the same field for any semispray seed since h kills verticals."""
    form = _as_form(h)
    s0 = canonical_spray(F)
    out = VectorField(lambda z: form(z, s0(z)), F.n, name="h(S0)", memo=True)
    return out


def berwald(F: FinslerStructure) -> EhresmannConnection:
    return EhresmannConnection(form=berwald_connection(F), provenance="berwald")


def sharp_of_dLE(F: FinslerStructure, L: VectorForm) -> VectorField:
    """(d_L E)#, the vertical field driving the h_L deformation."""
    return sharp(F, d_K(L, F.E))


def theta_operator(F: FinslerStructure, L: VectorForm,
                   pre_tol: float = PRE_TOL) -> VectorForm:
    """Theta_L = L + [J, (d_L E)#] = h_L - h0, on semibasic 1-forms."""
    r = semibasic_residual(L, F.grid)
    if r > pre_tol:
        raise NotSemibasic(f"Theta needs a semibasic operand, residual {r:.3e}")
    J = vertical_endomorphism(F.n)
    theta = L + fn_bracket(J, sharp_of_dLE(F, L))
    theta.name = f"Theta({L.name})"
    return theta


def l_ehresmann_connection(F: FinslerStructure, L: VectorForm,
                           pre_tol: float = PRE_TOL) -> EhresmannConnection:
    """h_L = h0 + L + [J, (d_L E)#]."""
    form = berwald_connection(F) + theta_operator(F, L, pre_tol=pre_tol)
    form.name = f"h_L({L.name})"
    return _wrap_connection(F, form, f"l-ehresmann({L.name or 'L'})")


def wagner_connection(F: FinslerStructure, f: BaseFunction):
    """The Wagner deformation for a base function f.

    Returns (connection, L_W) where
    h = h0 + f^c J - E [J, grad f^v] - d_J E (x) grad f^v  and
    L_W = (f^c J - d(f^v) (x) C) / 2.
    This construction is deliberately independent of h_{L_W}; their equality
    is a verified identity, not an implementation shortcut.
    """
    n = F.n
    J = vertical_endomorphism(n)
    f_v = vertical_lift_function(f)
    f_c = complete_lift_function(f)
    grad_fv = gradient(F, f_v)
    djE = d_K(J, F.E)
    form = berwald_connection(F) \
        + J.scale(f_c) \
        + fn_bracket(J, grad_fv).scale(F.E).scale(-1.0) \
        + tensor_one_form_field(djE, grad_fv).scale(-1.0)
    form.name = f"wagner({f.name})"
    C = liouville_field(n)
    L_W = (J.scale(f_c) + tensor_one_form_field(d_function(f_v), C).scale(-1.0)).scale(0.5)
    L_W.name = f"L_W({f.name})"
    return _wrap_connection(F, form, f"wagner({f.name or 'f'})"), L_W


def weak_torsion(F: FinslerStructure, h) -> VectorForm:
    """t = [J, h], a vector 2-form."""
    J = vertical_endomorphism(F.n)
    t = fn_bracket(J, _as_form(h))
    t.name = "t"
    return t


def tension(F: FinslerStructure, h) -> VectorForm:
    """H = [C, h], a vector 1-form; zero means the connection is homogeneous."""
    C = liouville_field(F.n)
    H = fn_bracket(C, _as_form(h))
    H.name = "H"
    return H


def diagnostics(F: FinslerStructure, h, points=None) -> ConnectionDiagnostics:
    points = points if points is not None else F.grid
    t = weak_torsion(F, h)
    H = tension(F, h)
    return ConnectionDiagnostics(
        torsion=t,
        tension=H,
        torsion_residual=vector_form2_residual(t, points),
        tension_residual=vector_form1_residual(H, points),
        conservativity_residual=conservative_connection_residual(F, _as_form(h), points),
    )


def torsion_free_residual(F: FinslerStructure, L: VectorForm,
                          points=None, pre_tol: float = PRE_TOL) -> float:
    """sup |[J, L]| over frame pairs; zero characterises torsion-free forms."""
    points = points if points is not None else F.grid
    r = semibasic_residual(L, points)
    if r > pre_tol:
        raise NotSemibasic(f"torsion-freeness applies to semibasic forms, residual {r:.3e}")
    J = vertical_endomorphism(F.n)
    return vector_form2_residual(fn_bracket(J, L), points)


def v_from_torsion_free(F: FinslerStructure, L: VectorForm,
                        pre_tol: float = PRE_TOL) -> VectorField:
    """A vertical V with [J, V] = L, for torsion-free semibasic L.

    V = (S - S0)/2 - (d_L E)# with S the semispray associated to h_L; any
    V + X^v solves the same equation.
    """
    if torsion_free_residual(F, L, pre_tol=pre_tol) > pre_tol:
        raise NotTorsionFree("[J, L] != 0 on the sample grid")
    h_L = l_ehresmann_connection(F, L, pre_tol=pre_tol)
    S = associated_semispray(F, h_L)
    s0 = canonical_spray(F)
    W = sharp_of_dLE(F, L)

    def ev(z):
        return [0.5 * (a - b) - c for a, b, c in zip(S(z), s0(z), W(z))]

    return VectorField(ev, F.n, name=f"V({L.name})", memo=True)


def v_from_homogeneous(F: FinslerStructure, L: VectorForm, r: float,
                       pre_tol: float = PRE_TOL) -> VectorField:
    """V = L° / (r + 1) for torsion-free L homogeneous of degree r != -1."""
    if r == -1:
        raise DegenerateDegree("degree -1 admits no potential reconstruction")
    if torsion_free_residual(F, L, pre_tol=pre_tol) > pre_tol:
        raise NotTorsionFree("[J, L] != 0 on the sample grid")
    hr = homogeneity_residual(L, r, F.grid)
    if hr > pre_tol:
        raise HomogeneityFailure(
            f"L is not homogeneous of degree {r}", value=hr)
    s0 = canonical_spray(F)
    pot = insert_vector(s0, L)
    return pot.scale(1.0 / (r + 1.0))


def semispray_from_vertical(F: FinslerStructure, V: VectorField,
                            pre_tol: float = PRE_TOL) -> VectorField:
    """S^V = S0 + 2V + 2 (d_[J,V] E)#; generates the [J,V]-connection."""
    if vertical_residual(V, F.grid) > pre_tol:
        raise NotVertical("V has horizontal components on the sample grid")
    J = vertical_endomorphism(F.n)
    L = fn_bracket(J, V)
    W = sharp_of_dLE(F, L)
    s0 = canonical_spray(F)

    def ev(z):
        return [a + 2.0 * (b + c) for a, b, c in zip(s0(z), V(z), W(z))]

    return VectorField(ev, F.n, name=f"S^({V.name})", memo=True)


def projective_factor(F: FinslerStructure, V: VectorField, U: VectorField,
                      pre_tol: float = PRE_TOL):
    """Candidate factor lam = 3 (V - U) E / E and the measured deviation.

    Returns (lam, residual) where residual = sup |S^V - S^U - lam C|; the two
    sprays are projectively related precisely when the residual vanishes, and
    only then is lam meaningful (and 1-homogeneous).
    """
    for X, tag in ((V, "V"), (U, "U")):
        if vertical_residual(X, F.grid) > pre_tol:
            raise NotVertical(f"{tag} has horizontal components")
        hr = homogeneity_residual(X, 2.0, F.grid)
        if hr > pre_tol:
            raise HomogeneityFailure(f"{tag} is not 2-homogeneous", value=hr)
    lam = (field_apply(V - U, F.E) * 3.0) / F.E
    lam.name = "lambda"
    sV = semispray_from_vertical(F, V, pre_tol)
    sU = semispray_from_vertical(F, U, pre_tol)
    C = liouville_field(F.n)
    z = grid_coords(F.grid)
    lc = lam(z)
    return lam, sup_abs(a - b - lc * c for a, b, c in zip(sV(z), sU(z), C(z)))


def vincze_residual(F: FinslerStructure, V: VectorField,
                    points=None, pre_tol: float = PRE_TOL) -> float:
    """sup |i_V omega - d_J(V E)|; zero characterises conservative vertical fields."""
    points = points if points is not None else F.grid
    if vertical_residual(V, points) > pre_tol:
        raise NotVertical("V has horizontal components on the sample points")
    J = vertical_endomorphism(F.n)
    VE = field_apply(V, F.E)
    dj_ve = d_K(J, VE)
    n2 = 2 * F.n
    z = grid_coords(points)
    vz = V(z)
    m = F.omega.matrix_at(z)
    return sup_abs(sum(vz[a] * m[a][b] for a in range(n2)) - dj_ve(z, frame_vector(n2, b))
                   for b in range(n2))


def conservative_lift(F: FinslerStructure, V: VectorField,
                      pre_tol: float = PRE_TOL) -> VectorField:
    """U = V + (d_[J,V] E)#, conservative whenever the [J,V]-connection is.

    Raises HypothesisFailure (with the measured residual) when the
    [J,V]-connection is not conservative, distinguishing an inapplicable
    theorem from a violated one.
    """
    if vertical_residual(V, F.grid) > pre_tol:
        raise NotVertical("V has horizontal components on the sample grid")
    J = vertical_endomorphism(F.n)
    L = fn_bracket(J, V)
    h = l_ehresmann_connection(F, L, pre_tol=pre_tol)
    r = conservative_connection_residual(F, h.form, F.grid)
    if r > pre_tol:
        raise HypothesisFailure(
            f"[J,V]-connection is not conservative (residual {r:.3e})", residual=r)
    W = sharp_of_dLE(F, L)
    return VectorField(lambda z: [a + b for a, b in zip(V(z), W(z))],
                       F.n, name=f"U({V.name})", memo=True)


def vertical_lift_test(F: FinslerStructure, g: ScalarField, points=None) -> float:
    """sup |d_J g| over points and frame; zero iff g is a vertical lift."""
    points = points if points is not None else F.grid
    J = vertical_endomorphism(F.n)
    djg = d_K(J, g)
    n2 = 2 * F.n
    z = grid_coords(points)
    return sup_abs(djg(z, frame_vector(n2, a)) for a in range(n2))


def dh_omega_residual(F: FinslerStructure, h, points=None) -> float:
    """sup over points and frame triples of d_h omega = i_h(d omega) - d(i_h omega).

    The grid is evaluated as one point (``core.grid_coords``), and its lifted
    evaluations are shared across all triples: one vector lift along the
    frame gives the derivatives of the connection matrix and of the omega
    matrix in every direction, and the connection matrix at the point itself
    is the primal of the lifted one, so h is evaluated once.  omega at the
    lifted point comes through the structure's point memo, so connections
    evaluated in turn at one grid share it.  Of d(i_h omega) only the entries
    the triples a < b < c read are formed.
    """
    points = points if points is not None else F.grid
    form = _as_form(h)
    n2 = 2 * F.n
    rng = range(n2)
    tag = jets.fresh_tag()
    za = jets.lift(grid_coords(points), jets.vec_frame(n2), tag)
    m = form.matrix(za)
    h_real = [[jets.primal(x, tag) for x in row] for row in m]
    w = F.shared_omega_matrix_at(za)
    # d_ihom[a][b][c] = D_a[(i_h om)(e_b, e_c)] for b < c, the entries read;
    # d_om[a][b][c] = D_a[om(e_b, e_c)], read in every order
    d_ihom = [[[0.0] * n2 for _ in rng] for _ in rng]
    d_om = [[[0.0] * n2 for _ in rng] for _ in rng]
    for b in rng:
        for c in rng:
            for a, v in enumerate(jets.slots(jets.tangent(w[b][c], tag), n2)):
                d_om[a][b][c] = v
        for c in range(b + 1, n2):
            val = sum(m[d][b] * w[d][c] for d in rng) \
                + sum(m[d][c] * w[b][d] for d in rng)
            for a, v in enumerate(jets.slots(jets.tangent(val, tag), n2)):
                d_ihom[a][b][c] = v

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
    return sup_abs(devs)


def dh_omega_form(F: FinslerStructure, h):
    """d_h omega as a generic 3-form (reference path for the shared driver)."""
    om = F.omega.two_form
    form = _as_form(h)
    return insert_one_form(form, exterior_derivative(om)) \
        - exterior_derivative(insert_one_form(form, om))
