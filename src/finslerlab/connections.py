"""Connection constructions and theorem predicates on a Finsler structure.

This module houses the deformation h_L = h0 + L + [J, (d_L E)#] of the Berwald
connection by a semibasic vector 1-form L, the Wagner connection, the
correspondence between torsion-free semibasic 1-forms and vertical vector
fields, the spray family S^V = S0 + 2V + 2 (d_[J,V] E)#, projective factors,
and the conservativity criterion i_V omega = d_J(V E) for vertical fields.  A
connection is its vector 1-form h, a projector whose kernel is the vertical
bundle: each construction returns the ``VectorForm`` itself, with its frame
arrays memoised (``memoize()``), and h0 is ``finsler.berwald_connection``.
The fields are sums of sharps (``finsler.sharp_field``) built with the field
algebra of ``calculus``.  A construction is built once per structure and
operand and lives exactly as long as the operand: (d_L E)#, Theta_L and h_L
are kept on L and S^V on V (``memo.kept_on``), as brackets are kept on their
operand, so every caller of h_L([J, V]) or S^V (a cell, ``conservative_lift``,
``v_from_torsion_free``) reads one object and its memos.  Each holds
``L.matrix``, ``V.at`` and ``F.shared_omega_at``, not L, V and F, and F enters
its key as that evaluator: an operand kept on F never refers back to F, and
reference counting frees it with its operand.  [J, h] and [C, h] (torsion,
tension) are these brackets.  A construction may read dE from the structure's
point memo, as (d_L E)# does (d_L E = dE o L); a predicate never does, and the
Vincze residual reads omega from a fresh pass.  A 1-form is evaluated on the
whole frame at once, along ``jets.vec_frame``, and ``jets.slots`` gives its 2n
values.  Every predicate is a sup-norm residual over sample points; nothing is
proved symbolically.  A residual helper evaluates its points as one point
(``core.grid_coords``: one batch point for a grid of several) and takes the
sup over that point's values.  Each construction and predicate first tests its
hypotheses (semibasic, torsion-free, vertical, homogeneous, a semispray, the
projector laws, a conservative [J,V]-connection) as residuals on the
structure's grid, or on the points given (a kept construction once, when it is
built), and passes each residual to ``calculus.precheck``, the one gate of the
library's pre-checks: it raises the matching typed error unless the residual
is at most ``calculus.PRECHECK_TOL``, so a NaN residual raises too.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import jets
from .calculus import (
    VectorField, VectorForm, _combine, complete_lift_function, d_K, d_function,
    field_apply, fn_bracket, homogeneity_residual, identity_form,
    insert_vector, liouville_field, precheck, semibasic_residual,
    semispray_residual, sup_abs, tensor_one_form_field, vertical_endomorphism,
    vertical_lift_function,
)
from .core import BaseFunction, ScalarField, grid_coords
from .errors import (
    DegenerateDegree, HomogeneityFailure, HypothesisFailure, NotConnection,
    NotSemibasic, NotSemispray, NotTorsionFree, NotVertical,
)
from .finsler import (
    FinslerStructure, berwald_connection, canonical_spray,
    conservative_connection_residual, gradient, kept_projector_residual, sharp_field,
)
from .memo import kept_on


def _wrap_connection(F: FinslerStructure, form: VectorForm) -> VectorForm:
    """The connection ``form``, once its projector laws hold on F's grid; its
    frame arrays are memoised."""
    form.memoize()
    r = kept_projector_residual(F, form, F.grid)
    precheck(r, NotConnection(f"projector laws fail for {form.name}: residual {r:.3e}"))
    return form


# ---------------------------------------------------------------------------
# residual helpers


def vertical_residual(V: VectorField, points) -> float:
    """sup of the horizontal components of V."""
    return sup_abs(V(grid_coords(points))[:V.n])


def form_matrix_residual(A: VectorForm, B: VectorForm, points) -> float:
    """sup over points and frame of the matrix difference of two 1-forms,
    taken on the matrices stacked over the points (``jets.stacked``)."""
    z = grid_coords(points)
    return sup_abs([(jets.stacked(A.matrix(z), z) - jets.stacked(B.matrix(z), z)).ravel()])


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


def connection_from_semispray(F: FinslerStructure, S: VectorField) -> VectorForm:
    """h = (Id + [J, S]) / 2; zero weak torsion by construction."""
    precheck(semispray_residual(S, F.grid), NotSemispray("J(S) != C on the sample grid"))
    J = vertical_endomorphism(F.n)
    form = (identity_form(F.n) + fn_bracket(J, S)).scale(0.5)
    form.name = f"h({S.name or 'S'})"
    return _wrap_connection(F, form)


def associated_semispray(F: FinslerStructure, h: VectorForm) -> VectorField:
    """S = h(S0); the same field for any semispray seed since h kills verticals."""
    return insert_vector(canonical_spray(F), h).memoize()


berwald = berwald_connection  # old name of h0; perfbench/workloads.py is its only reader


def sharp_of_dLE(F: FinslerStructure, L: VectorForm) -> VectorField:
    """(d_L E)#, the vertical field driving the h_L deformation.

    d_L E = dE o L, so at z its value on e_b is beta_b = sum_a dE_a L[a][b],
    the rows of L's matrix contracted with dE (``_combine``), with dE from
    the memo entry that the solve reads omega from (``finsler.sharp_field``),
    as the canonical spray does: it makes no pass of E and no second lookup.
    """

    def build():
        n2, l_matrix = 2 * F.n, L.matrix
        return sharp_field(F, lambda z, dE: _combine(jets.slots(dE, n2), l_matrix(z)),
                           f"sharp(d_{L.name}{F.E.name})")

    return kept_on(L, "sharp_of_dLE", (F.shared_omega_at,), build)


def theta_operator(F: FinslerStructure, L: VectorForm) -> VectorForm:
    """Theta_L = L + [J, (d_L E)#] = h_L - h0, on semibasic 1-forms."""

    def build():
        r = semibasic_residual(L, F.grid)
        precheck(r, NotSemibasic(f"Theta needs a semibasic operand, residual {r:.3e}"))
        theta = L + fn_bracket(vertical_endomorphism(F.n), sharp_of_dLE(F, L))
        theta.name = f"Theta({L.name})"
        return theta

    return kept_on(L, "theta_operator", (F.shared_omega_at,), build)


def l_ehresmann_connection(F: FinslerStructure, L: VectorForm) -> VectorForm:
    """h_L = h0 + L + [J, (d_L E)#]."""

    def build():
        form = berwald_connection(F) + theta_operator(F, L)
        form.name = f"h_L({L.name or 'L'})"
        return _wrap_connection(F, form)

    return kept_on(L, "l_ehresmann_connection", (F.shared_omega_at,), build)


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
        - fn_bracket(J, grad_fv).scale(F.E) \
        - tensor_one_form_field(djE, grad_fv)
    form.name = f"wagner({f.name or 'f'})"
    C = liouville_field(n)
    L_W = (J.scale(f_c) - tensor_one_form_field(d_function(f_v), C)).scale(0.5)
    L_W.name = f"L_W({f.name})"
    return _wrap_connection(F, form), L_W


def weak_torsion(F: FinslerStructure, h: VectorForm) -> VectorForm:
    """t = [J, h], a vector 2-form: the bracket itself, kept on h."""
    return fn_bracket(vertical_endomorphism(F.n), h)


def tension(F: FinslerStructure, h: VectorForm) -> VectorForm:
    """H = [C, h], a vector 1-form, kept on h; zero means the connection is
    homogeneous."""
    return fn_bracket(liouville_field(F.n), h)


def torsion_free_residual(F: FinslerStructure, L: VectorForm, points=None) -> float:
    """sup |[J, L]| over frame pairs; zero characterises torsion-free forms."""
    points = points if points is not None else F.grid
    r = semibasic_residual(L, points)
    precheck(r, NotSemibasic(f"torsion-freeness applies to semibasic forms, residual {r:.3e}"))
    J = vertical_endomorphism(F.n)
    return vector_form2_residual(fn_bracket(J, L), points)


def v_from_torsion_free(F: FinslerStructure, L: VectorForm) -> VectorField:
    """A vertical V with [J, V] = L, for torsion-free semibasic L.

    V = (S - S0)/2 - (d_L E)# with S the semispray associated to h_L; any
    V + X^v solves the same equation.
    """
    precheck(torsion_free_residual(F, L), NotTorsionFree("[J, L] != 0 on the sample grid"))
    S = associated_semispray(F, l_ehresmann_connection(F, L))
    V = ((S - canonical_spray(F)).scale(0.5) - sharp_of_dLE(F, L)).memoize()
    V.name = f"V({L.name})"
    return V


def v_from_homogeneous(F: FinslerStructure, L: VectorForm, r: float) -> VectorField:
    """V = L° / (r + 1) for torsion-free L homogeneous of degree r != -1."""
    if r == -1:
        raise DegenerateDegree("degree -1 admits no potential reconstruction")
    precheck(torsion_free_residual(F, L), NotTorsionFree("[J, L] != 0 on the sample grid"))
    hr = homogeneity_residual(L, r, F.grid)
    precheck(hr, HomogeneityFailure(f"L is not homogeneous of degree {r}", value=hr))
    s0 = canonical_spray(F)
    pot = insert_vector(s0, L)
    return pot.scale(1.0 / (r + 1.0))


def semispray_from_vertical(F: FinslerStructure, V: VectorField) -> VectorField:
    """S^V = S0 + 2V + 2 (d_[J,V] E)#; generates the [J,V]-connection."""

    def build():
        precheck(vertical_residual(V, F.grid),
                 NotVertical("V has horizontal components on the sample grid"))
        W = sharp_of_dLE(F, fn_bracket(vertical_endomorphism(F.n), V))
        sV = (canonical_spray(F) + (V + W).scale(2.0)).memoize()
        sV.name = f"S^({V.name})"
        return sV

    return kept_on(V, "semispray_from_vertical", (F.shared_omega_at,), build)


def projective_factor(F: FinslerStructure, V: VectorField, U: VectorField):
    """Candidate factor lam = 3 (V - U) E / E and the measured deviation.

    Returns (lam, residual) where residual = sup |S^V - S^U - lam C|; the two
    sprays are projectively related precisely when the residual vanishes, and
    only then is lam meaningful (and 1-homogeneous).
    """
    for X, tag in ((V, "V"), (U, "U")):
        precheck(vertical_residual(X, F.grid), NotVertical(f"{tag} has horizontal components"))
        hr = homogeneity_residual(X, 2.0, F.grid)
        precheck(hr, HomogeneityFailure(f"{tag} is not 2-homogeneous", value=hr))
    lam = (field_apply(V - U, F.E) * 3.0) / F.E
    lam.name = "lambda"
    sV = semispray_from_vertical(F, V)
    sU = semispray_from_vertical(F, U)
    C = liouville_field(F.n)
    z = grid_coords(F.grid)
    lc = lam(z)
    return lam, sup_abs(a - b - lc * c for a, b, c in zip(sV(z), sU(z), C(z)))


def vincze_residual(F: FinslerStructure, V: VectorField, points=None) -> float:
    """sup |i_V omega - d_J(V E)|; zero characterises conservative vertical fields."""
    points = points if points is not None else F.grid
    precheck(vertical_residual(V, points),
             NotVertical("V has horizontal components on the sample points"))
    J = vertical_endomorphism(F.n)
    VE = field_apply(V, F.E)
    dj_ve = d_K(J, VE)
    n2 = 2 * F.n
    z = grid_coords(points)
    vz = V(z)
    m = F.omega_matrix_at(z)
    dj = dj_ve.array(z)
    return sup_abs(sum(vz[a] * m[a][b] for a in range(n2)) - dj[b] for b in range(n2))


def conservative_lift(F: FinslerStructure, V: VectorField) -> VectorField:
    """U = V + (d_[J,V] E)#, conservative whenever the [J,V]-connection is.

    Raises HypothesisFailure (with the measured residual) when the
    [J,V]-connection is not conservative, distinguishing an inapplicable
    theorem from a violated one.
    """
    precheck(vertical_residual(V, F.grid),
             NotVertical("V has horizontal components on the sample grid"))
    J = vertical_endomorphism(F.n)
    L = fn_bracket(J, V)
    h = l_ehresmann_connection(F, L)
    r = conservative_connection_residual(F, h, F.grid)
    precheck(r, HypothesisFailure(
        f"[J,V]-connection is not conservative (residual {r:.3e})", residual=r))
    U = (V + sharp_of_dLE(F, L)).memoize()
    U.name = f"U({V.name})"
    return U


def vertical_lift_test(F: FinslerStructure, g: ScalarField, points=None) -> float:
    """sup |d_J g| over points and frame; zero iff g is a vertical lift."""
    points = points if points is not None else F.grid
    J = vertical_endomorphism(F.n)
    return sup_abs(d_K(J, g).array(grid_coords(points)))


def dh_omega_residual(F: FinslerStructure, h: VectorForm, points=None) -> float:
    """sup over points and frame triples of d_h omega = i_h(d omega) - d(i_h omega).

    The grid is evaluated as one point (``core.grid_coords``) and lifted once
    along the vector frame (``jets.frame_pass``, the lift that the brackets
    in h and [J, h] make of the same point): h and omega there give their
    matrices and their derivatives in every direction.  h is read first:
    h0's bracket builds omega at the lift of the lifted point, and the
    structure's memo stores its primal at the lifted point, so omega there
    is a hit.

    The primal parts and tangent slots are read into float arrays, and each
    sum over d adds one term at a time in the order of d with the grouping of
    the scalar formulas (a term of D(i_h omega) is ``p t_w + t_m p_w``; then
    ``(s1 + s2) + s3 - d_ih``), so every entry is the operation that the jet
    product rule and per-triple scalar sums perform (the reference in
    ``tests/test_connections.py``).  Only the signs of zeros can differ, where
    a structural-zero slot is an added zero; the sup removes them.
    """
    points = points if points is not None else F.grid
    n2 = 2 * F.n
    z = grid_coords(points)
    tag, (hm, om) = jets.frame_pass(
        lambda za: (h.matrix(za), F.shared_omega_at(za)[0]), z, n2)  # h first: see above
    hp, ht = _primal_and_slots(hm, tag, z)
    wp, wt = _primal_and_slots(om, tag, z)
    # D_a of h[d][b] om[d][c] and of h[d][c] om[b][d], at [point, d, b, c, a]
    t1 = hp[:, :, :, None, None] * wt[:, :, None, :, :] \
        + ht[:, :, :, None, :] * wp[:, :, None, :, None]
    t2 = hp[:, :, None, :, None] * wt.transpose(0, 2, 1, 3)[:, :, :, None, :] \
        + ht[:, :, None, :, :] * wp.transpose(0, 2, 1)[:, :, :, None, None]
    d_ihom = _sum_over_d(t1) + _sum_over_d(t2)  # D_a[(i_h om)(e_b, e_c)] at [point, b, c, a]
    d_om = _alternate(wt.transpose(0, 3, 1, 2))
    a, b, c = _triples(n2)
    s1 = _sum_over_d(hp[:, :, a] * d_om[:, :, b, c])
    s2 = _sum_over_d(hp[:, :, b] * d_om.transpose(0, 2, 1, 3)[:, :, a, c])
    s3 = _sum_over_d(hp[:, :, c] * d_om.transpose(0, 3, 1, 2)[:, :, a, b])
    d_ih = _alternate(d_ihom.transpose(0, 3, 1, 2))[:, a, b, c]
    return sup_abs([((s1 + s2) + s3 - d_ih).ravel()])


def _primal_and_slots(m, tag, z):
    """A matrix at z lifted with ``tag`` along ``vec_frame``, as float arrays
    at [point, row, column] (primal) and [point, row, column, slot]."""
    n2 = len(m)
    p = jets.stacked(m, z)
    t = jets.stacked([jets.slots(jets.tangent(x, tag), n2) for row in m for x in row], z)
    return p, t.reshape(len(p), n2, n2, n2)


def _sum_over_d(terms):
    """The sum over axis 1 (d), adding one term at a time in the order of d."""
    return functools.reduce(np.add, (terms[:, d] for d in range(terms.shape[1])))


def _alternate(t):
    """t_abc - t_bac + t_cab at [point, a, b, c]; d om for t_abc = D_a om_bc."""
    return t - t.transpose(0, 2, 1, 3) + t.transpose(0, 2, 3, 1)


@functools.cache
def _triples(n2):
    """Index arrays a, b, c of the frame triples a < b < c, in order."""
    return np.array(list(itertools.combinations(range(n2), 3))).T

