"""Residual reductions on stacked arrays equal their per-entry references, bit for bit.

``sup_abs`` reduces its batch values with one numpy call, and
``projector_residual`` and ``form_matrix_residual`` work on the connection
matrices stacked over the points.  The references below are the per-entry
loops they replace; each product and partial sum is the same IEEE operation
in both, so the residuals agree to the last bit (compared with ``float.hex``)
at a float point, a 32-point batch and a one-point batch.

Likewise a 1-form on the whole frame is one evaluation along
``jets.vec_frame``, whose slots repeat the per-frame-vector passes of the
per-frame loops it replaces (``checks._sup_form1``, ``vertical_lift_test``,
``vincze_residual``, ``finsler._d_form_E_residual`` and the row of
``tensor_one_form_field``), so they agree up to the signs of zeros.
"""

import math

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.calculus import (
    complete_lift_function, d_function, d_K, field_apply, fn_bracket, frame_vector,
    identity_form, insert_vector, liouville_field, sup_abs, tensor_one_form_field,
    vertical_endomorphism, vertical_lift_function,
)
from finslerlab.checks import _sup_form1, random_one_forms
from finslerlab.connections import (
    form_matrix_residual, l_ehresmann_connection, vertical_lift_test, vincze_residual,
)
from finslerlab.core import PointBatch, grid_coords, point, sample_slit_points
from finslerlab.errors import BadConfig
from finslerlab.finsler import (
    _d_form_E_residual, berwald_connection, canonical_spray, finsler_fixture, fixture_ids,
    gradient, projector_residual,
)
from finslerlab.registry import base_function, build_connection, build_field, build_form


def ref_sup_abs(values):
    worst = 0.0
    for v in values:
        a = abs(v)
        if type(a) is jets.Batch:
            a = float(a.max())
        if a != a:
            return a
        if a > worst:
            worst = a
    return worst


def ref_projector_residual(F, h, points):
    n, n2 = F.n, 2 * F.n
    jm = vertical_endomorphism(n).matrix([0.0] * n2)
    m = h.matrix(grid_coords(points))
    devs = []
    for b in range(n2):
        col = [m[a][b] for a in range(n2)]
        hcol = [sum(m[a][c] * col[c] for c in range(n2)) for a in range(n2)]
        devs.extend(hcol[a] - col[a] for a in range(n2))
        jh = [sum(jm[a][c] * col[c] for c in range(n2)) for a in range(n2)]
        devs.extend(jh[a] - jm[a][b] for a in range(n2))
    devs.extend(m[a][n + i] for i in range(n) for a in range(n2))
    return ref_sup_abs(devs)


def ref_form_matrix_residual(A, B, points):
    z = grid_coords(points)
    return ref_sup_abs(x - y for ra, rb in zip(A.matrix(z), B.matrix(z)) for x, y in zip(ra, rb))


GRID = sample_slit_points(2, 32, 7)
P = list(GRID)[5]
GRIDS = {"float point": [P], "32-point batch": GRID,
         "one-point batch": (PointBatch([P]),)}


def _forms(F):
    """Connections of the checks and forms near them, so that residuals are nonzero too."""
    hbar, L_W = build_connection(F, "wagner:x1"), build_form(F, "wagner-form:x1")
    h0 = berwald_connection(F)
    return {"h0": h0, "wagner": hbar, "h_L_W": l_ehresmann_connection(F, L_W),
            "h_[J,E-dy1]": build_connection(F, "l:jv:E-dy1"), "h0 + L_W": h0 + L_W,
            "1.5 h0": h0.scale(1.5)}


@pytest.fixture(scope="module", params=fixture_ids())
def forms(request):
    F = finsler_fixture(request.param, GRID)
    return F, _forms(F)


@pytest.mark.parametrize("where", GRIDS)
def test_projector_residual_equals_its_per_entry_reference(forms, where):
    F, hs = forms
    for name, h in hs.items():
        got = projector_residual(F, h, GRIDS[where])
        assert got.hex() == ref_projector_residual(F, h, GRIDS[where]).hex(), name


@pytest.mark.parametrize("where", GRIDS)
def test_form_matrix_residual_equals_its_per_entry_reference(forms, where):
    _, hs = forms
    pairs = [("wagner", "h_L_W"), ("h0", "h_[J,E-dy1]"), ("h0", "h0 + L_W"),
             ("1.5 h0", "h0"), ("h0", "h0")]
    for a, b in pairs:
        got = form_matrix_residual(hs[a], hs[b], GRIDS[where])
        assert got.hex() == ref_form_matrix_residual(hs[a], hs[b], GRIDS[where]).hex(), (a, b)


def test_a_nan_at_one_point_of_a_batch_reads_nan():
    # forms that need no sharp solve, so omega is never read at the NaN point
    F = finsler_fixture("randers-0.3", GRID)
    L_W = build_form(F, "wagner-form:x1")
    f_c = complete_lift_function(base_function("x1", F.n))
    J = vertical_endomorphism(F.n)
    pts = list(GRID)
    pts[17] = point(*pts[17].base, math.nan, pts[17].fiber[1])
    grid = (PointBatch(pts),)
    for h in (L_W, J.scale(f_c), identity_form(F.n) + L_W):
        assert math.isnan(projector_residual(F, h, grid))
        assert math.isnan(ref_projector_residual(F, h, grid))
        assert math.isnan(form_matrix_residual(h, J, grid))
        assert math.isnan(form_matrix_residual(J, h, grid))


def _values(rng, size):
    """A mix of floats and batches with negative zeros, infinities and ties."""
    pool = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 2.5e-16, -2.5e-16]
    out = []
    for _ in range(rng.integers(0, 6)):
        if rng.random() < 0.5:
            out.append(float(rng.choice(pool)) if rng.random() < 0.5 else float(rng.normal()))
        else:
            b = rng.normal(size=size)
            b[rng.random(size) < 0.3] = -0.0
            out.append(jets.batch(b))
    return out


@pytest.mark.parametrize("size", [1, 32])
def test_sup_abs_equals_its_per_entry_reference(size):
    rng = np.random.default_rng(14)
    for _ in range(300):
        values = _values(rng, size)
        assert sup_abs(values).hex() == ref_sup_abs(values).hex()
        assert sup_abs(iter(values)).hex() == ref_sup_abs(values).hex()


def test_sup_abs_of_nan_negative_zero_and_empty_inputs():
    nan_slot = jets.batch([1.0, math.nan, 3.0])
    for values in ([nan_slot], [0.5, nan_slot, 2.0], [nan_slot, jets.batch([9.0] * 3)],
                   [jets.batch([1.0] * 3), math.nan]):
        assert math.isnan(sup_abs(values)) and math.isnan(ref_sup_abs(values))
    for values in ([-0.0], [jets.batch([-0.0, -0.0])], [-0.0, jets.batch([-0.0])], [], ()):
        assert sup_abs(values).hex() == ref_sup_abs(values).hex() == (0.0).hex()
    assert sup_abs(iter(())) == 0.0
    for f in (sup_abs, ref_sup_abs):
        with pytest.raises(ValueError):
            f([jets.batch([])])
    F = finsler_fixture("euclidean", [P])
    h0 = berwald_connection(F)
    with pytest.raises(BadConfig):
        projector_residual(F, h0, [])
    with pytest.raises(BadConfig):
        form_matrix_residual(h0, h0, [])


# -- 1-forms on the whole frame in one vector pass ----------------------------------------


def ref_sup_form1(form, z, n2):
    return sup_abs(form(z, frame_vector(n2, a)) for a in range(n2))


def ref_vertical_lift_test(F, g, points):
    n2 = 2 * F.n
    djg = d_K(vertical_endomorphism(F.n), g)
    z = grid_coords(points)
    return sup_abs(djg(z, frame_vector(n2, a)) for a in range(n2))


def ref_vincze_residual(F, V, points):
    n2 = 2 * F.n
    dj_ve = d_K(vertical_endomorphism(F.n), field_apply(V, F.E))
    z = grid_coords(points)
    vz = V(z)
    m = F.omega_matrix_at(z)
    return sup_abs(sum(vz[a] * m[a][b] for a in range(n2)) - dj_ve(z, frame_vector(n2, b))
                   for b in range(n2))


def ref_d_form_E_residual(F, K, points):
    n2 = 2 * F.n
    z = grid_coords(points)
    m = K.matrix(z)
    return sup_abs(jets.directional(F.E.fn, z, [m[a][b] for a in range(n2)]) for b in range(n2))


def ref_tensor_matrix(alpha, X, z):
    n2 = 2 * X.n
    row = [alpha.fn(z, frame_vector(n2, b)) for b in range(n2)]
    return [[row[b] * xa for b in range(n2)] for xa in X(z)]


def _equal(a, b):
    """``a == b`` for floats or batches, which ignores the signs of zeros."""
    return bool(np.all(np.asarray(a) == np.asarray(b)))


@pytest.mark.parametrize("where", ["float point", "32-point batch"])
@pytest.mark.parametrize("fid", fixture_ids())
def test_one_forms_on_the_frame_equal_their_per_frame_loops(fid, where):
    F = finsler_fixture(fid, GRID)
    points = GRIDS[where]
    z = grid_coords(points)
    n, n2 = F.n, 2 * F.n
    J = vertical_endomorphism(n)
    C = liouville_field(n)
    f_v = vertical_lift_function(base_function("x1", n))
    hbar, L_W = build_connection(F, "wagner:x1"), build_form(F, "wagner-form:x1")
    e_dy1 = build_field(F, "E-dy1")
    djE = d_K(J, F.E)
    i_c_om = insert_vector(C, F.omega.two_form)
    # CHK-02's i_C omega - d_J E reads about 1e-16; the others are far from zero
    forms = [i_c_om - djE, djE, d_function(F.E), d_K(L_W, F.E),
             *random_one_forms(n, 2, 3), *random_one_forms(n, 1, 4, semibasic=True)]
    sups = [(_sup_form1(a, z, n2), ref_sup_form1(a, z, n2)) for a in forms]
    pot = insert_vector(canonical_spray(F), L_W)
    for g in (F.E, f_v, field_apply(pot, F.E), field_apply(e_dy1, F.E)):
        sups.append((vertical_lift_test(F, g, points), ref_vertical_lift_test(F, g, points)))
    for V in (C, build_field(F, "vlift:1"), e_dy1):
        sups.append((vincze_residual(F, V, points), ref_vincze_residual(F, V, points)))
    for K in (berwald_connection(F), hbar, L_W, J, fn_bracket(J, e_dy1)):
        sups.append((_d_form_E_residual(F, K, points), ref_d_form_E_residual(F, K, points)))
    assert all(got == ref for got, ref in sups), sups
    assert sum(ref > 1e-3 for _, ref in sups) >= len(sups) // 2
    grad = gradient(F, f_v)
    for alpha, X in ((djE, grad), (d_function(f_v), C), (d_function(F.E), e_dy1),
                     (forms[4], grad)):
        got, ref = tensor_one_form_field(alpha, X).matrix(z), ref_tensor_matrix(alpha, X, z)
        assert all(_equal(a, b) for ra, rb in zip(got, ref) for a, b in zip(ra, rb))
        assert any(np.any(np.asarray(a) != 0.0) for row in ref for a in row)
