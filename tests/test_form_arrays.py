"""Differential forms as frame arrays against the closure formulas they replace.

A differential form of degree 1 to 3 is its frame array at a point
(``calculus.DifferentialForm.array``): the exterior derivative reads its
operand's array at the point's frame lift, and insertions, sums and scales
contract and combine arrays.  The references here are closure formulas: a
form is a function of the point and its vectors, d alternates scalar
directional derivatives of the form with its other vectors held, i_K puts
K X_i into each slot in turn, and a sum adds values.  They are evaluated one
frame pair or triple at a time.

One step of the reference is written as the array layer computes it: an
insertion of a vector (a field's value, or a column K e_b of a vector
1-form) contracts the vector with the form's values on the frame,
sum_c v^c w(e_c, ..), in the order of c.  The closure formula lifted the
point along the vector itself, which rounds differently when the vector is
neither a frame vector nor zero (C on the Randers fixture, the columns of
h0); ``test_insertions_of_a_general_vector_agree_with_the_lift_along_it``
bounds that difference.  Insertions of J take frame vectors and zeros, where
the two agree.  With that step, every entry equals the reference bit for
bit, up to the signs of zeros, its jet parts included, at a float, a batch
and a jet point.
"""

import itertools

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.calculus import (
    DifferentialForm, VectorField, exterior_derivative, frame, insert_one_form,
    insert_vector, lie_derivative, liouville_field, vertical_endomorphism,
)
from finslerlab.checks import random_one_forms
from finslerlab.core import PointBatch, grid_coords, sample_slit_points
from finslerlab.finsler import berwald_connection, finsler_fixture, fixture_ids

from helpers import dh_omega_form

# -- the closure formulas ------------------------------------------------------------------


def ref_d(fn, p):
    """d of a p-form closure: sum_i (-1)^i D_{v_i} fn(.., v_i omitted, ..)."""

    def ev(z, *vectors):
        total = 0.0
        for i, v in enumerate(vectors):
            rest = vectors[:i] + vectors[i + 1:]
            term = jets.directional(lambda w: fn(w, *rest), z, v)
            total = total + term if i % 2 == 0 else total - term
        return total

    return ev


def _contracted(vec, fn, z, before, after):
    """sum_c vec[c] fn(z, *before, e_c, *after), in the order of c."""
    total = 0.0
    for c, e in enumerate(frame(len(vec))):
        total = total + vec[c] * fn(z, *before, e, *after)
    return total


def ref_insert_vector(Y, fn):
    return lambda z, *v: _contracted(Y(z), fn, z, (), v)


def ref_insert_one_form(K, fn):
    def ev(z, *vectors):
        total = 0.0
        for i, v in enumerate(vectors):
            total = total + _contracted(K(z, v), fn, z, vectors[:i], vectors[i + 1:])
        return total

    return ev


def ref_sub(f, g):
    return lambda z, *v: f(z, *v) - g(z, *v)


def ref_lie(Y, fn, p):
    """L_Y = i_Y d + d i_Y on a p-form closure."""
    return lambda z, *v: (ref_insert_vector(Y, ref_d(fn, p))(z, *v)
                          + ref_d(ref_insert_vector(Y, fn), p - 1)(z, *v))


def ref_omega(F):
    """omega = d(d_J E) as a closure: (d_J E)(v) = D_{Jv} E."""
    J = vertical_endomorphism(F.n)
    return ref_d(lambda z, v: jets.directional(F.E.fn, z, J(z, v)), 1)


# -- comparison ----------------------------------------------------------------------------


def _parts(x):
    """The float and batch parts of a value: a jet's value and coefficient
    parts, a Vec's slots, in order."""
    if type(x) is jets.Jet:
        return _parts(x.val) + _parts(x.dot)
    if type(x) is jets.Vec:
        return [p for s in x.s for p in _parts(s)]
    return [x]


def _equal(x, y):
    """Equal parts, compared with ``==`` (which ignores the signs of zeros); a
    float part equals a batch part whose every value equals it, as an exact
    zero that the array layer keeps as a float equals the reference's batch of
    zeros."""
    px, py = _parts(x), _parts(y)
    return len(px) == len(py) and all(bool(np.all(np.asarray(a) == np.asarray(b)))
                                      for a, b in zip(px, py))


def _mismatches(form, ref, z):
    """The frame index tuples a < b (< c) where the array and the reference differ."""
    arr = form.array(z)
    fr = frame(2 * form.n)
    bad = []
    for idx in itertools.combinations(range(2 * form.n), form.degree):
        entry = arr
        for i in idx:
            entry = entry[i]
        if not _equal(entry, ref(z, *(fr[i] for i in idx))):
            bad.append(idx)
    return bad


def _points(n):
    """A float point, a 3-point batch and the float point lifted along a direction."""
    zf = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
    zb = grid_coords((PointBatch(sample_slit_points(n, 3, seed=9)),))
    zj = jets.lift(zf, [0.5, -0.25, 1.0, 0.75, -0.5, 0.25][:2 * n], jets.fresh_tag())
    return {"float": zf, "batch": zb, "jet": zj}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", fixture_ids())
def test_fundamental_form_arrays_match_the_closure_formulas(fid, n):
    F = finsler_fixture(fid, sample_slit_points(n, 3, seed=3), n=n)
    J, C = vertical_endomorphism(n), liouville_field(n)
    h0 = berwald_connection(F)
    om, om_ref = F.omega.two_form, ref_omega(F)
    cases = {
        "omega": (om, om_ref),
        "i_J omega": (insert_one_form(J, om), ref_insert_one_form(J, om_ref)),
        "i_C omega": (insert_vector(C, om), ref_insert_vector(C, om_ref)),
        "L_C omega": (lie_derivative(C, om), ref_lie(C, om_ref, 2)),
        "d omega": (exterior_derivative(om), ref_d(om_ref, 2)),
        "d_h0 omega": (dh_omega_form(F, h0),
                       ref_sub(ref_insert_one_form(h0, ref_d(om_ref, 2)),
                               ref_d(ref_insert_one_form(h0, om_ref), 2))),
    }
    for where, z in _points(n).items():
        for name, (form, ref) in cases.items():
            assert not _mismatches(form, ref, z), (where, name)


def _closure_two_form(n):
    """A 2-form given by a closure, with point-dependent coefficients."""
    n2 = 2 * n

    def ev(z, u, v):
        total = (z[0] + z[n] * z[n]) * (u[0] * v[n2 - 1] - u[n2 - 1] * v[0])
        return total + z[n2 - 1] * (u[1] * v[n] - u[n] * v[1])

    return DifferentialForm(2, ev, n, "gamma")


@pytest.mark.parametrize("n", [2, 3])
def test_closure_form_arrays_match_the_closure_formulas(n):
    n2 = 2 * n
    J = vertical_endomorphism(n)
    gamma = _closure_two_form(n)
    beta = random_one_forms(n, 1, 5)[0]
    rng = np.random.default_rng(17)
    coef = rng.uniform(-1, 1, (n2, n2)).tolist()
    Y = VectorField(lambda z: [sum(coef[a][b] * z[b] for b in range(n2)) for a in range(n2)], n)
    cases = {
        "gamma": (gamma, gamma.fn),
        "d gamma": (exterior_derivative(gamma), ref_d(gamma.fn, 2)),
        "i_J gamma": (insert_one_form(J, gamma), ref_insert_one_form(J, gamma.fn)),
        "i_Y gamma": (insert_vector(Y, gamma), ref_insert_vector(Y, gamma.fn)),
        "L_Y gamma": (lie_derivative(Y, gamma), ref_lie(Y, gamma.fn, 2)),
        "gamma - d beta": (gamma - exterior_derivative(beta),
                           ref_sub(gamma.fn, ref_d(beta.fn, 1))),
        "3 gamma": (gamma.scale(3.0), lambda z, u, v: 3.0 * gamma.fn(z, u, v)),
    }
    for where, z in _points(n).items():
        for name, (form, ref) in cases.items():
            assert not _mismatches(form, ref, z), (where, name)


def test_insertions_of_a_general_vector_agree_with_the_lift_along_it():
    # the closure formula of i_C omega lifted the point along C(z) itself
    n = 2
    F = finsler_fixture("randers-0.3", sample_slit_points(n, 3, seed=3), n=n)
    C = liouville_field(n)
    om_ref = ref_omega(F)
    lifted = lambda z, v: om_ref(z, C(z), v)  # noqa: E731
    z = _points(n)["float"]
    got = insert_vector(C, F.omega.two_form).array(z)
    fr = frame(2 * n)
    for b in range(2 * n):
        ref = lifted(z, fr[b])
        assert abs(got[b] - ref) <= 1e-14 * max(1.0, abs(ref))
