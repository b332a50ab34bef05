"""Exact zeros are structural in the array layer of ``calculus``.

``_combine``, ``_add_arrays``, ``_scale_array`` and the bracket arrays skip an
exact float zero on either side of a product or a sum.  On finite inputs that
mix signed zeros, floats, batches and jets they must give what plain
arithmetic gives, up to the signs of zeros, and an entry that only zeros
reach must come back as a float zero: no batch or jet is built for it.
"""

import functools
import operator
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from finslerlab import calculus, jets
from finslerlab.calculus import (
    VectorField, VectorForm, _add_arrays, _combine, _scale_array, fn_bracket,
    zero_vector_form,
)
from finslerlab.core import PointBatch, sample_slit_points

N, N2, SIZE = 2, 4, 3
TAG = jets.fresh_tag()
GRID = sample_slit_points(N, SIZE, seed=4)

FLOATS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
BATCHES = st.lists(FLOATS, min_size=SIZE, max_size=SIZE).map(jets.batch)
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]), FLOATS, BATCHES,
    st.builds(lambda v, d: jets.Jet(TAG, v, d), FLOATS | BATCHES, FLOATS | BATCHES))


def is_zero(x):
    return type(x) is not jets.Batch and not x


def same(a, b):
    """Equal values, the sign of a zero aside: jets by their value and tangent
    along their outer tag (a float is a jet with a zero tangent), batches point
    by point (a float stands for every point)."""
    if type(a) is jets.Jet or type(b) is jets.Jet:
        t = max(x.tag for x in (a, b) if type(x) is jets.Jet)
        return same(jets.primal(a, t), jets.primal(b, t)) and \
            same(jets.tangent(a, t), jets.tangent(b, t))
    if type(a) is jets.Vec or type(b) is jets.Vec:
        return all(same(x, y) for x, y in zip(jets.slots(a, N2), jets.slots(b, N2)))
    return bool(np.array_equal(*np.broadcast_arrays(a, b)))


def assert_structural_zero(x):
    assert type(x) is float and x == 0.0, x


def plain_combine(coeffs, vectors):
    return [functools.reduce(operator.add, (c * v[i] for c, v in zip(coeffs, vectors)))
            for i in range(len(vectors[0]))]


# the array layer with every zero rule taken out: the reference of the brackets
PLAIN = {"_mul": operator.mul, "_add": operator.add, "_sub": operator.sub,
         "_combine": plain_combine}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(VALUES, min_size=k, max_size=k),
    st.lists(st.lists(VALUES, min_size=3, max_size=3), min_size=k, max_size=k))))
def test_combine_is_plain_arithmetic_with_structural_zeros(args):
    coeffs, vectors = args
    out = _combine(coeffs, vectors)
    for i, (x, ref) in enumerate(zip(out, plain_combine(coeffs, vectors))):
        assert same(x, ref)
        if all(is_zero(c) or is_zero(v[i]) for c, v in zip(coeffs, vectors)):
            assert_structural_zero(x)


def arrays(shape):
    values = VALUES
    for size in reversed(shape):
        values = st.lists(values, min_size=size, max_size=size)
    return values


def entries(a):
    return [x for row in a for x in (entries(row) if type(row[0]) is list else row)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 3), (2, 2, 2)]).flatmap(lambda s: st.tuples(arrays(s), arrays(s))))
def test_add_arrays_is_plain_arithmetic_with_structural_zeros(args):
    a, b = args
    for x, y, out in zip(entries(a), entries(b), entries(_add_arrays(a, b))):
        assert same(out, x + y)
        if is_zero(x) and is_zero(y):
            assert_structural_zero(out)


@settings(max_examples=100, deadline=None)
@given(VALUES, st.sampled_from([(2, 3), (2, 2, 2)]).flatmap(arrays))
def test_scale_array_is_plain_arithmetic_with_structural_zeros(c, a):
    for x, out in zip(entries(a), entries(_scale_array(c, a))):
        assert same(out, c * x)
        if is_zero(c) or is_zero(x):
            assert_structural_zero(out)


# An entry of a sparse form or field: 0.0, a constant, or a constant times a
# coordinate, so some entries depend on the point and some do not
ENTRIES = st.one_of(st.just(None), st.tuples(FLOATS, st.sampled_from([None, 0, 1, 2, 3])))


def entry(spec, z):
    if spec is None:
        return 0.0
    c, i = spec
    return c if i is None else c * z[i]


def sparse_form(specs, name):
    return VectorForm(1, lambda z: [[entry(specs[N2 * a + b], z) for b in range(N2)]
                                    for a in range(N2)], N, name)


def points():
    z0 = list(GRID)[0].coords()
    zb = PointBatch(list(GRID)).coords()
    return [z0, zb, jets.lift(z0, jets.vec_frame(N2), jets.fresh_tag())]


@settings(max_examples=30, deadline=None)
@given(st.lists(ENTRIES, min_size=N2 * N2, max_size=N2 * N2),
       st.lists(ENTRIES, min_size=N2 * N2, max_size=N2 * N2),
       st.lists(ENTRIES, min_size=N2, max_size=N2))
def test_bracket_arrays_are_plain_arithmetic_up_to_zero_signs(k_specs, l_specs, y_specs):
    K, L = sparse_form(k_specs, "K"), sparse_form(l_specs, "L")
    Y = VectorField(lambda z: [entry(s, z) for s in y_specs], N, "Y")
    brackets = [fn_bracket(K, Y), fn_bracket(K, L)]
    for z in points():
        values = [b.matrix(z) for b in brackets]
        with mock.patch.multiple(calculus, **PLAIN):
            plain = [b.matrix(z) for b in brackets]
        for a, p in zip(values, plain):
            assert all(same(x, y) for x, y in zip(entries(a), entries(p)))


def test_brackets_of_the_zero_form_are_float_zeros():
    L = sparse_form([(1.5, i % N2) for i in range(N2 * N2)], "L")
    Y = VectorField(lambda z: [z[3], 2.0, z[0], -1.0], N, "Y")
    zero = zero_vector_form(N)
    for z in points():
        for x in entries(fn_bracket(zero, Y).matrix(z)) + entries(fn_bracket(zero, L).matrix(z)):
            assert_structural_zero(x)
