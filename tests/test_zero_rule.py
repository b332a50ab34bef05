"""Exact zeros and units are structural (rule 3 of ``jets``).

The rule holds in the jet kernel, the ``Jet`` and ``Vec`` operators and
``Vec.mul_add``, and in the array layer of ``calculus``: ``_combine``,
``_add_arrays``, ``_scale_array`` and the bracket arrays skip an exact zero
on either side of a product or a sum.  On finite inputs that mix signed
zeros, units, floats, batches and jets they must give what plain arithmetic
gives, up to the signs of zeros; a product with an exact zero must come back
as a float zero (or a Vec of them), with no batch or jet built for it; and a
float 1.0 factor must give the other operand itself.
"""

import functools
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    by point (a float stands for every point), and a NaN equal to a NaN."""
    if type(a) is jets.Jet or type(b) is jets.Jet:
        t = max(x.tag for x in (a, b) if type(x) is jets.Jet)
        return same(jets.primal(a, t), jets.primal(b, t)) and \
            same(jets.tangent(a, t), jets.tangent(b, t))
    if type(a) is jets.Vec or type(b) is jets.Vec:
        return all(same(x, y) for x, y in zip(jets.slots(a, N2), jets.slots(b, N2)))
    return bool(np.array_equal(*np.broadcast_arrays(a, b), equal_nan=True))


def assert_structural_zero(x):
    assert type(x) is float and x == 0.0, x


def plain_combine(coeffs, vectors):
    return [functools.reduce(operator.add, (c * v[i] for c, v in zip(coeffs, vectors)))
            for i in range(len(vectors[0]))]


# the array layer with every zero rule taken out: the reference of the brackets
PLAIN = {"_mul": operator.mul, "_add": operator.add, "_sub": operator.sub,
         "_combine": plain_combine}


# a coefficient may be a Vec, as a component of the vector frame is when a
# vector form is applied to it: a zero entry must then stay a float zero too
VECS = st.lists(st.sampled_from([0.0, 1.0]) | FLOATS | BATCHES,
                min_size=N2, max_size=N2).map(jets.Vec)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(VALUES | VECS, min_size=k, max_size=k),
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


# -- the jet kernel -------------------------------------------------------------

# jets nested two deep: inner and outer lifts, each scalar (a float, batch or
# jet tangent) or vector (a Vec tangent of K slots), in tag order
K = 2
INNER_SCALAR, INNER_VECTOR, OUTER_SCALAR, OUTER_VECTOR = (jets.fresh_tag() for _ in range(4))
ZEROS_AND_UNITS = st.sampled_from([0.0, -0.0, 0, 1.0, -1.0])
KERNEL_BATCHES = st.lists(ZEROS_AND_UNITS.map(float) | FLOATS,
                          min_size=SIZE, max_size=SIZE).map(jets.batch)
NONZERO = st.floats(0.25, 4.0) | st.floats(-4.0, -0.25) | st.sampled_from([1.0, -1.0])
B = jets.batch([2.0, -0.5, 3.0])  # a batch of the explicit examples


def lifts(values, dots, scalar, vector):
    """Jets of the scalar lift ``scalar`` and of the vector lift ``vector``
    with values drawn from ``values`` and tangents (or slots) from ``dots``."""
    return st.one_of(
        st.builds(lambda v, d: jets.Jet(scalar, v, d), values, dots),
        st.builds(lambda v, d: jets.Jet(vector, v, jets.Vec(d)), values,
                  st.lists(dots, min_size=K, max_size=K)))


def nested(base, dots_base):
    """Values of ``base`` and jets over them, nested two deep; every jet value
    at every depth is drawn from ``base``, the tangents from ``dots_base``."""
    inner = base | lifts(base, dots_base, INNER_SCALAR, INNER_VECTOR)
    inner_dots = dots_base | lifts(dots_base, dots_base, INNER_SCALAR, INNER_VECTOR)
    return inner | lifts(inner, inner_dots, OUTER_SCALAR, OUTER_VECTOR)


KERNEL_VALUES = ZEROS_AND_UNITS | FLOATS | KERNEL_BATCHES
SCALARS = nested(KERNEL_VALUES, KERNEL_VALUES)
VECS = st.lists(SCALARS, min_size=K, max_size=K).map(jets.Vec)
OPERANDS = SCALARS | VECS
# divisors: no value at any depth is zero, so plain arithmetic never divides by zero
DIVISORS = nested(NONZERO | st.lists(NONZERO, min_size=SIZE, max_size=SIZE).map(jets.batch),
                  KERNEL_VALUES)

PLAIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def plain(op, x, y):
    """``x op y`` with no structural zero or unit: the rules of jet arithmetic
    expanded on the parts, and floats and batches by plain arithmetic."""
    if type(x) is jets.Vec or type(y) is jets.Vec:
        return jets.Vec([plain(op, a, b) for a, b in zip(jets.slots(x, K), jets.slots(y, K))])
    t = max(v.tag if type(v) is jets.Jet else 0 for v in (x, y))
    if t == 0:
        return PLAIN_OPS[op](x, y)
    (xv, xd), (yv, yd) = ((v.val, v.dot) if type(v) is jets.Jet and v.tag == t else (v, 0.0)
                          for v in (x, y))
    if op == "*":
        return jets.Jet(t, plain("*", xv, yv), plain("+", plain("*", xv, yd), plain("*", xd, yv)))
    if op == "/":
        q = plain("/", xv, yv)
        return jets.Jet(t, q, plain("/", plain("-", xd, plain("*", q, yd)), yv))
    return jets.Jet(t, plain(op, xv, yv), plain(op, xd, yd))


def assert_zero_product(x):
    """x is what a product with an exact zero gives: a float zero or a Vec of them."""
    for v in jets.slots(x, K) if type(x) is jets.Vec else [x]:
        assert_structural_zero(v)


def is_unit(x):
    return type(x) is float and x == 1.0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["+", "-", "*"]), OPERANDS, OPERANDS)
@example("*", jets.Jet(INNER_SCALAR, B, 1.0), 0.0)
@example("*", 1.0, jets.Vec([B, 1.0]))
@example("*", jets.Jet(INNER_SCALAR, 1.0, 0.0), jets.Jet(INNER_SCALAR, 0, 0.0))
def test_jet_and_vec_operators_are_plain_arithmetic_with_structural_zeros(op, x, y):
    if op == "*" and type(x) is jets.Vec and type(y) is jets.Vec:
        return  # a Vec has no product with a Vec
    out = PLAIN_OPS[op](x, y)
    assert same(out, plain(op, x, y))
    ours = (jets.Jet, jets.Vec)  # a float or a batch on both sides is numpy's or Python's
    if op == "*":
        if is_zero(x) and type(y) in ours or is_zero(y) and type(x) in ours:
            assert_zero_product(out)
        if type(x) is jets.Jet and type(y) is jets.Jet and x.tag == y.tag \
                and (is_zero(x.val) or is_zero(y.val)):
            assert_structural_zero(out.val)
        if is_unit(x) and type(y) in ours:
            assert out is y
        if is_unit(y) and type(x) in ours:
            assert out is x
    elif is_zero(y) and type(x) in ours:
        assert out is x


@settings(max_examples=200, deadline=None)
@given(OPERANDS, DIVISORS)
def test_jet_and_vec_division_is_plain_arithmetic_with_a_structural_unit(x, y):
    assert same(x / y, plain("/", x, y))
    if type(x) in (jets.Jet, jets.Vec):
        assert x / 1.0 is x


# mul_add's operands, with zeros and units drawn more often
SPARSE_VECS = st.lists(ZEROS_AND_UNITS | SCALARS, min_size=K, max_size=K).map(jets.Vec)


@settings(max_examples=300, deadline=None)
@given(SPARSE_VECS, ZEROS_AND_UNITS | SCALARS, ZEROS_AND_UNITS | SCALARS, SPARSE_VECS)
@example(jets.Vec([1.0, B]), B, 1.0, jets.Vec([0.0, 0.0]))
@example(jets.Vec([0.0, 0.0]), 1.0, B, jets.Vec([1.0, B]))
@example(jets.Vec([B, 1.0]), 1.0, B, jets.Vec([1.0, B]))
def test_mul_add_is_plain_arithmetic_with_structural_zeros_and_units(v, x, y, w):
    out = v.mul_add(x, y, w)
    assert same(out, plain("+", plain("*", y, w), plain("*", v, x)))
    for a, b, o in zip(v.s, w.s, out.s):
        # the slot is y * b + a * x, with each product that meets a zero or a
        # unit, as a slot or as a scalar, taking no arithmetic
        ax_zero, yb_zero = is_zero(a) or is_zero(x), is_zero(b) or is_zero(y)
        if ax_zero and yb_zero:
            assert is_zero(o)  # a zero slot, carried as it is, or a zero product
        elif yb_zero:
            assert o is (a if is_unit(x) else x if is_unit(a) else o)
        elif ax_zero:
            assert o is (b if is_unit(y) else y if is_unit(b) else o)


def test_a_zero_jet_value_takes_no_arithmetic_in_a_vector_product():
    # the values of two jets of one vector lift: a zero value takes the dot's
    # product apart in mul_add, and the dot keeps its Vec type (rule 1)
    tag = jets.fresh_tag()
    b = jets.batch([2.0, 3.0, 4.0])
    x = jets.Jet(tag, 0.0, jets.Vec([1.0, 0.0]))
    y = jets.Jet(tag, b, jets.Vec([b, 1.0]))
    for out in (x * y, y * x):
        assert_structural_zero(out.val)
        assert type(out.dot) is jets.Vec
        assert out.dot.s[0] is b and out.dot.s[1] == 0.0
    zero = x * jets.Jet(tag, 0.0, jets.Vec([0.0, 1.0]))
    assert_structural_zero(zero.val)
    assert_zero_product(zero.dot)


def test_division_of_and_by_zero_stays_plain():
    tag = jets.fresh_tag()
    with np.errstate(all="ignore"):
        q = jets.Jet(tag, jets.batch([0.0, 1.0]), jets.batch([1.0, 1.0])) / 0.0
        assert np.isnan(q.val[0]) and np.isinf(q.val).tolist() == [False, True]
        assert np.isinf(q.dot).all()
        assert np.isnan((jets.Vec([jets.batch([0.0])]) / 0.0).s[0]).all()
    with pytest.raises(ZeroDivisionError):
        jets.Jet(tag, 0.0, 1.0) / 0.0
    with pytest.raises(ZeroDivisionError):
        0.0 / jets.Jet(tag, 0.0, 1.0)


# -- squares ----------------------------------------------------------------------

# jets nested up to four deep: level i holds a scalar and a vector lift, every
# tag of level i above those of level i - 1
LEVELS = [(jets.fresh_tag(), jets.fresh_tag()) for _ in range(4)]
SPECIALS = st.sampled_from([0.0, -0.0, 0, 1.0, -1.0, math.nan, math.inf, -math.inf])


def square_leaves(size):
    """Floats, exact zeros, units, NaN and inf, and batches of ``size`` points."""
    floats = SPECIALS | FLOATS
    return floats | st.lists(floats.map(float), min_size=size, max_size=size).map(jets.batch)


def jets_at(level, parts):
    """Jets of level ``level``'s lifts, with value and tangent (or slots) from ``parts``."""
    scalar, vector = LEVELS[level]
    return st.one_of(
        st.builds(lambda v, d: jets.Jet(scalar, v, d), parts, parts),
        st.builds(lambda v, d: jets.Jet(vector, v, jets.Vec(d)), parts,
                  st.lists(parts, min_size=K, max_size=K)))


@functools.cache
def values_below(level, size):
    """Values that carry only tags of the levels below ``level``."""
    if level == 0:
        return square_leaves(size)
    lower = values_below(level - 1, size)
    return lower | jets_at(level - 1, lower)


SQUARED = st.tuples(st.integers(0, 3), st.sampled_from([1, SIZE])).flatmap(
    lambda a: jets_at(a[0], values_below(*a)))


def unshared(x):
    """An entry-for-entry copy of x that shares no jet, Vec or batch with it."""
    if type(x) is jets.Jet:
        return jets.Jet(x.tag, unshared(x.val), unshared(x.dot))
    if type(x) is jets.Vec:
        return jets.Vec([unshared(a) for a in x.s])
    return x.copy() if type(x) is jets.Batch else x


def no_square(self):
    raise AssertionError("the reference product took the square path")


@settings(max_examples=300, deadline=None)
@given(SQUARED)
@example(jets.Jet(LEVELS[0][1], B, jets.Vec([0.0, 1.0])))
@example(jets.Jet(LEVELS[0][1], 0.0, jets.Vec([math.inf, -0.0])))
@example(jets.Jet(LEVELS[1][1], jets.Jet(LEVELS[0][0], 1.0, -0.0),
                  jets.Vec([jets.Jet(LEVELS[0][1], B, jets.Vec([1.0, math.nan])), 0])))
def test_a_square_is_the_general_product_up_to_zero_signs(x):
    # x * x takes one product per tangent slot; a copy that is not x itself,
    # at any depth, takes the general product rule
    y = unshared(x)
    with np.errstate(all="ignore"):
        square = x * x
        with mock.patch.object(jets.Jet, "_square", no_square):
            general = x * y
    assert same(square, general)


def bits(x):
    """Every part of a jet, node by node: tags, slot counts, and each float
    with its sign of zero (a batch point by point)."""
    if type(x) is jets.Jet:
        return [("jet", x.tag)] + bits(x.val) + bits(x.dot)
    if type(x) is jets.Vec:
        return [("vec", len(x.s))] + [p for a in x.s for p in bits(a)]
    values = x.tolist() if type(x) is jets.Batch else [x]
    return [(v, math.copysign(1.0, v)) for v in values]


def test_the_randers_energy_is_its_written_square_bit_for_bit():
    # the fixture writes 0.5 * (f * f), so that f is squared; every jet part
    # must be what 0.5 * f * f, the general product, gives
    from finslerlab.finsler import fixture_energy

    n = 3

    def written(z):
        norm = jets.sqrt(sum((z[n + i] * z[n + i] for i in range(1, n)), z[n] * z[n]))
        f = norm + 0.3 * z[n]
        return 0.5 * f * f

    E = fixture_energy("randers-0.3", n)
    grid = sample_slit_points(n, 4, seed=31)
    z0 = list(grid)[0].coords()
    once = jets.frame_lift(z0, 2 * n)[1]
    twice = jets.frame_lift(once, 2 * n)[1]
    for z in (z0, PointBatch(list(grid)).coords(), twice):
        assert bits(E.fn(z)) == bits(written(z))
    assert type(E.fn(twice).dot) is jets.Vec
