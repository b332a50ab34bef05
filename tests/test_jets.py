"""Jet arithmetic: exactness, nesting safety, oracle agreement."""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from finslerlab import jets
from finslerlab.jets import Jet, fresh_tag, jvp, lift, nth_directional, realpart

from helpers import fd_directional, fd_mixed


def poly(z):
    # f(x1,x2,y1,y2) = x1^2 y2 + 3 x2 y1^3 - 2 x1 x2
    x1, x2, y1, y2 = z
    return x1 * x1 * y2 + 3.0 * x2 * y1 ** 3 - 2.0 * x1 * x2


def poly_dx1(z):
    x1, x2, y1, y2 = z
    return 2.0 * x1 * y2 - 2.0 * x2


def poly_dx1_dy2(z):
    return 2.0 * z[0]


def poly_dx2_dy1_dy1(z):
    return 18.0 * z[2]


Z0 = [0.3, -0.7, 1.1, 2.4]
E1 = [1.0, 0.0, 0.0, 0.0]
E2 = [0.0, 1.0, 0.0, 0.0]
E3 = [0.0, 0.0, 1.0, 0.0]
E4 = [0.0, 0.0, 0.0, 1.0]


def test_polynomial_first_derivative_exact():
    d = nth_directional(poly, Z0, [E1])
    assert abs(d - poly_dx1(Z0)) < 1e-12


def test_polynomial_mixed_second_exact():
    d = nth_directional(poly, Z0, [E1, E4])
    assert abs(d - poly_dx1_dy2(Z0)) < 1e-12


def test_polynomial_third_exact():
    d = nth_directional(poly, Z0, [E2, E3, E3])
    assert abs(d - poly_dx2_dy1_dy1(Z0)) < 1e-12


def test_mixed_partials_commute():
    a = nth_directional(poly, Z0, [E1, E3])
    b = nth_directional(poly, Z0, [E3, E1])
    assert abs(a - b) < 1e-12


def test_mixed_partials_commute_sweep():
    import numpy as np

    rng = np.random.default_rng(6)
    fields = []
    for _ in range(4):
        c = rng.uniform(-1, 1, (4, 4)).tolist()

        def f(z, c=c):
            acc = jets.exp(0.3 * z[0])
            for i in range(4):
                for j in range(4):
                    acc = acc + c[i][j] * z[i] * z[j]
            return acc

        fields.append(f)
    dirs = [E1, E2, E3, E4]
    for f in fields:
        for _ in range(4):
            z = list(rng.uniform(-1, 1, 4))
            for u in dirs:
                for v in dirs:
                    a = nth_directional(f, z, [u, v])
                    b = nth_directional(f, z, [v, u])
                    assert abs(a - b) < 1e-12


def test_riemannian_energy_third_order():
    # E = (e^{2 x1} y1^2 + y2^2) / 2 at (0,0,1,2): d3E/dx1^3 = 4 e^{2x1} y1^2 = 4
    def energy(z):
        return 0.5 * (jets.exp(2.0 * z[0]) * z[2] * z[2] + z[3] * z[3])

    p0 = [0.0, 0.0, 1.0, 2.0]
    assert abs(nth_directional(energy, p0, [E1, E1, E1]) - 4.0) < 1e-12
    # mixed: d2E/dx1 dy1 = 2 e^{2x1} y1 = 2
    assert abs(nth_directional(energy, p0, [E1, E3]) - 2.0) < 1e-12
    # and against the FD oracle
    fd = fd_mixed(energy, p0, [E1, E3], h=1e-4)
    assert abs(nth_directional(energy, p0, [E1, E3]) - fd) < 1e-4


def test_fd_oracle_first_order():
    d = nth_directional(poly, Z0, [E3])
    assert abs(d - fd_directional(poly, Z0, E3, h=1e-5)) < 1e-6


def test_sqrt_exp_log_rules():
    def f(z):
        return jets.sqrt(z[0]) * jets.exp(z[1]) + jets.log(z[2])

    z = [4.0, 0.5, 2.0]
    e1 = [1.0, 0.0, 0.0]
    e3 = [0.0, 0.0, 1.0]
    assert abs(nth_directional(f, z, [e1]) - math.exp(0.5) / 4.0) < 1e-12
    assert abs(nth_directional(f, z, [e3]) - 0.5) < 1e-12
    assert abs(nth_directional(f, z, [e3, e3]) + 0.25) < 1e-12


def test_trig_rules():
    def f(z):
        return jets.sin(z[0]) * jets.cos(z[1])

    z = [0.4, 1.2]
    d = nth_directional(f, z, [[1.0, 0.0]])
    assert abs(d - math.cos(0.4) * math.cos(1.2)) < 1e-12


def test_division_and_rdiv():
    def f(z):
        return 1.0 / z[0] + z[1] / z[0]

    z = [2.0, 3.0]
    d = nth_directional(f, z, [[1.0, 0.0]])
    assert abs(d - (-0.25 - 0.75)) < 1e-12


def test_nested_lift_closure_is_constant():
    # Perturbation-confusion regression: h(x) = x * d/dy (x*y) = x^2, h'(x) = 2x.
    # The captured outer jet must act as a constant inside the inner lift.
    def h(zx):
        x = zx[0]

        def g(zy):
            return x * zy[0]

        return x * nth_directional(g, [5.0], [[1.0]])

    d = nth_directional(h, [3.0], [[1.0]])
    assert abs(d - 6.0) < 1e-12


def test_jvp_vector_function():
    def field(z):
        return [z[0] * z[1], z[1] * z[1]]

    vals, dots = jvp(field, [2.0, 3.0], [1.0, 0.5])
    assert vals == [6.0, 9.0]
    assert abs(dots[0] - (3.0 + 2.0 * 0.5)) < 1e-12
    assert abs(dots[1] - 3.0) < 1e-12


def test_realpart_strips_all_layers():
    t1, t2 = fresh_tag(), fresh_tag()
    x = Jet(t2, Jet(t1, 1.5, 2.0), 3.0)
    assert realpart(x) == 1.5


def test_constant_function_has_zero_derivative():
    d = nth_directional(lambda z: 7.0, Z0, [E1, E2])
    assert d == 0.0


def test_lift_preserves_values():
    tag = fresh_tag()
    zj = lift(Z0, E1, tag)
    assert [realpart(c) for c in zj] == Z0


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.1, 10))
def test_product_and_quotient_rules_random(a, b, c):
    def f(z):
        return z[0] * z[1] / z[2]

    d = nth_directional(f, [a, b, c], [[1.0, 0.0, 0.0]])
    assert abs(d - b / c) < 1e-9 * max(1.0, abs(b / c))


@given(st.floats(-3, 3))
def test_exp_second_derivative_random(a):
    d = nth_directional(lambda z: jets.exp(z[0]), [a], [[1.0], [1.0]])
    assert abs(d - math.exp(a)) < 1e-10 * math.exp(abs(a))


# -- structural-zero lifts ------------------------------------------------------


def dense_lift(coords, direction, tag):
    # reference: wrap every coordinate, even along an exact-zero component
    return [Jet(tag, c, d) for c, d in zip(coords, direction)]


def test_lift_leaves_exact_zero_components_untagged():
    tag = fresh_tag()
    outer = Jet(fresh_tag(), 0.0, 1.0)
    coords = [0.3, -0.7, 1.1, 2.4]
    zj = lift(coords, [0.0, 2.0, outer, -0.0], tag)
    assert zj[0] is coords[0]
    assert zj[3] is coords[3]
    assert type(zj[1]) is Jet and zj[1].tag == tag and zj[1].dot == 2.0
    # a jet-valued component is lifted even when its value is zero
    assert type(zj[2]) is Jet and zj[2].tag == tag and zj[2].dot is outer
    assert jets.tangent(zj[0], tag) == 0.0


def test_lift_along_zero_direction_leaves_a_float_point():
    zj = lift(Z0, [0.0] * 4, fresh_tag())
    assert all(type(c) is float for c in zj)
    assert nth_directional(poly, Z0, [[0.0] * 4]) == 0.0


_DIR_COMPONENT = st.one_of(st.just(0.0), st.just(1.0), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["euclidean", "riemannian-exp", "randers-0.3"]),
       st.sampled_from([2, 3]),
       st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.lists(st.floats(0.3, 1.5), min_size=3, max_size=3),
       st.lists(st.lists(_DIR_COMPONENT, min_size=6, max_size=6), min_size=1, max_size=3))
def test_sparse_lift_matches_dense_reference_bitwise(fid, n, xs, ys, dirs):
    from finslerlab.finsler import fixture_energy

    E = fixture_energy(fid, n).fn
    z = xs[:n] + ys[:n]
    dirs = [d[:2 * n] for d in dirs]
    sparse = nth_directional(E, z, dirs)
    with mock.patch.object(jets, "lift", dense_lift):
        dense = nth_directional(E, z, dirs)
    assert sparse == dense


# -- vector-mode tangents -------------------------------------------------------

Vec = jets.Vec


def test_vec_broadcasts_a_scalar_across_its_slots():
    t = fresh_tag()
    v = Vec([1.5, -2.0, 4.0])
    assert (v * 2.0).s == [3.0, -4.0, 8.0]
    assert (2.0 * v).s == [3.0, -4.0, 8.0]
    assert (v / 2.0).s == [0.75, -1.0, 2.0]
    assert (v + 1.0).s == [2.5, -1.0, 5.0]
    assert (1.0 - v).s == [-0.5, 3.0, -3.0]
    assert (v + Vec([0.5, 0.0, 1.0])).s == [2.0, -2.0, 5.0]
    assert (v - Vec([0.5, 1.0, 0.0])).s == [1.0, -3.0, 4.0]
    j = Jet(t, 3.0, 1.0)
    scaled = v * j
    assert [(c.tag, c.val, c.dot) for c in scaled.s] == \
        [(t, 4.5, 1.5), (t, -6.0, -2.0), (t, 12.0, 4.0)]


def test_vec_structural_zero_slots_take_no_arithmetic():
    inf, nan = math.inf, math.nan
    v = Vec([0.0, 2.0])
    assert (v * inf).s == [0.0, inf]
    assert (nan * v).s[0] == 0.0
    assert (v / 0.5).s == [0.0, 4.0]
    assert (v + Vec([3.0, 0.0])).s == [3.0, 2.0]
    assert (Vec([0.0, 0.0]) - Vec([0.0, 5.0])).s == [0.0, -5.0]
    neg = (-v).s
    assert neg == [0.0, -2.0] and math.copysign(1.0, neg[0]) == 1.0
    assert (v + 0.0) is v and (v - 0.0) is v and (0.0 + v) is v
    # a jet slot is never structural
    j = Jet(fresh_tag(), 0.0, 0.0)
    assert (Vec([j]) * 2.0).s[0] is not j


def test_jet_and_vec_products_give_a_vec_either_way():
    t = fresh_tag()
    j = Jet(t, 2.0, 3.0)
    v = Vec([1.0, 0.0])
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        assert getattr(j, op)(v) is NotImplemented
    for prod in (j * v, v * j):
        assert type(prod) is Vec
        assert type(prod.s[0]) is Jet and (prod.s[0].val, prod.s[0].dot) == (2.0, 3.0)
        assert prod.s[1] == 0.0


def test_tangent_primal_and_retag_map_over_slots():
    t1, t2 = fresh_tag(), fresh_tag()
    v = Vec([Jet(t1, 1.0, 2.0), 0.0, Jet(t1, 3.0, Vec([4.0, 5.0]))])
    assert jets.tangent(v, t1).s[:2] == [2.0, 0.0]
    assert jets.tangent(v, t1).s[2].s == [4.0, 5.0]
    assert jets.primal(v, t1).s == [1.0, 0.0, 3.0]
    r = jets.retag(v, {t1: t2})
    assert type(r) is Vec and [c.tag for c in (r.s[0], r.s[2])] == [t2, t2]
    assert r.s[2].dot.s == [4.0, 5.0]
    x = Jet(t2, 1.0, Vec([0.5, 0.0]))
    assert jets.tangent(x, t2).s == [0.5, 0.0]
    assert jets.tangent(x, t1) == 0.0 and jets.primal(x, t2) == 1.0


def test_vec_frame_lift():
    frame = jets.vec_frame(3)
    assert [f.s for f in frame] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    tag = fresh_tag()
    zj = lift([0.5, 1.5, 2.5], [frame[0], 0.0, Vec([0.0, -0.0, 0.0])], tag)
    assert type(zj[0]) is Jet and zj[0].dot is frame[0]
    # an exact zero and a Vec of exact zeros leave their coordinates untagged
    assert zj[1] == 1.5 and zj[2] == 2.5


def test_vec_frame_is_built_once_and_shared_unchanged():
    # every vector lift of a run reads the same frame objects, so no lift may
    # write to them: a changed slot would move every later lift
    from finslerlab.checks import run_checks
    from finslerlab.config import RunConfig
    frames = {k: jets.vec_frame(k) for k in (2, 4)}
    slot_lists = {k: [v.s for v in f] for k, f in frames.items()}
    assert all(jets.vec_frame(k) is f for k, f in frames.items())
    assert run_checks(RunConfig())[1] == 0
    for k, f in frames.items():
        assert jets.vec_frame(k) is f and type(f) is tuple
        assert all(v.s is s for v, s in zip(f, slot_lists[k]))
        assert [v.s for v in f] == [[1.0 if b == a else 0.0 for b in range(k)] for a in range(k)]
        assert all(math.copysign(1.0, a) == 1.0 for v in f for a in v.s)
    value, grad = jvp(poly, Z0, jets.vec_frame(4))
    assert value == poly(Z0)
    assert grad.s == [nth_directional(poly, Z0, [e]) for e in (E1, E2, E3, E4)]


def _vec_levels_match(fn, z, dirs, res):
    """``res`` (an evaluation with some directions ``"vec"``) slot by slot
    against the scalar evaluations along each frame vector; ``==`` on floats."""
    k = len(z)
    for i, d in enumerate(dirs):
        if d == "vec":
            for a, sub in enumerate(jets.slots(res, k)):
                e_a = [1.0 if b == a else 0.0 for b in range(k)]
                _vec_levels_match(fn, z, dirs[:i] + [e_a] + dirs[i + 1:], sub)
            return
    assert res == nth_directional(fn, z, dirs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["euclidean", "riemannian-exp", "randers-0.3"]),
       st.sampled_from([2, 3]),
       st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.lists(st.floats(0.3, 1.5), min_size=3, max_size=3),
       st.lists(st.one_of(st.just("vec"), st.lists(_DIR_COMPONENT, min_size=6, max_size=6)),
                min_size=1, max_size=3))
def test_vec_frame_matches_scalar_frame_evaluations(fid, n, xs, ys, dirs):
    from finslerlab.finsler import fixture_energy

    E = fixture_energy(fid, n).fn
    z = xs[:n] + ys[:n]
    dirs = [d if d == "vec" else d[:2 * n] for d in dirs]
    vec_dirs = [jets.vec_frame(2 * n) if d == "vec" else d for d in dirs]
    _vec_levels_match(E, z, dirs, nth_directional(E, z, vec_dirs))


def _parts(x):
    """Every float of a jet or a Vec, node by node, with its sign of zero."""
    if type(x) is Jet:
        return _parts(x.val) + _parts(x.dot)
    if type(x) is Vec:
        return [p for a in x.s for p in _parts(a)]
    return [(x, math.copysign(1.0, x))]


def test_square_takes_its_value_from_pow_and_its_derivatives_from_the_product():
    # the float pass of an energy written with ``** 2`` computes pow(x, 2.0),
    # which differs from x * x in the last bit at some x; a jet pass of it
    # must give the float pass's value, and the derivatives of x * x
    import numpy as np

    xs = np.random.default_rng(0).uniform(0.1, 10.0, 20000).tolist()
    differ = [x for x in xs if x ** 2 != x * x]
    assert differ
    xs = differ + xs[:1000]
    directions = ([1.0], [Vec([1.0, 0.0, -2.5])])
    for x in xs:
        for depth in (1, 2):
            for d in directions:
                # depth 1: the first derivative along d; depth 2: nested
                # second derivatives, the inner lift along [1.0]
                z = [x]
                for direction in ([1.0], d)[2 - depth:]:
                    z = lift(z, direction, fresh_tag())
                sq, prod = z[0] ** 2, z[0] * z[0]
                assert realpart(sq) == x ** 2
                assert _parts(sq)[1:] == _parts(prod)[1:]


def _form(x):
    """Every node of a jet or Vec with its tag, and every leaf with its type,
    value and sign of zero."""
    if type(x) is Jet:
        return ("jet", x.tag, _form(x.val), _form(x.dot))
    if type(x) is Vec:
        return ("vec", [_form(a) for a in x.s])
    return (type(x), x, math.copysign(1.0, x))


def test_a_constant_power_is_the_product_part_for_part_at_every_depth():
    # x ** 2 at a zero x three lifts deep must not form 0.0 ** -1, which
    # raises, and no part may be the int exponent
    for depth in (1, 2, 3):
        for x0 in (0.0, 0.5):
            for d in ([1.0], [Vec([1.0, 0.0, -2.5])]):   # the outermost lift
                z = [x0]
                for direction in [[1.0]] * (depth - 1) + [d]:
                    z = lift(z, direction, fresh_tag())
                x = z[0]
                for power, product in ((2, x * x), (3, x * x * x)):
                    got = _form(x ** power)
                    assert got == _form(product)
                    assert "<class 'int'>" not in repr(got)
