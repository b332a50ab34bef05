"""One frame lift per point object (``jets.frame_lift``) and the point key cache.

The brackets and ``dh_omega_residual`` read a point's lift along the vector
frame through ``jets.frame_pass``, which returns one tag and one lifted point
per point object, so their memo hits there carry the caller's tags already.
The reference here is the lift with a fresh tag at every call, which
``frame_lift`` was before: monkeypatched in, it must give every value bit for
bit, its tags included.  Sharing a tag must keep the nesting order (a lift's
tag is above every tag of the point it lifts), and a jet that an energy holds
and that is newer than a shared lift must not be confused with the lift.
"""

import weakref
from collections import Counter

import pytest

from finslerlab import jets, memo
from finslerlab.calculus import VectorField, fn_bracket, frame_vector, vertical_endomorphism
from finslerlab.checks import run_checks
from finslerlab.config import RunConfig
from finslerlab.connections import (
    dh_omega_residual, l_ehresmann_connection, vector_form2_residual, weak_torsion,
)
from finslerlab.core import PointBatch, ScalarField, point, sample_slit_points
from finslerlab.finsler import FinslerStructure, berwald_connection, finsler_fixture, fixture_ids
from finslerlab.registry import build_field

from helpers import collector_off
from test_finsler import _identical, _tags_of


def _fresh_frame_lift(z, k):
    """The reference: every frame lift with a fresh tag."""
    tag = jets.fresh_tag()
    return tag, jets.lift(z, jets.vec_frame(k), tag)


def _clear_caches():
    jets._frame_lifts.clear()
    memo._keys.clear()


def _objects(fid, n, grid):
    F = finsler_fixture(fid, grid, n=n)
    h0 = berwald_connection(F)
    hL = l_ehresmann_connection(F, fn_bracket(vertical_endomorphism(n), build_field(F, "E-dy1")))
    return F, h0, hL


LIFT_TAG = jets.fresh_tag()


def _values(fid, n):
    """d_h omega of h0 and h_L at a float and a batch point, then h0's matrix
    and [J, h0] at those points and at the float point lifted along the frame,
    from structures of their own."""
    grid = sample_slit_points(n, 3, seed=5)
    p = point(*([0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]))
    F, h0, hL = _objects(fid, n, grid)
    out = []
    for where in ([p], grid):
        out += [dh_omega_residual(F, h0, where), dh_omega_residual(F, hL, where)]
    z = p.coords()
    zl = jets.lift(z, jets.vec_frame(2 * n), LIFT_TAG)
    for where in (z, PointBatch(grid).coords(), zl):
        out += [h0.matrix(where), weak_torsion(F, h0).matrix(where)]
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", fixture_ids())
def test_a_shared_frame_lift_gives_what_fresh_lifts_give(fid, n, monkeypatch):
    _clear_caches()
    shared = _values(fid, n)
    with monkeypatch.context() as m:
        m.setattr(jets, "frame_lift", _fresh_frame_lift)
        fresh = _values(fid, n)

    def same(a, b):
        if type(a) is list:
            return type(b) is list and len(a) == len(b) and all(map(same, a, b))
        return _identical(a, b)

    assert len(shared) == len(fresh) == 10
    assert all(same(a, b) for a, b in zip(shared, fresh))
    # the lifted point's values carry no tag but its own, none of a lift made inside
    assert set().union(*(_tags_of(x) for row in shared[-2] for x in row)) <= {LIFT_TAG}


def test_a_frame_lift_is_one_per_point_object():
    z = point(0.1, -0.2, 0.7, -0.4).coords()
    tag, lifted = jets.frame_lift(z, 4)
    assert jets.frame_lift(z, 4) == (tag, lifted)
    assert jets.frame_lift(list(z), 4)[1] is lifted       # the same coordinate objects
    assert [c.val for c in lifted] == z
    assert all(c.tag == tag and c.dot is e for c, e in zip(lifted, jets.vec_frame(4)))
    t2, lifted2 = jets.frame_lift(lifted, 4)
    assert jets.frame_lift(lifted, 4)[1] is lifted2 and len(jets._frame_lifts) == 2
    memo.point_key(lifted2)
    assert len(memo._keys) == 1
    # equal values, other objects: another point, whose lift empties both caches
    other = jets.frame_lift([float(repr(c)) for c in z], 4)
    assert other[0] > t2 and other[1] is not lifted
    assert len(jets._frame_lifts) == 1 and not memo._keys
    assert jets.frame_lift(z, 4)[1] is not lifted


def test_the_lift_of_a_lifted_point_has_a_larger_tag_than_every_tag_it_carries():
    z = point(0.1, -0.2, 0.3, 0.7, -0.4, 0.5).coords()
    t1, za = jets.frame_lift(z, 6)
    t2, zaa = jets.frame_lift(za, 6)
    # a point lifted with a fresh tag after za's lift was made, then frame-lifted
    zb = jets.lift(za, frame_vector(6, 2), jets.fresh_tag())
    t3, zbb = jets.frame_lift(zb, 6)
    for tag, lifted, below in ((t1, za, z), (t2, zaa, za), (t3, zbb, zb)):
        carried = set().union(*map(_tags_of, below))
        assert all(tag > t for t in carried)
        assert set().union(*map(_tags_of, lifted)) == carried | {tag}
        assert all(type(c) is jets.Jet and c.tag == tag for c in lifted)
    assert jets.frame_lift(za, 6)[0] == t2 and t3 > t2


def _drift_structure(drift):
    # a Randers drift carried as a jet, to differentiate in it
    def ev(z):
        f = jets.sqrt(z[2] * z[2] + z[3] * z[3]) + drift * z[2]
        return 0.5 * f * f
    return FinslerStructure(ScalarField(ev, 2, "E_drift"), 2, sample_slit_points(2, 2, seed=3),
                            validate=False)


def test_an_energy_holding_a_jet_newer_than_the_shared_lift_is_not_confused(monkeypatch):
    # the point's frame lift is shared before the drift's jet is made, so the
    # drift's tag is above the lift's: the bracket in h0 sees it in S0's value
    # and evaluates again at a fresh lift, as the reference does
    z = point(0.1, -0.2, 0.7, -0.4).coords()
    tag, _ = jets.frame_lift(z, 4)
    drift = jets.Jet(jets.fresh_tag(), 0.3, 1.0)
    assert drift.tag > tag
    m = berwald_connection(_drift_structure(drift)).matrix(z)
    with monkeypatch.context() as p:
        p.setattr(jets, "frame_lift", _fresh_frame_lift)
        ref = berwald_connection(_drift_structure(drift)).matrix(z)
    assert all(_identical(a, b) for u, v in zip(m, ref) for a, b in zip(u, v))
    # h0 depends on the drift: its derivative there is not zero everywhere
    assert any(type(x) is jets.Jet and x.tag == drift.tag and jets.tangent(x, drift.tag) != 0.0
               for row in m for x in row)


def _held_types(x, out):
    """The types of the leaves of tuples, lists, jets and Vecs in x."""
    if type(x) in (tuple, list):
        for v in x:
            _held_types(v, out)
    elif type(x) is jets.Jet:
        _held_types(x.val, out)
        _held_types(x.dot, out)
    elif type(x) is jets.Vec:
        _held_types(x.s, out)
    else:
        out.add(type(x))
    return out


def test_the_point_caches_are_bounded_and_hold_coordinates_and_keys_only():
    made = []
    init = VectorField.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    # with the cycle collector off: reference counting alone frees the fields
    with collector_off():
        VectorField.__init__ = tracked
        try:
            run_checks(RunConfig(samples=4, seed=7))
        finally:
            VectorField.__init__ = init
        for p in sample_slit_points(2, jets.CACHED_POINTS, seed=1):
            h0 = berwald_connection(finsler_fixture("euclidean", [p]))
            h0.matrix(jets.frame_lift(p.coords(), 4)[1])
            assert len(jets._frame_lifts) <= jets.CACHED_POINTS
            assert len(memo._keys) <= jets.CACHED_POINTS
        # one point's lifts, lifted again and again, which no new point empties
        w = point(0.1, -0.2, 0.7, -0.4).coords()
        for _ in range(2 * jets.CACHED_POINTS):
            w = jets.frame_lift(w, 4)[1]
            memo.point_key(w)
            assert len(jets._frame_lifts) <= jets.CACHED_POINTS
            assert len(memo._keys) <= jets.CACHED_POINTS
        held = _held_types([list(jets._frame_lifts.items()), list(memo._keys.items())], set())
        assert held <= {int, float, str, bytes, jets.Batch, type(None)}
        assert made and all(ref() is None for ref in made)


def test_a_bracket_with_a_fresh_field_dies_with_it_without_the_cycle_collector():
    J = vertical_endomorphism(2)
    with collector_off():
        V = VectorField(lambda z: [0.0, 0.0, z[2] * z[3], z[3]], 2, name="V")
        bracket = fn_bracket(J, V)
        assert fn_bracket(J, V) is bracket
        bracket.matrix(point(0.1, -0.2, 0.7, -0.4).coords())
        dead = weakref.ref(bracket)
        del V, bracket
        assert dead() is None


def _counting_work(monkeypatch):
    """Renames of memo hits (``memo.retag_array`` calls from ``PointMemo.get``)
    and key walks (``memo._walk``)."""
    work = Counter()
    retag_array, walk = memo.retag_array, memo._walk
    depth = [0]

    def counting_retag(x, tag_map):
        work["retag_array"] += depth[0] == 0  # not its calls on the parts of x
        depth[0] += 1
        try:
            return retag_array(x, tag_map)
        finally:
            depth[0] -= 1

    def counting_walk(*args):
        work["walk"] += 1
        return walk(*args)

    monkeypatch.setattr(memo, "retag_array", counting_retag)
    monkeypatch.setattr(memo, "_walk", counting_walk)
    return work


def test_a_default_check_renames_and_walks_a_pinned_number_of_points(monkeypatch):
    _clear_caches()
    work = _counting_work(monkeypatch)
    run_checks(RunConfig(seed=42))
    # 216 renames and 273 walks, float points included, when every frame lift
    # had a fresh tag; a float point is now keyed without a walk.  75 walks
    # when CHK-05 made the grid's first frame lift, whose emptying of the point
    # caches dropped the grid's key between two of its lookups; CHK-02's d omega
    # now makes it, after one memo keyed the grid: omega's two_form memo, whose
    # first lookup (i_J omega) comes before (74 walks without that memo)
    assert (work["retag_array"], work["walk"]) == (69, 75)


def test_a_third_order_query_renames_and_walks_a_pinned_number_of_points(monkeypatch):
    # d_h omega of h0 and of h_L and [J, h0] at one fresh n = 3 point, as the
    # third-order benchmark asks them, on every fixture
    objects = [_objects(fid, 3, sample_slit_points(3, 4, seed=31)) for fid in fixture_ids()]
    p = point(0.1, -0.2, 0.3, 0.7, -0.4, 0.5)
    _clear_caches()
    work = _counting_work(monkeypatch)
    for F, h0, hL in objects:
        residuals = [dh_omega_residual(F, h0, [p]), dh_omega_residual(F, hL, [p]),
                     vector_form2_residual(weak_torsion(F, h0), [p])]
        assert max(residuals) < 1e-7
    # 12 renames and 21 walks when every frame lift had a fresh tag
    assert (work["retag_array"], work["walk"]) == (0, 2)
