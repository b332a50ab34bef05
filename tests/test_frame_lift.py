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

import random
import weakref
from collections import Counter

import pytest

from finslerlab import finsler, jets, memo
from finslerlab.calculus import (
    VectorField, coordinate_one_form, fn_bracket, frame_vector, vertical_endomorphism,
)
from finslerlab.checks import run_checks
from finslerlab.config import RunConfig
from finslerlab.connections import (
    dh_omega_residual, l_ehresmann_connection, vector_form2_residual, weak_torsion,
)
from finslerlab.core import PointBatch, ScalarField, point, sample_slit_points
from finslerlab.finsler import (
    FinslerStructure, berwald_connection, canonical_spray, finsler_fixture, fixture_ids,
    omega_and_dE, sharp,
)
from finslerlab.registry import build_field

import energies
from helpers import collector_off, point_memo
from test_finsler import _identical, _identical_entries, _tags_of


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


def _bits(point):
    """``point_key``'s result with each float as its repr, which tells -0.0 from 0.0."""
    key, base, tags = point
    return [[(type(x), repr(x)) for x in part] for part in (key, base)], tags


@pytest.mark.parametrize("k", [4, 6])
def test_a_frame_lift_of_a_float_point_is_keyed_as_its_walk_keys_it(k):
    rng = random.Random(k)
    for _ in range(50):
        z = [rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0)]) for _ in range(k)]
        lifted = jets.frame_lift(z, k)[1]
        walked = memo._walk(lifted, ())
        assert _bits(memo._frame_lift_key(lifted)) == _bits(walked)
        _clear_caches()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(memo, "_walk", lambda *args: pytest.fail("walked"))
            assert _bits(memo.point_key(lifted)) == _bits(walked)
        assert memo._last_base[0] == walked[1]


def test_only_a_frame_lift_of_a_float_point_is_keyed_without_a_walk():
    z = point(0.1, -0.2, 0.7, -0.0).coords()
    tag, lifted = jets.frame_lift(z, 4)
    frame = jets.vec_frame(4)
    relifted = list(lifted)
    relifted[1] = jets.Jet(jets.fresh_tag(), lifted[1], frame[1])
    jet_c = list(lifted)
    jet_c[2] = jets.Jet(tag, jets.Jet(tag - 1, 0.7, 1.0), frame[2])
    other_vec = list(lifted)
    other_vec[3] = jets.Jet(tag, -0.0, jets.Vec(list(frame[3].s)))
    swapped = list(lifted)
    swapped[0], swapped[1] = (jets.Jet(tag, c.val, e) for c, e in zip(lifted, frame[1::-1]))
    other_tag = list(lifted)
    other_tag[0] = jets.Jet(tag + 1, 0.1, frame[0])
    unlifted = list(lifted)
    unlifted[2] = 0.7
    points = [
        relifted, jets.frame_lift(lifted, 4)[1], jet_c, other_vec, swapped, other_tag, unlifted,
        jets.frame_lift(PointBatch(sample_slit_points(2, 3, seed=1)).coords(), 4)[1],  # a batch
        jets.lift(z, jets.vec_frame(6), tag),  # 4 coordinates, Vecs of 6 slots
    ]
    for w in points:
        assert memo._frame_lift_key(w) is None
        _clear_caches()
        assert _bits(memo.point_key(w)) == _bits(memo._walk(w, ()))


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
    # the Randers energy with its drift carried as a jet, to differentiate in it
    return FinslerStructure(finsler._energy_randers(2, drift), 2, sample_slit_points(2, 2, seed=3),
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
    """Renames of memo hits (``memo.retag_array`` calls from ``PointMemo.get``),
    key walks (``memo._walk``) and SVD condition checks
    (``finsler._condition_numbers``, by the shape of the stacked matrices)."""
    work = Counter()
    retag_array, walk, svd = memo.retag_array, memo._walk, finsler._condition_numbers
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

    def counting_svd(stacked):
        work[stacked.shape] += 1
        return svd(stacked)

    monkeypatch.setattr(memo, "retag_array", counting_retag)
    monkeypatch.setattr(memo, "_walk", counting_walk)
    monkeypatch.setattr(finsler, "_condition_numbers", counting_svd)
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
    # first lookup (i_J omega) comes before (74 walks without that memo).  A
    # batch frame lift is walked, and a batch miss of omega's memo takes its
    # conditioning from the SVD: one per fixture, over the 32-point grid
    assert work == {"retag_array": 69, "walk": 75, (32, 4, 4): 3}


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
    # 12 renames and 21 walks when every frame lift had a fresh tag, 2 walks
    # while a frame lift of a float point was walked too
    assert (work["retag_array"], work["walk"]) == (0, 1)


# -- a float or batch miss computed at the point's frame lift -----------------


def _counting_passes(monkeypatch):
    """Counts of ``omega_and_dE`` passes and of float or batch misses computed
    at a frame lift (``finsler._lifted_entry`` calls)."""
    work = Counter()
    omega, lifted = finsler.omega_and_dE, finsler._lifted_entry

    def counting_omega(E, n, z):
        work["omega_and_dE"] += 1
        return omega(E, n, z)

    def counting_lifted(E, n, z):
        work["lifted"] += 1
        return lifted(E, n, z)

    monkeypatch.setattr(finsler, "omega_and_dE", counting_omega)
    monkeypatch.setattr(finsler, "_lifted_entry", counting_lifted)
    return work


def _queries(n=2, count=30, seed=17):
    """S0, h0 and a sharp field of each fixture, and ``count`` fresh points."""
    grid = sample_slit_points(n, 8, seed=5)
    objects = []
    for fid in fixture_ids():
        F = finsler_fixture(fid, grid, n=n)
        objects.append((F, canonical_spray(F), berwald_connection(F),
                        sharp(F, coordinate_one_form(n, 1))))
    return objects, [p.coords() for p in sample_slit_points(n, count, seed=seed)]


def test_point_queries_make_one_energy_pass_each_once_the_memo_expects_lifted_reads(monkeypatch):
    # S0, h0's matrix and a sharp at 300 fresh points, round-robin over the
    # fixtures: the first two points of each fixture take a float pass and a
    # lifted pass (the memo's counter is warming up), every later one a
    # lifted pass alone, whose primal answers S0 and the sharp
    objects, points = _queries(count=300)
    work = _counting_passes(monkeypatch)
    other_work = _counting_work(monkeypatch)
    for i, z in enumerate(points):
        _, s0, h0, X = objects[i % 3]
        s0(z), h0.matrix(z), X(z)
    assert work == {"omega_and_dE": 306, "lifted": 294}
    # every frame lift is of a float point, keyed without a walk, and every
    # float miss certifies cond(omega) without an SVD
    assert other_work == {}


@pytest.mark.parametrize("stream, passes", [
    ("N", 1), ("X", 1), ("LN", 3),
])
def test_streams_without_two_lifted_reads_in_a_row_never_lift(stream, passes, monkeypatch):
    # N: S0 alone; X: a sharp field alone; L: S0 and h0's matrix.  Each stream
    # makes the passes it made before the lifted miss, and none is lifted
    objects, points = _queries()
    work = _counting_passes(monkeypatch)
    for i, z in enumerate(points):
        _, s0, h0, X = objects[0]
        step = stream[i % len(stream)]
        if step == "X":
            X(z)
        else:
            s0(z)
            if step == "L":
                h0.matrix(z)
    assert work == {"omega_and_dE": passes * len(points) // len(stream)}


def test_the_lifted_reads_counter_saturates_at_two_bits():
    # 1 for a base point that had a lookup at a jet point, 0 for one that had
    # none: the counter after each base point, read when the next one arrives
    pm = memo.PointMemo()
    seen = []
    for i, lifted in enumerate([1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1]):
        z = [0.1 * (i + 1), 0.2, 0.7, -0.4]
        pm.get(z, lambda z: 0.0)
        if lifted:
            pm.get(jets.frame_lift(z, 4)[1], lambda z: 0.0)
        seen.append(pm.lifted_reads)
    pm.get([0.0, 0.2, 0.7, -0.4], lambda z: 0.0)
    assert seen[1:] + [pm.lifted_reads] == [1, 2, 3, 3, 2, 3, 2, 1, 0, 0, 1, 2]


def _expecting_lifted_reads(F):
    """F, after reads of its memo at two base points, each lifted once, so that
    the memo lifts its next float or batch miss.  The lifts are not frame
    lifts, so the frame lift cache is left as it is."""
    n2 = 2 * F.n
    for w in sample_slit_points(F.n, 2, seed=9):
        F.shared_omega_at(jets.lift(w.coords(), frame_vector(n2, 0), jets.fresh_tag()))
    assert point_memo(F.shared_omega_at).lifted_reads == memo.PointMemo.LIFT_AT - 1
    return F


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", energies.IDS)
def test_a_lifted_miss_gives_the_plain_entry_and_stores_the_lifted_one(fid, n, monkeypatch):
    # bit for bit, zero signs and batch bytes included, at a float and a batch
    # point; the entry at the frame lift is what a miss there computes
    grid = sample_slit_points(n, 4, seed=3)
    z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]

    for z in (z0, PointBatch(grid).coords()):
        F = _expecting_lifted_reads(energies.structure(fid, grid, n))
        plain = finsler.omega_and_dE(F.E, n, z)
        work = _counting_passes(monkeypatch)
        assert _identical_entries(F.shared_omega_at(z), plain)
        assert work == {"omega_and_dE": 1, "lifted": 1}
        lifted = jets.frame_lift(z, 2 * n)[1]
        with monkeypatch.context() as p:
            p.setattr(finsler, "omega_and_dE", lambda *args: pytest.fail("no entry stored"))
            hit = F.shared_omega_at(lifted)
        assert _identical_entries(hit, omega_and_dE(F.E, n, lifted))
        monkeypatch.undo()


def _assert_falls_back(F, z, monkeypatch):
    """A float miss of F's memo, expecting lifted reads, gives the plain entry
    after a lifted pass it cannot use, and stores nothing at the lift."""
    plain = omega_and_dE(F.E, F.n, z)
    _expecting_lifted_reads(F)
    work = _counting_passes(monkeypatch)
    assert _identical_entries(F.shared_omega_at(z), plain)
    assert work == {"omega_and_dE": 2, "lifted": 1}
    lifted = jets.frame_lift(z, 2 * F.n)[1]
    assert memo.point_key(lifted)[0] not in point_memo(F.shared_omega_at).entries


def test_a_lifted_miss_falls_back_on_an_energy_holding_a_jet_above_the_lift(monkeypatch):
    z = point(0.1, -0.2, 0.7, -0.4).coords()
    tag, _ = jets.frame_lift(z, 4)
    drift = jets.Jet(jets.fresh_tag(), 0.3, 1.0)
    assert drift.tag > tag
    _assert_falls_back(_drift_structure(drift), z, monkeypatch)


def test_a_lifted_miss_falls_back_where_a_third_derivative_raises(monkeypatch):
    # x1 ** 1.5 at x1 = 0: its second derivative there is power(0.0, -0.5)
    E = ScalarField(lambda z: 0.5 * (1.0 + z[0] ** 1.5) * (z[2] * z[2] + z[3] * z[3]), 2)
    F = FinslerStructure(E, 2, sample_slit_points(2, 2, seed=3), validate=False)
    z = point(0.0, -0.2, 0.7, -0.4).coords()
    with pytest.raises(ZeroDivisionError):
        omega_and_dE(E, 2, jets.frame_lift(z, 4)[1])
    _assert_falls_back(F, z, monkeypatch)


@pytest.mark.parametrize("n", [2, 3])
def test_a_stream_of_queries_answers_what_a_fresh_structure_answers(n, monkeypatch):
    objects, points = _queries(n)
    work = _counting_passes(monkeypatch)
    got = []
    for i, z in enumerate(points):
        _, s0, h0, X = objects[i % 3]
        got.append((s0(z), h0.matrix(z), X(z)))
    assert work["lifted"] == len(points) - 6
    monkeypatch.undo()
    for i, (z, answers) in enumerate(zip(points, got)):
        F = objects[i % 3][0]
        G = finsler_fixture(F.name, F.grid, n=n)
        fresh = (canonical_spray(G)(z), berwald_connection(G).matrix(z),
                 sharp(G, coordinate_one_form(n, 1))(z))
        assert _flat(answers) and len(_flat(answers)) == len(_flat(fresh))
        assert all(_identical(a, b) for a, b in zip(_flat(answers), _flat(fresh)))


def _flat(x):
    if type(x) in (list, tuple):
        return [v for a in x for v in _flat(a)]
    return [x]
