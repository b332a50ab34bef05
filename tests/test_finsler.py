"""Finsler layer: validation, omega, sharp, sprays, Berwald, conformal change."""

import cProfile
import functools
import math
import pstats
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerlab import finsler, jets, memo
from finslerlab.calculus import (
    DifferentialForm, VectorField, coordinate_one_form, d_function,
    exterior_derivative, fn_bracket, frame_vector, insert_one_form,
    insert_vector, lie_derivative, liouville_field, vertical_endomorphism,
)
from finslerlab.core import BaseFunction, PointBatch, ScalarField, point, sample_slit_points
from finslerlab.errors import (
    HomogeneityFailure, NondegeneracyFailure, NotConnection, PositivityFailure,
)
from finslerlab.finsler import (
    FinslerStructure, berwald_connection, canonical_spray, conformal_change,
    conservative_connection_residual, conservative_form_residual,
    finsler_fixture, fixture_energy, fixture_ids, fundamental_form, gradient,
    omega_and_dE, projector_residual, sharp, validate_finsler,
)

import energies
from helpers import maxabs, point_memo
from test_mutants import mutant

N, N2 = 2, 4
P0 = point(0.0, 0.0, 1.0, 2.0)
GRID = sample_slit_points(N, 12, seed=5)

EUC = finsler_fixture("euclidean", GRID)
RIE = finsler_fixture("riemannian-exp", GRID)
RAN = finsler_fixture("randers-0.3", GRID)
ALL = [EUC, RIE, RAN]


def close(a, b, tol=1e-10):
    return maxabs([x - y for x, y in zip(a, b)]) < tol


# -- validation ----------------------------------------------------------------


def test_fixture_ids_exposed():
    assert fixture_ids() == ["euclidean", "riemannian-exp", "randers-0.3"]


def test_fixtures_validate():
    for F in ALL:
        assert F.n == 2


def test_positivity_failure():
    bad = ScalarField(lambda z: 0.5 * (z[2] * z[2] - z[3] * z[3]), N)
    with pytest.raises(PositivityFailure):
        validate_finsler(bad, GRID)


def test_nondegeneracy_failure():
    bad = ScalarField(lambda z: 0.5 * z[2] * z[2], N)
    with pytest.raises(NondegeneracyFailure):
        validate_finsler(bad, GRID)


def _energy_cos4(z):
    # E = |y|^2 (1 + cos(4 theta) / 2) / 2: positive and 2-homogeneous, but g is
    # indefinite at 13 of the 32 points of seed 42
    y1, y2 = z[2], z[3]
    r2 = y1 * y1 + y2 * y2
    quartic = y1 * y1 * y1 * y1 - 6.0 * y1 * y1 * y2 * y2 + y2 * y2 * y2 * y2
    return 0.5 * (r2 + 0.5 * quartic / r2)


def test_an_indefinite_energy_fails_strong_convexity():
    # |det g| stays above DET_FLOOR: only the leading principal minors see it
    grid = sample_slit_points(N, 32, seed=42)
    with pytest.raises(NondegeneracyFailure, match="not positive definite") as err:
        validate_finsler(ScalarField(_energy_cos4, N), grid)
    assert err.value.point == list(grid)[2]
    assert err.value.value == pytest.approx(-1.2651349483916243, rel=1e-12)
    # unvalidated, the sharp solve stops at a pivot <= 0 there
    F = FinslerStructure(ScalarField(_energy_cos4, N), N, grid, validate=False)
    assert _sharp_error(F, list(grid)[2].coords()).value < 0.0


def test_homogeneity_failure():
    def ev(z):
        q = z[2] * z[2] + z[3] * z[3]
        return 0.5 * q + 0.1 * z[2] * z[2] * jets.sqrt(q)

    with pytest.raises(HomogeneityFailure):
        validate_finsler(ScalarField(ev, N), GRID)


# -- fundamental form -------------------------------------------------------------


def test_omega_hand_values():
    om = fundamental_form(EUC)
    z = P0.coords()
    e = [frame_vector(N2, a) for a in range(N2)]
    assert abs(om(z, e[0], e[2]) + 1.0) < 1e-12   # omega(dx1, dy1) = -1
    assert abs(om(z, e[0], e[1])) < 1e-12          # no dx^dx part
    om_r = fundamental_form(RIE)
    assert abs(om_r(z, e[2], e[0]) - 1.0) < 1e-12  # g11 at p0 = e^0


def test_omega_two_paths_agree():
    for F in ALL:
        om = fundamental_form(F)
        for p in list(GRID)[:6]:
            z = p.coords()
            m = F.omega_matrix_at(z)
            for a in range(N2):
                for b in range(N2):
                    assert abs(m[a][b] - om(z, frame_vector(N2, a), frame_vector(N2, b))) < 1e-9


def test_omega_matrix_block_structure():
    # g has one source: the metric that validation reads is, bit for bit, the
    # block of omega's matrix that the sharp solve eliminates, at float, batch
    # and frame-lifted jet points
    for n in (2, 3):
        grid = list(sample_slit_points(n, 4, seed=5))
        for fid in fixture_ids():
            F = finsler_fixture(fid, grid, n=n)
            za = jets.lift(grid[0].coords(), jets.vec_frame(2 * n), jets.fresh_tag())
            for z in [p.coords() for p in grid] + [PointBatch(grid).coords(), za]:
                g, m = F.metric_at(z), F.shared_omega_at(z)[0]
                assert all(_identical(g[i][j], m[n + i][j]) and _identical(g[i][j], g[j][i])
                           for i in range(n) for j in range(n))
            for p in grid:
                m = np.array(F.omega_matrix_at(p.coords()), dtype=float)
                assert (m[:n, n:] == -m[n:, :n].T).all()
                assert (m[n:, n:] == 0.0).all()
                skew = m[:n, :n]
                assert (np.diag(skew) == 0.0).all()
                assert (skew == -skew.T).all()


def _jet_constructions(fn):
    """Jets and Vecs built by ``fn``, counted together.

    Counted from the profile, so the jet kernel itself carries no counter:
    every ``__init__`` in jets.py is a Jet's or a Vec's.
    """
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(stat[1] for (path, _, name), stat in pstats.Stats(prof).stats.items()
               if name == "__init__" and path.endswith("jets.py"))


BUDGETS = [
    (2, "omega", 89),
    (2, "spray", 90),
    (2, "berwald", 374),
    (3, "berwald", 672),
    (3, "dh_omega", 6920),
    (3, "torsion", 4130),
    (2, "point-query", 464),
]


# the ids leave out the budget, so a new bound renames no test
@pytest.mark.parametrize("n, what, budget", BUDGETS,
                         ids=[f"{n}-{what}" for n, what, _ in BUDGETS])
def test_jet_construction_budget(n, what, budget):
    # Jets and Vecs together; each budget is today's count plus about 10%:
    # omega 81, the float spray 82, the Berwald matrices 340 and 611, d_h
    # omega of h0 and h_L 6293, the weak torsion [J, h0] 3756, and one point
    # query (spray, Berwald matrix and a sharp at a fresh float point) 422.
    # The shared vector frames save 6 Vecs per n = 2 omega pass.  Per-
    # direction scalar passes (one nested pass per Hessian entry of E, 2n
    # lifts of S0 and of the point in d_h omega) built 92, 946, 3099 and
    # 89536 jets in the omega, Berwald and d_h omega cases, a dense lift 280,
    # 3396 and 13008 in the first three, d_h omega without the point memo
    # 147451, and [J, h0] with eight scalar passes per frame pair 49125.
    from finslerlab.connections import (
        dh_omega_residual, l_ehresmann_connection, vector_form2_residual, weak_torsion,
    )
    from finslerlab.registry import build_field
    F = finsler_fixture("randers-0.3", sample_slit_points(n, 4, seed=1), n=n)
    z = [0.1, -0.2, 0.3][:n] + [0.7, 0.4, -0.5][:n]
    if what == "omega":
        count = _jet_constructions(lambda: omega_and_dE(F.E, n, z)[0])
    elif what == "spray":
        count = _jet_constructions(lambda: canonical_spray(F)(z))
    elif what == "berwald":
        count = _jet_constructions(lambda: berwald_connection(F).matrix(z))
    elif what == "torsion":
        torsion = weak_torsion(F, berwald_connection(F))
        count = _jet_constructions(lambda: vector_form2_residual(torsion, [point(*z)]))
    elif what == "point-query":
        x = sharp(F, coordinate_one_form(n, 0))
        count = _jet_constructions(
            lambda: (canonical_spray(F)(z), berwald_connection(F).matrix(z), x(z)))
    else:
        h0 = berwald_connection(F)
        hL = l_ehresmann_connection(
            F, fn_bracket(vertical_endomorphism(n), build_field(F, "E-dy1")))
        p = point(*z)
        count = _jet_constructions(
            lambda: (dh_omega_residual(F, h0, [p]), dh_omega_residual(F, hL, [p])))
    assert count <= budget


def test_float_point_berwald_matrix_lifts_the_spray_once():
    # one vector lift of S0 gives its whole Jacobian; per-direction lifts take 2n
    for n in (2, 3):
        F = finsler_fixture("randers-0.3", sample_slit_points(n, 4, seed=1), n=n)
        s0 = canonical_spray(F)
        calls = []
        ev = s0.fn
        s0.fn = lambda z: calls.append(z) or ev(z)
        z = [0.1, -0.2, 0.3][:n] + [0.7, 0.4, -0.5][:n]
        berwald_connection(F).matrix(z)
        assert len(calls) == 1


# -- vector lifts against per-direction lifts -------------------------------------------


def _omega_reference(E, n, z):
    """omega's matrix with one nested scalar pass per Hessian entry of E."""
    n2 = 2 * n

    def d2(a, b):
        return jets.nth_directional(E.fn, z, [frame_vector(n2, a), frame_vector(n2, b)])

    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = d2(n + i, n + j)
    m = [[0.0] * n2 for _ in range(n2)]
    for i in range(n):
        for j in range(i + 1, n):
            a = d2(i, n + j) - d2(j, n + i)
            m[i][j] = a
            m[j][i] = -a
        for j in range(n):
            m[i][n + j] = -g[j][i]
            m[n + i][j] = g[i][j]
    return m


def _berwald_reference(F, z):
    """h0's matrix from one scalar lift of S0 per frame vector."""
    n, n2 = F.n, 2 * F.n
    J = vertical_endomorphism(n).matrix(z)
    s0 = canonical_spray(F)
    lifted = [jets.directional(s0.fn, z, frame_vector(n2, b)) for b in range(n2)]
    cols = []
    for b in range(n2):
        d_kx = lifted[n + b] if b < n else [0.0] * n2   # J e_b = e_{n+b} or 0
        kdxy = [sum(row[c] * lifted[b][c] for c in range(n2)) for row in J]
        cols.append([p - q for p, q in zip(d_kx, kdxy)])
    return [[0.5 * ((1.0 if a == b else 0.0) + cols[b][a]) for b in range(n2)]
            for a in range(n2)]


def _lifted(z, dirs):
    """``z`` lifted along each direction in turn, with its tags (largest first)."""
    tags = []
    for d in dirs:
        tags.insert(0, jets.fresh_tag())
        z = jets.lift(z, d, tags[0])
    return z, tags


def _coeffs(x, tags, slot=None):
    """The floats of ``x``: its parts along each tag, largest tag first.

    ``slot = (tag, a, k)`` takes slot a of the k-slot tangent along that tag.
    """
    if not tags:
        assert type(x) is float
        return [x]
    t, rest = tags[0], tags[1:]
    d = jets.tangent(x, t)
    if slot is not None and t == slot[0]:
        d = jets.slots(d, slot[2])[slot[1]]
    return _coeffs(jets.primal(x, t), rest, slot) + _coeffs(d, rest, slot)


def _assert_slots_match(evaluate, z, dirs, pos):
    """``evaluate`` at z lifted along ``dirs`` with a vector frame in place of
    ``dirs[pos]`` equals, slot a by slot a, its value with the frame vector e_a
    there (``==`` on floats)."""
    n2 = len(z)
    zv, tags_v = _lifted(z, dirs[:pos] + [jets.vec_frame(n2)] + dirs[pos + 1:])
    vec_value = evaluate(zv)
    for a in range(n2):
        za, tags_a = _lifted(z, dirs[:pos] + [frame_vector(n2, a)] + dirs[pos + 1:])
        scalar_value = evaluate(za)
        slot = (tags_v[len(dirs) - 1 - pos], a, n2)
        for u, v in zip(vec_value, scalar_value):
            for x, y in zip(u, v) if isinstance(u, list) else [(u, v)]:
                assert _coeffs(x, tags_v, slot) == _coeffs(y, tags_a)


_FIBER = st.lists(st.floats(0.3, 1.5), min_size=3, max_size=3)
_BASE = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
_DIRECTION = st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(-2.0, 2.0)),
                      min_size=6, max_size=6)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(fixture_ids()),
       st.sampled_from([2, 3]), _BASE, _FIBER,
       st.lists(_DIRECTION, min_size=1, max_size=3), st.integers(0, 2))
def test_omega_matrix_vector_lift_matches_scalar_lifts(fid, n, xs, ys, dirs, pos):
    E = fixture_energy(fid, n)
    z = xs[:n] + ys[:n]
    dirs = [d[:2 * n] for d in dirs]
    # the vector Hessian against one nested scalar pass per entry ...
    zs, tags = _lifted(z, dirs)
    for u, v in zip(omega_and_dE(E, n, zs)[0], _omega_reference(E, n, zs)):
        assert all(_coeffs(x, tags) == _coeffs(y, tags) for x, y in zip(u, v))
    # ... and a vector lift of the point against per-direction lifts
    _assert_slots_match(lambda w: omega_and_dE(E, n, w)[0], z, dirs, pos % len(dirs))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", fixture_ids())
def test_berwald_and_sharp_vector_lifts_match_scalar_lifts(fid, n):
    grid = sample_slit_points(n, 2, seed=3)
    z = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
    F = finsler_fixture(fid, grid, n=n)
    assert berwald_connection(F).matrix(z) == _berwald_reference(F, z)
    h0 = berwald_connection(finsler_fixture(fid, grid, n=n))
    _assert_slots_match(h0.matrix, z, [None], 0)
    # sharp's vector beta row against one scalar evaluation of beta per frame vector
    n2 = 2 * n
    dE = d_function(F.E)
    x = sharp(F, dE.scale(-1.0))
    for depth in (0, 1, 2):
        zs, tags = _lifted(z, [frame_vector(n2, 0), [0.5] * n2][:depth])
        ref = F.sharp_at([-1.0 * dE.fn(zs, frame_vector(n2, b)) for b in range(n2)], zs)
        assert all(_coeffs(u, tags) == _coeffs(v, tags) for u, v in zip(x(zs), ref))
    if n == 2:
        _assert_slots_match(x, z, [[0.5, 0.0, 1.0, -0.5], None], 1)


# -- sharp and gradient ------------------------------------------------------------


def test_sharp_hand_values():
    dx1 = coordinate_one_form(N, 0)
    s = sharp(EUC, dx1)
    assert close(s(P0.coords()), [0.0, 0.0, 1.0, 0.0])
    dE = d_function(EUC.E)
    s2 = sharp(EUC, dE)
    assert close(s2(P0.coords()), [-1.0, -2.0, 0.0, 0.0])
    zero = DifferentialForm(1, lambda z, v: 0.0, N)
    assert close(sharp(EUC, zero)(P0.coords()), [0.0] * 4)


def test_float_and_batch_sharp_values_have_no_negative_zero():
    # unnormalised, the block solve gives sharp(dx1) = [-0.0, 0.0, 1.0, 0.0] at every point
    x = sharp(EUC, coordinate_one_form(N, 0))
    for z in (P0.coords(), PointBatch([P0, *GRID]).coords()):
        assert (np.copysign(1.0, np.asarray(x(z), dtype=float)) == 1.0).all()


def test_sharp_round_trip():
    rng = np.random.default_rng(17)
    for F in ALL:
        om = fundamental_form(F)
        for k in range(3):
            coef = rng.uniform(-1, 1, (N2, N2))
            beta = DifferentialForm(1, lambda z, v, c=coef: sum(
                sum(c[a][b] * z[b] for b in range(N2)) * v[a] for a in range(N2)), N)
            x = sharp(F, beta)
            for p in list(GRID)[:5]:
                z = p.coords()
                xz = x(z)
                for b in range(N2):
                    eb = frame_vector(N2, b)
                    assert abs(om(z, xz, eb) - beta(z, eb)) < 1e-9


def test_sharp_condition_failure():
    # bypass validation to reach the conditioning guard
    tiny = ScalarField(lambda z: 0.5 * (z[2] * z[2] + 1e-14 * z[3] * z[3]), N)
    F = FinslerStructure(tiny, N, GRID, validate=False)
    dx1 = coordinate_one_form(N, 0)
    for _ in range(2):  # a repeated call at the point fails as the first did
        with pytest.raises(NondegeneracyFailure):
            sharp(F, dx1)(P0.coords())
    beta = [1.0, 0.0, 0.0, 0.0]
    for _ in range(2):
        z = jets.lift(P0.coords(), frame_vector(N2, 0), jets.fresh_tag())
        with pytest.raises(NondegeneracyFailure):
            F.sharp_at(beta, z)
    # g = diag(1, x1^2): cond(omega) is about 1e14 at the batch's second point alone
    F = FinslerStructure(
        ScalarField(lambda z: 0.5 * (z[2] * z[2] + z[0] * z[0] * z[3] * z[3]), N),
        N, GRID, validate=False)
    good, bad = point(0.5, 0.1, 1.0, 1.0), point(1e-7, 0.1, 1.0, 1.0)
    for _ in range(2):
        with pytest.raises(NondegeneracyFailure, match=r"ill-conditioned \(cond=") as err:
            F.sharp_at(beta, PointBatch([good, bad, good]).coords())
        assert err.value.point == list(bad.coords()) and err.value.value > 1e12


def test_a_nan_coordinate_fails_nondegeneracy_at_its_point():
    # the SVD behind cond(omega) does not converge on a non-finite omega;
    # the failure names the first point whose omega is not finite
    F = finsler_fixture("randers-0.3", sample_slit_points(N, 32, seed=42))
    pts = list(F.grid)
    pts[17] = point(*pts[17].base, pts[17].fiber[0], math.nan)
    for z, at in (([0.1, 0.2, 0.5, math.nan], [0.1, 0.2, 0.5, math.nan]),
                  (PointBatch(pts).coords(), pts[17].coords())):
        for _ in range(2):  # a raise stores nothing, so a repeated call raises again
            with pytest.raises(NondegeneracyFailure, match="fundamental form not finite") as err:
                canonical_spray(F)(z)
            assert np.array_equal(err.value.point, at, equal_nan=True)
            assert math.isnan(err.value.value)


def test_condition_numbers_are_numpys_cond_bit_for_bit():
    # the memo's miss takes cond(omega) from one SVD, as np.linalg.cond does
    rng = np.random.default_rng(21)
    zero = np.zeros((N2, N2))
    rank_one = np.outer([1.0, 2.0, 0.0, -1.0], [0.5, 0.0, 1.0, 1.0])
    # an infinite entry: the SVD gives NaN singular values, which read inf
    # through the NaN rule alone (a NaN ratio would pass a > COND_LIMIT check)
    infinite = np.eye(N2)
    infinite[1, 2] = math.inf
    arrays = [rng.normal(size=(1, N2, N2)), rng.normal(size=(9, N2, N2)), zero[None],
              np.stack([rng.normal(size=(N2, N2)), zero, rank_one]), infinite[None],
              np.stack([rng.normal(size=(N2, N2)), infinite])]
    for F in ALL:
        for z in (P0.coords(), PointBatch(GRID).coords()):
            arrays.append(jets.stacked(omega_and_dE(F.E, N, z)[0], z))
    for x in arrays:
        cond = finsler._condition_numbers(x)
        assert cond.dtype == np.float64 and cond.tobytes() == np.linalg.cond(x).tobytes()
    assert np.isinf(finsler._condition_numbers(zero[None])).all()  # 0 / 0
    assert np.isinf(finsler._condition_numbers(infinite[None])).all()  # NaN / NaN
    nan = rng.normal(size=(2, N2, N2))
    nan[1, 2, 3] = math.nan
    for cond in (np.linalg.cond, finsler._condition_numbers):
        with pytest.raises(np.linalg.LinAlgError):
            cond(nan)
    # end to end: a singular omega is ill-conditioned with cond = inf, at its
    # float point and at its point of a batch (omega vanishes where x1 = 0)
    F = FinslerStructure(ScalarField(lambda z: 0.5 * z[0] * z[0] * (z[2] * z[2] + z[3] * z[3]), N),
                         N, GRID, validate=False)
    good, singular = point(0.5, 0.1, 1.0, 1.0), point(0.0, 0.1, 1.0, 1.0)
    for z, at in ((singular.coords(), singular.coords()),
                  (PointBatch([good, singular]).coords(), singular.coords())):
        with pytest.raises(NondegeneracyFailure, match=r"ill-conditioned \(cond=inf\)") as err:
            F.shared_omega_at(z)
        assert err.value.point == list(at) and err.value.value == math.inf
    # and an omega with a NaN coordinate is not finite
    bad = point(math.nan, 0.1, 1.0, 1.0)
    for z in (bad.coords(), PointBatch([good, bad]).coords()):
        with pytest.raises(NondegeneracyFailure, match="fundamental form not finite"):
            F.shared_omega_at(z)


# -- the certificate of cond(omega) at a float miss -----------------------------


def _omega(g, a):
    """omega's matrix [[A, -g], [g, 0]] as ``omega_and_dE`` lays it out, as lists of floats."""
    n = len(g)
    return np.block([[a, -g], [g, np.zeros((n, n))]]).tolist()


def _random_omegas(rng, n, count):
    """Seeded omegas whose g is SPD at a scale from 1e-6 to 1e6, with a
    condition number up to about 1e12, and whose skew A has ||A||_F up to 1e4
    (or is zero)."""
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        g = (q * (scale * 10.0 ** rng.uniform(-12.0, 0.0, size=n))) @ q.T
        g = (g + g.T) / 2.0  # exactly symmetric, as omega_and_dE builds it
        a = rng.normal(size=(n, n))
        a -= a.T
        a *= 10.0 ** rng.uniform(-8.0, 4.0) / np.linalg.norm(a) if rng.uniform() > 0.2 else 0.0
        yield _omega(g, a)


def _wrongly_certified(certified, n, omegas):
    """The omegas that ``certified`` passes although np.linalg.cond reads more than it proves."""
    return [m for m in omegas
            if certified(m, n) and not np.linalg.cond(m) <= finsler.CERTIFIED_COND]


@pytest.mark.parametrize("n", [2, 3])
def test_a_certified_omega_is_well_conditioned(n):
    omegas = list(_random_omegas(np.random.default_rng(37 + n), n, 1500))
    # g = 1e-2 I and A = 1e4 times a unit skew matrix: cond(omega) is about 1e12
    g, a = 1e-2 * np.eye(n), np.zeros((n, n))
    a[0, 1], a[1, 0] = 1e4, -1e4
    omegas.append(_omega(g, a))
    certified = [m for m in omegas if finsler._certified_well_conditioned(m, n)]
    assert 200 < len(certified) < len(omegas) - 200  # both outcomes are exercised
    assert _wrongly_certified(finsler._certified_well_conditioned, n, omegas) == []
    # the bound without the g^-1 A g^-1 block of omega^-1 certifies large-A omegas
    no_a_term = mutant(finsler._certified_well_conditioned,
                       "2 * n * s2 + s2 * s2 * a2", "2 * n * s2")
    assert omegas[-1] in _wrongly_certified(no_a_term, n, omegas)


@pytest.mark.parametrize("n", [2, 3])
def test_a_non_finite_indefinite_or_out_of_range_omega_is_never_certified(n):
    eye, skew = np.eye(n), np.zeros((n, n))
    skew[0, 1], skew[1, 0] = 0.5, -0.5
    assert finsler._certified_well_conditioned(_omega(eye, skew), n)
    cases = [_omega(-eye, skew), _omega(0.0 * eye, skew), _omega(eye * [1.0] * (n - 1) + [-1.0],
                                                                     skew),
             _omega(np.ones((n, n)), skew),  # singular: its second pivot is 0
             _omega(1e200 * eye, skew), _omega(eye, 1e200 * skew),
             _omega(5e-324 * eye, skew), _omega(1e-310 * eye, 1e-310 * skew)]
    for bad in (math.nan, math.inf, -math.inf):
        for i, j in ((0, 1), (0, 0), (1, 0), (n - 1, n - 1)):
            a, g = skew.copy(), eye.copy()
            a[i, j], a[j, i] = bad, -bad
            cases.append(_omega(eye, a))
            g[i, j] = g[j, i] = bad
            cases.append(_omega(g, skew))
    for m in cases:
        assert finsler._certified_well_conditioned(m, n) is False


@pytest.mark.parametrize("n", [2, 3])
def test_every_point_of_the_fixture_and_funk_grids_is_certified(n):
    # the path that point queries take: no float miss there needs the SVD
    grid = sample_slit_points(n, 32, seed=42)
    for E in (energies.structure(eid, grid, n).E for eid in energies.IDS):
        for p in grid:
            m = omega_and_dE(E, n, p.coords())[0]
            assert finsler._certified_well_conditioned(m, n)


def test_a_jet_valued_omega_at_a_float_point_is_read_by_real_parts():
    # an energy holding a jet of its own, the Randers drift, puts jets into
    # omega at a float point
    drift = jets.Jet(jets.fresh_tag(), 0.3, 1.0)
    z = [0.1, -0.2, 0.7, -0.4]
    m = omega_and_dE(finsler._energy_randers(2, drift), N, z)[0]
    assert any(type(x) is jets.Jet for row in m for x in row)
    real = [[float(jets.realpart(x)) for x in row] for row in m]
    assert finsler._certified_well_conditioned(m, N) and finsler._certified_well_conditioned(real, N)
    # one jet in an otherwise certified omega: its real part decides
    for value, certified in ((0.25, True), (math.nan, False)):
        m = _omega(np.eye(N), np.zeros((N, N)))
        m[N][0] = jets.Jet(drift.tag, value, 1.0)
        m[0][N] = -m[N][0]
        assert finsler._certified_well_conditioned(m, N) is certified


def test_sharp_pivot_guard_compares_every_pivot():
    # g = [[s, 1e-14], [1e-14, 1]] with s = x1: at x1 = 1e-14 the small pivot comes first and
    # the large one after it, so cond(g) is about 1e14 while no pivot is small against an earlier one
    from finslerlab.finsler import _sharp_block_solve
    E = ScalarField(
        lambda z: 0.5 * (z[0] * z[2] * z[2] + 2e-14 * z[2] * z[3] + z[3] * z[3]), N)
    F = FinslerStructure(E, N, GRID, validate=False)
    good, bad = point(0.5, 0.0, 1.0, 1.0), point(1e-14, 0.0, 1.0, 1.0)
    z = jets.lift(bad.coords(), jets.vec_frame(N2), jets.fresh_tag())
    with pytest.raises(NondegeneracyFailure, match=SINGULAR) as err:
        F.sharp_at(_jet_beta(z), z)
    assert err.value.point == list(bad.coords()) and err.value.value == 1e-14
    z = PointBatch([good, bad]).coords()
    with pytest.raises(NondegeneracyFailure, match=SINGULAR) as err:
        _sharp_block_solve(omega_and_dE(E, N, z)[0], _jet_beta(z), N, z)
    assert err.value.point == list(bad.coords()) and err.value.value == 1e-14
    z = good.coords()
    _sharp_block_solve(omega_and_dE(E, N, z)[0], _jet_beta(z), N, z)


def _sharp_full_elimination(m, beta):
    """sum_a X^a m[a][b] = beta_b by Gaussian elimination of the whole 2n x 2n
    omega^T, pivoting on the real part: the reference for the solve through
    omega's metric block."""
    size = len(m)
    rows = [[m[a][b] for a in range(size)] for b in range(size)]
    b = list(beta)
    for col in range(size):
        p = max(range(col, size), key=lambda r: abs(jets.realpart(rows[r][col])))
        assert jets.realpart(rows[p][col]) != 0.0
        rows[col], rows[p] = rows[p], rows[col]
        b[col], b[p] = b[p], b[col]
        inv = 1.0 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            for c in range(col + 1, size):
                rows[r][c] = rows[r][c] - f * rows[col][c]
            b[r] = b[r] - f * b[col]
    x = [0.0] * size
    for r in range(size - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, size):
            acc = acc - rows[r][c] * x[c]
        x[r] = acc / rows[r][r]
    return x


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", fixture_ids())
def test_sharp_block_solve_matches_full_elimination(fid, n):
    # a conformal change makes omega's skew block A nonzero, so the A^T X^h term counts
    n2 = 2 * n
    grid = sample_slit_points(n, 2, seed=3)
    f = BaseFunction(lambda x: 0.3 * x[0] * x[1] - 0.2 * x[n - 1], n, "f")
    F = conformal_change(finsler_fixture(fid, grid, n=n), f)
    z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
    zs, tags = _lifted(z0, [jets.vec_frame(n2), [0.5, -0.25, 1.0, 0.75, -0.5, 0.25][:n2]])
    m = omega_and_dE(F.E, n, zs)[0]
    assert all(jets.realpart(m[i][j]) != 0.0 for i in range(n) for j in range(n) if i != j)
    beta = _jet_beta(zs)
    got = F.sharp_at(beta, zs)
    ref = _sharp_full_elimination(m, beta)
    for u, v in zip(got, ref):
        for a in range(n2):
            slot = (tags[1], a, n2)
            for x, y in zip(_coeffs(u, tags, slot), _coeffs(v, tags, slot)):
                assert abs(x - y) <= 1e-12 * abs(y)
    # a float point, and a batch point of it and the grid, point by point
    pts = [point(*z0), *grid]
    zb = PointBatch(pts).coords()
    batched = F.sharp_at(_jet_beta(zb), zb)
    for i, p in enumerate(pts):
        z = p.coords()
        ref = _sharp_full_elimination(omega_and_dE(F.E, n, z)[0], _jet_beta(z))
        for x, xb, y in zip(F.sharp_at(_jet_beta(z), z), batched, ref):
            assert abs(x - y) <= 1e-12 * abs(y) and abs(xb[i] - y) <= 1e-12 * abs(y)


NOT_POSITIVE = "fundamental tensor not positive definite during sharp solve"
SINGULAR = "fundamental tensor numerically singular during sharp solve"


def _sharp_error(F, z, message=NOT_POSITIVE):
    with pytest.raises(NondegeneracyFailure, match=message) as err:
        F.sharp_at(_jet_beta(z), z)
    return err.value


def _assert_batch_fails_like_its_points(F, pts, message=NOT_POSITIVE):
    """The batch raises at the first point that raises alone, with its value."""
    with pytest.raises(NondegeneracyFailure, match=message) as per_point:
        for p in pts:
            F.sharp_at(_jet_beta(p.coords()), p.coords())
    batched = _sharp_error(F, PointBatch(pts).coords(), message)
    assert (batched.point, batched.value) == (per_point.value.point, per_point.value.value)
    return batched


def _energy_g11_x1(z):
    """g = [[x1, x2], [x2, 1]]: where 0 < x1 < x2^2, the second pivot fails."""
    return 0.5 * z[0] * z[2] * z[2] + z[1] * z[2] * z[3] + 0.5 * z[3] * z[3]


def _energy_diag_x1(z):
    """g = diag(x1, 1): its pivots are x1 and 1."""
    return 0.5 * (z[0] * z[2] * z[2] + z[3] * z[3])


def test_sharp_with_an_indefinite_metric_fails_loudly():
    # validation is off, so the solve's pivot guard is what stops an indefinite g
    # E = y1 y2 has g = [[0, 1], [1, 0]]: the first pivot is 0 at every point
    F = FinslerStructure(ScalarField(lambda z: z[2] * z[3], N), N, GRID, validate=False)
    zs = _lifted(P0.coords(), [frame_vector(N2, 0), [0.5, -0.25, 1.0, 0.75]])[0]
    for z in (P0.coords(), zs):
        err = _sharp_error(F, z)
        assert err.point == list(P0.coords()) and err.value == 0.0
    _assert_batch_fails_like_its_points(F, [P0, *GRID])
    # g = [[x1, x2], [x2, 1]]: where 0 < x1 < x2^2, g11 > 0 but det g < 0, and
    # the second pivot 1 - x2^2 / x1 fails (-3 at the second point)
    F = FinslerStructure(ScalarField(_energy_g11_x1, N), N, GRID, validate=False)
    pts = [point(0.5, 0.5, 1.0, 2.0), point(0.25, 1.0, 1.0, 2.0)]
    assert _assert_batch_fails_like_its_points(F, pts).value == -3.0
    # g = diag(1, 1e-13) is positive definite but its pivots are 1e13 apart, so
    # the ratio test stops it; at a float or batch point the memo's cond(omega)
    # check comes first, so the solve is called on omega's matrix there
    E = ScalarField(lambda z: 0.5 * (z[2] * z[2] + 1e-13 * z[3] * z[3]), N)
    F = FinslerStructure(E, N, GRID, validate=False)
    assert _sharp_error(F, zs, SINGULAR).value == 1e-13
    for z in (P0.coords(), PointBatch([P0, *GRID]).coords()):
        with pytest.raises(NondegeneracyFailure, match=SINGULAR) as err:
            finsler._sharp_block_solve(omega_and_dE(E, N, z)[0], _jet_beta(z), N, z)
        assert err.value.point == list(P0.coords()) and err.value.value == 1e-13


@pytest.mark.parametrize("ev, pts, message, value", [
    # the first point fails the second column's pivot (1 - 1 / 0.25), the second
    # point the first column's (-0.5)
    (_energy_g11_x1, [point(0.25, 1.0, 1.0, 2.0), point(-0.5, 0.0, 1.0, 2.0)],
     NOT_POSITIVE, -3.0),
    # the first point's pivots are positive but 1e13 apart, and the ratio test
    # after the elimination stops it; the second point fails the first column
    (_energy_diag_x1, [point(1e-13, 0.0, 1.0, 2.0), point(-0.5, 0.0, 1.0, 2.0)],
     SINGULAR, 1e-13),
    # only the second point fails: the batch names it with its own pivot
    (_energy_diag_x1, [point(0.5, 0.0, 1.0, 2.0), point(-0.5, 0.0, 1.0, 2.0)],
     NOT_POSITIVE, -0.5),
], ids=["later-column", "ratio-test", "second-point"])
@pytest.mark.parametrize("lifted", [False, True], ids=["batch", "lifted-batch"])
def test_a_batch_solve_raises_what_the_first_failing_point_raises_alone(ev, pts, message,
                                                                        value, lifted):
    # a batch solve stops at the earliest failing column, where a later point may
    # fail first; it must still name the point that a loop over the points names,
    # with that point's own failure.  The solve is called on omega's matrix, since
    # at a float or batch point the memo's cond(omega) check comes first
    E = ScalarField(ev, N)

    def failure(z):
        if lifted:
            z = jets.lift(z, [0.5, -0.25, 1.0, 0.75], jets.fresh_tag())
        try:
            finsler._sharp_block_solve(omega_and_dE(E, N, z)[0], _jet_beta(z), N, z)
        except NondegeneracyFailure as e:
            return e
        return None

    first = next(e for e in map(failure, (p.coords() for p in pts)) if e is not None)
    batched = failure(PointBatch(pts).coords())
    assert (type(batched), str(batched), batched.point, batched.value) \
        == (type(first), str(first), first.point, first.value)
    assert str(batched) == message and batched.value == value


def test_sharp_with_a_degenerate_metric_fails_at_a_jet_point():
    F = FinslerStructure(ScalarField(lambda z: 0.5 * z[2] * z[2], N), N, GRID, validate=False)
    z = jets.lift(P0.coords(), frame_vector(N2, 0), jets.fresh_tag())
    with pytest.raises(NondegeneracyFailure):
        F.sharp_at(_jet_beta(z), z)


# -- the point memo of the sharp solve ------------------------------------------------


def _jet_point(z, depth, vec=None):
    """A point lifted ``depth`` times with fresh tags; returns (point, tags).

    With ``vec = i`` the i-th lift is along the vector frame.
    """
    n2 = len(z)
    directions = [frame_vector(n2, 0), frame_vector(n2, n2 - 1),
                  [0.5 if a % 2 else 0.0 for a in range(n2)]]
    if vec is not None:
        directions[vec] = jets.vec_frame(n2)
    tags = []
    for d in directions[:depth]:
        tags.append(jets.fresh_tag())
        z = jets.lift(z, d, tags[-1])
    return z, tags


def _jet_beta(z):
    n2 = len(z)
    return [z[b] * (b + 1.0) - z[(b + 1) % n2] * z[b] for b in range(n2)]


def _identical(a, b):
    """Equal values, zero signs and tags, jet node by jet node and slot by slot."""
    if type(a) is jets.Jet or type(b) is jets.Jet:
        return type(a) is type(b) and a.tag == b.tag \
            and _identical(a.val, b.val) and _identical(a.dot, b.dot)
    if type(a) is jets.Vec or type(b) is jets.Vec:
        return type(a) is type(b) and len(a.s) == len(b.s) \
            and all(_identical(x, y) for x, y in zip(a.s, b.s))
    if type(a) is jets.Batch or type(b) is jets.Batch:
        return type(a) is type(b) and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _tags_of(x):
    if type(x) is jets.Jet:
        return {x.tag} | _tags_of(x.val) | _tags_of(x.dot)
    if type(x) is jets.Vec:
        return set().union(*map(_tags_of, x.s))
    return set()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sharp_memo_hit_is_exact(n, depth):
    grid = sample_slit_points(n, 2, seed=3)
    z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
    for fid in fixture_ids():
        for vec in (None, (depth - 1) // 2):   # scalar lifts, then one along the vector frame
            F = finsler_fixture(fid, grid, n=n)
            first, _ = _jet_point(z0, depth, vec)
            F.sharp_at(_jet_beta(first), first)
            again, tags = _jet_point(z0, depth, vec)
            with mock.patch.object(finsler, "omega_and_dE",
                                   side_effect=AssertionError("memo missed")):
                hit = F.sharp_at(_jet_beta(again), again)
            fresh = finsler_fixture(fid, grid, n=n).sharp_at(_jet_beta(again), again)
            assert all(_identical(a, b) for a, b in zip(hit, fresh))
            assert set().union(*map(_tags_of, hit)) <= set(tags)
            assert any(type(c) is jets.Jet for c in hit)


def test_sharp_memo_with_an_energy_that_holds_jets():
    # a Randers drift carried as a jet, to differentiate in it: its tag is on
    # no point, so a hit must solve afresh rather than rename it
    drift = jets.Jet(jets.fresh_tag(), 0.3, 1.0)
    E = ScalarField(
        lambda z: 0.5 * (jets.sqrt(z[2] * z[2] + z[3] * z[3]) + drift * z[2]) ** 2, N)
    F = FinslerStructure(E, N, GRID, validate=False)
    first, _ = _jet_point(P0.coords(), 1)
    F.sharp_at(_jet_beta(first), first)
    again, _ = _jet_point(P0.coords(), 1)
    hit = F.sharp_at(_jet_beta(again), again)
    fresh = FinslerStructure(E, N, GRID, validate=False).sharp_at(_jet_beta(again), again)
    assert all(_identical(a, b) for a, b in zip(hit, fresh))
    assert drift.tag in set().union(*map(_tags_of, hit))
    # at a float point omega holds the drift's jets too; cond reads their real parts
    assert drift.tag in set().union(*map(_tags_of, F.sharp_at(_jet_beta(P0.coords()), P0.coords())))


def test_sharp_memo_keeps_one_base_point():
    F = finsler_fixture("randers-0.3", GRID)
    beta = [1.0, -0.5, 0.25, 2.0]
    z1, z2 = list(GRID)[0].coords(), list(GRID)[1].coords()
    F.sharp_at(beta, z1)
    for depth in (1, 2):
        z, _ = _jet_point(z1, depth)
        F.sharp_at(_jet_beta(z), z)
    memo_ = point_memo(F.shared_omega_at)
    assert memo_.base == tuple(z1) and len(memo_.entries) == 3
    z, _ = _jet_point(z2, 1)
    F.sharp_at(_jet_beta(z), z)
    assert memo_.base == tuple(z2)
    assert len(memo_.entries) == 1


def test_memos_hold_the_last_base_points_entries_only():
    # S0, h0's matrix and a sharp field at 50 distinct float points leave in
    # each memo what evaluating them at the last point alone leaves there
    def memos_after(points):
        F = finsler_fixture("randers-0.3", GRID)
        s0, h0 = canonical_spray(F), berwald_connection(F)
        X = sharp(F, coordinate_one_form(N, 0))
        for z in points:
            s0(z), h0.matrix(z), X(z)
        return [point_memo(e) for e in (F.shared_omega_at, s0.at, h0.matrix, X.at)]

    points = [p.coords() for p in sample_slit_points(N, 50, seed=11)]
    for memo, alone in zip(memos_after(points), memos_after(points[-1:])):
        assert memo.base == tuple(points[-1])
        assert memo.entries.keys() == alone.entries.keys()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", fixture_ids())
def test_spray_reads_dE_from_omegas_pass_bit_for_bit(fid, n):
    grid = sample_slit_points(n, 3, seed=3)
    z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
    points = [z0, PointBatch([point(*z0), *grid]).coords()]
    points += [_jet_point(z0, depth, vec)[0] for depth in (1, 2) for vec in (None, depth - 1)]
    s0 = canonical_spray(finsler_fixture(fid, grid, n=n))
    G = finsler_fixture(fid, grid, n=n)
    ref = sharp(G, d_function(G.E).scale(-1.0))   # S0 with dE from a pass of its own
    for z in points:
        assert all(_identical(a, b) for a, b in zip(s0(z), ref(z)))
    # a renamed hit of the structure's memo gives dE with the caller's tags
    F = finsler_fixture(fid, grid, n=n)
    for depth in (1, 2):
        first, _ = _jet_point(z0, depth, vec=0)
        F.shared_omega_at(first)
        again, tags = _jet_point(z0, depth, vec=0)
        with mock.patch.object(finsler, "omega_and_dE",
                               side_effect=AssertionError("memo missed")):
            hit = canonical_spray(F)(again)
        assert all(_identical(a, b) for a, b in zip(hit, ref(again)))
        assert set().union(*map(_tags_of, hit)) <= set(tags)
        assert any(type(c) is jets.Jet for c in hit)


def test_jet_omega_matrix_is_shared_and_renamed():
    # d_h omega reads omega at its lifted point through the memo: a second
    # connection at the point gets the first one's matrix, renamed to its tags
    for n in (2, 3):
        z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
        F = finsler_fixture("randers-0.3", sample_slit_points(n, 2, seed=3), n=n)
        first, _ = _jet_point(z0, 1, vec=0)
        assert F.shared_omega_at(first)[0] is F.shared_omega_at(first)[0]
        again, tags = _jet_point(z0, 1, vec=0)
        with mock.patch.object(finsler, "omega_and_dE",
                               side_effect=AssertionError("memo missed")):
            hit = F.shared_omega_at(again)[0]
        fresh = F.omega_matrix_at(again)
        assert all(_identical(a, b) for u, v in zip(hit, fresh) for a, b in zip(u, v))
        assert set().union(*(_tags_of(a) for row in hit for a in row)) == set(tags)


def test_dh_omega_of_two_connections_builds_the_lifted_omega_once():
    # h's matrix is read before omega's: h0's bracket builds omega at the lift of
    # d_h omega's lifted point, and the memo stores its primal at the lifted point,
    # so omega is never built at the one-tag point, for h0 or h_L; the residuals
    # are those of a structure whose memo stores no primal
    from finslerlab.connections import dh_omega_residual, l_ehresmann_connection
    from finslerlab.registry import build_field

    def connections():
        F = finsler_fixture("randers-0.3", sample_slit_points(2, 4, seed=1))
        return F, [berwald_connection(F), l_ehresmann_connection(
            F, fn_bracket(vertical_endomorphism(N), build_field(F, "E-dy1")))]

    built = []
    omega = finsler.omega_and_dE

    def counting(E, n, z):
        built.append(len(memo.point_key(z)[2]))
        return omega(E, n, z)

    for points in ([P0], sample_slit_points(2, 4, seed=1)):  # a float point, a batch point
        F, hs = connections()
        built.clear()
        with mock.patch.object(finsler, "omega_and_dE", counting):
            got = [dh_omega_residual(F, h, points) for h in hs]
        assert 2 in built and 1 not in built
        with mock.patch.object(memo.PointMemo, "put", lambda memo, z, value: None):
            F, hs = connections()
            assert got == [dh_omega_residual(F, h, points) for h in hs]


def _stores_at_the_lifted_point(F, z, tags):
    """Build omega at z (a miss), then read the entry stored at the point z lifts,
    ``[primal(c, tags[-1]) for c in z]``: returns (stored entry, fresh omega_and_dE)."""
    zp = [jets.primal(c, tags[-1]) for c in z]
    fresh = finsler.omega_and_dE(F.E, F.n, zp)
    F.shared_omega_at(z)
    with mock.patch.object(finsler, "omega_and_dE",
                           side_effect=AssertionError("no entry stored")):
        return F.shared_omega_at(zp), fresh


def _identical_entries(a, b):
    (ma, da), (mb, db) = a, b
    return _identical(da, db) and all(_identical(x, y) for u, v in zip(ma, mb)
                                      for x, y in zip(u, v))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fid", energies.IDS)
def test_a_lifted_omega_entry_answers_the_point_it_lifts(fid, n):
    # the stored primal is, tag for tag and bit for bit (zero signs and batch
    # bytes included), what omega_and_dE computes at the point z lifts
    grid = sample_slit_points(n, 4, seed=3)
    z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]

    for base in (z0, PointBatch(grid).coords()):    # a float and a 4-point batch base
        for depth in (2, 3):                          # the lifted point is lifted once, twice
            for vec in (None, 0, depth - 1):
                z, tags = _jet_point(base, depth, vec)
                assert _identical_entries(*_stores_at_the_lifted_point(
                    energies.structure(fid, grid, n), z, tags))
        # a float or batch point keeps its own miss, with its cond(omega) check
        F = energies.structure(fid, grid, n)
        F.shared_omega_at(_jet_point(base, 1, 0)[0])
        assert memo.point_key(base)[0] not in point_memo(F.shared_omega_at).entries


def test_an_entry_holding_a_tag_above_the_points_is_not_stored():
    # an energy that holds a jet of its own: a tag below the point's is stored
    # with the primal; one above it would stay inside the primal, so nothing is
    def structure(drift):
        return FinslerStructure(finsler._energy_randers(2, drift), N, GRID, validate=False)

    below = jets.Jet(jets.fresh_tag(), 0.3, 1.0)
    z, tags = _jet_point(P0.coords(), 2, vec=0)
    assert _identical_entries(*_stores_at_the_lifted_point(structure(below), z, tags))
    above = jets.Jet(jets.fresh_tag(), 0.3, 1.0)
    F = structure(above)
    F.shared_omega_at(z)
    zp = [jets.primal(c, tags[-1]) for c in z]
    assert memo.point_key(zp)[0] not in point_memo(F.shared_omega_at).entries
    assert _identical_entries(F.shared_omega_at(zp), finsler.omega_and_dE(F.E, N, zp))


def test_matrix_memo_hit_is_renamed_and_exact():
    # a vector form's matrix at a jet point comes from its point memo when the
    # point differs from a stored one by a renaming of tags, renamed to its tags
    for n in (2, 3):
        z0 = [0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]
        grid = sample_slit_points(n, 2, seed=3)
        for depth in (1, 2):
            h0 = berwald_connection(finsler_fixture("randers-0.3", grid, n=n))
            first, _ = _jet_point(z0, depth, vec=0)
            assert h0.matrix(first) is h0.matrix(first)
            again, tags = _jet_point(z0, depth, vec=0)
            missed = mock.Mock(side_effect=AssertionError("memo missed"))
            with mock.patch.object(h0, "matrix", functools.partial(
                    point_memo(h0.matrix).get, compute=missed)):
                hit = h0.matrix(again)
            fresh = berwald_connection(finsler_fixture("randers-0.3", grid, n=n)).matrix(again)
            assert all(_identical(a, b) for u, v in zip(hit, fresh) for a, b in zip(u, v))
            assert set().union(*(_tags_of(a) for row in hit for a in row)) == set(tags)


def test_dh_omega_and_weak_torsion_build_the_lifted_berwald_matrix_once():
    # d_h omega for h0 and for h_L (through h_L's sum matrix) and [J, h0] read
    # one lift of the point along the vector frame (jets.frame_lift); the memos
    # are made under the spy, so that their evaluators read it
    from finslerlab.connections import (
        dh_omega_residual, l_ehresmann_connection, vector_form2_residual, weak_torsion,
    )
    from finslerlab.registry import build_field
    get = memo.PointMemo.get
    for n in (2, 3):
        built, h0_memo = [], []

        def counting(pm, z, compute):
            def counted(z):
                if pm in h0_memo and memo.point_key(z)[2]:
                    built.append(z)
                return compute(z)
            return get(pm, z, counted)

        with mock.patch.object(memo.PointMemo, "get", counting):
            F = finsler_fixture("randers-0.3", sample_slit_points(n, 4, seed=1), n=n)
            h0 = berwald_connection(F)
            h0_memo.append(point_memo(h0.matrix))
            hL = l_ehresmann_connection(
                F, fn_bracket(vertical_endomorphism(n), build_field(F, "E-dy1")))
            p = point(*([0.1, -0.2, 0.3][:n] + [0.7, -0.4, 0.5][:n]))
            dh_omega_residual(F, h0, [p])
            dh_omega_residual(F, hL, [p])
            vector_form2_residual(weak_torsion(F, h0), [p])
        assert len(built) == 1


def test_sharp_memo_key_separates_zero_signs_and_tag_order():
    key = memo.point_key
    t1, t2 = jets.fresh_tag(), jets.fresh_tag()
    z = [0.5, 0.0, 1.0, 2.0]
    assert key(z)[0] != key([0.5, -0.0, 1.0, 2.0])[0]
    assert key(z)[1] == key([0.5, -0.0, 1.0, 2.0])[1]
    a = [jets.Jet(t1, 0.5, 1.0), jets.Jet(t2, 0.0, 1.0), 1.0, 2.0]
    b = [jets.Jet(t2, 0.5, 1.0), jets.Jet(t1, 0.0, 1.0), 1.0, 2.0]
    assert key(a)[0] != key(b)[0]
    s1, s2 = jets.fresh_tag(), jets.fresh_tag()
    assert key(a)[0] == key([jets.Jet(s1, 0.5, 1.0), jets.Jet(s2, 0.0, 1.0), 1.0, 2.0])[0]
    assert key(a)[1] == tuple(z)
    assert key([np.float64(0.5), 0.0, 1.0, 2.0]) is None
    # Vec dots: a renamed tag keeps the key; slot values, signs and counts do not
    v = [jets.Jet(t1, 0.5, jets.Vec([1.0, 0.0])), jets.Jet(t1, 0.0, jets.Vec([0.0, 1.0])),
         1.0, 2.0]
    assert key(v)[0] == key([jets.retag(c, {t1: s1}) for c in v])[0]
    assert key(v)[1] == tuple(z) and key(v)[2] == [t1]
    for other in (jets.Vec([1.0, -0.0]), jets.Vec([1.0, 0.5]), jets.Vec([1.0, 0.0, 0.0])):
        assert key([jets.Jet(t1, 0.5, other)] + v[1:])[0] != key(v)[0]


def test_gradient_examples():
    f_v = ScalarField(lambda z: z[0], N)  # (x1)^v
    g = gradient(EUC, f_v)
    assert close(g(P0.coords()), [0.0, 0.0, 1.0, 0.0])
    gE = gradient(EUC, EUC.E)
    assert close(gE(P0.coords()), [-1.0, -2.0, 0.0, 0.0])
    gc = gradient(EUC, ScalarField(lambda z: 4.0, N))
    assert close(gc(P0.coords()), [0.0] * 4)


# -- canonical spray and Berwald connection ------------------------------------------


def test_canonical_spray_values():
    assert close(canonical_spray(EUC)(P0.coords()), [1.0, 2.0, 0.0, 0.0])
    assert close(canonical_spray(RIE)(P0.coords()), [1.0, 2.0, -1.0, 0.0])


def test_spray_is_semispray_and_homogeneous():
    from finslerlab.calculus import homogeneity_residual
    J = vertical_endomorphism(N)
    C = liouville_field(N)
    for F in ALL:
        s0 = canonical_spray(F)
        for p in GRID:
            z = p.coords()
            assert close(J(z, s0(z)), C(z), tol=1e-9)
        assert homogeneity_residual(s0, 2.0, GRID) < 1e-9


def test_berwald_euclidean_matrix():
    h0 = berwald_connection(EUC)
    m = h0.matrix(P0.coords())
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert maxabs([m[a][b] - expected[a][b] for a in range(N2) for b in range(N2)]) < 1e-10


def test_berwald_riemannian_column():
    h0 = berwald_connection(RIE)
    m = h0.matrix(P0.coords())
    col = [m[a][0] for a in range(N2)]
    assert close(col, [1.0, 0.0, -1.0, 0.0], tol=1e-9)  # dx1 - y1 dy1 at p0


def test_berwald_projector_laws():
    for F in ALL:
        assert projector_residual(F, berwald_connection(F)) < 1e-9


def test_berwald_conservative():
    for F in ALL:
        assert conservative_connection_residual(F, berwald_connection(F)) < 1e-9


def test_eq9_relations():
    J = vertical_endomorphism(N)
    C = liouville_field(N)
    for F in ALL:
        om = fundamental_form(F).two_form
        djE = insert_one_form(J, d_function(F.E))
        i_j_om = insert_one_form(J, om)
        i_c_om = insert_vector(C, om)
        lie_c_om = lie_derivative(C, om)
        for p in list(GRID)[:6]:
            z = p.coords()
            for a in range(N2):
                ea = frame_vector(N2, a)
                assert abs(i_c_om(z, ea) - djE(z, ea)) < 1e-9
                for b in range(a + 1, N2):
                    eb = frame_vector(N2, b)
                    assert abs(i_j_om(z, ea, eb)) < 1e-9
                    assert abs(lie_c_om(z, ea, eb) - om(z, ea, eb)) < 1e-8


def test_insert_vertical_frame_into_omega():
    # i_{dy1} omega = dx1 on the flat fixture
    om = fundamental_form(EUC).two_form
    dy1 = VectorField(lambda z: [0.0, 0.0, 1.0, 0.0], N)
    ins = insert_vector(dy1, om)
    z = P0.coords()
    vals = [ins(z, frame_vector(N2, b)) for b in range(N2)]
    assert close(vals, [1.0, 0.0, 0.0, 0.0], tol=1e-12)


def test_potential_of_omega_is_minus_dE():
    from finslerlab.calculus import potential
    s0 = canonical_spray(EUC)
    om = fundamental_form(EUC).two_form
    pot = potential(om, s0, points=GRID)
    dE = d_function(EUC.E)
    z = P0.coords()
    vals = [pot(z, frame_vector(N2, a)) for a in range(N2)]
    expected = [-dE(z, frame_vector(N2, a)) for a in range(N2)]
    assert close(vals, expected, tol=1e-10)
    assert close(expected, [0.0, 0.0, -1.0, -2.0], tol=1e-12)


def test_insert_berwald_into_omega():
    # the Berwald horizontal distribution is omega-Lagrangian on every fixture
    for F in ALL:
        om = fundamental_form(F).two_form
        ih_om = insert_one_form(berwald_connection(F), om)
        for p in list(GRID)[:4]:
            z = p.coords()
            for a in range(N2):
                for b in range(a + 1, N2):
                    ea, eb = frame_vector(N2, a), frame_vector(N2, b)
                    assert abs(ih_om(z, ea, eb) - om(z, ea, eb)) < 1e-9


# -- conformal change -----------------------------------------------------------------


def test_conformal_identity():
    F2 = conformal_change(EUC, BaseFunction(lambda x: 0.0, N, "0"))
    for p in list(GRID)[:4]:
        assert abs(F2.E(p.coords()) - EUC.E(p.coords())) < 1e-14


def test_conformal_energy_value():
    F2 = conformal_change(EUC, BaseFunction(lambda x: x[0], N, "x1"))
    assert abs(F2.E(P0.coords()) - 2.5) < 1e-14  # e^0 * 2.5


def test_conformal_scaling_relation():
    # d_L(E~) = phi d_L E for any semibasic L with base-only scale
    from finslerlab.calculus import d_K
    f = BaseFunction(lambda x: x[0], N, "x1")
    F2 = conformal_change(RIE, f)
    J = vertical_endomorphism(N)
    V = VectorField(lambda z: [0.0, 0.0, RIE.E(z), 0.0], N)
    L = fn_bracket(J, V)
    dle = d_K(L, RIE.E)
    dle2 = d_K(L, F2.E)
    for p in list(GRID)[:5]:
        z = p.coords()
        phi = math.exp(z[0])
        for a in range(N2):
            ea = frame_vector(N2, a)
            assert abs(dle2(z, ea) - phi * dle(z, ea)) < 1e-9


# -- conservativity residuals ---------------------------------------------------------


def test_conservative_form_zero():
    from finslerlab.calculus import zero_vector_form
    assert conservative_form_residual(EUC, zero_vector_form(N)) < 1e-15


def test_conservative_form_requires_semibasic():
    from finslerlab.calculus import identity_form
    from finslerlab.errors import NotSemibasic
    with pytest.raises(NotSemibasic):
        conservative_form_residual(EUC, identity_form(N))


def test_connection_residual_requires_projector():
    from finslerlab.calculus import identity_form
    with pytest.raises(NotConnection):
        conservative_connection_residual(EUC, identity_form(N))


def test_ee2_insertion_identity_with_berwald():
    # i_[K,Y] a = i_Y d_K a + d_K(i_Y a) - L_{KY} a with K = h0, Y = C
    from finslerlab.calculus import d_K, fn_bracket, insert_vector as ins
    from finslerlab.calculus import liouville_field as liou
    F = RIE
    h0 = berwald_connection(F)
    C = liou(N)
    alpha = d_function(F.E)
    br = fn_bracket(h0, C)
    lhs = insert_one_form(br, alpha)
    hc = VectorField(lambda z: h0(z, C(z)), N)
    rhs1 = ins(C, d_K(h0, alpha))
    rhs2 = d_K(h0, ins(C, alpha))
    rhs3 = lie_derivative(hc, alpha)
    for p in list(GRID)[:4]:
        z = p.coords()
        for a in range(N2):
            ea = frame_vector(N2, a)
            val = lhs(z, ea) - (rhs1(z, ea) + rhs2(z, ea) - rhs3(z, ea))
            assert abs(val) < 1e-8


def test_form_skewness_sweep():
    # derived 2- and 3-forms flip sign under argument transposition
    rng = np.random.default_rng(23)
    for F in (EUC, RAN):
        om = fundamental_form(F).two_form
        dom = exterior_derivative(om)
        for p in list(GRID)[:3]:
            z = p.coords()
            u, v, w = (list(rng.uniform(-1, 1, N2)) for _ in range(3))
            assert abs(om(z, u, v) + om(z, v, u)) < 1e-12
            assert abs(dom(z, u, v, w) + dom(z, v, u, w)) < 1e-12
            assert abs(dom(z, u, v, w) + dom(z, u, w, v)) < 1e-12


def test_christoffel_oracle_riemannian():
    # independent oracle: spray from the standard Christoffel formula for
    # a(x) = diag(e^{2 x1}, 1)
    s0 = canonical_spray(RIE)

    def oracle(z):
        x1 = z[0]
        a = np.array([[math.exp(2 * x1), 0.0], [0.0, 1.0]])
        da = np.zeros((2, 2, 2))  # da[l][j][k] = d a_jk / d x^l
        da[0][0][0] = 2.0 * math.exp(2 * x1)
        ainv = np.linalg.inv(a)
        gamma = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    gamma[i][j][k] = 0.5 * sum(
                        ainv[i][l] * (da[j][l][k] + da[k][j][l] - da[l][j][k])
                        for l in range(2))
        y = np.array(z[2:])
        spray_y = [-sum(gamma[i][j][k] * y[j] * y[k] for j in range(2) for k in range(2))
                   for i in range(2)]
        return [z[2], z[3], spray_y[0], spray_y[1]]

    for p in GRID:
        z = p.coords()
        assert close(s0(z), oracle(z), tol=1e-9)
