"""Batched evaluation: a PointBatch gives what its points give one at a time.

``finslerlab check`` evaluates every cell at one batch point whose
coordinates are arrays over the grid.  These tests pin the batch rules of
``jets`` and show, runner by runner and for the branches that read values
(the pivot guard of the sharp solve, the energy axioms, ``sup_abs``), that
the batch reproduces the per-point evaluation exactly.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from finslerlab import finsler, jets
from finslerlab.calculus import field_apply, liouville_field, sup_abs
from finslerlab.checks import CHECKS, CheckContext, Outcome
from finslerlab.core import PointBatch, ScalarField, point, sample_slit_points
from finslerlab.errors import (
    BadConfig, FinslerLabError, HomogeneityFailure, NondegeneracyFailure, PositivityFailure,
)
from finslerlab.finsler import (
    DET_FLOOR, VALIDATION_TOL, FinslerStructure, _sharp_block_solve, berwald_connection,
    conservative_connection_residual, energy_axioms_residual, finsler_fixture, fixture_ids,
    omega_and_dE,
)
from finslerlab.memo import point_key


def at(x, i):
    """Slot i of a batch value; a float is the same at every point."""
    return x[i] if type(x) is jets.Batch else x


# -- the batch rules ------------------------------------------------------------


def _carried(x, values):
    """x is a batch holding ``values``, signs of zeros included: a zero batch
    went through the arithmetic rather than being skipped as structural."""
    return (type(x) is jets.Batch and x.tolist() == values
            and np.signbit(x).tolist() == [math.copysign(1.0, v) < 0.0 for v in values])


def test_batch_is_never_a_structural_zero():
    # A structural zero would come back as the other operand (a float) or as
    # the zero batch itself.  With one point, an array's own truthiness reads
    # its value, so only the explicit test keeps a one-point zero a value.
    Vec = jets.Vec
    for size in (2, 1):
        zero = jets.batch([0.0] * size)
        two, minus_two, neg_zero = [2.0] * size, [-2.0] * size, [-0.0] * size
        # a zero batch slot
        assert _carried((Vec([zero]) + Vec([2.0])).s[0], two)
        assert _carried((Vec([2.0]) + Vec([zero])).s[0], two)
        assert _carried((Vec([zero]) + 2.0).s[0], two)
        assert _carried((2.0 + Vec([zero])).s[0], two)
        assert _carried((Vec([zero]) - Vec([2.0])).s[0], minus_two)
        assert _carried((Vec([2.0]) - Vec([zero])).s[0], two)
        assert _carried((Vec([zero]) - 2.0).s[0], minus_two)
        assert _carried((2.0 - Vec([zero])).s[0], two)
        assert _carried((-Vec([zero])).s[0], neg_zero)
        assert _carried((Vec([zero]) * -1.0).s[0], neg_zero)
        assert _carried((-1.0 * Vec([zero])).s[0], neg_zero)
        assert _carried((Vec([zero]) / -1.0).s[0], neg_zero)
        assert _carried(Vec([zero]).mul_add(3.0, 1.0, Vec([2.0])).s[0], two)
        assert _carried(Vec([2.0]).mul_add(-1.0, -1.0, Vec([zero])).s[0], minus_two)
        # a zero batch operand
        assert _carried((Vec([2.0]) + zero).s[0], two)
        assert _carried((zero + Vec([2.0])).s[0], two)
        assert _carried((Vec([2.0]) - zero).s[0], two)
        assert _carried((zero - Vec([2.0])).s[0], minus_two)
        # a zero batch direction
        tag = jets.fresh_tag()
        lifted = jets.lift([1.0, 1.0, 1.0], [zero, Vec([0.0, zero]), Vec([0.0, 0.0])], tag)
        assert [type(c) for c in lifted] == [jets.Jet, jets.Jet, float]
        assert lifted[0].dot is zero


@pytest.mark.parametrize("name", ["exp", "log", "sin", "cos"])
def test_transcendentals_apply_libm_per_element(name):
    values = np.random.default_rng(3).uniform(0.01, 3.0, 200).tolist()
    got = getattr(jets, name)(jets.batch(values))
    assert type(got) is jets.Batch
    assert got.tolist() == [getattr(math, name)(v) for v in values]


def test_powers_and_sqrt_match_floats():
    values = np.random.default_rng(4).uniform(0.01, 3.0, 200).tolist()
    for p in (1.5, 2, 3, -1, 0.5):
        assert jets.power(jets.batch(values), p).tolist() == [v ** p for v in values]
        j = jets.Jet(jets.fresh_tag(), jets.batch(values), 1.0) ** p
        assert j.val.tolist() == [v ** p for v in values]
        assert j.dot.tolist() == [p * v ** (p - 1) * 1.0 for v in values]
    assert jets.sqrt(jets.batch(values)).tolist() == [math.sqrt(v) for v in values]


def test_library_raises_to_powers_only_in_jets():
    # ``**`` on a bare batch is numpy's power, which rounds differently from
    # libm; the library's energies and fields go through jets.power instead.
    package = Path(jets.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "jets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_library_reads_point_coordinates_only_in_core():
    # a residual helper or check runner evaluates its grid as one point
    # (core.grid_coords); a .coords() call elsewhere would be a per-point loop
    package = Path(jets.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "coords":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_jet_and_vec_take_precedence_over_numpy_operators():
    b = jets.batch([1.0, 2.0])
    j = jets.Jet(jets.fresh_tag(), 3.0, 1.0)
    for out in (b + j, b - j, b * j, b / j):
        assert type(out) is jets.Jet and type(out.val) is jets.Batch
    v = jets.Vec([1.0, 0.0])
    assert type(b * v) is jets.Vec and (b * v).s[1] == 0.0


# -- every runner, per point and batched ------------------------------------------


def _run_cells(F, seed, grid):
    out = []
    for spec in sorted(CHECKS, key=lambda c: c.id):
        ctx = CheckContext(grid=grid, seed=seed, tol=spec.tolerance)
        try:
            outcome = spec.runner(F, ctx)
        except FinslerLabError as e:
            outcome = Outcome(float("inf"), f"{type(e).__name__}: {e}")
        out.append((spec.id, float(outcome.max_residual), outcome.note))
    return out


@pytest.mark.parametrize("fid", fixture_ids())
def test_every_runner_agrees_per_point_and_batched(fid):
    # the reference runs every runner at each one-point grid [p], on floats
    for samples in (4, 1):  # one point: an array's own truthiness reads its value
        grid = sample_slit_points(2, samples, 7)
        F = finsler_fixture(fid, grid)
        per_point = [_run_cells(F, 7, [p]) for p in grid]
        for points in (list(grid), grid):
            batched = _run_cells(F, 7, points)
            for k, (check, residual, note) in enumerate(batched):
                reference = sup_abs(cells[k][1] for cells in per_point)
                assert residual.hex() == reference.hex(), check
                assert {cells[k][2] for cells in per_point} == {note}, check


# -- the sharp solve's pivots --------------------------------------------------


def _omega_like(z):
    """[[A, -g], [g, 0]] at n = 2, with a g that is not positive definite where x1 y1 <= 0."""
    return _omega(z, z[0] * z[2], 0.3 + z[1] * z[3], 2.0 + z[0] * z[3])


def _omega_convex(z):
    """[[A, -g], [g, 0]] at n = 2, with a g that varies from point to point and
    is positive definite wherever |x2| <= 1."""
    return _omega(z, 1.0 + z[0] * z[0] + z[2] * z[2], 0.5 * z[1] * z[3], 1.0 + z[3] * z[3])


def _omega(z, g11, g12, g22):
    a = z[1] * z[2]
    return [[0.0, a, -g11, -g12], [-a, 0.0, -g12, -g22],
            [g11, g12, 0.0, 0.0], [g12, g22, 0.0, 0.0]]


def _beta(z):
    return [z[0] + z[3], z[1] * z[2], z[2] - 0.5, z[3] * z[0]]


def _solve_lifted(z, omega=_omega_like):
    tag = jets.fresh_tag()
    za = jets.lift(z, jets.vec_frame(4), tag)
    return tag, _sharp_block_solve(omega(za), _beta(za), 2, za)


def test_sharp_block_solve_batched_with_differing_pivots():
    pts = list(sample_slit_points(2, 12, 5))
    g = np.array([[[m[2 + i][j] for j in range(2)] for i in range(2)]
                  for m in (_omega_convex(p.coords()) for p in pts)])
    assert (g[:, 0, 0] > 0.0).all() and (np.linalg.det(g) > 0.0).all()
    assert len(set(g[:, 0, 0])) == len(pts)
    tag, x = _solve_lifted(PointBatch(pts).coords(), _omega_convex)
    for i, p in enumerate(pts):
        tag_i, xi = _solve_lifted(p.coords(), _omega_convex)
        for xk, xik in zip(x, xi):
            assert at(jets.primal(xk, tag), i) == jets.primal(xik, tag_i)
            slots = jets.slots(jets.tangent(xk, tag), 4)
            slots_i = jets.slots(jets.tangent(xik, tag_i), 4)
            assert [at(s, i) for s in slots] == slots_i


def test_sharp_block_solve_batched_singular_point_raises_like_per_point():
    # at the second point g11 = x1 y1 = 0 and g12 = 0.3 + x2 y2 = 0: a zero pivot
    pts = [point(0.5, 0.2, 1.0, 0.4), point(0.0, -0.6, 1.0, 0.5), point(0.3, 0.1, 0.2, 1.0)]
    with pytest.raises(NondegeneracyFailure) as per_point:
        for p in pts:
            _solve_lifted(p.coords())
    with pytest.raises(NondegeneracyFailure) as batched:
        _solve_lifted(PointBatch(pts).coords())
    assert str(batched.value) == str(per_point.value)
    assert batched.value.point == per_point.value.point
    assert batched.value.value == per_point.value.value


@pytest.mark.parametrize("fid", fixture_ids())
def test_a_structure_validated_on_a_list_grid_checks_a_connection(fid):
    # a sample grid is a PointBatch, and a plain list of its points is a grid
    # too: the projector laws kept on a connection are keyed by the structure,
    # not by the grid, which a list cannot be
    grid = sample_slit_points(2, 4, 7)
    residuals = []
    for points in (list(grid), grid):
        F = finsler_fixture(fid, points)
        residuals.append(conservative_connection_residual(F, berwald_connection(F)).hex())
    assert residuals[0] == residuals[1]
    assert float.fromhex(residuals[0]) < 1e-12


# -- sup_abs over batches -----------------------------------------------------------


def test_sup_abs_reduces_batches_and_keeps_a_nan():
    assert sup_abs([jets.batch([1.0, -3.0]), 2.0]) == 3.0
    assert math.isnan(sup_abs([0.0, jets.batch([1e-16, math.nan, 0.0]), 5.0]))
    assert math.isnan(sup_abs([jets.batch([math.nan])]))


def test_nan_in_one_batch_slot_fails_its_cell():
    grid = sample_slit_points(2, 4, 7)
    F = finsler_fixture("euclidean", grid)
    pts = list(grid)
    pts[2] = point(*pts[2].base, pts[2].fiber[0], math.nan)
    spec = next(c for c in CHECKS if c.id == "CHK-02")
    outcome = spec.runner(F, CheckContext(grid=(PointBatch(pts),), seed=7, tol=spec.tolerance))
    assert math.isnan(outcome.max_residual)
    assert not outcome.max_residual < spec.tolerance


# -- energy axioms on a batch ---------------------------------------------------------


def _energy(z):
    # 2-homogeneous iff x2 y1 = 0; g = [[x1, 2 x2], [2 x2, x1]].  Where x2 = 0,
    # E is positive iff x1 > 0 and g = x1 Id; where 2 |x2| > x1, g is indefinite
    return (0.5 * z[0] * (z[2] * z[2] + z[3] * z[3]) + 0.1 * z[1] * z[2]
            + 2.0 * z[1] * z[2] * z[3])


GOOD = point(0.5, 0.0, 1.0, 1.0)
NOT_HOMOGENEOUS = point(0.5, 0.3, 1.0, 0.5)
NOT_POSITIVE = point(-0.5, 0.0, 1.0, 1.0)
DEGENERATE = point(1e-6, 0.0, 1.0, 1.0)
INDEFINITE = point(0.5, 0.5, 0.0, 1.0)  # E = 1/4, det g = -3/4


def per_point_energy_axioms(F, points, tol=VALIDATION_TOL):
    """The energy axioms checked one point at a time: the reference that
    ``energy_axioms_residual`` is compared against."""
    CE = field_apply(liouville_field(F.n), F.E)
    devs = []
    for p in points:
        z = p.coords()
        e = F.E(z)
        if not e > 0.0:
            raise PositivityFailure("energy not positive on the slit bundle", point=p, value=e)
        dev = CE(z) - 2.0 * e
        if abs(dev) > tol * max(1.0, abs(e)):
            raise HomogeneityFailure("energy not 2-homogeneous: CE != 2E", point=p, value=dev)
        g = np.array(F.metric_at(z), dtype=float)
        det = abs(np.linalg.det(g))
        if det <= DET_FLOOR:
            raise NondegeneracyFailure("fundamental tensor degenerate", point=p, value=det)
        minor = min(float(np.linalg.det(g[:k, :k])) for k in range(1, F.n + 1))
        if minor <= 0.0:  # Sylvester's criterion
            raise NondegeneracyFailure("fundamental tensor not positive definite",
                                       point=p, value=minor)
        devs.append(dev)
    return sup_abs(devs)


def grids(pts):
    """``pts`` as a list of points, as one batch and as a point followed by a batch."""
    return [pts, (PointBatch(pts),), [pts[0], PointBatch(pts[1:])]]


@pytest.mark.parametrize("pts, error", [
    ([GOOD, NOT_HOMOGENEOUS, NOT_POSITIVE], HomogeneityFailure),
    ([GOOD, NOT_POSITIVE, NOT_HOMOGENEOUS], PositivityFailure),
    ([GOOD, GOOD, DEGENERATE, NOT_POSITIVE], NondegeneracyFailure),
    ([NOT_HOMOGENEOUS, GOOD], HomogeneityFailure),
    ([GOOD, INDEFINITE, NOT_POSITIVE], NondegeneracyFailure),
])
def test_batched_validation_raises_the_per_point_error(pts, error):
    F = FinslerStructure(ScalarField(_energy, 2, "test-energy"), 2, pts, validate=False)
    with pytest.raises(error) as per_point:
        per_point_energy_axioms(F, pts)
    for grid in grids(pts):
        with pytest.raises(error) as batched:
            energy_axioms_residual(F, grid)
        assert type(batched.value) is type(per_point.value)
        assert str(batched.value) == str(per_point.value)
        assert batched.value.point == per_point.value.point
        assert batched.value.value == per_point.value.value


def test_batched_validation_residual_matches_per_point():
    E = ScalarField(_energy, 2, "test-energy")
    pts = [GOOD, point(0.7, 0.0, -0.4, 1.5), point(0.2, 0.0, 2.0, 0.1)]
    F = FinslerStructure(E, 2, pts)
    for grid in grids(pts):
        assert energy_axioms_residual(F, grid) == per_point_energy_axioms(F, pts)
    pts = list(sample_slit_points(2, 32, 42))
    for fid in fixture_ids():
        F = finsler_fixture(fid, pts)
        for grid in grids(pts):
            assert energy_axioms_residual(F, grid) == per_point_energy_axioms(F, pts)
    with pytest.raises(BadConfig):
        energy_axioms_residual(F, [])


# -- the batch memo key ------------------------------------------------------------------


def _same(a, b):
    """``a`` and ``b`` equal part by part: tags, zero signs and batch slots."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if type(a) is jets.Jet:
        return a.tag == b.tag and _same(a.val, b.val) and _same(a.dot, b.dot)
    if type(a) is jets.Vec:
        return _same(a.s, b.s)
    if type(a) is jets.Batch:
        return a.tobytes() == b.tobytes()
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_batch_points_and_their_lifts_are_keyed_by_their_bytes():
    pts = list(sample_slit_points(2, 5, 3))
    z = PointBatch(pts).coords()
    key, base, tags = point_key(z)
    assert tags == [] and point_key(PointBatch(pts).coords())[0] == key
    flipped = pts[:]
    flipped[1] = point(*pts[1].base, pts[1].fiber[0], -0.0)
    zeroed = pts[:]
    zeroed[1] = point(*pts[1].base, pts[1].fiber[0], 0.0)
    assert point_key(PointBatch(flipped).coords())[0] != point_key(PointBatch(zeroed).coords())[0]
    frame = jets.vec_frame(4)
    k1 = point_key(jets.lift(z, frame, jets.fresh_tag()))
    k2 = point_key(jets.lift(z, frame, jets.fresh_tag()))
    assert k1[0] == k2[0] and k1[1] == base and len(k1[2]) == 1 and k1[2] != k2[2]


@pytest.mark.parametrize("fid", fixture_ids())
def test_a_renamed_hit_at_a_lifted_batch_point_is_a_fresh_computation(fid, monkeypatch):
    grid = sample_slit_points(2, 6, 9)
    F = finsler_fixture(fid, grid)
    z = grid.coords()
    frame = jets.vec_frame(4)
    F.shared_omega_at(jets.lift(z, frame, jets.fresh_tag()))
    za = jets.lift(z, frame, jets.fresh_tag())
    with monkeypatch.context() as m:
        m.setattr(finsler, "omega_and_dE", lambda *args: pytest.fail("the memo missed"))
        hit = F.shared_omega_at(za)
    assert _same(hit, list(omega_and_dE(F.E, 2, za)))
