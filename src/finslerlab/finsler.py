"""Finsler energies: validation, fundamental form, sharp operator, sprays.

A validated structure keeps its canonical spray and Berwald connection
(``memo.kept_on``), which hold its evaluator ``shared_omega_at``, not the
structure, and one point memo (``memo.PointMemo``) of omega's matrix and dE,
as ``omega_and_dE`` returns them from one pass of E, at every point: a float
point, a batch point (``core.PointBatch``) and a jet point alike.  The sharp
solve and ``d_h omega`` read omega there, and the canonical spray both.  A
miss at a float or batch point also checks at each of its points that omega
is finite and cond(omega) <= COND_LIMIT; a raise stores nothing.  The memo's
key is the point's canonical form (``memo.point_key``): every float, a
negative zero as its own token, and the lift tags up to an order-preserving
renaming.  Entries are kept for one base point (the real parts of the
coordinates) at a time and dropped when a call arrives at another one, so
they are the point being worked on and its lifts: the sharp fields
bracketed with J there (S0, (d_L E)#, grad f^v) are lifted along the same
frames and share them.

A hit is exact.  Jet arithmetic compares tags only by their order, and every
tag that ``omega_and_dE`` makes internally is stripped before it returns; so
a stored entry renamed to the caller's tags is, bit for bit, what a fresh
computation at the caller's point would give, and so is the sharp solve that
reads it.  An energy that holds jets of its own puts tags into omega that no
point carries; a hit that would have to rename one computes afresh instead.

A miss at a jet point z also stores, at the point z lifts, the primal of its
entry along z's largest tag t (``PointMemo.put``); that is how ``d_h omega``
reads omega at its lifted point.  This is exact too: nested forward mode
computes every value part from value parts alone (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., 2008, ch. 13).  Not stored: a float or
batch lifted-from point, which keeps its own checked miss, and an entry
holding an energy's own jet above t, whose primal along t would keep t.

Constructions may read dE from the memo: every (.)# field is a
``sharp_field``, which solves with omega and dE from one entry; the canonical
spray solves -dE, and (d_L E)# (``connections.sharp_of_dLE``) contracts dE
with L's matrix.  Checks never do: ``omega_matrix_at`` and
``_d_form_E_residual`` make fresh passes of E, so a wrong entry cannot
confirm itself.
"""

from __future__ import annotations

import functools

import numpy as np

from . import jets
from .calculus import (
    VectorField, VectorForm, d_K, d_function, exterior_derivative,
    field_apply, fn_bracket, identity_form, liouville_field, precheck,
    semibasic_residual, sup_abs, vertical_endomorphism,
)
from .core import BaseFunction, PointBatch, ScalarField, grid_coords, sample_slit_points
from .errors import (
    HomogeneityFailure, NondegeneracyFailure, NotConnection, NotSemibasic,
    PositivityFailure,
)
from .jets import _mul, _sub
from .memo import PointMemo, kept_on

DET_FLOOR = 1e-10
COND_LIMIT = 1e12
VALIDATION_TOL = 1e-9


# ---------------------------------------------------------------------------
# fundamental form assembly


def omega_and_dE(E: ScalarField, n: int, z):
    """Closed-form matrix of omega = d(d_J E), [[A, -g^T], [g, 0]], and dE.

    Both come from one nested vector pass of E.  The inner lift (the larger
    tag) moves all 2n coordinates and the outer one the fiber, so
    h[a][j] = D_{e_{n+j}} D_{e_a} E, each entry what
    ``nth_directional(E.fn, z, [e_a, e_{n+j}])`` computes.  dE, the inner
    tangent's primal along the outer lift, is the Vec of the D_{e_a} E that
    ``directional`` computes along ``vec_frame``: the outer lift leaves every
    value part as it is.  g_ij = d2 E / dy^i dy^j (the fundamental tensor)
    is h[n + min(i, j)][max(i, j)], the one g of the structure: validation
    reads it from this block.  A_ij = E_{x^i y^j} - E_{x^j y^i} is the skew
    part of the mixed Hessian, so only the pairs i < j are formed.
    """
    n2 = 2 * n
    inner = jets.vec_frame(n2)
    outer = (0.0,) * n + jets.vec_frame(n)
    outer_tag = jets.fresh_tag()
    inner_tag = jets.fresh_tag()
    first = jets.tangent(E.fn(jets.lift(jets.lift(z, outer, outer_tag), inner, inner_tag)),
                         inner_tag)
    dE = jets.primal(first, outer_tag)
    h = [jets.slots(row, n) for row in jets.slots(jets.tangent(first, outer_tag), n2)]
    m = [[0.0] * n2 for _ in range(n2)]
    for i in range(n):
        for j in range(i + 1, n):
            a = h[i][j] - h[j][i]
            m[i][j] = a
            m[j][i] = -a
        for j in range(n):
            g = h[n + i][j] if i <= j else h[n + j][i]
            m[i][n + j] = -g
            m[n + j][i] = g
    return m, dE


class FundamentalForm:
    """The 2-form omega = d(d_J E).

    ``two_form`` is assembled through the generic exterior calculus and is the
    reference path; ``omega_and_dE`` is the closed-form assembly of its
    matrix that the linear solves read.  Tests pin the two together.
    ``two_form`` keeps its frame arrays in a point memo of its own, so the
    operators that read it at one point build the array once.
    """

    def __init__(self, E: ScalarField, n: int):
        self.E = E
        self.n = n
        J = vertical_endomorphism(n)
        self.two_form = exterior_derivative(d_K(J, E)).memoize()
        self.two_form.name = "omega"

    def __call__(self, z, u, v):
        return self.two_form(z, u, v)


# ---------------------------------------------------------------------------
# the sharp solve


def _sharp_block_solve(m, beta, n, z):
    """Solve sum_a X^a m[a][b] = beta_b through omega's metric block.

    ``m`` is omega's matrix [[A, -g], [g, 0]], so the 2n equations split into
    two n x n solves with the metric g, split X = (X^h, X^v) and
    beta = (beta^h, beta^v) alike:

        g X^h = -beta^v,
        g X^v = beta^h - A^T X^h,   (A^T X^h)_j = sum_i m[i][j] X^h_i.

    g is positive definite (strong convexity, which validation checks), so it
    is eliminated once on its diagonal, with no row exchange.  Both
    right-hand sides go through the same recorded operations.  Products and
    differences take exact zeros as structural (``jets._mul`` and
    ``_sub``), so the zeros of A, such as its diagonal, and of the right-hand
    sides cost no arithmetic.  A pivot whose real part is <= 0 raises
    ``NondegeneracyFailure`` ("not positive definite") before its division,
    so an unvalidated indefinite or singular g fails here; so does
    ("numerically singular"), after the elimination, a smallest pivot smaller
    than the largest by more than COND_LIMIT; as det omega = det(g)^2, this
    guards omega too.  Pivot sizes are not a condition estimate, so the float
    and batch entries of the structure's memo check cond(omega) as well.

    At a batch point each point's pivots are guarded on their own, and the
    first failing point raises what its own solve raises, as a loop over the
    points would: a point that fails a column's pivot is named only when no
    earlier point fails at a later column or the ratio test
    (``_earlier_failure``, which runs only on that failing path).  A float
    pivot is the same at every point, so it fails at the first.  A float or
    batch component of the result has its negative zeros made positive; a
    jet component is returned as computed.
    """
    rows = [[m[n + i][j] for i in range(n)] for j in range(n)]  # g^T, by row j
    elim = []  # (r, col, f): row r minus f times row col, in the order done
    pivots = []  # the real part of each column's pivot
    for col in range(n):
        prow = rows[col]
        pivot = prow[col]
        key = jets.realpart(pivot)
        if type(key) is jets.Batch:
            bad = key <= 0.0
            if bad.any():
                i = int(np.argmax(bad))
                raise _earlier_failure(m, n, z, i) \
                    or _pivot_failure(z, i, key[i], "not positive definite")
        elif key <= 0.0:
            raise _pivot_failure(z, 0, key, "not positive definite")
        pivots.append(key)
        if col + 1 < n:  # the last column has no rows below it
            inv = 1.0 / pivot
            for r in range(col + 1, n):
                row = rows[r]
                f = _mul(row[col], inv)
                elim.append((r, col, f))
                for c in range(col + 1, n):
                    row[c] = _sub(row[c], _mul(f, prow[c]))
    if jets.Batch in map(type, pivots):
        pivots = np.array(np.broadcast_arrays(*pivots))  # (column, point)
        smallest = pivots.min(axis=0)
        bad = pivots.max(axis=0) > COND_LIMIT * smallest
        if bad.any():
            i = int(np.argmax(bad))
            raise _pivot_failure(z, i, smallest[i], "numerically singular")
    elif max(pivots) > COND_LIMIT * min(pivots):
        raise _pivot_failure(z, 0, min(pivots), "numerically singular")

    def solve(b):
        for r, col, f in elim:
            b[r] = _sub(b[r], _mul(f, b[col]))
        x = [0.0] * n
        for r in range(n - 1, -1, -1):
            row = rows[r]
            acc = b[r]
            for c in range(r + 1, n):
                acc = _sub(acc, _mul(row[c], x[c]))
            # the pivot is positive: an exact-zero numerator leaves x[r] the
            # float zero, and a unit pivot divides nothing (rule 3 of jets)
            if type(acc) is jets.Batch or acc:
                p = row[r]
                x[r] = acc if type(p) is float and p == 1.0 else acc / p
        return x

    xh = solve([-v for v in beta[n:]])
    rhs = []
    for j in range(n):
        acc = beta[j]
        for i in range(n):
            acc = _sub(acc, _mul(m[i][j], xh[i]))
        rhs.append(acc)
    return [v if type(v) is jets.Jet else v + 0.0 for v in xh + solve(rhs)]  # +0.0 normalises -0.0


def _earlier_failure(m, n, z, i):
    """The failure of the first of points 0..i-1 of batch point z whose own
    solve fails, or None: each point's real parts of omega's matrix are
    solved as a float point.  Pivots and their guards read real parts alone,
    which the jet and batch operations compute from real parts, point by
    point."""
    for k in range(i):
        try:
            _sharp_block_solve([_real_point(row, k) for row in m], [0.0] * (2 * n), n,
                               _real_point(z, k))
        except NondegeneracyFailure as e:
            return e
    return None


def _pivot_failure(z, i, pivot, what):
    """The failure of a pivot at point ``i`` of z (z itself at a float point)."""
    return NondegeneracyFailure(f"fundamental tensor {what} during sharp solve",
                                point=_real_point(z, i), value=float(pivot))


def _real_point(z, i):
    """The real parts of the entries of z (a point's coordinates, or a row of a
    matrix there) at point ``i`` of a batch; at a float point, all of them."""
    return [float(c[i]) if type(c) is jets.Batch else c for c in map(jets.realpart, z)]


def _condition_numbers(stacked):
    """The 2-norm condition number of each matrix of a (points, rows, columns)
    array, what ``np.linalg.cond`` gives, without its argument handling.

    The ratio of the largest to the smallest singular value; a NaN ratio
    (0 / 0) becomes inf unless the matrix holds a NaN, numpy's own rule.  A
    non-finite matrix raises ``np.linalg.LinAlgError`` from the SVD, as there.
    """
    s = np.linalg.svd(stacked, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = s[:, 0] / s[:, -1]
    nan = np.isnan(cond)
    if nan.any():
        cond[nan & ~np.isnan(stacked).any(axis=(1, 2))] = np.inf
    return cond


# ---------------------------------------------------------------------------
# the validated structure


def energy_axioms_residual(F, grid) -> float:
    """sup |CE - 2E| over the grid, where each point must satisfy the energy axioms.

    The grid is checked as one ``PointBatch`` of its points, and g is the
    block of omega's matrix that the sharp solve eliminates.  The first point
    that fails an axiom raises: ``PositivityFailure`` if E <= 0, else
    ``HomogeneityFailure`` if |CE - 2E| > VALIDATION_TOL * max(1, |E|), else
    ``NondegeneracyFailure`` if |det g| <= DET_FLOOR, else
    ``NondegeneracyFailure`` if g is not positive definite (strong
    convexity): by Sylvester's criterion, if its smallest leading principal
    minor is <= 0, which is then the reported value.  An empty grid raises
    ``BadConfig``.
    """
    batch = PointBatch(grid)
    points, z = batch.points, grid_coords([batch])
    size = len(points)
    CE = field_apply(liouville_field(F.n), F.E)
    e = np.broadcast_to(F.E(z), size)
    dev = np.broadcast_to(CE(z) - 2.0 * e, size)
    g = jets.stacked(F.metric_at(z), z)
    minors = [np.linalg.det(g[:, :k, :k]) for k in range(1, F.n + 1)]
    det = np.abs(minors[-1])
    smallest = np.min(minors, axis=0)
    with np.errstate(invalid="ignore"):
        axioms = (
            (~(e > 0.0), PositivityFailure, "energy not positive on the slit bundle", e),
            (np.abs(dev) > VALIDATION_TOL * np.maximum(1.0, np.abs(e)), HomogeneityFailure,
             "energy not 2-homogeneous: CE != 2E", dev),
            (det <= DET_FLOOR, NondegeneracyFailure, "fundamental tensor degenerate", det),
            (smallest <= 0.0, NondegeneracyFailure, "fundamental tensor not positive definite",
             smallest),
        )
    failed = np.array([ax[0] for ax in axioms])  # failed[k][i]: axiom k fails at point i
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        _, error, message, value = axioms[int(np.argmax(failed[:, i]))]
        raise error(message, point=points[i], value=float(value[i]))
    return sup_abs([jets.batch(dev)])


class FinslerStructure:
    """Energy function E with its cached fundamental-form machinery.

    ``validate`` checks the energy axioms on the grid first
    (``energy_axioms_residual``, to VALIDATION_TOL), strong convexity among
    them.  An unvalidated structure whose g is not positive definite fails
    at its first sharp solve.

    ``shared_omega_at(z)``, the evaluator that S0, h0 and the sharp solves
    hold, is ``[omega's matrix, dE]`` through the structure's point memo (see
    the module docstring): what ``omega_and_dE`` computes at z, a hit renamed
    to z's tags.  It holds E, n and the memo, not the structure.  The result
    is shared: do not modify it.
    """

    def __init__(self, E: ScalarField, n: int, grid, validate: bool = True, name: str = ""):
        self.E = E
        self.n = n
        self.grid = grid
        self.name = name or E.name or "finsler"
        self.omega = FundamentalForm(E, n)
        memo = PointMemo()
        self.shared_omega_at = functools.partial(
            memo.get, compute=functools.partial(_omega_entry, E, n, memo))
        self._built = None
        if validate:
            energy_axioms_residual(self, grid)

    def __repr__(self):
        return f"FinslerStructure({self.name}, n={self.n})"

    # -- the point memo -------------------------------------------------------

    def omega_matrix_at(self, z):
        """omega's matrix from a fresh ``omega_and_dE`` pass, not the memo: the
        checks of the sharp solve read it, so a bad memo entry cannot hide."""
        return omega_and_dE(self.E, self.n, z)[0]

    def metric_at(self, z):
        """g, the fiber block of a fresh omega's matrix (``omega_matrix_at``)."""
        n = self.n
        return [row[:n] for row in self.omega_matrix_at(z)[n:]]

    # -- sharp and friends ------------------------------------------------------

    def sharp_at(self, beta_values, z):
        """Solve sum_a X^a omega_ab = beta_b at a float, batch or jet point."""
        return _sharp_block_solve(self.shared_omega_at(z)[0], beta_values, self.n, z)


def _omega_entry(E: ScalarField, n: int, memo: PointMemo, z):
    """``[omega's matrix, dE]`` at z, a miss of a structure's ``memo``; at a
    float or batch point, raises ``NondegeneracyFailure`` at the first point
    where omega is not finite or cond(omega) > COND_LIMIT.

    A list, not a tuple: ``retag_array`` renames a hit by walking lists.
    At a jet point, its primal may be stored in ``memo`` at the point z lifts.
    Conditioning runs in double, whatever the precision of the entries.
    """
    m, dE = omega_and_dE(E, n, z)
    tags = [c.tag for c in z if type(c) is jets.Jet]
    if tags:
        t = max(tags)
        zp = [jets.primal(c, t) for c in z]
        if jets.Jet in map(type, zp):
            entries = [x for row in m for x in row] + jets.slots(dE, 2 * n)
            if all(type(x) is not jets.Jet or x.tag <= t for x in entries):
                memo.put(zp, [[[jets.primal(x, t) for x in row] for row in m],
                              jets.primal(dE, t)])
    else:
        stacked = np.asarray(jets.stacked(m, z), dtype=float)
        try:
            cond = _condition_numbers(stacked)
        except np.linalg.LinAlgError:  # the SVD of a non-finite omega
            i = int(np.argmin(np.isfinite(stacked).all(axis=(1, 2))))
            raise NondegeneracyFailure("fundamental form not finite",
                                       point=_real_point(z, i), value=float("nan")) from None
        bad = np.flatnonzero(cond > COND_LIMIT)
        if bad.size:
            i = int(bad[0])
            raise NondegeneracyFailure(
                f"fundamental form ill-conditioned (cond={cond[i]:.3e})",
                point=_real_point(z, i), value=float(cond[i]))
    return [m, dE]


def validate_finsler(E: ScalarField, grid, n: int | None = None,
                     name: str = "") -> FinslerStructure:
    """Check positivity, 2-homogeneity, nondegeneracy and strong convexity
    (g positive definite) on the grid (``energy_axioms_residual``)."""
    if n is None:
        n = PointBatch(grid).n
    return FinslerStructure(E, n, grid, validate=True, name=name)


def fundamental_form(F: FinslerStructure) -> FundamentalForm:
    return F.omega


def sharp_field(F: FinslerStructure, rhs, name: str) -> VectorField:
    """The memoised field X with i_X omega = ``rhs(z, dE)``, every (.)# of the
    library: omega's matrix and dE are one read of ``F.shared_omega_at``, and
    X is solved as ``F.sharp_at`` solves.  It holds that evaluator, not F."""
    n, omega_at = F.n, F.shared_omega_at

    def ev(z):
        m, dE = omega_at(z)
        return _sharp_block_solve(m, rhs(z, dE), n, z)

    return VectorField(ev, n, name).memoize()


def sharp(F: FinslerStructure, beta) -> VectorField:
    """The unique X with i_X omega = beta, as a vector field."""
    array = beta.array
    return sharp_field(F, lambda z, dE: array(z), f"sharp({beta.name})")


def gradient(F: FinslerStructure, f: ScalarField) -> VectorField:
    return sharp(F, d_function(f))


def canonical_spray(F: FinslerStructure) -> VectorField:
    """S0 = -(dE)#; a 2-homogeneous semispray.

    dE comes from the pass that builds omega at the point, through the
    structure's point memo (``sharp_field``).
    """
    n2 = 2 * F.n
    return kept_on(F, "canonical_spray", (),
                   lambda: sharp_field(F, lambda z, dE: jets.slots(-1.0 * dE, n2), "S0"))


def berwald_connection(F: FinslerStructure) -> VectorForm:
    """h0 = (Id + [J, S0]) / 2, the connection generated by the canonical spray."""

    def build():
        J = vertical_endomorphism(F.n)
        h0 = (identity_form(F.n) + fn_bracket(J, canonical_spray(F))).scale(0.5).memoize()
        h0.name = "h0"
        return h0

    return kept_on(F, "berwald_connection", (), build)


def conformal_change(F: FinslerStructure, f: BaseFunction) -> FinslerStructure:
    """Rescale the energy by exp(f^v); returns a freshly validated structure."""
    n = F.n
    phi = ScalarField(lambda z: jets.exp(f.fn(z[:n])), n, name=f"exp({f.name}^v)")
    E2 = phi * F.E
    E2.name = f"{F.name}~conformal({f.name})"
    return FinslerStructure(E2, F.n, F.grid, validate=True, name=E2.name)


# ---------------------------------------------------------------------------
# conservativity residuals


def _d_form_E_residual(F: FinslerStructure, K: VectorForm, points) -> float:
    """sup over points and frame of |dE(K e_b)|.

    One fresh vector pass of E along K's columns: component a of the
    direction is ``Vec`` of row a, whose slot b is component a of K e_b.  A
    check, so it never reads dE from the structure's memo.
    """
    n2 = 2 * F.n
    z = grid_coords(points)
    direction = [jets.Vec(row) for row in K.matrix(z)]
    return sup_abs(jets.slots(jets.directional(F.E.fn, z, direction), n2))


def conservative_form_residual(F: FinslerStructure, L: VectorForm, points=None) -> float:
    """sup |d_L E| for a semibasic vector 1-form (checked first, through ``precheck``)."""
    points = points if points is not None else F.grid
    r = semibasic_residual(L, points)
    precheck(r, NotSemibasic(f"form is not semibasic, residual {r:.3e}"))
    return _d_form_E_residual(F, L, points)


def projector_residual(F: FinslerStructure, h: VectorForm, points=None) -> float:
    """sup of |h^2 - h|, |J o h - J|, |h o J| over points and the frame.

    h's matrix is stacked over the points (``jets.stacked``), and each product
    sums over c one term at a time in the order of c, so every entry is the
    same IEEE operation as a per-entry sum; only the signs of zeros can differ.
    """
    points = points if points is not None else F.grid
    n, n2 = F.n, 2 * F.n
    jm = np.array(vertical_endomorphism(F.n).matrix([0.0] * n2))
    z = grid_coords(points)
    m = jets.stacked(h.matrix(z), z)
    hh = m[:, :, 0, None] * m[:, None, 0, :]
    jh = jm[:, 0, None] * m[:, None, 0, :]
    for c in range(1, n2):
        hh += m[:, :, c, None] * m[:, None, c, :]
        jh += jm[:, c, None] * m[:, None, c, :]
    # h o J = 0: h kills the vertical frame vectors
    return sup_abs([(hh - m).ravel(), (jh - jm).ravel(), m[:, :, n:].ravel()])


def kept_projector_residual(F: FinslerStructure, h: VectorForm, points) -> float:
    """``projector_residual(F, h, points)``, kept on h (``kept_on``) when the
    points are F's grid, where every connection is checked when it is built
    (``connections._wrap_connection``) and where
    ``conservative_connection_residual`` checks it again.  The entry is keyed
    by the points, not by F, which it reads for its n alone."""
    if points is not F.grid:
        return projector_residual(F, h, points)
    return kept_on(h, "projector_residual", tuple(points),
                   lambda: projector_residual(F, h, points))


def conservative_connection_residual(F: FinslerStructure, h: VectorForm, points=None) -> float:
    """sup |d_h E| for an Ehresmann connection (projector laws checked first,
    through ``precheck``, on F's grid once per connection)."""
    points = points if points is not None else F.grid
    r = kept_projector_residual(F, h, points)
    precheck(r, NotConnection(f"projector laws fail, residual {r:.3e}"))
    return _d_form_E_residual(F, h, points)


# ---------------------------------------------------------------------------
# fixtures


def _energy_euclidean(n: int) -> ScalarField:
    def ev(z):  # each sum starts from its first term: a bare batch pays for 0 + x
        return 0.5 * sum((z[n + i] * z[n + i] for i in range(1, n)), z[n] * z[n])

    return ScalarField(ev, n, "E_euclidean")


def _energy_riemannian_exp(n: int) -> ScalarField:
    def ev(z):
        quad = jets.exp(2.0 * z[0]) * z[n] * z[n]
        for i in range(1, n):
            quad = quad + z[n + i] * z[n + i]
        return 0.5 * quad

    return ScalarField(ev, n, "E_riemannian_exp")


def _energy_randers(n: int, drift: float = 0.3) -> ScalarField:
    """E = f^2 / 2 for the Randers norm f = |y| + drift y^1.

    Written ``0.5 * (f * f)`` so that f meets itself and a jet f is squared
    (``jets.Jet._square``), where ``0.5 * f * f``, read as ``(0.5 * f) * f``,
    takes the general product; scaling by 0.5 is exact, so every jet part is
    what ``0.5 * f * f`` gives, bit for bit.
    """

    def ev(z):
        norm = jets.sqrt(sum((z[n + i] * z[n + i] for i in range(1, n)), z[n] * z[n]))
        f = norm + drift * z[n]
        return 0.5 * (f * f)

    return ScalarField(ev, n, f"E_randers_{drift}")


FIXTURE_BUILDERS = {
    "euclidean": _energy_euclidean,
    "riemannian-exp": _energy_riemannian_exp,
    "randers-0.3": _energy_randers,
}


def fixture_ids():
    return list(FIXTURE_BUILDERS)


def fixture_energy(fixture_id: str, n: int = 2) -> ScalarField:
    try:
        return FIXTURE_BUILDERS[fixture_id](n)
    except KeyError:
        raise KeyError(f"unknown fixture id {fixture_id!r}; known: {fixture_ids()}") from None


def finsler_fixture(fixture_id: str, grid=None, n: int = 2) -> FinslerStructure:
    """Build and validate a named fixture on the given (or default) grid."""
    if grid is None:
        grid = sample_slit_points(n, 32, seed=42)
    return validate_finsler(fixture_energy(fixture_id, n), grid, n=n, name=fixture_id)
