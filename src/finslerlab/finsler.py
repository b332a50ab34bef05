"""Finsler energies: validation, fundamental form, sharp operator, sprays.

A validated structure caches its canonical spray and Berwald connection, and
keeps one point memo (``calculus.PointMemo``) of omega's matrix and dE, as
``omega_and_dE`` returns them from one pass of E, at every point: a float
point, a batch point (``core.PointBatch``) and a jet point alike.  The sharp
solve and ``d_h omega`` read omega there, and the canonical spray both.  A
miss at a float or batch point also checks cond(omega) at each of its points
against COND_LIMIT; a raise stores nothing.  The memo's key is the point's
canonical form (``calculus.point_key``): every float, a negative zero as its
own token, and the lift tags up to an order-preserving renaming.  Jet
entries are kept for one base point (the real parts of the coordinates) at a
time and dropped when a call arrives at another one, so they are the lifts
of the point being worked on: the sharp fields bracketed with J there (S0,
(d_L E)#, grad f^v) are lifted along the same frames and share them.  Float and batch entries
are kept across base points, because the checks revisit every grid point.

A hit is exact.  Jet arithmetic compares tags only by their order, and every
tag that ``omega_and_dE`` makes internally is stripped before it returns; so
a stored entry renamed to the caller's tags is, bit for bit, what a fresh
computation at the caller's point would give, and so is the sharp solve that
reads it.  An energy that holds jets of its own puts tags into omega that no
point carries; a hit that would have to rename one computes afresh instead.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .calculus import (
    PointMemo, VectorField, VectorForm, d_K, d_function, exterior_derivative,
    field_apply, fn_bracket, identity_form, liouville_field, retag_array,
    semibasic_residual, sup_abs, vertical_endomorphism,
)
from .core import BaseFunction, PointBatch, ScalarField, grid_coords, sample_slit_points
from .errors import (
    HomogeneityFailure, NondegeneracyFailure, NotConnection, NotSemibasic,
    PositivityFailure,
)

DET_FLOOR = 1e-10
COND_LIMIT = 1e12
VALIDATION_TOL = 1e-9
CONNECTION_TOL = 1e-8


# ---------------------------------------------------------------------------
# fundamental form assembly


def _energy_pass(E: ScalarField, n: int, z, k: int):
    """``(d, h)`` from one nested vector pass of E over the last k frame directions.

    The inner lift (the larger tag) moves the last k coordinates and the outer
    one the fiber.  h[a][j] = D_{e_{n+j}} D_{e_{2n-k+a}} E, each entry what
    ``nth_directional(E.fn, z, [e_{2n-k+a}, e_{n+j}])`` computes.  ``d``, the
    inner tangent's primal along the outer lift, is the Vec (or the scalar)
    of the first derivatives D_{e_{2n-k+a}} E that ``directional`` computes
    along ``vec_frame``: the outer lift leaves every value part as it is.
    """
    inner = [0.0] * (2 * n - k) + jets.vec_frame(k)
    outer = [0.0] * n + jets.vec_frame(n)
    outer_tag = jets.fresh_tag()
    inner_tag = jets.fresh_tag()
    first = jets.tangent(E.fn(jets.lift(jets.lift(z, outer, outer_tag), inner, inner_tag)),
                         inner_tag)
    h = jets.tangent(first, outer_tag)
    return jets.primal(first, outer_tag), [jets.slots(row, n) for row in jets.slots(h, k)]


def metric_matrix(E: ScalarField, n: int, z):
    """g_ij = d2 E / dy^i dy^j (the fundamental tensor)."""
    h = _energy_pass(E, n, z, n)[1]
    return [[h[i][j] if i <= j else h[j][i] for j in range(n)] for i in range(n)]


def omega_and_dE(E: ScalarField, n: int, z):
    """Closed-form matrix of omega = d(d_J E), [[A, -g^T], [g, 0]], and dE.

    A_ij = E_{x^i y^j} - E_{x^j y^i} is the skew part of the mixed Hessian, so
    its diagonal is exactly zero and only the pairs i < j are formed.  Both
    blocks come from one nested pass over the rows of the Hessian of E, and
    dE, the Vec of D_{e_a} E over the frame, from the first-order part of
    the same pass.
    """
    dE, h = _energy_pass(E, n, z, 2 * n)
    n2 = 2 * n
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


def omega_matrix(E: ScalarField, n: int, z):
    """omega's matrix, as ``omega_and_dE`` gives it."""
    return omega_and_dE(E, n, z)[0]


class FundamentalForm:
    """The 2-form omega = d(d_J E), with a fast pointwise matrix path.

    ``two_form`` is assembled through the generic exterior calculus and is the
    reference path; ``matrix_at`` is the closed-form assembly used by linear
    solves.  Tests pin the two together.
    """

    def __init__(self, E: ScalarField, n: int):
        self.E = E
        self.n = n
        J = vertical_endomorphism(n)
        self.two_form = exterior_derivative(d_K(J, E))
        self.two_form.name = "omega"

    def matrix_at(self, z):
        return omega_matrix(self.E, self.n, z)

    def metric_at(self, z):
        return metric_matrix(self.E, self.n, z)

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

    g is eliminated once, pivoting on the real part: validation bounds only
    |det g|, so g may be indefinite and its diagonal may vanish.  Both
    right-hand sides go through the same recorded operations.  Exact float
    zeros of A, such as its diagonal, are skipped.  A zero pivot raises
    ``NondegeneracyFailure`` before its division, and so does, after the
    elimination, a smallest pivot smaller than the largest by more than
    COND_LIMIT; as det omega = det(g)^2, this guards omega too.  Pivot sizes
    are not a condition estimate, so the float and batch entries of the
    structure's memo check cond(omega) as well.

    At a batch point each point takes the pivot row it would take alone
    (``_batch_pivot``), the rows are exchanged point by point with
    ``jets.where`` where the points' choices differ, and each point's pivots
    are guarded on their own.  A float or batch component of the result has
    its negative zeros made positive; a jet component is returned as computed.
    """
    rows = [[m[n + i][j] for i in range(n)] for j in range(n)]  # g^T, by row j
    steps = []  # (pivot row, multipliers) of each column
    pivots = []  # |pivot| of each column
    for col in range(n):
        keys = [abs(jets.realpart(rows[r][col])) for r in range(col, n)]
        if jets.Batch in map(type, keys):
            p, pv = _batch_pivot(keys, col)
            zero = pv == 0.0
            if zero.any():
                raise _singular(z, int(np.argmax(zero)), 0.0)
        else:
            p = col + max(range(n - col), key=keys.__getitem__)
            pv = keys[p - col]
            if pv == 0.0:
                raise _singular(z, None, 0.0)
        pivots.append(pv)
        if type(p) is int:
            rows[col], rows[p] = rows[p], rows[col]
        else:
            _exchange(rows, col, p, _where_rows)
        inv = 1.0 / rows[col][col]
        fs = [rows[r][col] * inv for r in range(col + 1, n)]
        for r, f in enumerate(fs, col + 1):
            for c in range(col + 1, n):
                rows[r][c] = rows[r][c] - f * rows[col][c]
        steps.append((p, fs))
    if jets.Batch in map(type, pivots):
        pivots = np.array(np.broadcast_arrays(*pivots))  # (column, point)
        smallest = pivots.min(axis=0)
        bad = pivots.max(axis=0) > COND_LIMIT * smallest
        if bad.any():
            i = int(np.argmax(bad))
            raise _singular(z, i, smallest[i])
    elif max(pivots) > COND_LIMIT * min(pivots):
        raise _singular(z, None, min(pivots))

    def solve(b):
        for col, (p, fs) in enumerate(steps):
            if type(p) is int:
                b[col], b[p] = b[p], b[col]
            else:
                _exchange(b, col, p, jets.where)
            for r, f in enumerate(fs, col + 1):
                b[r] = b[r] - f * b[col]
        x = [0.0] * n
        for r in range(n - 1, -1, -1):
            acc = b[r]
            for c in range(r + 1, n):
                acc = acc - rows[r][c] * x[c]
            x[r] = acc / rows[r][r]
        return x

    xh = solve([-v for v in beta[n:]])
    rhs = []
    for j in range(n):
        acc = beta[j]
        for i in range(n):
            a = m[i][j]
            if type(a) is not float or a != 0.0:
                acc = acc - a * xh[i]
        rhs.append(acc)
    return [v if type(v) is jets.Jet else v + 0.0 for v in xh + solve(rhs)]  # +0.0 normalises -0.0


def _singular(z, i, pivot):
    """The failure of a pivot at z, or at point ``i`` of a batch point z."""
    return NondegeneracyFailure("fundamental tensor numerically singular during sharp solve",
                                point=_real_point(z, i), value=float(pivot))


def _batch_pivot(keys, col):
    """``(row, key)`` of the first largest of ``keys[r - col]`` at each point of a batch.

    Each point picks the row ``max`` would pick from its own keys: a later
    row replaces the pick only when its key is larger, so a NaN key is never
    picked over an earlier row.  The row is an int array over the points, or
    an int when every point picks the same row.
    """
    p, best = col, keys[0]
    for r, k in enumerate(keys[1:], col + 1):
        larger = k > best
        p = np.where(larger, r, p)
        best = np.where(larger, k, best)
    if type(p) is not int and (p == p[0]).all():
        p = int(p[0])
    return p, best


def _exchange(items, col, p, select):
    """Exchange ``items[col]`` and ``items[p]`` in place, where the int array
    ``p`` names the row of each point of a batch."""
    top = items[col]
    for r in range(col + 1, len(items)):
        at = p == r
        if at.any():
            items[col] = select(at, items[r], items[col])
            items[r] = select(at, top, items[r])


def _where_rows(mask, a, b):
    return [jets.where(mask, x, y) for x, y in zip(a, b)]


def _real_point(z, i=None):
    """The real parts of z's coordinates; those of point ``i`` of a batch."""
    real = [jets.realpart(c) for c in z]
    return real if i is None else [float(c[i]) if type(c) is jets.Batch else c for c in real]


def _stacked(m, size):
    """The real parts of a matrix of floats, batches and jets as one float array
    of shape (size, rows, columns)."""
    out = np.empty((size, len(m), len(m[0])))
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            out[:, i, j] = jets.realpart(x)
    return out


# ---------------------------------------------------------------------------
# the validated structure


def energy_axioms_residual(F, grid, tol: float = VALIDATION_TOL) -> float:
    """sup |CE - 2E| over the grid, where each point must satisfy the energy axioms.

    The grid is checked as one ``PointBatch`` of its points.  The first point
    that fails an axiom raises: ``PositivityFailure`` if E <= 0, else
    ``HomogeneityFailure`` if |CE - 2E| > tol * max(1, |E|), else
    ``NondegeneracyFailure`` if |det g| <= DET_FLOOR.  An empty grid raises
    ``BadConfig``.
    """
    batch = PointBatch(grid)
    points, z = batch.points, grid_coords([batch])
    size = len(points)
    CE = field_apply(liouville_field(F.n), F.E)
    e = np.broadcast_to(F.E(z), size)
    dev = np.broadcast_to(CE(z) - 2.0 * e, size)
    det = np.abs(np.linalg.det(_stacked(F.metric_at(z), size)))
    with np.errstate(invalid="ignore"):
        axioms = (
            (~(e > 0.0), PositivityFailure, "energy not positive on the slit bundle", e),
            (np.abs(dev) > tol * np.maximum(1.0, np.abs(e)), HomogeneityFailure,
             "energy not 2-homogeneous: CE != 2E", dev),
            (det <= DET_FLOOR, NondegeneracyFailure, "fundamental tensor degenerate", det),
        )
    failed = np.array([ax[0] for ax in axioms])  # failed[k][i]: axiom k fails at point i
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        _, error, message, value = axioms[int(np.argmax(failed[:, i]))]
        raise error(message, point=points[i], value=float(value[i]))
    return sup_abs([jets.batch(dev)])


class FinslerStructure:
    """Energy function E with its cached fundamental-form machinery."""

    def __init__(self, E: ScalarField, n: int, grid, validate: bool = True,
                 tol: float = VALIDATION_TOL, name: str = ""):
        self.E = E
        self.n = n
        self.grid = grid
        self.name = name or E.name or "finsler"
        self.omega = FundamentalForm(E, n)
        self._memo = PointMemo()
        self._spray = None
        self._berwald = None
        if validate:
            self._validate(tol)

    def __repr__(self):
        return f"FinslerStructure({self.name}, n={self.n})"

    def _validate(self, tol: float):
        energy_axioms_residual(self, self.grid, tol)

    # -- the point memo -------------------------------------------------------

    def omega_matrix_at(self, z):
        return self.omega.matrix_at(z)

    def shared_omega_at(self, z):
        """``[omega's matrix, dE]`` at a float, batch or jet point, shared through
        the point memo.

        Both come from one pass of E (``omega_and_dE``).  The sharp solve and
        ``d_h omega`` read omega here and the canonical spray reads both, so
        the sharp fields bracketed with J at one point and d_h omega there
        build them once per point.  A hit is renamed to z's tags, so it is
        what ``omega_and_dE`` computes.  The result is shared: do not modify it.
        """
        return self._memo.get(z, self._omega_entry, retag_array)

    def shared_omega_matrix_at(self, z):
        """omega's matrix from ``shared_omega_at``; shared: do not modify it."""
        return self.shared_omega_at(z)[0]

    def _omega_entry(self, z):
        """``[omega's matrix, dE]`` at z; at a float or batch point, raises
        ``NondegeneracyFailure`` at the first point where cond(omega) > COND_LIMIT.

        A list, not a tuple: ``retag_array`` renames a hit by walking lists.
        """
        m, dE = omega_and_dE(self.E, self.n, z)
        if jets.Jet not in map(type, z):
            cond = np.linalg.cond(_stacked(m, jets.batch_size(z) or 1))
            bad = np.flatnonzero(cond > COND_LIMIT)
            if bad.size:
                i = int(bad[0])
                raise NondegeneracyFailure(
                    f"fundamental form ill-conditioned (cond={cond[i]:.3e})",
                    point=_real_point(z, i), value=float(cond[i]))
        return [m, dE]

    def metric_at(self, z):
        return self.omega.metric_at(z)

    # -- sharp and friends ------------------------------------------------------

    def sharp_at(self, beta_values, z):
        """Solve sum_a X^a omega_ab = beta_b at a float, batch or jet point."""
        return _sharp_block_solve(self.shared_omega_matrix_at(z), beta_values, self.n, z)


def validate_finsler(E: ScalarField, grid, n: int | None = None,
                     tol: float = VALIDATION_TOL, name: str = "") -> FinslerStructure:
    """Check positivity, 2-homogeneity, and nondegeneracy on the grid."""
    if n is None:
        n = PointBatch(grid).n
    return FinslerStructure(E, n, grid, validate=True, tol=tol, name=name)


def fundamental_form(F: FinslerStructure) -> FundamentalForm:
    return F.omega


def sharp(F: FinslerStructure, beta) -> VectorField:
    """The unique X with i_X omega = beta, as a vector field."""
    n2 = 2 * F.n

    frame = jets.vec_frame(n2)

    def ev(z):
        return F.sharp_at(jets.slots(beta.fn(z, frame), n2), z)

    return VectorField(ev, F.n, name=f"sharp({beta.name})", memo=True)


def gradient(F: FinslerStructure, f: ScalarField) -> VectorField:
    return sharp(F, d_function(f))


def canonical_spray(F: FinslerStructure) -> VectorField:
    """S0 = -(dE)#; a 2-homogeneous semispray.

    dE comes from the pass that builds omega at the point, through the
    structure's point memo, and is solved as ``sharp`` solves any 1-form.
    """
    if F._spray is None:
        n2 = 2 * F.n

        def ev(z):
            m, dE = F.shared_omega_at(z)
            return _sharp_block_solve(m, jets.slots(-1.0 * dE, n2), F.n, z)

        F._spray = VectorField(ev, F.n, name="S0", memo=True)
    return F._spray


def berwald_connection(F: FinslerStructure) -> VectorForm:
    """h0 = (Id + [J, S0]) / 2, the connection generated by the canonical spray."""
    if F._berwald is None:
        J = vertical_endomorphism(F.n)
        s0 = canonical_spray(F)
        h0 = (identity_form(F.n) + fn_bracket(J, s0)).scale(0.5)
        h0.name = "h0"
        h0.memoize_matrix()
        F._berwald = h0
    return F._berwald


def conformal_change(F: FinslerStructure, f: BaseFunction) -> FinslerStructure:
    """Rescale the energy by exp(f^v); returns a freshly validated structure."""
    phi = ScalarField(lambda z: jets.exp(f.fn(z[:F.n])), F.n, name=f"exp({f.name}^v)")
    E2 = phi * F.E
    E2.name = f"{F.name}~conformal({f.name})"
    return FinslerStructure(E2, F.n, F.grid, validate=True, name=E2.name)


# ---------------------------------------------------------------------------
# conservativity residuals


def _d_form_E_residual(F: FinslerStructure, K: VectorForm, points) -> float:
    """sup over points and frame of |dE(K e_a)|."""
    n2 = 2 * F.n
    z = grid_coords(points)
    m = K.matrix(z)
    return sup_abs(jets.directional(F.E.fn, z, [m[a][b] for a in range(n2)]) for b in range(n2))


def conservative_form_residual(F: FinslerStructure, L: VectorForm,
                               points=None, pre_tol: float = CONNECTION_TOL) -> float:
    """sup |d_L E| for a semibasic vector 1-form (checked first)."""
    points = points if points is not None else F.grid
    r = semibasic_residual(L, points)
    if r > pre_tol:
        raise NotSemibasic(f"form is not semibasic, residual {r:.3e}")
    return _d_form_E_residual(F, L, points)


def projector_residual(F: FinslerStructure, h: VectorForm, points=None) -> float:
    """sup of |h^2 - h|, |J o h - J|, |h o J| over points and the frame."""
    points = points if points is not None else F.grid
    n, n2 = F.n, 2 * F.n
    J = vertical_endomorphism(F.n)
    jm = J.matrix([0.0] * n2)
    m = h.matrix(grid_coords(points))
    devs = []
    for b in range(n2):
        col = [m[a][b] for a in range(n2)]
        hcol = [sum(m[a][c] * col[c] for c in range(n2)) for a in range(n2)]
        devs.extend(hcol[a] - col[a] for a in range(n2))
        jh = [sum(jm[a][c] * col[c] for c in range(n2)) for a in range(n2)]
        devs.extend(jh[a] - jm[a][b] for a in range(n2))
    # h o J = 0: h kills the vertical frame vectors
    devs.extend(m[a][n + i] for i in range(n) for a in range(n2))
    return sup_abs(devs)


def conservative_connection_residual(F: FinslerStructure, h: VectorForm,
                                     points=None, pre_tol: float = CONNECTION_TOL) -> float:
    """sup |d_h E| for an Ehresmann connection (projector laws checked first)."""
    points = points if points is not None else F.grid
    r = projector_residual(F, h, points)
    if r > pre_tol:
        raise NotConnection(f"projector laws fail, residual {r:.3e}")
    return _d_form_E_residual(F, h, points)


# ---------------------------------------------------------------------------
# fixtures


def _energy_euclidean(n: int) -> ScalarField:
    def ev(z):
        return 0.5 * sum(z[n + i] * z[n + i] for i in range(n))

    return ScalarField(ev, n, "E_euclidean")


def _energy_riemannian_exp(n: int) -> ScalarField:
    def ev(z):
        quad = jets.exp(2.0 * z[0]) * z[n] * z[n]
        for i in range(1, n):
            quad = quad + z[n + i] * z[n + i]
        return 0.5 * quad

    return ScalarField(ev, n, "E_riemannian_exp")


def _energy_randers(n: int, drift: float = 0.3) -> ScalarField:
    def ev(z):
        norm = jets.sqrt(sum(z[n + i] * z[n + i] for i in range(n)))
        f = norm + drift * z[n]
        return 0.5 * f * f

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
