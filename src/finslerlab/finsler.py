"""Finsler energies: validation, fundamental form, sharp operator, sprays.

A validated structure caches its canonical spray and Berwald connection, and
keeps one point memo (``calculus.PointMemo``) of omega.  At a float point it
holds omega's matrix and its condition number, for the float sharp solve; at
a jet point it holds omega's jet matrix, which the jet sharp solve and
``d_h omega`` both read.  Its key is the point's canonical form
(``calculus.point_key``): every float, a negative zero as its own token, and
the lift tags up to an order-preserving renaming.  Jet entries are kept for
one base point (the real parts of the coordinates) at a time and dropped
when a call arrives at another one, so they are the lifts of the point being
worked on: the sharp fields bracketed with J there (S0, (d_L E)#, grad f^v)
are lifted along the same frames and share them.  Float entries are kept
across base points, because the checks revisit every grid point.

A hit is exact.  Jet arithmetic compares tags only by their order, and every
tag that ``omega_matrix`` makes internally is stripped before it returns; so
a stored matrix renamed to the caller's tags is, bit for bit, what a fresh
computation at the caller's point would give, and so is the sharp solve that
reads it.  An energy that holds jets of its own puts tags into omega that no
point carries; a hit that would have to rename one computes afresh instead.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .calculus import (
    PointMemo, VectorField, VectorForm, d_K, d_function, exterior_derivative,
    field_apply, fn_bracket, identity_form, liouville_field, point_key,
    retag_array, semibasic_residual, sup_abs, vertical_endomorphism,
)
from .core import BaseFunction, ScalarField, SampleGrid, sample_slit_points
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


def _hessian_rows(E: ScalarField, n: int, z, k: int):
    """h[a][j] = D_{e_{n+j}} D_{e_{2n-k+a}} E for the last k frame directions.

    One nested vector pass: the inner lift (the larger tag) moves the last k
    coordinates and the outer one the fiber, so each entry is what
    ``nth_directional(E.fn, z, [e_{2n-k+a}, e_{n+j}])`` computes.
    """
    inner = [0.0] * (2 * n - k) + jets.vec_frame(k)
    outer = [0.0] * n + jets.vec_frame(n)
    h = jets.nth_directional(E.fn, z, [inner, outer])
    return [jets.slots(row, n) for row in jets.slots(h, k)]


def metric_matrix(E: ScalarField, n: int, z):
    """g_ij = d2 E / dy^i dy^j (the fundamental tensor)."""
    h = _hessian_rows(E, n, z, n)
    return [[h[i][j] if i <= j else h[j][i] for j in range(n)] for i in range(n)]


def omega_matrix(E: ScalarField, n: int, z):
    """Closed-form matrix of omega = d(d_J E): [[A, -g^T], [g, 0]].

    A_ij = E_{x^i y^j} - E_{x^j y^i} is the skew part of the mixed Hessian, so
    its diagonal is exactly zero and only the pairs i < j are formed.  Both
    blocks come from one nested pass over the rows of the Hessian of E.
    """
    h = _hessian_rows(E, n, z, 2 * n)
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
    return m


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
# the sharp solve over jet scalars


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
    zeros of A, such as its diagonal, are skipped.  A pivot that is zero, or
    smaller than the largest pivot so far by more than COND_LIMIT, raises
    ``NondegeneracyFailure``; as det omega = det(g)^2, this guards omega too.
    """
    rows = [[m[n + i][j] for i in range(n)] for j in range(n)]  # g^T, by row j
    steps = []  # (pivot row, multipliers) of each column
    piv_max = 0.0
    for col in range(n):
        p = max(range(col, n), key=lambda r: abs(jets.realpart(rows[r][col])))
        pv = abs(jets.realpart(rows[p][col]))
        piv_max = max(piv_max, pv)
        if pv == 0.0 or piv_max / pv > COND_LIMIT:
            raise NondegeneracyFailure(
                "fundamental tensor numerically singular during jet sharp solve",
                point=[jets.realpart(c) for c in z], value=pv)
        rows[col], rows[p] = rows[p], rows[col]
        inv = 1.0 / rows[col][col]
        fs = [rows[r][col] * inv for r in range(col + 1, n)]
        for r, f in enumerate(fs, col + 1):
            for c in range(col + 1, n):
                rows[r][c] = rows[r][c] - f * rows[col][c]
        steps.append((p, fs))

    def solve(b):
        for col, (p, fs) in enumerate(steps):
            b[col], b[p] = b[p], b[col]
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
    return xh + solve(rhs)


# ---------------------------------------------------------------------------
# the validated structure


def energy_axioms_residual(F, grid, tol: float = VALIDATION_TOL) -> float:
    """sup |CE - 2E| over the grid, where each point must satisfy the energy axioms.

    Raises at the first point that fails one: ``PositivityFailure`` if
    E <= 0, ``HomogeneityFailure`` if |CE - 2E| > tol * max(1, |E|) and
    ``NondegeneracyFailure`` if |det g| <= DET_FLOOR.
    """
    CE = field_apply(liouville_field(F.n), F.E)
    devs = []
    for p in grid:
        z = p.coords()
        e = F.E(z)
        if not e > 0.0:
            raise PositivityFailure("energy not positive on the slit bundle",
                                    point=p, value=e)
        dev = CE(z) - 2.0 * e
        if abs(dev) > tol * max(1.0, abs(e)):
            raise HomogeneityFailure("energy not 2-homogeneous: CE != 2E",
                                     point=p, value=dev)
        det = abs(np.linalg.det(np.array(F.metric_at(z), dtype=float)))
        if det <= DET_FLOOR:
            raise NondegeneracyFailure("fundamental tensor degenerate",
                                       point=p, value=det)
        devs.append(dev)
    return sup_abs(devs)


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

    def _float_omega(self, z):
        m = np.array(omega_matrix(self.E, self.n, z), dtype=float)
        return m, float(np.linalg.cond(m))

    def omega_matrix_at(self, z):
        return self.omega.matrix_at(z)

    def jet_omega_matrix_at(self, z):
        """omega's matrix at a jet point, shared through the point memo.

        The jet sharp solve and ``d_h omega`` both read omega here, so the
        sharp fields bracketed with J at one point and d_h omega there build
        it once per lifted point.  A hit is renamed to z's tags, so it is what
        ``omega_matrix_at`` computes; a point without a key or without tags
        (whose key holds the float entry) is computed afresh.  The result is
        shared: do not modify it.
        """
        point = point_key(z)
        if point is None or not point[2]:
            return self.omega_matrix_at(z)
        m, tag_map = self._memo.entry(point, lambda: self.omega_matrix_at(z))
        if tag_map is None:
            return m
        try:
            return retag_array(m, tag_map)
        except KeyError:  # E holds jets of its own: their tags are not renamed
            return self.omega_matrix_at(z)

    def metric_at(self, z):
        return self.omega.metric_at(z)

    # -- sharp and friends ------------------------------------------------------

    def sharp_at(self, beta_values, z):
        """Solve sum_a X^a omega_ab = beta_b at one (possibly jet-valued) point."""
        if all(type(c) is not jets.Jet for c in z) \
                and all(type(c) is not jets.Jet for c in beta_values):
            m, cond = self._memo.entry(point_key(z), lambda: self._float_omega(z))[0]
            if cond > COND_LIMIT:
                raise NondegeneracyFailure(
                    f"fundamental form ill-conditioned (cond={cond:.3e})",
                    point=list(z), value=cond)
            sol = np.linalg.solve(m.T, np.array(beta_values, dtype=float))
            return [float(v) + 0.0 for v in sol]  # +0.0 normalises -0.0
        return _sharp_block_solve(self.jet_omega_matrix_at(z), beta_values, self.n, z)


def validate_finsler(E: ScalarField, grid, n: int | None = None,
                     tol: float = VALIDATION_TOL, name: str = "") -> FinslerStructure:
    """Check positivity, 2-homogeneity, and nondegeneracy on the grid."""
    if n is None:
        n = grid.n if isinstance(grid, SampleGrid) else next(iter(grid)).n
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
    """S0 = -(dE)#; a 2-homogeneous semispray."""
    if F._spray is None:
        F._spray = sharp(F, d_function(F.E).scale(-1.0))
        F._spray.name = "S0"
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
    devs = []
    for p in points:
        z = p.coords()
        m = K.matrix(z)
        for b in range(n2):
            devs.append(jets.directional(F.E.fn, z, [m[a][b] for a in range(n2)]))
    return sup_abs(devs)


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
    devs = []
    for p in points:
        z = p.coords()
        m = h.matrix(z)
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
