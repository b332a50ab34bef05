"""A naturality oracle: the paper's constructions commute with base diffeomorphisms.

Take a diffeomorphism phi of the base and its tangent lift
Tphi(x, y) = (phi(x), Dphi(x) y).  Every construction the checks use is
natural: built for the energy E o Tphi, it is the Tphi-pullback of the same
construction built for E.  At z, with w = Tphi(z) and Jac the Jacobian of
Tphi at z,

    omega'(z) = Jac^T omega(w) Jac          (the matrix of a 2-form),
    X'(z) = Jac^-1 X(w)                      (a vector field),
    K'(z) = Jac^-1 K(w) Jac                  (the matrix of a vector 1-form).

The checks compare jet results with jet results for one energy; this oracle
compares two energies through a transformation law that no formula in the
library encodes.  Jac is written in closed form, with no jets: its diagonal
blocks are Dphi and its lower left block is the second derivative of phi
contracted with y.  Checked: omega, the sharp of a pulled-back 1-form, S0,
h0, and for the pulled-back vertical field V = E d/dy1 with L = [J, V], h_L,
Theta_L, (d_L E)# and S^V; on the three fixtures and the Funk metric, at
n = 2 and at n = 3 (phi with cross terms), at float points and at one batch
point.  The pulled-back euclidean energy has a nontrivial spray, so the
oracle sees the skew block A of omega, which every fixture's cells are
blind to (Kolar, Michor & Slovak, *Natural Operations in Differential
Geometry*, 1993, on natural operators).
"""

import numpy as np
import pytest

from finslerlab import finsler, jets
from finslerlab.calculus import VectorField, d_function, fn_bracket, vertical_endomorphism
from finslerlab.connections import (
    l_ehresmann_connection, semispray_from_vertical, sharp_of_dLE, theta_operator,
)
from finslerlab.core import ScalarField, sample_slit_points
from finslerlab.finsler import (
    FinslerStructure, berwald_connection, canonical_spray, fixture_energy, fixture_ids, sharp,
)
from finslerlab.registry import build_field
from test_funk import funk_energy
from test_mutants import patch

# Every comparison read at most 7.1e-15 when this was set (16 points at n = 2
# and 4 at n = 3, seed 42); it moves only the way a tolerance moves
BOUND = 1e-13


def phi(x):
    """(x1 + 0.3 x2^2, x2 + 0.2 sin x1); at n = 3, with the cross terms
    0.1 x2 x3 in the first component and x3 + 0.2 x1 x2 as the third."""
    out = [x[0] + 0.3 * (x[1] * x[1]), x[1] + 0.2 * jets.sin(x[0])]
    if len(x) == 3:
        out = [out[0] + 0.1 * (x[1] * x[2]), out[1], x[2] + 0.2 * (x[0] * x[1])]
    return out


def dphi(x):
    """Dphi(x): row i holds the derivatives of phi_i."""
    d = [[1.0, 0.6 * x[1]], [0.2 * jets.cos(x[0]), 1.0]]
    if len(x) == 3:
        d = [[1.0, d[0][1] + 0.1 * x[2], 0.1 * x[1]], d[1] + [0.0],
             [0.2 * x[1], 0.2 * x[0], 1.0]]
    return d


def d2phi(x, y):
    """B[i][j] = sum_k y^k d^2 phi_i / dx^j dx^k, the lower left block of Jac."""
    b = [[0.0, 0.6 * y[1]], [-0.2 * jets.sin(x[0]) * y[0], 0.0]]
    if len(x) == 3:
        b = [[0.0, b[0][1] + 0.1 * y[2], 0.1 * y[1]], b[1] + [0.0],
             [0.2 * y[1], 0.2 * y[0], 0.0]]
    return b


def _apply(m, v):
    return [sum((a * b for a, b in zip(row, v)), 0.0) for row in m]


def tphi(z):
    n = len(z) // 2
    return phi(z[:n]) + _apply(dphi(z[:n]), z[n:])


def jacobian(z):
    """The Jacobian of Tphi at a float point, [[Dphi, 0], [B, Dphi]]."""
    n = len(z) // 2
    d, b = np.array(dphi(z[:n])), np.array(d2phi(z[:n], z[n:]))
    return np.block([[d, np.zeros((n, n))], [b, d]])


def _solve(m, b):
    """m^-1 b by elimination without row exchanges (Dphi is near the
    identity), on floats, batches or jets."""
    rows = [list(row) + [v] for row, v in zip(m, b)]
    n = len(rows)
    for c in range(n):
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * p for a, p in zip(rows[r], rows[c])]
    x = [0.0] * n
    for r in reversed(range(n)):
        x[r] = (rows[r][n] - sum((rows[r][k] * x[k] for k in range(r + 1, n)), 0.0)) / rows[r][r]
    return x


def energy(name, n):
    return funk_energy(n) if name == "funk" else fixture_energy(name, n)


def pullback(f):
    return ScalarField(lambda z: f.fn(tphi(z)), f.n, f"{f.name} o Tphi")


def pairs(name, n):
    """``{construction: (kind, at E, at E o Tphi)}``, each an evaluator at a point."""
    grid = sample_slit_points(n, 4, seed=7)
    F = FinslerStructure(energy(name, n), n, grid, name=name)
    G = FinslerStructure(pullback(F.E), n, grid, name=f"{name} o Tphi")
    J = vertical_endomorphism(n)
    V = build_field(F, "E-dy1")
    # the pullback of V: Jac^-1 (0, E(w) e_1) = (0, Dphi^-1 E(w) e_1), and E(w) = E'(z)
    W = VectorField(lambda z: [0.0] * n + _solve(dphi(z[:n]), [G.E(z)] + [0.0] * (n - 1)),
                    n, "(E-dy1)'")
    L, L2 = fn_bracket(J, V), fn_bracket(J, W)
    f = ScalarField(lambda z: z[0] * z[n + 1] + jets.sin(z[1]) * z[n], n, "f")
    return {
        "omega": ("2-form", F.omega_matrix_at, G.omega_matrix_at),
        "sharp(df)": ("field", sharp(F, d_function(f)), sharp(G, d_function(pullback(f)))),
        "S0": ("field", canonical_spray(F), canonical_spray(G)),
        "h0": ("form", berwald_connection(F).matrix, berwald_connection(G).matrix),
        "(d_L E)#": ("field", sharp_of_dLE(F, L), sharp_of_dLE(G, L2)),
        "h_L": ("form", l_ehresmann_connection(F, L).matrix,
                l_ehresmann_connection(G, L2).matrix),
        "Theta_L": ("form", theta_operator(F, L).matrix, theta_operator(G, L2).matrix),
        "S^V": ("field", semispray_from_vertical(F, V), semispray_from_vertical(G, W)),
    }


def _at_points(values, size):
    """A vector or matrix of floats and batches as an array with the points first."""
    if type(values) is list:
        return np.stack([_at_points(v, size) for v in values], axis=1)
    return np.broadcast_to(values, size)


def transport_error(kind, original, pulled, z):
    """max |pulled(z) - the Tphi-pullback of original(Tphi(z))| over the points of z."""
    size = jets.batch_size(z) or 1
    got = _at_points(pulled(z), size)
    worst = 0.0
    for k in range(size):
        zk = [float(c[k]) if type(c) is jets.Batch else c for c in z]
        jac, ref = jacobian(zk), np.array(original(tphi(zk)))
        if kind == "field":
            ref = np.linalg.solve(jac, ref)
        elif kind == "form":
            ref = np.linalg.solve(jac, ref @ jac)
        else:
            ref = jac.T @ ref @ jac
        worst = max(worst, float(np.abs(got[k] - ref).max()))
    return worst


def errors(name, n, count):
    """Each construction's transport error at ``count`` float points and at
    one batch point of them."""
    points = sample_slit_points(n, count, seed=42)
    where = [p.coords() for p in points] + [points.coords()]
    return {c: max(transport_error(kind, a, b, z) for z in where)
            for c, (kind, a, b) in pairs(name, n).items()}


@pytest.mark.parametrize("n, count", [(2, 16), (3, 4)])
@pytest.mark.parametrize("name", fixture_ids() + ["funk"])
def test_constructions_commute_with_a_base_diffeomorphism(name, n, count):
    assert {c: e for c, e in errors(name, n, count).items() if not e <= BOUND} == {}


def test_the_pulled_back_euclidean_spray_is_not_trivial():
    grid = sample_slit_points(2, 16, seed=42)
    G = FinslerStructure(pullback(fixture_energy("euclidean", 2)), 2, grid)
    assert np.abs(_at_points(canonical_spray(G)(grid.coords())[2:], 16)).max() > 1.0


# the constructions that read omega's skew block A: (d_L E)# and Theta_L solve
# for a vertical field, whose horizontal part, the part that meets A, is zero
READS_A = {"omega", "sharp(df)", "S0", "h0", "h_L", "S^V"}


@pytest.mark.parametrize("name", fixture_ids())
def test_the_skew_block_mutant_is_caught(name, monkeypatch):
    # A as E_{x^i y^j} + E_{x^j y^i} passes every default cell; here it reads
    # 1.4 to 10 on every fixture, euclidean included
    patch(monkeypatch, finsler, "omega_and_dE", "a = h[i][j] - h[j][i]", "a = h[i][j] + h[j][i]")
    assert {c for c, e in errors(name, 2, 4).items() if not e <= BOUND} == READS_A
