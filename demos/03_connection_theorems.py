"""The connection laboratory: every theorem as a measured residual.

The library certifies structural identities numerically: a statement holds
when its sup-norm residual over sampled points sits at machine precision.
This script runs the main constructions on the flat fixture and prints the
residuals it finds.
"""

from finslerlab import (
    BaseFunction, VectorField, berwald_connection, conservative_lift,
    finsler_fixture, fn_bracket, liouville_field, point, projective_factor,
    semispray_from_vertical, theta_operator, v_from_torsion_free,
    vertical_endomorphism, vincze_residual, wagner_connection,
)
from finslerlab import jets
from finslerlab.connections import (
    connection_from_semispray, dh_omega_residual, form_matrix_residual,
    l_ehresmann_connection, tension, vector_form1_residual,
)
from finslerlab.errors import HypothesisFailure

F = finsler_fixture("euclidean")
grid = F.grid
J = vertical_endomorphism(2)
C = liouville_field(2)
p0 = point(0.0, 0.0, 1.0, 2.0)

# Wagner connection for f = x1: conservative, and exactly the h_L deformation
# of the Berwald connection by L_W = (f^c J - d(f^v) (x) C) / 2.
f = BaseFunction(lambda x: x[0], 2, "x1")
hbar, L_W = wagner_connection(F, f)
hL = l_ehresmann_connection(F, L_W)
print("wagner == h_{L_W} residual:", form_matrix_residual(hbar, hL, grid))

# The Theta operator intertwines with the Liouville bracket.
lhs = fn_bracket(C, theta_operator(F, L_W))
rhs = theta_operator(F, fn_bracket(C, L_W))
print("[C, Theta_L] - Theta_[C,L]:", form_matrix_residual(lhs, rhs, list(grid)[:8]))

# Torsion-free forms come from vertical fields: L = [J, V] and back.
V0 = VectorField(lambda z: [0.0, 0.0, F.E(z), 0.0], 2, "E-dy1")
L = fn_bracket(J, V0)
V = v_from_torsion_free(F, L)
print("[J, V_L] - L residual:     ", form_matrix_residual(fn_bracket(J, V), L, list(grid)[:8]))

# The spray family S^V regenerates the [J, V]-connection, and a
# 2-homogeneous V makes it an honest spray with homogeneous connection.
sV = semispray_from_vertical(F, V0)
print("S^V at p0:", sV(p0.coords()))
h1 = connection_from_semispray(F, sV)
h2 = l_ehresmann_connection(F, L)
print("generated == h_[J,V]:      ", form_matrix_residual(h1, h2, list(grid)[:8]))
print("tension residual:          ", vector_form1_residual(tension(F, h2), list(grid)[:8]))

# Projectively related sprays: V = sqrt(E) C / 2 against U = 0 produces the
# factor lambda = 3 sqrt(E), and the deviation S^V - S^U - lambda C vanishes.
Vrel = VectorField(lambda z: [0.0, 0.0, 0.5 * jets.sqrt(F.E(z)) * z[2],
                              0.5 * jets.sqrt(F.E(z)) * z[3]], 2)
U0 = VectorField(lambda z: [0.0] * 4, 2)
lam, res = projective_factor(F, Vrel, U0)
print("projective residual:       ", res, " lambda(p0) =", lam(p0.coords()))

# Conservative vertical fields: the lift theorem either produces a field
# satisfying i_U omega = d_J(U E) or reports that its hypothesis fails.
good = VectorField(lambda z: [0.0, 0.0,
                              (jets.sqrt(F.E(z)) - z[0]) / (2.0 * F.E(z)) * z[2],
                              (jets.sqrt(F.E(z)) - z[0]) / (2.0 * F.E(z)) * z[3]], 2)
U = conservative_lift(F, good)
print("vincze residual of lift:   ", vincze_residual(F, U))
try:
    conservative_lift(F, V0)
except HypothesisFailure as e:
    print("hypothesis failure branch: ", e)

# The third-order identity: d_h omega vanishes for torsion-free deformations.
# The Wagner connection carries torsion, so its value is only reported.
print("d_h omega (berwald):       ",
      dh_omega_residual(F, berwald_connection(F), list(grid)[:6]))
print("d_h omega (h_[J,V]):       ", dh_omega_residual(F, h2, list(grid)[:6]))
print("d_h omega (wagner, meas.): ", dh_omega_residual(F, hbar, list(grid)[:6]))
