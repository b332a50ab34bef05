"""From an energy function to its geometry.

A validated energy gives the fundamental 2-form omega = d(d_J E), the sharp
operator (pointwise skew solve), gradients, the canonical spray, and the
Berwald connection.  The script prints the hand-checkable values for the
shipped fixtures.
"""

from finslerlab import (
    berwald_connection, canonical_spray, finsler_fixture, fixture_ids,
    frame_vector, fundamental_form, gradient, point, sharp,
    vertical_endomorphism,
)
from finslerlab.calculus import coordinate_one_form

p0 = point(0.0, 0.0, 1.0, 2.0)
z = p0.coords()

print("fixtures:", fixture_ids())
euc = finsler_fixture("euclidean")
rie = finsler_fixture("riemannian-exp")
ran = finsler_fixture("randers-0.3")

# The fundamental form pairs base and fiber directions through the metric
# tensor: omega(dx1, dy1) = -g11.
om = fundamental_form(euc)
print("omega(dx1, dy1) at p0:", om(z, frame_vector(4, 0), frame_vector(4, 2)))

# sharp inverts insertion into omega; for the flat energy, sharp(dx1) is the
# vertical frame vector.
print("sharp(dx1) =", sharp(euc, coordinate_one_form(2, 0))(z))

# The gradient of the energy itself is minus the canonical spray.
print("grad E     =", gradient(euc, euc.E)(z))
print("S0 (flat)  =", canonical_spray(euc)(z))

# On the curved fixture the spray picks up the geodesic coefficients
# (-y1^2 in the first fiber slot at p0, from the single Christoffel symbol).
print("S0 (curved)=", canonical_spray(rie)(z))

# The Berwald connection projects onto the horizontal distribution; its
# first column on the curved fixture is dx1 - y1 dy1.
h0 = berwald_connection(rie)
print("h0 column 1:", [row[0] for row in h0.matrix(z)])

# J kills the horizontal image again: J o h0 = J, h0 o J = 0.
J = vertical_endomorphism(2)
col = [row[0] for row in h0.matrix(z)]
print("J(h0 dx1)  =", J(z, col))

# The Randers fixture is genuinely non-Riemannian: its metric tensor varies
# with the fiber direction.
print("randers g at (0,0,1,2):  ", [[round(v, 4) for v in row] for row in ran.metric_at(z)])
z2 = point(0.0, 0.0, 2.0, 1.0).coords()
print("randers g at (0,0,2,1):  ", [[round(v, 4) for v in row] for row in ran.metric_at(z2)])
