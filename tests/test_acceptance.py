"""Acceptance criteria for the library, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance:

1. the full 16-check suite passes on every fixture (32 samples, seed 42)
   within its tolerance hierarchy and under 60 s of wall time;
2. hand-derived spot values reproduce to 1e-10;
3. the canonical spray matches an independent Christoffel oracle to 1e-9;
4. the bracket satisfies its defining derivation identity to 1e-8;
5. negative controls fail in the predicted way;
6. jet derivatives agree with central finite differences (step 1e-5)
   within 1e-6 and with closed-form derivatives within 1e-12.
"""

import math
import time

import numpy as np

from finslerlab import jets
from finslerlab.calculus import (
    coordinate_one_form, d_K, fn_bracket, frame_vector, insert_vector,
    lie_derivative, liouville_field, potential, vertical_endomorphism,
)
from finslerlab.checks import random_scalar_fields, run_checks
from finslerlab.config import RunConfig
from finslerlab.core import BaseFunction, ScalarField, point, sample_slit_points
from finslerlab.errors import NondegeneracyFailure, PositivityFailure
from finslerlab.finsler import (
    berwald_connection, canonical_spray, finsler_fixture,
    fundamental_form, sharp, validate_finsler,
)
from finslerlab.connections import (
    VectorField, conservative_connection_residual, l_ehresmann_connection,
    vertical_lift_test, vincze_residual, wagner_connection,
)

from helpers import fd_directional, maxabs

N, N2 = 2, 4
P0 = point(0.0, 0.0, 1.0, 2.0)
GRID = sample_slit_points(N, 32, seed=42)

EUC = finsler_fixture("euclidean", GRID)
RIE = finsler_fixture("riemannian-exp", GRID)
RAN = finsler_fixture("randers-0.3", GRID)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion-{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_full_suite():
    start = time.perf_counter()
    results, exit_code = run_checks(RunConfig(samples=32, seed=42))
    wall = time.perf_counter() - start
    failed = [(r.id, r.fixture, r.max_residual) for r in results if not r.passed]
    ok = exit_code == 0 and not failed and wall < 60.0 and len(results) == 48
    report(1, ok, f"{len(results)} cells, wall {wall:.1f}s, failures: {failed}")


def test_criterion_2_spot_values():
    z = P0.coords()
    devs = []
    devs.append(maxabs([a - b for a, b in zip(canonical_spray(EUC)(z), [1, 2, 0, 0])]))
    devs.append(maxabs([a - b for a, b in zip(canonical_spray(RIE)(z), [1, 2, -1, 0])]))
    s = sharp(EUC, coordinate_one_form(N, 0))
    devs.append(maxabs([a - b for a, b in zip(s(z), [0, 0, 1, 0])]))
    devs.append(maxabs([a - b for a, b in zip(liouville_field(N)(z), [0, 0, 1, 2])]))
    om = fundamental_form(EUC)
    devs.append(abs(om(z, frame_vector(N2, 0), frame_vector(N2, 2)) + 1.0))
    _, L_W = wagner_connection(EUC, BaseFunction(lambda x: x[0], N, "x1"))
    pot = potential(L_W, canonical_spray(EUC), points=GRID)
    devs.append(maxabs(pot(z)))
    worst = max(devs)
    report(2, worst < 1e-10, f"max spot deviation {worst:.2e}")


def test_criterion_3_christoffel_oracle():
    s0 = canonical_spray(RIE)

    def oracle(z):
        a = np.array([[math.exp(2.0 * z[0]), 0.0], [0.0, 1.0]])
        da = np.zeros((2, 2, 2))
        da[0][0][0] = 2.0 * math.exp(2.0 * z[0])
        ainv = np.linalg.inv(a)
        gamma = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    gamma[i][j][k] = 0.5 * sum(
                        ainv[i][l] * (da[j][l][k] + da[k][j][l] - da[l][j][k])
                        for l in range(2))
        y = z[2:]
        return [z[2], z[3]] + [
            -sum(gamma[i][j][k] * y[j] * y[k] for j in range(2) for k in range(2))
            for i in range(2)]

    worst = max(maxabs([a - b for a, b in zip(s0(p.coords()), oracle(p.coords()))])
                for p in GRID)
    report(3, worst < 1e-9, f"spray vs Christoffel oracle residual {worst:.2e} at 32 samples")


def test_criterion_4_bracket_derivation_contract():
    # d_[K,L] f = d_K d_L f - (-1)^(k l) d_L d_K f (graded commutator of the
    # induced derivations), exercised on the fixture pairs and random fields
    J = vertical_endomorphism(N)
    C = liouville_field(N)
    h0 = berwald_connection(EUC)
    _, L_W = wagner_connection(EUC, BaseFunction(lambda x: x[0], N, "x1"))
    pairs = [(J, J, -1.0), (J, h0, -1.0), (J, L_W, -1.0), (J, C, 1.0)]
    fields = random_scalar_fields(N, 5, seed=1042)
    pts = list(GRID)[:8]
    worst = 0.0
    for K, L, sign in pairs:
        br = fn_bracket(K, L)
        for f in fields:
            if hasattr(L, "degree"):  # vector 1-form
                dk_dl = d_K(K, d_K(L, f))
                dl_dk = d_K(L, d_K(K, f))
            else:  # vector field: d_Y is the Lie derivative
                from finslerlab.calculus import field_apply
                dk_dl = d_K(K, field_apply(L, f))
                dl_dk = lie_derivative(L, d_K(K, f))
            for p in pts:
                z = p.coords()
                for a in range(N2):
                    ea = frame_vector(N2, a)
                    if hasattr(L, "degree"):
                        for b in range(a + 1, N2):
                            eb = frame_vector(N2, b)
                            lhs = jets.directional(f.fn, z, br(z, ea, eb))
                            rhs = dk_dl(z, ea, eb) - sign * dl_dk(z, ea, eb)
                            worst = max(worst, abs(lhs - rhs))
                    else:
                        lhs = jets.directional(f.fn, z, br(z, ea))
                        rhs = dk_dl(z, ea) - sign * dl_dk(z, ea)
                        worst = max(worst, abs(lhs - rhs))
    report(4, worst < 1e-8, f"derivation-contract residual {worst:.2e}")


def test_criterion_5_negative_controls():
    details = []
    # an indefinite energy fails strong convexity, a negative one positivity
    def fails_with(error, E):
        try:
            validate_finsler(E, GRID)
        except error:
            return True
        return False

    convexity_ok = fails_with(NondegeneracyFailure,
                              ScalarField(lambda z: 0.5 * (z[2] * z[2] - z[3] * z[3]), N))
    details.append(f"convexity-control={convexity_ok}")
    positivity_ok = fails_with(PositivityFailure,
                               ScalarField(lambda z: -0.5 * (z[2] * z[2] + z[3] * z[3]), N))
    details.append(f"positivity-control={positivity_ok}")

    # L = [J, E dy1] gives a non-conservative connection: both t2 sides are large
    J = vertical_endomorphism(N)
    V0 = VectorField(lambda z: [0.0, 0.0, EUC.E(z), 0.0], N)
    L = fn_bracket(J, V0)
    hL = l_ehresmann_connection(EUC, L)
    dhe = conservative_connection_residual(EUC, hL.form, [P0])
    pot = insert_vector(canonical_spray(EUC), L)
    from finslerlab.calculus import field_apply
    lift_test = vertical_lift_test(EUC, field_apply(pot, EUC.E), points=[P0])
    control2 = lift_test > 0.1 and dhe > 0.1
    details.append(f"dJ(L°E)@p0={lift_test:.2f}")

    # the Liouville field itself is not conservative: deviation is -d_J E
    vr = vincze_residual(EUC, liouville_field(N), points=[P0])
    control3 = vr >= 2.0 - 1e-9
    details.append(f"vincze(C)@p0={vr:.2f}")

    report(5, convexity_ok and positivity_ok and control2 and control3, ", ".join(details))


def test_criterion_6_derivative_substrate():
    energies = [EUC.E, RIE.E, RAN.E]
    pts = list(GRID)[:6]
    frames = [frame_vector(N2, a) for a in range(N2)]
    worst_fd = 0.0
    # order 1: jets against plain central differences at step 1e-5
    for E in energies:
        for p in pts:
            z = p.coords()
            for v in frames:
                jet = jets.nth_directional(E.fn, z, [v])
                worst_fd = max(worst_fd, abs(jet - fd_directional(E.fn, z, v, h=1e-5)))
    # orders 2 and 3: central differences (step 1e-5) of the next-lower jet
    # derivative; every jet order is pinned against an order-1 stencil
    for E in energies:
        for p in pts:
            z = p.coords()
            for a in range(N2):
                for b in range(a, N2):
                    va, vb = frames[a], frames[b]
                    jet2 = jets.nth_directional(E.fn, z, [va, vb])
                    fd2 = fd_directional(
                        lambda w: jets.nth_directional(E.fn, w, [vb]), z, va, h=1e-5)
                    worst_fd = max(worst_fd, abs(jet2 - fd2))
                    jet3 = jets.nth_directional(E.fn, z, [va, vb, vb])
                    fd3 = fd_directional(
                        lambda w: jets.nth_directional(E.fn, w, [vb, vb]), z, va, h=1e-5)
                    worst_fd = max(worst_fd, abs(jet3 - fd3))

    # closed-form derivatives, exact to 1e-12
    worst_sym = 0.0
    for p in pts:
        x1, x2, y1, y2 = p.coords()
        z = p.coords()
        e2x = math.exp(2.0 * x1)
        checks = [
            (EUC.E, [frames[2]], y1),
            (EUC.E, [frames[2], frames[2]], 1.0),
            (EUC.E, [frames[2], frames[3]], 0.0),
            (EUC.E, [frames[0]], 0.0),
            (RIE.E, [frames[0]], e2x * y1 * y1),
            (RIE.E, [frames[0], frames[2]], 2.0 * e2x * y1),
            (RIE.E, [frames[0], frames[0], frames[0]], 4.0 * e2x * y1 * y1),
            (RIE.E, [frames[0], frames[2], frames[2]], 2.0 * e2x),
        ]
        r = math.sqrt(y1 * y1 + y2 * y2)
        f = r + 0.3 * y1
        checks.append((RAN.E, [frames[2]], f * (y1 / r + 0.3)))
        checks.append((RAN.E, [frames[3]], f * (y2 / r)))
        for E, dirs, expected in checks:
            worst_sym = max(worst_sym, abs(jets.nth_directional(E.fn, z, dirs) - expected))

    ok = worst_fd < 1e-6 and worst_sym < 1e-12
    report(6, ok, f"fd-deviation {worst_fd:.2e} (tol 1e-6), "
                  f"closed-form deviation {worst_sym:.2e} (tol 1e-12)")
