"""The residual check registry: sixteen identities run per fixture.

Each check measures a sup-norm residual over the sample grid and passes when
it is below the check's tolerance.  Expected-error checks (a theorem whose
hypothesis must fail on a given input) count the declared error as success
and note it in the record.  Tolerances follow the conditioning hierarchy:
1e-9 for constructions, 1e-8 for theorem identities, 1e-7 for the one
third-derivative identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .calculus import (
    DifferentialForm, VectorField, d_K, field_apply, fn_bracket,
    homogeneity_residual, insert_one_form, insert_vector,
    lie_derivative, liouville_field, potential, sup_abs, vertical_endomorphism,
    vertical_lift_function, zero_vector_form,
)
from .core import grid_coords, sample_slit_points
from .errors import BadConfig, DegenerateDegree, FinslerLabError, HypothesisFailure
from .finsler import (
    berwald_connection, canonical_spray, conformal_change,
    conservative_connection_residual, conservative_form_residual,
    energy_axioms_residual, finsler_fixture, fixture_ids, fundamental_form,
    sharp,
)
from .connections import (
    connection_from_semispray, conservative_lift, dh_omega_residual, form_matrix_residual,
    l_ehresmann_connection, projective_factor, semispray_from_vertical, tension,
    theta_operator, v_from_homogeneous, v_from_torsion_free, vector_field_residual,
    vector_form1_residual, vector_form2_residual, vertical_lift_test, vertical_residual,
    vincze_residual, weak_torsion,
)
from .memo import kept_on
from .registry import base_function, build_connection, build_field, build_form

TOL_CONSTRUCTION = 1e-9
TOL_THEOREM = 1e-8
TOL_THIRD_ORDER = 1e-7
NONCONSERVATIVE_MARGIN = 1e-3


@dataclass(frozen=True)
class CheckSpec:
    """One registered identity check."""

    id: str
    description: str
    tolerance: float
    runner: object = field(repr=False)
    fixtures = tuple(fixture_ids())  # every check runs on every fixture


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one (check, fixture) cell."""

    id: str
    fixture: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    error: str | None = None

    def record(self) -> dict:
        """The stable report record."""
        rec = {
            "check": self.id,
            "fixture": self.fixture,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.error is not None:
            rec["error"] = self.error
        return rec


@dataclass
class CheckContext:
    grid: object
    seed: int
    tol: float


@dataclass
class Outcome:
    max_residual: float
    note: str | None = None


# ---------------------------------------------------------------------------
# deterministic random objects


def random_one_forms(n: int, count: int, seed: int, semibasic: bool = False):
    """1-forms with random affine coefficient functions."""
    rng = np.random.default_rng(seed)
    n2 = 2 * n
    limit = n if semibasic else n2
    out = []
    for _ in range(count):
        lin = rng.uniform(-1, 1, (n2, n2)).tolist()
        const = rng.uniform(-1, 1, n2).tolist()

        def ev(z, v, lin=lin, const=const):
            acc = 0.0
            for a in range(limit):
                coeff = const[a] + sum(lin[a][b] * z[b] for b in range(n2))
                acc = acc + coeff * v[a]
            return acc

        out.append(DifferentialForm(1, ev, n))
    return out


def _sup_form1(form, z, n2):
    return sup_abs(form.array(z))


def _sup_form2(form, z, n2):
    arr = form.array(z)
    return sup_abs(arr[a][b] for a in range(n2) for b in range(a + 1, n2))


# ---------------------------------------------------------------------------
# check runners


def _chk01_axioms(F, ctx):
    return Outcome(energy_axioms_residual(F, ctx.grid))


def _chk02_omega_relations(F, ctx):
    n2 = 2 * F.n
    J = vertical_endomorphism(F.n)
    C = liouville_field(F.n)
    om = fundamental_form(F).two_form
    z = grid_coords(ctx.grid)
    return Outcome(sup_abs([_sup_form2(insert_one_form(J, om), z, n2),
                            _sup_form1(insert_vector(C, om) - d_K(J, F.E), z, n2),
                            _sup_form2(lie_derivative(C, om) - om, z, n2)]))


def _chk03_sharp_round_trip(F, ctx):
    n2 = 2 * F.n
    z = grid_coords(ctx.grid)
    m = F.omega_matrix_at(z)
    devs = []
    betas = random_one_forms(F.n, 3, ctx.seed + 103) \
        + random_one_forms(F.n, 2, ctx.seed + 203, semibasic=True)
    for beta in betas:
        xz = sharp(F, beta)(z)
        row = beta.array(z)
        for b in range(n2):
            ins = sum(xz[a] * m[a][b] for a in range(n2))
            devs.append(ins - row[b])
    return Outcome(sup_abs(devs))


def _chk04_potential_lemma(F, ctx):
    z = grid_coords(ctx.grid)
    s0z = canonical_spray(F)(z)
    return Outcome(sup_abs(field_apply(sharp(F, beta), F.E)(z) - beta(z, s0z)
                           for beta in random_one_forms(F.n, 5, ctx.seed + 104, semibasic=True)))


def _chk05_berwald(F, ctx):
    h0 = berwald_connection(F)
    return Outcome(sup_abs([vector_form2_residual(weak_torsion(F, h0), ctx.grid),
                            vector_form1_residual(tension(F, h0), ctx.grid),
                            conservative_connection_residual(F, h0, ctx.grid)]))


def _wagner_minus_h0(F):
    """L = hbar - h0 for f = x1, the conservative form of CHK-06 and CHK-09."""
    return kept_on(F, "wagner_minus_h0", (),
                   lambda: build_connection(F, "wagner:x1") - berwald_connection(F))


def _chk06_conservative_form(F, ctx):
    L = _wagner_minus_h0(F)
    residuals = [conservative_form_residual(F, L, ctx.grid)]
    hL = l_ehresmann_connection(F, L)
    translated = berwald_connection(F) + L
    residuals.append(form_matrix_residual(hL, translated, ctx.grid))
    return Outcome(sup_abs(residuals))


def _chk07_biconditional(F, ctx):
    n = F.n
    J = vertical_endomorphism(n)
    f_v = vertical_lift_function(base_function("x1", n))
    fixtures = [
        ("zero", zero_vector_form(n)),
        ("wagner", build_form(F, "wagner-form:x1")),
        ("fvJ", build_form(F, "fvJ:x1")),
        ("jv:E-dy1", build_form(F, "jv:E-dy1")),
        ("corollary", J.scale(f_v / (2.0 * F.E))),
    ]
    s0 = canonical_spray(F)
    residuals, notes = [], []
    tol = TOL_THEOREM
    for name, L in fixtures:
        hL = l_ehresmann_connection(F, L)
        a = conservative_connection_residual(F, hL, ctx.grid)
        pot = insert_vector(s0, L)
        b = vertical_lift_test(F, field_apply(pot, F.E), ctx.grid)
        small_a, small_b = a < tol, b < tol
        if small_a != small_b:
            residuals += (a, b)
            notes.append(f"{name}: sides disagree (dhE={a:.2e}, dJ(L°E)={b:.2e})")
        elif small_a:
            residuals += (a, b)
        elif not (a >= NONCONSERVATIVE_MARGIN and b >= NONCONSERVATIVE_MARGIN):
            # also taken when a side is NaN, so that the NaN reaches the record
            residuals += (a, b)
            notes.append(f"{name}: ambiguous nonconservative sides")
    return Outcome(sup_abs(residuals), "; ".join(notes) if notes else None)


def _chk08_wagner(F, ctx):
    hbar, L_W = build_connection(F, "wagner:x1"), build_form(F, "wagner-form:x1")
    residuals = [conservative_connection_residual(F, hbar, ctx.grid)]
    residuals.append(form_matrix_residual(hbar, l_ehresmann_connection(F, L_W), ctx.grid))
    pot = potential(L_W, canonical_spray(F), points=ctx.grid)
    residuals.append(vector_field_residual(pot, ctx.grid))
    return Outcome(sup_abs(residuals))


def _chk09_conformal(F, ctx):
    f = base_function("x1", F.n)
    F2 = conformal_change(F, f)
    L = _wagner_minus_h0(F)
    residuals = [conservative_form_residual(F, L, ctx.grid),
                 conservative_form_residual(F2, L, ctx.grid)]
    # the scaling identity d_L E~ = phi d_L E behind the invariance
    dle = d_K(L, F.E)
    dle2 = d_K(L, F2.E)
    phi = vertical_lift_function(f)
    n2 = 2 * F.n
    z = grid_coords(ctx.grid)
    s = jets.exp(phi(z))
    residuals += (x2 - s * x for x2, x in zip(dle2.array(z), dle.array(z)))
    # conservative L-Ehresmann connections stay conservative after the change
    hL2 = l_ehresmann_connection(F2, L)
    residuals.append(conservative_connection_residual(F2, hL2, ctx.grid))
    return Outcome(sup_abs(residuals))


def _chk10_conservative_lift(F, ctx):
    n = F.n
    xv = build_field(F, "vlift:1")
    U = conservative_lift(F, xv)
    residuals = [vincze_residual(F, U, ctx.grid)]

    def w_field(z):
        e = F.E(z)
        c = (jets.sqrt(e) - z[0]) / (2.0 * e)
        return [0.0] * n + [c * z[n + i] for i in range(n)]

    U2 = conservative_lift(F, VectorField(w_field, n, "w/(2E).C"))
    residuals.append(vincze_residual(F, U2, ctx.grid))

    try:
        conservative_lift(F, build_field(F, "E-dy1"))
        return Outcome(float("inf"), "expected HypothesisFailure was not raised for E-dy1")
    except HypothesisFailure as e:
        note = f"HypothesisFailure (expected) for E-dy1: residual {e.residual:.3e}"
    return Outcome(sup_abs(residuals), note)


def _chk11_theta_commutator(F, ctx):
    C = liouville_field(F.n)
    residuals = []
    for L in (build_form(F, fid) for fid in ("wagner-form:x1", "fvJ:x1", "jv:E-dy1")):
        lhs = fn_bracket(C, theta_operator(F, L))
        rhs = theta_operator(F, fn_bracket(C, L))
        residuals.append(form_matrix_residual(lhs, rhs, ctx.grid))
    return Outcome(sup_abs(residuals))


def _chk12_vertical_correspondence(F, ctx):
    n = F.n
    J = vertical_endomorphism(n)
    xv = build_field(F, "vlift:1")
    residuals = []
    for L in (zero_vector_form(n), build_form(F, "jv:E-dy1")):
        V = v_from_torsion_free(F, L)
        residuals += (vertical_residual(V, ctx.grid),
                      form_matrix_residual(fn_bracket(J, V), L, ctx.grid),
                      form_matrix_residual(fn_bracket(J, V + xv), L, ctx.grid))
    return Outcome(sup_abs(residuals))


def _chk13_homogeneous_reconstruction(F, ctx):
    J = vertical_endomorphism(F.n)
    V0, L = build_field(F, "E-dy1"), build_form(F, "jv:E-dy1")
    V = v_from_homogeneous(F, L, r=1.0)
    residual = sup_abs([form_matrix_residual(fn_bracket(J, V), L, ctx.grid),
                        vector_field_residual(V - V0, ctx.grid)])
    try:
        v_from_homogeneous(F, L, r=-1.0)
        return Outcome(float("inf"), "expected DegenerateDegree was not raised")
    except DegenerateDegree:
        if residual < ctx.tol:
            return Outcome(residual, "DegenerateDegree (expected) for r=-1")
        return Outcome(residual, "reconstruction residual failed for r=1 "
                                 "(DegenerateDegree raised as expected for r=-1)")


def _chk14_homogeneity_lemma(F, ctx):
    n = F.n
    J = vertical_endomorphism(n)
    half_y1_C, e_dy1, L = (build_field(F, "half-y1-C"), build_field(F, "E-dy1"),
                           build_form(F, "jv:E-dy1"))
    residuals = [
        vector_form1_residual(tension(F, l_ehresmann_connection(F, L)), ctx.grid),
        homogeneity_residual(semispray_from_vertical(F, e_dy1), 2.0, ctx.grid),
        vector_form1_residual(
            tension(F, l_ehresmann_connection(F, fn_bracket(J, half_y1_C))), ctx.grid),
        homogeneity_residual(semispray_from_vertical(F, half_y1_C), 2.0, ctx.grid),
    ]
    return Outcome(sup_abs(residuals))


def _chk15_dh_omega(F, ctx):
    h0 = berwald_connection(F)
    hL = l_ehresmann_connection(F, build_form(F, "jv:E-dy1"))
    return Outcome(sup_abs([dh_omega_residual(F, h0, ctx.grid),
                            dh_omega_residual(F, hL, ctx.grid)]))


def _chk16_spray_family(F, ctx):
    n = F.n
    h1 = connection_from_semispray(F, semispray_from_vertical(F, build_field(F, "E-dy1")))
    h2 = l_ehresmann_connection(F, build_form(F, "jv:E-dy1"))
    residuals = [form_matrix_residual(h1, h2, ctx.grid)]
    # projective factor on a verified related pair: V = sqrt(E) C / 2, U = 0
    V = build_field(F, "half-sqrtE-C")
    U = VectorField(lambda z: [0.0] * (2 * n), n, "0")
    lam, residual = projective_factor(F, V, U)
    residuals.append(residual)
    z = grid_coords(ctx.grid)
    residuals.append(jets.directional(lam.fn, z, liouville_field(n)(z)) - lam(z))
    return Outcome(sup_abs(residuals))


CHECKS = (
    CheckSpec("CHK-01", "energy axioms: positivity, 2-homogeneity, positive-definite metric",
              TOL_CONSTRUCTION, _chk01_axioms),
    CheckSpec("CHK-02", "fundamental form relations: i_J w = 0, i_C w = d_J E, L_C w = w",
              TOL_THEOREM, _chk02_omega_relations),
    CheckSpec("CHK-03", "sharp operator round trip on random 1-forms",
              TOL_CONSTRUCTION, _chk03_sharp_round_trip),
    CheckSpec("CHK-04", "potential lemma: (sharp b) E = b(S0) for semibasic b",
              TOL_THEOREM, _chk04_potential_lemma),
    CheckSpec("CHK-05", "Berwald connection: zero torsion, zero tension, d_h E = 0",
              TOL_THEOREM, _chk05_berwald),
    CheckSpec("CHK-06", "conservative form: h_L collapses to h0 + L",
              TOL_THEOREM, _chk06_conservative_form),
    CheckSpec("CHK-07", "biconditional: h_L conservative iff L°E is a vertical lift",
              TOL_THEOREM, _chk07_biconditional),
    CheckSpec("CHK-08", "Wagner connection conservative and equal to its L-form deformation",
              TOL_THEOREM, _chk08_wagner),
    CheckSpec("CHK-09", "conformal change preserves form and connection conservativity",
              TOL_THEOREM, _chk09_conformal),
    CheckSpec("CHK-10", "conservative lift U = V + (d_[J,V]E)# incl. hypothesis-failure branch",
              TOL_THEOREM, _chk10_conservative_lift),
    CheckSpec("CHK-11", "Liouville commutator of the Theta operator",
              TOL_THEOREM, _chk11_theta_commutator),
    CheckSpec("CHK-12", "torsion-free forms come from vertical fields (V_L round trip)",
              TOL_THEOREM, _chk12_vertical_correspondence),
    CheckSpec("CHK-13", "homogeneous reconstruction V = L°/(r+1) and degenerate degree",
              TOL_THEOREM, _chk13_homogeneous_reconstruction),
    CheckSpec("CHK-14", "2-homogeneous V: homogeneous connection and spray S^V",
              TOL_THEOREM, _chk14_homogeneity_lemma),
    CheckSpec("CHK-15", "d_h omega vanishes for torsion-free deformations",
              TOL_THIRD_ORDER, _chk15_dh_omega),
    CheckSpec("CHK-16", "S^V generates the [J,V]-connection; projective factor formula",
              TOL_THEOREM, _chk16_spray_family),
)

CHECK_IDS = tuple(c.id for c in CHECKS)


def list_checks(only=None):
    """Check summaries in stable id order, those named in ``only`` if given.

    A given ``only`` that names no check, or an id in it that names no check,
    raises ``BadConfig``: a filter that drops it would answer with a shorter
    list, or none, as if the selection were known.
    """
    specs = sorted(CHECKS, key=lambda c: c.id)
    if only is None:
        return specs
    if not only:
        raise BadConfig("the configuration selects no check")
    unknown = [c for c in only if c not in CHECK_IDS]
    if unknown:
        raise BadConfig(f"unknown check ids {unknown}")
    wanted = set(only)
    return [c for c in specs if c.id in wanted]


def run_checks(config) -> tuple:
    """Run the configured (check, fixture) cells; returns (results, exit_code).

    A configuration that selects no cell, names an unknown check or fixture,
    or asks for fewer than one sample raises ``BadConfig``: an empty run
    would pass vacuously.  Per-cell errors are captured in the result record,
    never aborting the suite; the exit code is 0 exactly when every cell
    passed.  The sample grid is one ``core.PointBatch``, which every cell
    evaluates as one batch point, and the fixtures are validated on it: each
    runner and residual helper takes the grid's coordinates from
    ``core.grid_coords``, the batch's own arrays, and evaluates once.
    The cells of a fixture read the operands they share through
    ``registry.build_*`` and ``_wagner_minus_h0``, which keep each on the
    structure; a build that raises keeps nothing, so every cell that reads
    it records the same error.
    """
    if config.samples < 1:
        raise BadConfig("samples must be >= 1")
    specs = list_checks(config.checks)
    unknown = [f for f in config.fixtures if f not in fixture_ids()]
    if unknown:
        raise BadConfig(f"unknown fixture ids {unknown}")
    cells = [(spec, fid) for spec in specs for fid in config.fixtures]
    if not cells:
        raise BadConfig("the configuration selects no (check, fixture) cell")
    grid = sample_slit_points(2, config.samples, config.seed)
    structures = {}
    build_errors = {}
    for fid in config.fixtures:
        try:
            structures[fid] = finsler_fixture(fid, grid)
        except FinslerLabError as e:
            build_errors[fid] = f"{type(e).__name__}: {e}"

    results = []
    for spec, fid in cells:
        tol = config.tolerances.get(spec.id, spec.tolerance)
        if fid in build_errors:
            results.append(CheckResult(spec.id, fid, config.samples, float("inf"),
                                       tol, False, build_errors[fid]))
            continue
        ctx = CheckContext(grid=grid, seed=config.seed, tol=tol)
        try:
            outcome = spec.runner(structures[fid], ctx)
            residual, note = float(outcome.max_residual), outcome.note
        except FinslerLabError as e:
            residual, note = float("inf"), f"{type(e).__name__}: {e}"
        results.append(CheckResult(spec.id, fid, config.samples, residual,
                                   tol, bool(residual < tol), note))
    results.sort(key=lambda r: (r.id, r.fixture))
    exit_code = 0 if all(r.passed for r in results) else 1
    return results, exit_code
