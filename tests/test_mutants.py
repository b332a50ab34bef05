"""Mutation tests: a deliberately broken library must fail the checks.

Each mutant is the library's own source with one expression replaced,
compiled and monkeypatched in; it must push at least one cell of each check
it targets over tolerance in ``finslerlab check --seed 7 --samples 4``, or,
for a mutant that every fixture is blind to, the same cells on the Funk
metric (``energies.cells``).  A check that passes for a wrong formula
would pass for a right one just as well, so this is what gives its
residuals meaning.  Only the targeted checks run, to keep the file fast.  A mutant of a function that other modules
import by name names every module whose alias it must replace.
"""

import inspect
import json
import textwrap

import pytest

from finslerlab import calculus, checks, connections, finsler, jets, registry
from finslerlab.cli import main
from finslerlab.core import sample_slit_points
from finslerlab.finsler import fixture_ids
import energies
from test_headroom import above_headroom, cells


def mutant(func, old, new):
    """``func`` recompiled from its source with ``old`` replaced by ``new``.

    ``old`` must occur exactly once, so a mutant cannot silently become the
    original when the source changes.
    """
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, f"{old!r} not found once in {func.__qualname__}"
    namespace = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, namespace)
    return namespace[func.__name__]


NEGATED_SHARP = ("xh + solve(rhs)", "[-v for v in xh + solve(rhs)]")

# (name, owner or tuple of owners, attribute, old, new, targeted checks)
MUTANTS = [
    ("drop D_Y K", calculus, "_bracket_1_0",
     "_sub(dy_k[b][a], d_y_k[a][b])", "dy_k[b][a]", ["CHK-05", "CHK-13", "CHK-14"]),
    ("flip the sign of D_Y K", calculus, "_bracket_1_0",
     "_sub(dy_k[b][a], d_y_k[a][b])", "_add(dy_k[b][a], d_y_k[a][b])",
     ["CHK-05", "CHK-13", "CHK-14"]),
    ("drop K.DY", calculus, "_bracket_1_0",
     "_sub(_sub(dy_k[b][a], d_y_k[a][b]), k_dy[a][b])", "_sub(dy_k[b][a], d_y_k[a][b])",
     [f"CHK-{i:02d}" for i in range(5, 12)]),
    ("contract rows instead of columns in K(z, v)", calculus.VectorForm, "__call__",
     "list(zip(*m))", "m", ["CHK-02", "CHK-06", "CHK-07", "CHK-08"]),
    # what solving with omega in place of omega^T gives, as omega^T = -omega
    ("negate the result of the sharp solve", finsler, "_sharp_block_solve",
     *NEGATED_SHARP, ["CHK-03"] + [f"CHK-{i:02d}" for i in range(5, 17)]),
    # the block solve never reads the upper right block, so sharp is unchanged and
    # only the checks that read omega itself see it
    ("a symmetric omega: +g in its upper right block", finsler, "omega_and_dE",
     "m[i][n + j] = -g", "m[i][n + j] = g", ["CHK-03", "CHK-15"]),
    ("S0 = +(dE)#", checks, "canonical_spray",
     "-1.0 * dE", "1.0 * dE", ["CHK-04"]),
    ("a horizontal Liouville field", finsler, "liouville_field",
     "[0.0] * n + list(z[n:])", "list(z[n:]) + [0.0] * n", ["CHK-01"]),
    ("the metric from the mixed x-y Hessian", finsler, "omega_and_dE",
     "outer = (0.0,) * n + jets.vec_frame(n)", "outer = jets.vec_frame(n) + (0.0,) * n",
     ["CHK-01"]),
    # validation reads its g where the sharp solve does; -g, omega's upper right
    # block, has negative leading minors
    ("the metric from omega's upper right block", finsler.FinslerStructure, "metric_at",
     "[row[:n] for row in self.omega_matrix_at(z)[n:]]",
     "[row[n:] for row in self.omega_matrix_at(z)[:n]]", ["CHK-01"]),
    # the first structure's Wagner pair serves every structure: it is kept on
    # one holder, the mutant function itself, which the test drops.  The cells
    # whose identity ties the pair to the structure's own h0 or omega fail;
    # the h_L of L_W is built for the structure that asks (it is kept on the
    # form per structure), so CHK-07 and CHK-11, which read only such h_L, hold
    ("serve the first structure's Wagner pair to every structure", registry, "_wagner",
     "kept_on(F, ", 'kept_on(vars(_wagner).setdefault("holder", type("H", (), {"_built": None})), ',
     ["CHK-06", "CHK-08", "CHK-09"]),
    # d_L E = dE o L, whose value on e_b contracts dE with column b of L's matrix:
    # row b in its place (m[b][a]), or -dE, is another 1-form, and (d_L E)# drives
    # every h_L, S^V and conservative lift.  -dE keeps the homogeneity of Theta_L
    # and cancels in the V_L round trip, so CHK-11, 12 and 14 are blind to it, and
    # CHK-06 measures a conservative L, for which d_L E = 0
    ("d_L E from the rows of L's matrix, m[b][a]", connections, "sharp_of_dLE",
     "l_matrix(z)", "[list(c) for c in zip(*l_matrix(z))]",
     ["CHK-07", "CHK-08", "CHK-09", "CHK-10", "CHK-11", "CHK-12", "CHK-14", "CHK-15",
      "CHK-16"]),
    ("d_L E from -dE", connections, "sharp_of_dLE",
     "jets.slots(dE, n2)", "jets.slots(-1.0 * dE, n2)",
     ["CHK-07", "CHK-08", "CHK-10", "CHK-15", "CHK-16"]),
    # h^2 + h in place of h^2 - h: every connection's projector laws fail, both
    # where a construction validates it and where d_h E is measured (both read
    # it through finsler.kept_projector_residual)
    ("h^2 + h in the stacked projector residual", finsler,
     "projector_residual", "(hh - m)", "(hh + m)",
     ["CHK-05", "CHK-06", "CHK-07", "CHK-08", "CHK-09", "CHK-10", "CHK-11", "CHK-12",
      "CHK-14", "CHK-15", "CHK-16"]),
]


def patch(monkeypatch, owner, attr, old, new):
    owners = owner if isinstance(owner, tuple) else (owner,)
    replacement = mutant(getattr(owners[0], attr), old, new)
    for o in owners:
        monkeypatch.setattr(o, attr, replacement)


@pytest.mark.parametrize("name, owner, attr, old, new, checks", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_mutant_fails_every_targeted_check(name, owner, attr, old, new, checks,
                                           monkeypatch, capsys):
    patch(monkeypatch, owner, attr, old, new)
    code = main(["check", "--seed", "7", "--samples", "4", "--only", ",".join(checks)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failing = {r["check"] for r in records if r["pass"] is not True}
    assert code != 0
    assert failing == set(checks), f"{name}: {sorted(set(checks) - failing)} still pass"


# Mutants that every fixture is blind to, run on the Funk metric (tests/energies.py)
# through the same runners.  Every fixture is independent of x^2, so A_01 = E_{x^1 y^2}
# - E_{x^2 y^1} has one nonzero term there and its sign flip passes all 48 cells.
FUNK_MUTANTS = [
    ("the skew block A as h[i][j] + h[j][i]", finsler, "omega_and_dE",
     "a = h[i][j] - h[j][i]", "a = h[i][j] + h[j][i]",
     ["CHK-05", "CHK-07", "CHK-08", "CHK-09", "CHK-10", "CHK-15"]),
]


@pytest.mark.parametrize("name, owner, attr, old, new, checks", FUNK_MUTANTS,
                         ids=[m[0] for m in FUNK_MUTANTS])
def test_mutant_fails_every_targeted_check_on_funk(name, owner, attr, old, new, checks,
                                                   monkeypatch):
    patch(monkeypatch, owner, attr, old, new)
    grid = sample_slit_points(2, 4, 7)
    funk_cells = energies.cells(energies.structure("funk", grid), grid, 7, checks)
    assert [c for c, *_ in funk_cells] == checks
    still_pass = [c for c, _, _, passed in funk_cells if passed]
    assert not still_pass, f"{name}: {still_pass} still pass"


# Mutants that every tolerance misses and only the precision sentinel
# (tests/test_headroom.py) catches: a relative error of 1e-11 in omega's g
# blocks moves the worst default cell to about 1e-9, below every tolerance.
HEADROOM_MUTANTS = [
    ("omega's g blocks scaled by 1 + 1e-11", finsler, "omega_and_dE",
     "g = h[n + i][j] if i <= j else h[n + j][i]",
     "g = (h[n + i][j] if i <= j else h[n + j][i]) * (1.0 + 1e-11)"),
]


@pytest.mark.parametrize("name, owner, attr, old, new", HEADROOM_MUTANTS,
                         ids=[m[0] for m in HEADROOM_MUTANTS])
def test_mutant_below_every_tolerance_is_caught_by_the_headroom(name, owner, attr, old, new,
                                                                monkeypatch):
    patch(monkeypatch, owner, attr, old, new)
    cell_list = cells(7)
    assert all(passed for _, _, passed in cell_list)
    assert above_headroom(cell_list), f"{name}: every cell still reads below the headroom"


def test_every_check_is_targeted_by_a_mutant():
    targeted = set().union(*(m[-1] for m in MUTANTS))
    assert set(checks.CHECK_IDS) <= targeted, sorted(set(checks.CHECK_IDS) - targeted)


def run_under(monkeypatch, capsys, owner, attr, old, new, checks_run):
    patch(monkeypatch, owner, attr, old, new)
    main(["check", "--seed", "7", "--samples", "4", "--only", ",".join(checks_run)])
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_chk04_is_blind_to_a_global_sign_of_sharp(monkeypatch, capsys):
    """(b#)E = b(S0) with S0 = -(dE)# holds for any skew map in place of
    omega's inverse, so a sign (or scale) error common to every sharp cancels
    between its sides; CHK-03 is the check that catches it."""
    records = run_under(monkeypatch, capsys, finsler, "_sharp_block_solve",
                        *NEGATED_SHARP, ["CHK-03", "CHK-04"])
    assert {r["check"] for r in records if r["pass"] is not True} == {"CHK-03"}


def test_chk13_failing_reconstruction_is_not_noted_as_expected(monkeypatch, capsys):
    records = run_under(monkeypatch, capsys, calculus.VectorForm, "__call__",
                        "list(zip(*m))", "m", ["CHK-13"])
    failing = [r for r in records if r["pass"] is not True]
    assert failing
    for r in failing:
        assert r["error"].startswith("reconstruction residual failed")
        assert r["max_residual"] >= r["tolerance"]
    for r in records:
        if r["pass"] is True:
            assert r["error"] == "DegenerateDegree (expected) for r=-1"


def test_a_square_with_one_term_of_its_product_rule_fails_every_fixture(monkeypatch, capsys):
    """A square's tangent slot ``p`` in place of ``p + p`` halves every
    derivative of a square.  Every fixture energy squares its fiber
    coordinates, so checks that compare E's value with its derivatives fail
    on every fixture; on randers-0.3, whose energy also squares its norm, the
    other checks but CHK-01 and CHK-03 fail too."""
    every_fixture = ["CHK-04", "CHK-09", "CHK-10", "CHK-13", "CHK-16"]
    records = run_under(monkeypatch, capsys, jets.Jet, "_square",
                        "out.append(p + p)", "out.append(p)", every_fixture)
    failing = {(r["check"], r["fixture"]) for r in records if r["pass"] is not True}
    assert failing == {(c, f) for c in every_fixture for f in fixture_ids()}
