"""The hypothesis pre-checks: one gate (``calculus.precheck``), one tolerance.

A construction or predicate measures each hypothesis as a residual and passes
it to the gate with the typed error to raise.  A NaN residual must raise, as
a residual above ``PRECHECK_TOL`` does: ``r > tol`` is False for a NaN, so a
hand-written comparison would let a NaN hypothesis through.
"""

import ast
import math
from pathlib import Path

import pytest

from finslerlab import calculus, connections
from finslerlab.calculus import (
    PRECHECK_TOL, VectorField, VectorForm, constant_vector_form, potential, precheck,
    vertical_endomorphism,
)
from finslerlab.connections import (
    conservative_lift, connection_from_semispray, l_ehresmann_connection,
    projective_factor, semispray_from_vertical, theta_operator, torsion_free_residual,
    v_from_torsion_free, vincze_residual,
)
from finslerlab.core import sample_slit_points
from finslerlab.errors import (
    HomogeneityFailure, HypothesisFailure, NotConnection, NotSemibasic, NotSemispray,
    NotTorsionFree, NotVertical,
)
from finslerlab.finsler import (
    berwald_connection, canonical_spray, conservative_connection_residual,
    conservative_form_residual, finsler_fixture,
)

N = 2
GRID = sample_slit_points(N, 8, seed=9)
EUC = finsler_fixture("euclidean", GRID)
ZERO = VectorField(lambda z: [0.0] * 4, N, "0")


class Marker(Exception):
    pass


@pytest.mark.parametrize("residual, raises", [
    (0.0, False), (PRECHECK_TOL, False), (-0.0, False),
    (2 * PRECHECK_TOL, True), (math.inf, True), (math.nan, True),
])
def test_precheck_raises_unless_residual_within_tolerance(residual, raises):
    if raises:
        with pytest.raises(Marker):
            precheck(residual, Marker("hypothesis fails"))
    else:
        precheck(residual, Marker("hypothesis fails"))


def nan_entry_form(a, b):
    """A constant vector 1-form, zero but for a NaN at entry (a, b)."""
    m = [[0.0] * 4 for _ in range(4)]
    m[a][b] = math.nan
    return constant_vector_form(m, N, f"nan{a}{b}")


def spray_plus(k, f):
    """S0 with f(z) added to component k."""
    s0 = canonical_spray(EUC)
    return VectorField(lambda z: [v + f(z) if i == k else v for i, v in enumerate(s0(z))],
                       N, f"S0+nan@{k}")


L_NAN = nan_entry_form(0, 2)          # not semibasic: a horizontal output of d/dy1
V_NAN_HORIZONTAL = VectorField(lambda z: [math.nan * z[0], 0.0, 0.0, 0.0], N, "nan.dx1")
V_NAN_VERTICAL = VectorField(lambda z: [0.0, 0.0, math.nan * z[2], 0.0], N, "nan.dy1")
# semibasic (its only entry maps d/dx1 to d/dy1), but [J, L] is NaN
L_NAN_SEMIBASIC = VectorForm(
    1, lambda z: [[0.0] * 4, [0.0] * 4, [math.nan * z[2], 0.0, 0.0, 0.0], [0.0] * 4], N,
    "nan.y1.dx1(x)dy1")


NAN_CASES = {
    "theta-semibasic": (NotSemibasic, lambda: theta_operator(EUC, L_NAN)),
    "h_L-semibasic": (NotSemibasic, lambda: l_ehresmann_connection(EUC, L_NAN)),
    "conservative-form-semibasic": (NotSemibasic, lambda: conservative_form_residual(EUC, L_NAN)),
    "torsion-free-semibasic": (NotSemibasic, lambda: torsion_free_residual(EUC, L_NAN)),
    "potential-semibasic": (NotSemibasic,
                            lambda: potential(L_NAN, canonical_spray(EUC), GRID)),
    "conservative-connection-projector": (NotConnection, lambda: conservative_connection_residual(
        EUC, berwald_connection(EUC) + L_NAN)),
    "from-semispray-projector": (NotConnection, lambda: connection_from_semispray(
        EUC, spray_plus(2, lambda z: math.nan * z[2]))),
    "from-semispray-semispray": (NotSemispray, lambda: connection_from_semispray(
        EUC, spray_plus(0, lambda z: math.nan))),
    "potential-semispray": (NotSemispray, lambda: potential(
        vertical_endomorphism(N), spray_plus(0, lambda z: math.nan), GRID)),
    "spray-family-vertical": (NotVertical, lambda: semispray_from_vertical(EUC, V_NAN_HORIZONTAL)),
    "vincze-vertical": (NotVertical, lambda: vincze_residual(EUC, V_NAN_HORIZONTAL)),
    "lift-vertical": (NotVertical, lambda: conservative_lift(EUC, V_NAN_HORIZONTAL)),
    "projective-vertical": (NotVertical,
                            lambda: projective_factor(EUC, V_NAN_HORIZONTAL, ZERO)),
    "projective-homogeneous": (HomogeneityFailure,
                               lambda: projective_factor(EUC, V_NAN_VERTICAL, ZERO)),
    "v-from-torsion-free": (NotTorsionFree, lambda: v_from_torsion_free(EUC, L_NAN_SEMIBASIC)),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_a_nan_hypothesis_residual_raises_its_typed_error(case):
    error, build = NAN_CASES[case]
    with pytest.raises(error):
        build()


def test_a_nan_conservativity_residual_raises_hypothesis_failure(monkeypatch):
    # the [J,V]-connection of V = 0 is h0; a NaN residual for it must not pass
    monkeypatch.setattr(connections, "conservative_connection_residual",
                        lambda *args: math.nan)
    with pytest.raises(HypothesisFailure) as err:
        conservative_lift(EUC, ZERO)
    assert math.isnan(err.value.residual)


def test_the_nan_cases_keep_their_residual_in_the_message():
    with pytest.raises(NotSemibasic, match=r"residual nan"):
        theta_operator(EUC, L_NAN)
    with pytest.raises(NotConnection, match=r"residual nan"):
        conservative_connection_residual(EUC, berwald_connection(EUC) + L_NAN)
    with pytest.raises(HomogeneityFailure) as err:
        projective_factor(EUC, V_NAN_VERTICAL, ZERO)
    assert math.isnan(err.value.value)


def _package_modules():
    package = Path(calculus.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_precheck_tol_is_the_only_precheck_tolerance():
    # finsler.VALIDATION_TOL is the energy axioms' tolerance (relative to
    # max(1, |E|)), a validation of the structure rather than a hypothesis
    constants = sorted(
        f"{module}.{target.id}"
        for module, tree in _package_modules()
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_TOL"))
    assert constants == ["calculus.PRECHECK_TOL", "finsler.VALIDATION_TOL"]


def test_precheck_tol_is_compared_only_inside_the_gate():
    offenders = []
    for module, tree in _package_modules():
        gates = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "precheck"]
        inside = {id(n) for gate in gates for n in ast.walk(gate)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in inside and any(
                    getattr(n, "id", getattr(n, "attr", None)) == "PRECHECK_TOL"
                    for n in ast.walk(node)):
                offenders.append(f"{module}.py:{node.lineno}")
    assert offenders == []
    assert [m for m, tree in _package_modules() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "precheck"] == ["calculus"]
