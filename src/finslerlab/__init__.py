"""Tangent-bundle calculus with exact jet derivatives and a Finsler connection lab.

The package provides three layers:

* a differentiation substrate (nested first-order jets, slit-bundle points,
  reproducible sampling);
* a Frolicher-Nijenhuis toolbox (lifts, brackets, insertions, derivations)
  and the Finsler objects built from an energy function (fundamental form,
  sharp operator, canonical spray, Berwald and Wagner connections, the
  h_L deformation family, spray families from vertical fields), where a
  connection is its vector 1-form, a ``VectorForm``;
* a check registry that certifies each structural identity as a sup-norm
  residual over sampled points, runnable from the ``finslerlab`` CLI.
"""

from .core import (
    BaseFunction, PointBatch, ScalarField, TangentPoint, directional_derivative,
    evaluate, point, sample_slit_points,
)
from .calculus import (
    DifferentialForm, VectorField, VectorForm, complete_lift_function, d_K,
    d_function, exterior_derivative, field_apply, fn_bracket, frame_vector,
    homogeneity_residual, identity_form, insert_one_form, insert_vector,
    lie_bracket, lie_derivative, liouville_field, potential, semibasic_residual,
    vertical_endomorphism, vertical_lift_function, vertical_lift_vector,
)
from .finsler import (
    FinslerStructure, FundamentalForm, berwald_connection, canonical_spray,
    conformal_change, conservative_connection_residual, conservative_form_residual,
    finsler_fixture, fixture_energy, fixture_ids, fundamental_form, gradient,
    sharp, validate_finsler,
)
from .connections import (
    associated_semispray, connection_from_semispray, conservative_lift,
    dh_omega_residual, l_ehresmann_connection, projective_factor,
    semispray_from_vertical, tension, theta_operator, torsion_free_residual,
    v_from_homogeneous, v_from_torsion_free, vertical_lift_test, vincze_residual,
    wagner_connection, weak_torsion,
)
from .checks import CheckResult, CheckSpec, list_checks, run_checks
from .config import RunConfig, parse_config

__version__ = "0.1.0"
