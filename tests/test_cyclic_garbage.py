"""No cyclic garbage: a construction holds its operands' evaluators, not the operands.

An operand keeps its constructions (``memo.kept_on``), and a construction
holds plain callables: a field's ``at`` or ``fn``, a vector form's
``matrix``, a structure's ``shared_omega_at``.  So the object graph is
acyclic, and reference counting frees every construction with its operand.
With the collector off, each run below leaves nothing for it
(``helpers.cyclic_garbage``): a default check (5,318 objects when the kept
constructions held their operands), CHK-09 on its conformal structures,
every registry id evaluated as CI's ``eval`` step evaluates it, and a
fresh-structure pass of the point-query workload at n = 2 and of the
third-order workload at n = 3.
"""

import pytest

from finslerlab.calculus import fn_bracket, vertical_endomorphism
from finslerlab.checks import random_one_forms, run_checks
from finslerlab.config import RunConfig
from finslerlab.connections import (
    dh_omega_residual, l_ehresmann_connection, vector_form2_residual, weak_torsion,
)
from finslerlab.core import grid_coords, point, sample_slit_points
from finslerlab.finsler import (
    berwald_connection, canonical_spray, finsler_fixture, fixture_ids, sharp,
)
from finslerlab.registry import build_field, build_object

from helpers import REGISTRY_IDS, cyclic_garbage


def test_a_default_check_leaves_no_cyclic_garbage():
    run_checks(RunConfig())  # warm, as a second check in one process is
    assert cyclic_garbage(lambda: run_checks(RunConfig())) == 0


def test_chk09_on_its_conformal_structures_leaves_no_cyclic_garbage():
    # CHK-09's h_L of hbar - h0 on the conformal change of F is kept on that
    # form, which is kept on F (1,451 objects when phi held F)
    run_checks(RunConfig(checks=["CHK-09"]))
    assert cyclic_garbage(lambda: run_checks(RunConfig(checks=["CHK-09"]))) == 0


@pytest.mark.parametrize("oid", REGISTRY_IDS)
def test_the_eval_objects_leave_no_cyclic_garbage(oid):
    # what `finslerlab eval --fixture randers-0.3 --point 0.1,0.2,0.7,-0.4`
    # builds and reads, through the registry: argparse leaves cycles of its own
    def evaluate():
        F = finsler_fixture("randers-0.3", sample_slit_points(2, 32, 42))
        kind, obj = build_object(F, oid)
        z = grid_coords([point(0.1, 0.2, 0.7, -0.4)])
        obj(z) if kind == "field" else obj.matrix(z)

    assert cyclic_garbage(evaluate) == 0


def test_a_point_query_pass_at_n2_leaves_no_cyclic_garbage():
    # S0, the Berwald matrix and one sharp of fresh structures at fresh points
    grid = sample_slit_points(2, 32, seed=31)

    def queries():
        for fid in fixture_ids():
            F = finsler_fixture(fid, grid)
            beta = random_one_forms(2, 1, seed=31)[0]
            spray, h0, x = canonical_spray(F), berwald_connection(F), sharp(F, beta)
            for p in sample_slit_points(2, 4, seed=32):
                z = p.coords()
                spray(z), h0.matrix(z), x(z)

    assert cyclic_garbage(queries) == 0


def test_a_third_order_pass_at_n3_leaves_no_cyclic_garbage():
    # d_h omega of h0 and of h_L for L = [J, E-dy1], and [J, h0], of fresh
    # structures at a fresh point
    grid = sample_slit_points(3, 4, seed=31)
    J = vertical_endomorphism(3)

    def third_order():
        p = [point(0.1, -0.2, 0.3, 0.7, 0.4, -0.5)]
        for fid in fixture_ids():
            F = finsler_fixture(fid, grid, n=3)
            h0 = berwald_connection(F)
            hL = l_ehresmann_connection(F, fn_bracket(J, build_field(F, "E-dy1")))
            dh_omega_residual(F, h0, p), dh_omega_residual(F, hL, p)
            vector_form2_residual(weak_torsion(F, h0), p)

    assert cyclic_garbage(third_order) == 0
