"""The objects the cells of one fixture share for a run.

The registry keeps each object on its structure, and the library each
construction on its operand (``memo.kept_on``), so an id names one object
per structure and a construction body runs once per (structure, operand).
Sharing must change no record: a cell run alone gives the record it has in
the full run, and a build that raises is retried by every cell that reads
it, so each records the error.  A kept object lives no longer than its
holder, so a run leaves nothing alive.
"""

import functools
import json
import math
import weakref
from collections import Counter

import pytest

from finslerlab import calculus, checks, connections, finsler, memo, registry
from finslerlab.checks import CHECK_IDS, run_checks
from finslerlab.config import RunConfig
from finslerlab.connections import (
    l_ehresmann_connection, semispray_from_vertical, sharp_of_dLE, theta_operator,
)
from finslerlab.core import PointBatch, sample_slit_points
from finslerlab.errors import NotConnection
from finslerlab.finsler import conformal_change, finsler_fixture, fixture_ids
from finslerlab.registry import base_function, build_field, build_form, build_object

from helpers import REGISTRY_IDS, collector_off

WAGNER_USERS = {"CHK-06", "CHK-07", "CHK-08", "CHK-09", "CHK-11"}
H_J_E_DY1_USERS = {"CHK-07", "CHK-14", "CHK-15", "CHK-16"}


def _line(result):
    return json.dumps(result.record())


@pytest.fixture(scope="module")
def full_run():
    results, _ = run_checks(RunConfig(samples=4, seed=7))
    assert len(results) == 48
    return {(r.id, r.fixture): _line(r) for r in results}


@pytest.mark.parametrize("check", CHECK_IDS)
def test_a_cell_alone_gives_its_record_in_the_full_run(check, full_run):
    results, _ = run_checks(RunConfig(samples=4, seed=7, checks=[check]))
    assert len(results) == len(fixture_ids())
    for r in results:
        assert _line(r) == full_run[(r.id, r.fixture)]


def _counting_builds(monkeypatch):
    """Count every run of a construction body kept on its operand
    (``memo.kept_on``), by (construction, holder, other operands), named: a
    structure, which enters a key as its ``shared_omega_at`` (a ``partial``),
    by the structure's name, a registry id by itself, and an operand with no
    name (a point of a grid) by its type."""
    builds = Counter()
    kept_on = memo.kept_on
    structures = {}
    init = finsler.FinslerStructure.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        structures[self.shared_omega_at] = self.name

    def name(x):
        if isinstance(x, functools.partial):
            return structures[x]
        return x if isinstance(x, str) else getattr(x, "name", type(x).__name__)

    def counting(holder, tag, operands, build):
        def counted():
            builds[(tag, holder.name, *map(name, operands))] += 1
            return build()
        return kept_on(holder, tag, operands, counted)

    monkeypatch.setattr(finsler.FinslerStructure, "__init__", tracked)
    for module in (calculus, finsler, connections, registry, checks):
        monkeypatch.setattr(module, "kept_on", counting)
    return builds


def test_each_construction_body_runs_once_per_fixture_and_operand(monkeypatch):
    builds = _counting_builds(monkeypatch)
    _, code = run_checks(RunConfig())
    assert code == 0
    for fid in fixture_ids():
        for key in [("canonical_spray", fid), ("berwald_connection", fid),
                    ("l_ehresmann_connection", "[J,E-dy1]", fid),
                    ("sharp_of_dLE", "[J,E-dy1]", fid), ("theta_operator", "[J,E-dy1]", fid),
                    ("l_ehresmann_connection", "L_W(x1)", fid),
                    ("theta_operator", "L_W(x1)", fid),
                    ("semispray_from_vertical", "E-dy1", fid),
                    ("build_field", fid, "E-dy1"), ("build_form", fid, "jv:E-dy1"),
                    ("build_form", fid, "wagner-form:x1"), ("build_form", fid, "fvJ:x1"),
                    ("build_connection", fid, "wagner:x1"), ("wagner_connection", fid, "x1"),
                    ("wagner_minus_h0", fid)]:
            assert builds[key] == 1, key
    # one bracket per operand pair: [J, E-dy1] and [C, L_W] for each fixture's
    # operands, kept on the right operand and keyed by the left one
    assert builds[("fn_bracket(K, holder)", "E-dy1", "J")] == len(fixture_ids())
    assert builds[("fn_bracket(K, holder)", "L_W(x1)", "C")] == len(fixture_ids())
    # each connection's projector laws are checked once, on the grid's one batch point
    assert builds[("projector_residual", "h0", "PointBatch")] == len(fixture_ids())


def test_the_conservative_lift_and_V_L_read_one_h_L_of_J_E_dy1(monkeypatch):
    # CHK-10's conservative_lift(E-dy1) and CHK-12's v_from_torsion_free([J, E-dy1])
    # ask for the same h_L, which is built once per fixture by the first of them
    builds = _counting_builds(monkeypatch)
    asked = Counter()
    build = connections.l_ehresmann_connection

    def counting(F, L):
        asked[(L.name, F.name)] += 1
        return build(F, L)

    monkeypatch.setattr(connections, "l_ehresmann_connection", counting)
    results, _ = run_checks(RunConfig(checks=["CHK-10", "CHK-12"]))
    assert all(r.passed for r in results)
    for fid in fixture_ids():
        assert asked[("[J,E-dy1]", fid)] == 2
        assert builds[("l_ehresmann_connection", "[J,E-dy1]", fid)] == 1
        assert builds[("sharp_of_dLE", "[J,E-dy1]", fid)] == 1


def test_a_run_leaves_no_structure_or_construction_alive(monkeypatch):
    # constructions live as long as their operands: once run_checks returns,
    # reference counting alone, with the cycle collector off, has freed every
    # structure, field and vector form it made, the registry's objects,
    # brackets and the constructions kept on them included, but for the
    # shared constants J and C, which keep no entry
    made = []

    def tracking(cls):
        init = cls.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", tracked)

    for cls in (finsler.FinslerStructure, calculus.VectorField, calculus.VectorForm):
        tracking(cls)
    with collector_off():
        _, code = run_checks(RunConfig(samples=4, seed=7))
        alive = [ref() for ref in made if ref() is not None]
    assert code == 0
    assert len(made) > 100
    assert [x for x in alive if getattr(x, "_built", None) is not False] == []
    for n in (2, 3):
        assert calculus.vertical_endomorphism(n)._built is False
        assert calculus.liouville_field(n)._built is False


@pytest.mark.parametrize("config", [RunConfig(), RunConfig(samples=4, seed=7)])
def test_the_memos_do_the_same_work_in_a_run(config, monkeypatch):
    # the work a run does: each memo keeps one base point, the grid is one batch
    # point, and a miss at a lifted point stores omega's primal at the point it
    # lifts, where d_h omega reads it (39 omega passes and 258 computations
    # without).  (d_L E)# reads omega and dE with one lookup and solves with
    # that omega.  Each construction is built once per (structure, operand):
    # CHK-10 and CHK-12 read the h_L and (d_L E)# of [J, E-dy1] that CHK-07
    # built (825 lookups and 252 computations when each rebuilt them).  Some
    # passes bypass the memos by design: CHK-03 and the Vincze residual read
    # omega fresh, and so do the nine validations (the three fixtures, CHK-01's
    # three and CHK-09's three conformal structures), which read g as omega's
    # block.  The projector pre-check of a connection on its structure's grid
    # is kept on it, so conservative_connection_residual does not read its
    # matrix again (780 lookups when it did).  omega's two_form keeps its frame
    # arrays: CHK-02 reads them five times per fixture and builds two, one at
    # the grid and one at its frame lift (750 lookups and 237 computations
    # when it built all five)
    work = Counter()
    omega, get = finsler.omega_and_dE, memo.PointMemo.get

    def counting_omega(*args):
        work["omega_and_dE"] += 1
        return omega(*args)

    def counting_get(memo, z, compute):
        work["get"] += 1

        def counted(z):
            work["compute"] += 1
            return compute(z)
        return get(memo, z, counted)

    monkeypatch.setattr(finsler, "omega_and_dE", counting_omega)
    monkeypatch.setattr(memo.PointMemo, "get", counting_get)
    run_checks(config)
    assert work == {"omega_and_dE": 33, "get": 765, "compute": 243}


def _assert_users_record(results, users, error):
    assert {r.id for r in results if not r.passed} == users
    for r in results:
        if r.id in users:
            assert r.max_residual == math.inf and r.error == error


def test_a_wagner_build_that_raises_is_retried_by_every_cell(monkeypatch):
    calls = Counter()

    def failing(F, f):
        calls[F.name] += 1
        raise NotConnection("wagner build failed")

    monkeypatch.setattr(registry, "wagner_connection", failing)
    results, code = run_checks(RunConfig(samples=4, seed=7))
    assert code == 1
    _assert_users_record(results, WAGNER_USERS, "NotConnection: wagner build failed")
    assert calls == {fid: len(WAGNER_USERS) for fid in fixture_ids()}


def test_a_shared_h_L_build_that_raises_is_retried_by_every_cell(monkeypatch):
    calls = Counter()
    build = checks.l_ehresmann_connection

    def failing(F, L, *args, **kwargs):
        if L.name == "[J,E-dy1]":
            calls[F.name] += 1
            raise NotConnection("h_L build failed")
        return build(F, L, *args, **kwargs)

    monkeypatch.setattr(checks, "l_ehresmann_connection", failing)
    results, code = run_checks(RunConfig(samples=4, seed=7))
    assert code == 1
    _assert_users_record(results, H_J_E_DY1_USERS, "NotConnection: h_L build failed")
    assert calls == {fid: len(H_J_E_DY1_USERS) for fid in fixture_ids()}


@pytest.mark.parametrize("fid", fixture_ids())
def test_an_id_names_one_object_per_structure(fid):
    # one object for each id on one structure, another on another structure;
    # the shared constant C is the same everywhere
    grid = (PointBatch(sample_slit_points(2, 4, 7)),)
    F, G = finsler_fixture(fid, grid), finsler_fixture(fid, grid)
    for oid in REGISTRY_IDS:
        obj = build_object(F, oid)[1]
        assert build_object(F, oid)[1] is obj, oid
        if obj._built is not False:
            assert build_object(G, oid)[1] is not obj, oid


def test_the_wagner_pair_is_built_once_per_structure(monkeypatch):
    grid = (PointBatch(sample_slit_points(2, 4, 7)),)
    calls = Counter()
    build = registry.wagner_connection

    def counting(F, f):
        calls[F] += 1
        return build(F, f)

    monkeypatch.setattr(registry, "wagner_connection", counting)
    structures = [finsler_fixture("randers-0.3", grid) for _ in range(2)]
    for F in structures:
        for oid in ("wagner:x1", "wagner-form:x1", "l:wagner-form:x1", "wagner:x1"):
            build_object(F, oid)
    assert list(calls.values()) == [1, 1]
    hbar, L_W = registry._wagner(F, "x1")
    assert build_object(F, "wagner:x1")[1] is hbar and build_form(F, "wagner-form:x1") is L_W


def test_the_constructions_of_one_operand_are_kept_per_structure():
    # the four constructions keyed by the structure, of one operand on F and on
    # its conformal change: a key that dropped the structure would serve F's
    # construction to the other structure
    F = finsler_fixture("randers-0.3", (PointBatch(sample_slit_points(2, 4, 7)),))
    F2 = conformal_change(F, base_function("x1", F.n))
    L, V = build_form(F, "jv:E-dy1"), build_field(F, "E-dy1")
    for construction, operand in ((sharp_of_dLE, L), (theta_operator, L),
                                  (l_ehresmann_connection, L),
                                  (semispray_from_vertical, V)):
        a, b = construction(F, operand), construction(F2, operand)
        assert a is construction(F, operand) and b is construction(F2, operand)
        assert a is not b, construction.__name__
