"""The constructions the cells of one fixture share for a run (``checks.SharedObjects``).

Sharing must change no record: a cell run alone gives the record it has in
the full run, each shared object is built once per fixture, and a build that
raises is retried by every cell that reads it, so each records the error.
"""

import json
import math
from collections import Counter

import pytest

from finslerlab import calculus, checks, finsler
from finslerlab.checks import CHECK_IDS, run_checks
from finslerlab.config import RunConfig
from finslerlab.errors import NotConnection
from finslerlab.finsler import fixture_ids

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


def _counting(calls, build):
    def wrapped(F, arg, *args, **kwargs):
        calls[(build.__name__, F.name, arg.name)] += 1
        return build(F, arg, *args, **kwargs)
    return wrapped


def test_each_fixture_builds_each_shared_object_once(monkeypatch):
    calls = Counter()
    for name in ("wagner_connection", "l_ehresmann_connection", "semispray_from_vertical"):
        monkeypatch.setattr(checks, name, _counting(calls, getattr(checks, name)))
    _, code = run_checks(RunConfig())
    assert code == 0
    for fid in fixture_ids():
        assert calls[("wagner_connection", fid, "x1")] == 1
        assert calls[("l_ehresmann_connection", fid, "[J,E-dy1]")] == 1
        assert calls[("l_ehresmann_connection", fid, "L_W(x1)")] == 1
        assert calls[("semispray_from_vertical", fid, "E-dy1")] == 1


@pytest.mark.parametrize("config", [RunConfig(), RunConfig(samples=4, seed=7)])
def test_the_memos_do_the_same_work_in_a_run(config, monkeypatch):
    # the work a run does: each memo keeps one base point, the grid is one batch
    # point, and a miss at a lifted point stores omega's primal at the point it
    # lifts, where d_h omega reads it (42 omega passes and 279 computations
    # without).  Some passes bypass the memos by design: CHK-03 and the Vincze
    # residual read omega fresh, and so do the nine validations (the three
    # fixtures, CHK-01's three and CHK-09's three conformal structures), which
    # read g as omega's block
    work = Counter()
    omega, get = finsler.omega_and_dE, calculus.PointMemo.get

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
    monkeypatch.setattr(calculus.PointMemo, "get", counting_get)
    run_checks(config)
    assert work == {"omega_and_dE": 36, "get": 948, "compute": 273}


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

    monkeypatch.setattr(checks, "wagner_connection", failing)
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
