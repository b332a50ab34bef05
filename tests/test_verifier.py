"""Check registry, config parsing, report determinism, and the CLI surface."""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from finslerlab.checks import CHECKS, list_checks, run_checks
from finslerlab.cli import main
from finslerlab.config import RunConfig, parse_config
from finslerlab.errors import BadConfig

CHEAP = ["CHK-01", "CHK-02", "CHK-03", "CHK-04"]


# -- registry -------------------------------------------------------------------


def test_registry_size_and_order():
    specs = list_checks()
    assert len(specs) == 16
    assert [s.id for s in specs] == sorted(s.id for s in specs)
    assert len({s.id for s in specs}) == 16


def test_registry_filter():
    assert [s.id for s in list_checks(["CHK-07"])] == ["CHK-07"]
    with pytest.raises(BadConfig, match=r"unknown check ids \['CHK-99'\]"):
        list_checks(["CHK-07", "CHK-99"])
    with pytest.raises(BadConfig, match="selects no check"):
        list_checks([])


def test_every_check_has_description_and_fixtures():
    for s in CHECKS:
        assert s.description
        assert s.fixtures
        assert s.tolerance > 0


# -- config ---------------------------------------------------------------------


def test_parse_config_empty_gives_defaults():
    cfg = parse_config("")
    assert cfg.seed == 42
    assert cfg.samples == 32
    assert cfg.fixtures == ["euclidean", "riemannian-exp", "randers-0.3"]
    assert cfg.checks is None
    assert cfg.tolerances == {}


def test_parse_config_values():
    cfg = parse_config("""
    # comment line
    seed = 7
    samples = 16
    fixtures = [euclidean, randers-0.3]
    checks = CHK-01, CHK-05
    tolerance.CHK-05 = 1e-6
    """)
    assert cfg.seed == 7
    assert cfg.samples == 16
    assert cfg.fixtures == ["euclidean", "randers-0.3"]
    assert cfg.checks == ["CHK-01", "CHK-05"]
    assert cfg.tolerances == {"CHK-05": 1e-6}


@pytest.mark.parametrize("bad", [
    "checks = [CHK-99]",
    "fixtures = [lorentz]",
    "samples = 0",
    "tolerance.CHK-99 = 1e-6",
    "tolerance.CHK-01 = -1",
    "tolerance.CHK-01 = nan",
    "tolerance.CHK-01 = inf",
    "unknown_key = 3",
    "just words",
])
def test_parse_config_rejects(bad):
    with pytest.raises(BadConfig) as err:
        parse_config(bad)
    assert "line 1" in str(err.value)


# -- run_checks --------------------------------------------------------------------


def test_run_checks_subset_passes_and_is_deterministic():
    cfg = RunConfig(fixtures=["euclidean"], samples=8, checks=CHEAP)
    res1, code1 = run_checks(cfg)
    res2, code2 = run_checks(cfg)
    assert code1 == code2 == 0
    assert [r.record() for r in res1] == [r.record() for r in res2]
    assert len(res1) == len(CHEAP)
    for r in res1:
        assert r.passed == (r.max_residual < r.tolerance)
        assert set(r.record()) == {"check", "fixture", "samples", "max_residual",
                                   "tolerance", "pass"}


def test_run_checks_sorted_records():
    cfg = RunConfig(samples=8, checks=["CHK-02", "CHK-01"])
    res, _ = run_checks(cfg)
    keys = [(r.id, r.fixture) for r in res]
    assert keys == sorted(keys)


def test_overtight_tolerance_fails_with_magnitudes():
    cfg = RunConfig(fixtures=["randers-0.3"], samples=8, checks=["CHK-01"],
                    tolerances={"CHK-01": 1e-15})
    res, code = run_checks(cfg)
    assert code == 1
    assert not res[0].passed
    assert res[0].max_residual > 1e-15
    assert res[0].tolerance == 1e-15


# -- CLI ----------------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.count("CHK-") == 16
    assert main(["list", "--only", "CHK-07"]) == 0
    assert capsys.readouterr().out.count("CHK-") == 1


def test_cli_check_records_and_exit(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code = main(["check", "--only", "CHK-01,CHK-03", "--samples", "8",
                 "--out", str(out_path)])
    stdout = capsys.readouterr().out
    assert code == 0
    lines = [l for l in stdout.splitlines() if l.strip()]
    assert len(lines) == 6  # two checks, three fixtures
    records = [json.loads(l) for l in lines]
    for rec in records:
        assert set(rec) <= {"check", "fixture", "samples", "max_residual",
                            "tolerance", "pass", "error"}
        assert rec["pass"] is True
    assert out_path.read_text().strip() == stdout.strip()


def test_cli_check_byte_identical_reruns(tmp_path, capsys):
    argv = ["check", "--only", "CHK-02", "--samples", "8", "--seed", "5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_cli_reports_identical_across_processes():
    argv = [sys.executable, "-m", "finslerlab", "check",
            "--only", "CHK-01,CHK-04", "--samples", "8", "--seed", "3"]
    a = subprocess.run(argv, capture_output=True, text=True)
    b = subprocess.run(argv, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout and a.stdout == b.stdout


def test_residuals_reproducible_from_library_ops():
    # a report cell must be recomputable by calling the underlying ops on the
    # same grid; CHK-05 is max over torsion, tension, and d_h E residuals
    from finslerlab.core import sample_slit_points
    from finslerlab.finsler import (
        berwald_connection, conservative_connection_residual, finsler_fixture,
    )
    from finslerlab.connections import (
        tension, vector_form1_residual, vector_form2_residual, weak_torsion,
    )
    cfg = RunConfig(fixtures=["riemannian-exp"], samples=8, seed=42,
                    checks=["CHK-05"])
    res, _ = run_checks(cfg)
    grid = sample_slit_points(2, 8, 42)
    F = finsler_fixture("riemannian-exp", grid)
    h0 = berwald_connection(F)
    direct = max(vector_form2_residual(weak_torsion(F, h0), grid),
                 vector_form1_residual(tension(F, h0), grid),
                 conservative_connection_residual(F, h0, grid))
    assert res[0].max_residual == direct


def test_cli_check_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 8\nchecks = [CHK-01]\nfixtures = [euclidean]\n")
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if l.strip()]) == 1


def test_cli_check_rejects_unknown_check(capsys):
    assert main(["check", "--only", "CHK-99"]) == 2
    assert "unknown check ids" in capsys.readouterr().err


def test_cli_list_rejects_unknown_check_as_check_does(capsys):
    # an unknown id once listed nothing and exited 0
    errors = []
    for command in ("list", "check"):
        assert main([command, "--only", "CHK-01,CHK-99"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1] == "config error: unknown check ids ['CHK-99']\n"
    assert main(["list", "--only", "CHK-01, CHK-02"]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == \
        ["CHK-01", "CHK-02"]


@pytest.mark.parametrize("only, message", [
    ("", "the configuration selects no check"),
    (",", "the configuration selects no check"),
    ("CHK-99", "unknown check ids ['CHK-99']"),
], ids=["empty", "comma", "unknown"])
def test_cli_list_and_check_reject_an_only_that_selects_no_check(only, message, capsys):
    # list once printed all 16 checks for "" and none for ",", exiting 0
    for command in ("list", "check"):
        assert main([command, "--only", only]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("config, message", [
    (RunConfig(samples=0), "samples must be >= 1"),
    (RunConfig(checks=["CHK-99"]), "unknown check ids ['CHK-99']"),
    (RunConfig(fixtures=["lorentz"]), "unknown fixture ids ['lorentz']"),
    (RunConfig(checks=[]), "selects no"),
    (RunConfig(fixtures=[]), "selects no"),
], ids=["no-samples", "unknown-check", "unknown-fixture", "no-checks", "no-fixtures"])
def test_run_checks_rejects_an_empty_or_unknown_selection(config, message):
    # a run of no cell would exit 0, a vacuous pass
    with pytest.raises(BadConfig) as err:
        run_checks(config)
    assert message in str(err.value)


@pytest.mark.parametrize("argv, config, message", [
    (["--only", ","], None, "selects no"),
    (["--samples", "0"], None, "samples must be >= 1"),
    ([], "checks = []\n", "selects no"),
    ([], "fixtures = []\n", "selects no"),
], ids=["only-comma", "no-samples", "no-checks", "no-fixtures"])
def test_cli_check_rejects_an_empty_selection(argv, config, message, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(["check"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_check_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("samples = 8\nchecks = [CHK-01]\nfixtures = [randers-0.3]\n"
                   "tolerance.CHK-01 = 1e-15\n")
    assert main(["check", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    rec = json.loads(out.splitlines()[0])
    assert rec["pass"] is False


def test_cli_eval_field(capsys):
    assert main(["eval", "--fixture", "euclidean", "--object", "S0",
                 "--point", "0,0,1,2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["kind"] == "field"
    assert rec["value"] == [1.0, 2.0, 0.0, 0.0]


def test_cli_eval_connection_and_form(capsys):
    assert main(["eval", "--fixture", "riemannian-exp", "--object", "berwald",
                 "--point", "0,0,1,2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["kind"] == "connection"
    col = [row[0] for row in rec["value"]]
    assert col == [1.0, 0.0, -1.0, 0.0]
    assert main(["eval", "--fixture", "euclidean", "--object", "wagner-form:x1",
                 "--point", "0,0,1,2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["kind"] == "form"
    assert abs(rec["value"][3][0] + 1.0) < 1e-12


def test_cli_eval_unknown_object(capsys):
    assert main(["eval", "--fixture", "euclidean", "--object", "nope",
                 "--point", "0,0,1,2"]) == 2
    assert "matches no" in capsys.readouterr().err


@pytest.mark.parametrize("oid, message", [
    ("vlift:5", "vlift index out of range in 'vlift:5'"),
    ("vlift:x", "vlift index is not an integer in 'vlift:x'"),
    ("jv:nope", "unknown field id 'nope'"),
])
def test_cli_eval_reports_the_specific_error(oid, message, capsys):
    assert main(["eval", "--fixture", "euclidean", "--object", oid,
                 "--point", "0,0,1,2"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "matches no" not in err


@pytest.mark.parametrize("argv, message", [
    (["eval", "--point", "0.1,abc,1,2"], "point coordinates must be finite numbers"),
    (["eval", "--point", "0.1,0.2,nan,1"], "point coordinates must be finite numbers"),
    (["eval", "--point", "0.1,0.2,inf,1"], "point coordinates must be finite numbers"),
    (["eval", "--point", "0,0,1,2", "--seed", "-3"], "seed must be >= 0, got -3"),
    (["check", "--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["point-abc", "point-nan", "point-inf", "eval-seed", "check-seed"])
def test_cli_rejects_bad_input_as_a_config_error(argv, message, capsys):
    # each once died with a traceback (exit 1) or printed NaN, which is not JSON
    if argv[0] == "eval":
        argv = argv + ["--fixture", "euclidean", "--object", "S0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_check_rejects_a_non_finite_tolerance(value, tmp_path, capsys):
    # nan was written into the report as NaN, and inf passed the cell vacuously
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tolerance.CHK-01 = {value}\n")
    assert main(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: line 1: tolerance must be positive and finite")


@pytest.mark.parametrize("check, helper", [
    ("CHK-05", "vector_form1_residual"),     # the second of three combined residuals
    ("CHK-07", "vertical_lift_test"),        # one side of each biconditional
])
def test_nan_from_a_later_helper_fails_the_cell(check, helper, monkeypatch):
    import finslerlab.checks as checks
    monkeypatch.setattr(checks, helper, lambda *args, **kw: math.nan)
    results, code = run_checks(RunConfig(fixtures=["euclidean"], samples=4, checks=[check]))
    rec = results[0].record()
    assert rec["pass"] is False and math.isnan(rec["max_residual"])
    assert code == 1


def test_golden_report_digest(capsys):
    """The full report of `finslerlab check --seed 7 --samples 4`, pinned byte for byte.

    A speed-up must leave every report unchanged.  The digest depends on the
    float results of the installed numpy and the platform's libm (batches
    apply ``exp`` and friends per element); on a different build, recompute
    it with the parent commit before comparing.
    """
    main(["check", "--seed", "7", "--samples", "4"])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "46f7c5c37df6af0f21d5fd0975d52c45216d120452ef3026d5002dd5bf0f9404"


@pytest.mark.parametrize("argv, expected", [
    (["--seed", "7"], "7c28e12d9819e8a1bcdb3c754e485458c1456f2a96427e804bbd54f8732b1c77"),
    (["--seed", "11"], "b0cd7d9b2daee0aeff0f12361c6cd78449d47f9dd86d1322fa02ca8b39f100a7"),
    (["--seed", "7", "--samples", "1"],
     "5a07f34ad36fb84ffba72975299fd62f549dbba0df5d26c365ef0b724890a17e"),
], ids=["seed-7", "seed-11", "seed-7-samples-1"])
def test_golden_report_digests_at_other_seeds(argv, expected, capsys):
    """More full reports pinned byte for byte: other grids, and a one-point grid."""
    main(["check", *argv])
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == expected


def test_golden_default_report_digest(capsys):
    """The default `finslerlab check --seed 42` (32 samples, 48 cells), pinned byte for byte."""
    main(["check", "--seed", "42"])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "eb7bdab05fbbafcb414601084421f66454f812ef74bf70ad833256a6926e7496"


# `finslerlab eval --fixture randers-0.3 --point 0.1,0.2,0.7,-0.4 --object <id>`,
# stdout pinned byte for byte; CI's "Registry eval" step reads these pins
EVAL_DIGESTS = {
    "berwald": "99cb56b2f5891e97ce51bd3bd7593396f0677dba0f052d188f0dbf5f9f96e8b6",
    "l:jv:E-dy1": "2b4a721bf9d6b12d4c1b9b7f47d33e4f9b72b6066a2cdaa9b073aa2eba6b88ea",
    "wagner:x1": "768331ea19963f207cc0ec7c58c44628a2efd1c2d11a83f409e90ecf6b23edd3",
    "jv:E-dy1": "8ad6d3aa8145b773fa2394c4985c3ef27065c15deaab320ea3966b4fdd9edca6",
    "wagner-form:x1": "c91da8bf3f42e00ea67b3c4ceae8deaa790669ff1ff10c84d99c77e16c5b732c",
}


@pytest.mark.parametrize("oid", EVAL_DIGESTS)
def test_golden_eval_digests(oid, capsys):
    """h0, an h_L, the Wagner connection and the registry's forms [J, E-dy1]
    and L_W at a float point off the grid: the (d_L E)# fields of h_L and of
    the Wagner form outside the batch grid."""
    assert main(["eval", "--fixture", "randers-0.3", "--point", "0.1,0.2,0.7,-0.4",
                 "--object", oid]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == EVAL_DIGESTS[oid]
