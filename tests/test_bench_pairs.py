"""tools/bench_pairs.py: the summary of alternating benchmark pairs, on canned runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "pass_ratio": "higher"}
BOUNDS = {"wall_s": 0.25, "pass_ratio": 0.01}


def _run(wall, ratio=1.0, correct=True, digests=()):
    return {"correct": correct, "attempted": 12, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "pass_ratio": {"value": ratio, "unit": "ratio"}},
            "report_sha256": list(digests)}


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary starts no process")
    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def test_summary_of_canned_pairs():
    runs = {"parent": [_run(w) for w in (0.044, 0.046, 0.043, 0.045, 0.050)],
            "change": [_run(w, ratio=r) for w, r in
                       ((0.037, 1.0), (0.039, 0.9), (0.036, 1.0), (0.046, 1.0), (0.038, 1.0))]}
    s = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert s["pairs"] == 5 and s["correct"] is True
    assert s["first_in_pair"] == ["parent", "change", "parent", "change", "parent"]
    assert s["attempted"] == {"parent": [12] * 5, "change": [12] * 5}
    wall = s["metrics"]["wall_s"]
    # inclusive quartiles of 0.043, 0.044, 0.045, 0.046, 0.050
    assert wall["parent"] == {"median": 0.045, "q1": 0.044, "q3": 0.046,
                              "runs": [0.044, 0.046, 0.043, 0.045, 0.050]}
    assert wall["change"]["median"] == 0.038
    assert wall["change_wins"] == 4   # 0.046 against 0.045 is a loss
    assert wall["relative_change"] == round(0.038 / 0.045 - 1.0, 4)
    ratio = s["metrics"]["pass_ratio"]
    assert ratio["change_wins"] == 0  # higher is better: four ties and a loss
    assert wall["verdict"] == "ok" and ratio["verdict"] == "ok"
    assert "report_sha256" not in s

    c = bench_pairs.claim(s, "wall_s", "lower")
    assert c["parent_iqr"] == 0.002 and c["change_wins"] == 4 and c["pairs"] == 5
    assert c["met"] is False


PARENT = [0.044, 0.046, 0.043, 0.045, 0.050, 0.045, 0.044, 0.046, 0.045, 0.045]


@pytest.mark.parametrize("parent, change, met", [
    (PARENT, [0.038] * 10, True),
    (PARENT, [0.038] * 9 + [0.046], True),          # nine wins in ten
    (PARENT, [0.038] * 8 + [0.046] * 2, False),     # eight
    (PARENT[:9], [0.038] * 9, False),               # fewer than ten pairs
    ([0.040, 0.050] * 5, [0.039] * 10, False),      # ten wins, a gap inside the IQR
])
def test_a_claim_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr(parent, change, met):
    runs = {"parent": [_run(w) for w in parent], "change": [_run(w) for w in change]}
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert bench_pairs.claim(summary, "wall_s", "lower")["met"] is met


def test_an_incorrect_run_and_the_report_digests_show_in_the_summary():
    runs = {"parent": [_run(1.0, digests=["aa"]), _run(1.1, digests=["aa"])],
            "change": [_run(0.9, digests=["aa"]), _run(0.8, correct=False, digests=["bb"])]}
    s = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert s["correct"] is False
    assert s["report_sha256"] == {"parent": ["aa"], "change": ["aa", "bb"]}
    assert s["metrics"]["wall_s"]["change_wins"] == 2


@pytest.mark.parametrize("parent, change, verdict", [
    (PARENT, [0.038] * 10, "ok"),                        # better
    (PARENT, [0.050] * 10, "ok"),                        # +11%, inside the bound
    (PARENT, [0.060] * 10, "worse"),                     # +33%
    (PARENT, [0.055, 0.057, 0.060] * 3 + [0.058], "worse"),
    ([0.040, 0.060] * 5, [0.070] * 10, "unresolved"),    # the parent's IQR is 40%
    (PARENT, [0.030, 0.070] * 5, "unresolved"),          # so is the change's
    ([0.040, 0.060] * 5, [0.020, 0.030] * 5, "ok"),      # wide, but every change run wins
])
def test_a_verdict_weighs_the_median_against_the_bound_and_the_spread(parent, change,
                                                                      verdict):
    runs = {"parent": [_run(w) for w in parent], "change": [_run(w) for w in change]}
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert summary["metrics"]["wall_s"]["verdict"] == verdict


@pytest.mark.parametrize("change, verdict", [
    ([1.0] * 10, "ok"),
    ([0.995] * 10, "ok"),       # 0.5% fewer passes, inside the bound of 1%
    ([0.98] * 10, "worse"),     # higher is better: 2% fewer is worse
    ([1.0, 0.9] * 5, "unresolved"),
])
def test_a_verdict_on_a_higher_is_better_metric(change, verdict):
    runs = {"parent": [_run(0.045, ratio=1.0) for _ in change],
            "change": [_run(0.045, ratio=r) for r in change]}
    summary = bench_pairs.summarize(runs, BETTER, BOUNDS)
    assert summary["metrics"]["pass_ratio"]["verdict"] == verdict
