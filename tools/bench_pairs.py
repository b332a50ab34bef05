"""Alternating pairs of benchmark runs of two commits, summarised as one JSON file.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workload third-order-n3 --seed 31 --pairs 10 --seconds 15 --out BENCH_17.json

``--workload``, ``--seed`` and ``--pairs`` may be repeated; ``--pairs`` gives the
pair count of each seed in turn (one value serves every seed).  Both commits
are exported with ``git archive`` into fresh trees under ``--workdir`` (a new
temporary directory by default), so neither holds ``__pycache__`` or
``perfbench/out``.  Pair i runs ``perfbench/run.py --trace 0`` once in each
tree, the parent first in even pairs and the change first in odd ones.  The
summary holds every run and, per end-to-end metric of BENCHMARK.json, the
median and the quartiles (``statistics.quantiles``, inclusive method) of each
side, ``change_wins``, the pairs where the change is better (ties count for
neither), and a regression ``verdict`` against the metric's ``bound``
(``verdict``).  The digests of the outputs of the ``finslerlab`` commands in
REPORTS (the ``check`` reports and the ``eval`` outputs that CI pins) are added
for both trees, and so is each tree's line count of ``src/finslerlab``
(``src_lines``).  ``--workdir`` keeps the trees; by default they go to a
temporary directory that is removed at the end.  The exit status is 1 if any
run was not correct or the two trees' reports differ; a report command that
exits nonzero has no digest and differs from everything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
REPORTS = [f"check {a}" for a in ("--seed 42", "--seed 7", "--seed 7 --samples 4",
                                  "--seed 7 --samples 1", "--seed 11")] + \
    [f"eval --fixture randers-0.3 --point 0.1,0.2,0.7,-0.4 --object {o}"
     for o in ("berwald", "l:jv:E-dy1", "wagner:x1")]


def summarize(runs, better, bounds):
    """The summary of one workload at one seed.

    ``runs`` maps each side to its list of perfbench results in pair order
    (the JSON object on the last line of ``perfbench/run.py``'s output, plus
    ``report_sha256``, the report digests it printed); ``better`` maps each
    end-to-end metric to "lower" or "higher", and ``bounds`` to its bound in
    BENCHMARK.json, a fraction of the parent's median.
    """
    pairs = len(runs["parent"])
    out = {
        "pairs": pairs,
        "first_in_pair": [SIDES[i % 2] for i in range(pairs)],
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "metrics": {},
    }
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        entry = {side: _spread(values[side]) for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        entry["change_wins"] = sum(1 for p, c in zip(values["parent"], values["change"])
                                   if sign * (p - c) > 0)
        parent = entry["parent"]["median"]
        entry["relative_change"] = round(entry["change"]["median"] / parent - 1.0, 4) \
            if parent else None
        entry["verdict"] = verdict(values, entry, direction, bounds[name])
        out["metrics"][name] = entry
    digests = {side: sorted({d for r in runs[side] for d in r.get("report_sha256", [])})
               for side in SIDES}
    if any(digests.values()):
        out["report_sha256"] = digests
    return out


def _spread(values):
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in values]}


def verdict(values, entry, direction, bound):
    """Whether one metric regressed: "ok", "worse" or "unresolved".

    ``values`` holds each side's runs and ``entry`` their spreads
    (``_spread``).  "ok" when every change run beats every parent run.
    Otherwise "unresolved" when either side's interquartile range exceeds
    ``bound`` times its median, as the runs then spread too widely to tell a
    regression of that size; else "worse" when the change's median is worse
    than the parent's by more than ``bound`` times the parent's median, and
    "ok" when it is not.
    """
    sign = 1.0 if direction == "lower" else -1.0
    if max(sign * c for c in values["change"]) < min(sign * p for p in values["parent"]):
        return "ok"
    for side in SIDES:
        s = entry[side]
        if s["q3"] - s["q1"] > bound * abs(s["median"]):
            return "unresolved"
    parent = entry["parent"]["median"]
    return "worse" if sign * (entry["change"]["median"] - parent) > bound * abs(parent) \
        else "ok"


def claim(summary, metric, direction):
    """A claimed gain in ``metric`` of one summary: met when at least ten pairs
    ran, the change wins at least nine in ten of them, and its median is
    better than the parent's by more than the parent's interquartile range."""
    m = summary["metrics"][metric]
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    gain = m["parent"]["median"] - m["change"]["median"]
    if direction != "lower":
        gain = -gain
    return {"metric": metric, "parent_median": m["parent"]["median"],
            "change_median": m["change"]["median"], "parent_iqr": round(iqr, 6),
            "change_wins": m["change_wins"], "pairs": summary["pairs"],
            "met": summary["pairs"] >= 10 and gain > iqr
            and m["change_wins"] >= math.ceil(0.9 * summary["pairs"])}


def export(rev, dest):
    """The tree of commit ``rev``, written into ``dest`` with ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return dest


def bench_run(tree, workload, seed, seconds):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {tree} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["report_sha256"] = [line.split()[-1] for line in lines
                               if line.startswith("# check report sha256")]
    return result


def report_digest(tree, args):
    """The sha256 of the output of ``finslerlab ARGS`` run in ``tree``, or None
    when the command exits nonzero."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-m", "finslerlab", *args.split()],
                          cwd=tree, env=env, stdout=subprocess.PIPE, check=False)
    return hashlib.sha256(proc.stdout).hexdigest() if proc.returncode == 0 else None


def same_reports(reports):
    """Whether every report command gave one digest in both trees; a command
    that exited nonzero (no digest) in either tree is a mismatch."""
    return all(d["parent"] is not None and d["parent"] == d["change"]
               for d in reports.values())


def src_lines(tree):
    """The number of lines of the ``src/finslerlab`` sources of ``tree``."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (tree / "src" / "finslerlab").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    parser.add_argument("--pairs", action="append", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC:SEED of the claimed gain")
    parser.add_argument("--describe", default="", help="what the change does")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.pairs) not in (1, len(args.seed)):
        parser.error("give one --pairs, or one per --seed")
    pairs = dict(zip(args.seed, args.pairs * len(args.seed) if len(args.pairs) == 1
                     else args.pairs))

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        return run(args, pairs, args.workdir or Path(tmp))


def run(args, pairs, work):
    trees = {"parent": export(args.parent, work / "parent"),
             "change": export(args.change, work / "change")}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    src_trees = {side: subprocess.run(["git", "rev-parse", f"{rev}:src"], check=True,
                                      text=True, stdout=subprocess.PIPE).stdout.strip()
                 for side, rev in (("parent", args.parent), ("change", args.change))}

    workloads = {}
    for workload in args.workload:
        workloads[workload] = {}
        for seed, count in pairs.items():
            runs = {side: [] for side in SIDES}
            for i in range(count):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(bench_run(trees[side], workload, seed, args.seconds))
                print(f"# {workload} seed {seed} pair {i + 1}/{count} done", file=sys.stderr)
            workloads[workload][f"seed-{seed}"] = {"seed": seed, **summarize(runs, better, bounds)}

    reports = {a: {side: report_digest(trees[side], a) for side in SIDES} for a in REPORTS}
    result = {
        "change": args.describe,
        "src_tree": src_trees,
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0",
        "method": "parent and change exported with git archive as fresh trees; pairs run one "
                  "after the other, alternating which side runs first; every run listed; "
                  "medians and quartiles (inclusive method) over the pairs; change_wins "
                  "counts pairs where the change is better, ties for neither",
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                   f"{platform.machine()}",
        "workloads": workloads,
        "report_sha256": {f"finslerlab {a}": d for a, d in reports.items()},
    }
    if args.claim:
        workload, metric, seed = args.claim.split(":")
        result["claim"] = {"workload": workload, "seed": int(seed),
                           **claim(workloads[workload][f"seed-{seed}"], metric,
                                   better[metric])}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    correct = all(s["correct"] for w in workloads.values() for s in w.values())
    flagged = [f"{w} {seed} {m}: {e['verdict']}" for w, by_seed in workloads.items()
               for seed, s in by_seed.items() for m, e in s["metrics"].items()
               if e["verdict"] != "ok"]
    same = same_reports(reports)
    print(f"wrote {args.out}; correct: {correct}; identical reports: {same}; "
          f"not ok: {flagged or 'none'}")
    return 0 if correct and same else 1


if __name__ == "__main__":
    sys.exit(main())
