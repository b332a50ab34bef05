"""finslerlab benchmark: one run of one workload, reported as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads are ``suite``, ``third-order-n3`` and ``point-queries``; BENCHMARK.json
says why each exists and perfbench/interactions.json which end-to-end metric
each per-layer metric should move.  The library is imported from ./src and
nothing is installed.  Each step runs in a fresh Python process with BLAS and
OpenMP held to one thread: set-up is timed in SETUP_REPEATS processes of its
own and the median reported, then one process measures the workload with
tracing off (``--trace 0``: end-to-end metrics) or traces it (``--trace 1``:
per-layer metrics).  End-to-end times are CPU time scaled to reference speed
(see refclock.py), because the shared machines drift far more than the
changes to be caught.  Details (per-pass times, report digests, cold
per-cell timings, profile counts, versions) go to a sidecar in
perfbench/out/.  The last line of stdout is the result object; any failure
to measure exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("suite", "third-order-n3", "point-queries")
SETUP_REPEATS = 5
DEADLINE_S = 170  # a run must end within 180 s
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class MeasureError(Exception):
    """A step of the benchmark failed; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def child(args, deadline):
    """Run one worker.py step in a fresh process and return its JSON output."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise MeasureError(f"no time left for {args[0]}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise MeasureError(f"{args[0]} step did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise MeasureError(f"{args[0]} step exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, deadline):
    if args.trace:
        return child(["trace", args.workload, args.seed], deadline)
    setups = [child(["setup", args.workload, args.seed], deadline)
              for _ in range(SETUP_REPEATS)]
    res = child(["run", args.workload, args.seed, args.seconds], deadline)
    res["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    res["details"]["setup_runs"] = setups
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "finslerlab" / "__init__.py").is_file():
        print(f"no finslerlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        res = measure(args, time.monotonic() + DEADLINE_S)
    except MeasureError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if set(res["metrics"]) != set(units):
        print(f"metrics {sorted(res['metrics'])} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1

    result = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    fail_ratio = result["failed"] / result["attempted"]
    sidecar = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fail_ratio": fail_ratio, "result": result,
        "environment": {
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), **res["versions"], **SINGLE_THREAD,
        },
        "details": res["details"],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(sidecar, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"failed {result['failed']}/{result['attempted']} (fail_ratio {fail_ratio:g}); "
          f"details in {path.relative_to(ROOT)}")
    for digest in res["details"].get("report_sha256", []):
        print(f"# check report sha256 {digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
