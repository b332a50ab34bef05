"""One benchmark step inside a fresh, single-threaded Python process.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run   <workload> <seed> <seconds>
    python3 perfbench/worker.py trace <workload> <seed>

``setup`` times the import of the library, grid sampling and the validated
structures.  ``run`` measures passes with tracing off until ``seconds`` have
gone by.  ``trace`` takes the per-layer numbers.  Each prints one JSON object
as its last line of output; ``run.py`` starts these processes.
"""

import cProfile
import gc
import json
import pstats
import resource
import statistics
import sys
import time

from refclock import RefClock, calibrated_speed


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def lower_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def measure(wl, seconds):
    """End-to-end metrics: passes until ``seconds`` have gone by, tracing off.

    Times are in reference seconds (see refclock.py); the CPU seconds they
    come from go to the sidecar.
    """
    passes = []
    start = time.perf_counter()
    with RefClock() as clock:
        while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
            # Free the last pass's structures, which sit in reference cycles,
            # so that one pass's memos bound peak memory and heap reuse.
            gc.collect()
            passes.append(wl.run_pass(len(passes), clock=clock.now))
    walls = [clock.ref_seconds(*p.wall) for p in passes]
    per_pass = [[clock.ref_seconds(*span) for span in p.spans] for p in passes]
    latencies = [t for lat in per_pass for t in lat]
    # The tail of one query's latency here mostly tracks how disturbed the
    # shared machine is, which switches every ten seconds or so.  So p99 is
    # taken per pass and the lower quartile over passes is reported: the
    # program's own tail (collections, resizes), not the neighbours'.
    pass_p99 = [percentile(lat, 99) for lat in per_pass]
    raw_latencies = [end - begin for p in passes for begin, end in p.spans]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes if p.digest})
    notes = [note for p in passes for note in p.notes]
    if len(digests) > 1:
        notes.append("the report changed between passes of one run")
    metrics = {
        "wall_s": statistics.median(walls),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": lower_quartile(pass_p99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }
    return {
        "correct": failed == 0 and len(digests) <= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "passes": [{"wall_s": ref, "cpu_s": p.wall[1] - p.wall[0], "p99_ms": p99 * 1e3,
                        "queries": len(p.spans), "attempted": p.attempted, "failed": p.failed}
                       for p, ref, p99 in zip(passes, walls, pass_p99)],
            "cpu": {"wall_s": statistics.median(p.wall[1] - p.wall[0] for p in passes),
                    "query_p50_ms": statistics.median(raw_latencies) * 1e3,
                    "query_p99_ms": percentile(raw_latencies, 99) * 1e3},
            "pooled_query_p99_ms": percentile(latencies, 99) * 1e3,
            "kernel_samples": len(clock.samples),
            "queries": len(latencies),
            "report_sha256": digests,
            "notes": notes[:50],
        },
    }


def trace(wl):
    """Per-layer metrics: a plain and a profiled slice, probes, cold cells."""
    from layers import cold_cells, cold_metrics, profile_metrics, run_probes

    phases = {"start": time.perf_counter()}
    plain = wl.run_pass(0, size=wl.trace_size)
    phases["slice"] = time.perf_counter()
    profiler = cProfile.Profile()
    traced = wl.run_pass(0, size=wl.trace_size, profiler=profiler)
    phases["profiled_slice"] = time.perf_counter()
    stats = pstats.Stats(profiler)
    metrics = profile_metrics(stats)
    metrics["trace.overhead_ratio"] = ((traced.wall[1] - traced.wall[0])
                                       / (plain.wall[1] - plain.wall[0]))
    metrics.update(run_probes(wl.grid, wl.probe_points(), wl.seed))
    phases["probes"] = time.perf_counter()
    cells = cold_cells(wl.seed, wl.cold_samples)
    phases["cold_cells"] = time.perf_counter()
    metrics.update(cold_metrics(cells))
    idle = [name for name in metrics if name.endswith(".self_s") and metrics[name] == 0.0]
    if idle:
        # A layer the slice never enters reports its self time in the cold
        # cells instead, profiled in a second pass over them.
        profiler = cProfile.Profile()
        profiler.enable()
        profiled = cold_cells(wl.seed, wl.cold_samples)
        profiler.disable()
        in_cells = profile_metrics(pstats.Stats(profiler))
        metrics.update({name: in_cells[name] for name in idle})
        phases["profiled_cold_cells"] = time.perf_counter()
    else:
        profiled = []
    stamps = list(phases.items())
    phase_s = {name: t - prev for (_, prev), (name, t) in zip(stamps, stamps[1:])}
    attempted = plain.attempted + traced.attempted + len(cells) + len(profiled)
    failed = plain.failed + traced.failed + sum(not c["pass"] for c in cells + profiled)
    top = [{"function": pstats.func_std_string(func), "ncalls": nc, "tottime_s": tt}
           for func, (_cc, nc, tt, _ct, _callers) in
           sorted(stats.stats.items(), key=lambda kv: -kv[1][2])[:15]]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "slice": {"size": wl.trace_size, "plain_wall_s": plain.wall[1] - plain.wall[0],
                      "profiled_wall_s": traced.wall[1] - traced.wall[0]},
            "phase_s": phase_s,
            "cold_cells": cells,
            "cold_cell_samples": wl.cold_samples,
            "self_s_from_cold_cells": idle,
            "profile_top_self_time": top,
            "notes": (plain.notes + traced.notes)[:50],
        },
    }


def setup(name, seed):
    """Time the library import, grid sampling and validated structures, in reference seconds."""
    before = calibrated_speed()
    t0, w0 = time.thread_time(), time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[name](seed).setup()
    cpu, wall = time.thread_time() - t0, time.perf_counter() - w0
    speed = (before + calibrated_speed()) / 2
    return {"setup_s": cpu * speed, "cpu_setup_s": cpu, "raw_wall_setup_s": wall, "speed": speed}


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        print(json.dumps(setup(name, seed)))
        return
    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    wl.setup()
    if mode == "run":
        out = measure(wl, float(argv[3]))
    elif mode == "trace":
        out = trace(wl)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
