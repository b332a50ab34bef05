"""Per-layer measurements for the traced run, all taken from outside the library.

Three sources, none of which adds code to the library's hot paths:

* probes: timed calls of public functions on a workload's own points.  Each
  probe builds fresh structures before its timer starts, so no probe sees
  memo entries left by another;
* a cProfile pass over a fixed slice of the workload: call counts and self
  time per module;
* cold cells: every (check, fixture) cell run alone through ``run_checks``,
  which builds a fresh structure for it, so its time does not depend on which
  checks ran before.

Times are CPU seconds of this thread, so that the hypervisor's steal time
does not count (see refclock.py); unlike the end-to-end metrics they are not
scaled to reference speed.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from finslerlab import jets
from finslerlab.calculus import (
    fn_bracket, frame_vector, liouville_field, vertical_endomorphism,
)
from finslerlab.checks import list_checks, run_checks
from finslerlab.config import RunConfig
from finslerlab.connections import dh_omega_residual, l_ehresmann_connection, wagner_connection
from finslerlab.core import sample_slit_points
from finslerlab.finsler import (
    berwald_connection, canonical_spray, finsler_fixture, fixture_energy,
    fixture_ids, sharp, validate_finsler,
)
from finslerlab.registry import base_function, build_field

from workloads import seeded_one_form, stream_seed

LAYERS = ("jets", "core", "calculus", "finsler", "connections", "checks")


def _median_call(calls):
    """Median CPU time of the given zero-argument calls, one timing each."""
    times = []
    for call in calls:
        t0 = time.thread_time()
        call()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def run_probes(grid, points, seed):
    """Median time per call of each probed public function, keyed by metric name."""
    n = grid.n
    n2 = 2 * n
    fids = fixture_ids()
    coords = [p.coords() for p in points]
    frame = [frame_vector(n2, a) for a in range(n2)]
    J = vertical_endomorphism(n)
    C = liouville_field(n)

    # Validated on a grid of their own, so that no probe point is a grid point
    # whose values a connection's validation has already memoised.
    aux_grid = sample_slit_points(n, 2, stream_seed(seed, 4))

    def per_point(make, scale=1e6, args=coords):
        """Time ``make(F)(z)`` for a fresh structure F of every fixture and every point z."""
        calls = []
        for fid in fids:
            fn = make(finsler_fixture(fid, aux_grid, n=n))
            calls += [lambda fn=fn, z=z: fn(z) for z in args]
        return _median_call(calls) * scale

    def hessian(E):
        pairs = [(frame[n + i], frame[n + j]) for i in range(n) for j in range(i, n)]
        return lambda z: [jets.nth_directional(E.fn, z, [u, v]) for u, v in pairs]

    def two_form(F):
        pairs = [(frame[a], frame[b]) for a in range(n2) for b in range(a + 1, n2)]
        om = F.omega.two_form
        return lambda z: [om(z, u, v) for u, v in pairs]

    def sharp_jet(F):
        beta = [float(b % 3) - 1.0 for b in range(n2)]

        def call(z):
            return F.sharp_at(beta, jets.lift(z, frame[n], jets.fresh_tag()))
        return call

    def bracket_1_1(F):
        torsion = fn_bracket(J, berwald_connection(F))
        pairs = [(frame[a], frame[b]) for a in range(n2) for b in range(a + 1, n2)]
        return lambda z: [torsion(z, u, v) for u, v in pairs]

    def h_L(F):
        return l_ehresmann_connection(F, fn_bracket(J, build_field(F, "E-dy1"))).matrix

    def wagner(F):
        return wagner_connection(F, base_function("x1", n))[0].matrix

    n_pairs = n2 * (n2 - 1) // 2
    return {
        "jets.hessian_us": _median_call(
            [lambda h=hessian(fixture_energy(fid, n)), z=z: h(z) for fid in fids for z in coords]
        ) * 1e6,
        "core.sample_ms": _median_call(
            [lambda: sample_slit_points(n, len(grid), seed) for _ in range(5)]) * 1e3,
        "finsler.validate_ms": _median_call(
            [lambda: [validate_finsler(fixture_energy(fid, n), grid, n=n) for fid in fids]
             for _ in range(3)]) * 1e3,
        "finsler.omega_matrix_us": per_point(lambda F: F.omega_matrix_at),
        "finsler.two_form_us": per_point(two_form),
        "finsler.sharp_float_us": per_point(
            lambda F: sharp(F, seeded_one_form(n, stream_seed(seed, 3)))),
        "finsler.sharp_jet_us": per_point(sharp_jet),
        "finsler.spray_us": per_point(canonical_spray),
        "finsler.berwald_matrix_us": per_point(lambda F: berwald_connection(F).matrix),
        "calculus.bracket_const_us": per_point(
            lambda F: fn_bracket(J, build_field(F, "E-dy1")).matrix),
        "calculus.bracket_general_us": per_point(
            lambda F: fn_bracket(C, berwald_connection(F)).matrix),
        "calculus.bracket_1_1_us": per_point(bracket_1_1) / n_pairs,
        "connections.dh_omega_s": per_point(
            lambda F: lambda p: dh_omega_residual(F, berwald_connection(F), [p]),
            scale=1.0, args=points),
        "connections.h_L_matrix_us": per_point(h_L),
        "connections.wagner_matrix_us": per_point(wagner),
    }


def profile_metrics(stats):
    """Counts and per-module self time from a ``pstats.Stats`` of the profiled slice."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(("jet_allocs", "lifts", "omega_evals", "sharp_calls",
                            "float_solves"), 0)
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, callers) in stats.stats.items():
        path = Path(filename)
        module = path.stem if path.parent.name == "finslerlab" else None
        if module in self_s:
            self_s[module] += tottime
        if module == "jets":
            if func in ("__init__", "__new__"):
                counts["jet_allocs"] += ncalls
            elif func == "fresh_tag":
                counts["lifts"] += ncalls
        elif module == "finsler":
            if func == "omega_matrix":
                counts["omega_evals"] += ncalls
            elif func == "sharp_at":
                counts["sharp_calls"] += ncalls
        elif func == "solve" and "linalg" in path.parts:
            counts["float_solves"] += sum(
                c[0] for (cfile, _l, _f), c in callers.items()
                if Path(cfile).name == "finsler.py")
    metrics = {f"{m}.self_s": s for m, s in self_s.items()}
    metrics.update({
        "jets.jet_allocs": counts["jet_allocs"],
        "jets.lifts": counts["lifts"],
        "finsler.omega_evals": counts["omega_evals"],
        "finsler.sharp_calls": counts["sharp_calls"],
        "finsler.float_solves": counts["float_solves"],
    })
    return metrics


def cold_cells(seed, samples):
    """Run every (check, fixture) cell alone; returns the per-cell records."""
    cells = []
    for spec in list_checks():
        for fid in fixture_ids():
            if fid not in spec.fixtures:
                continue
            cfg = RunConfig(fixtures=[fid], seed=seed, samples=samples, checks=[spec.id])
            t0 = time.thread_time()
            results, _ = run_checks(cfg)
            wall = time.thread_time() - t0
            (res,) = results
            cells.append({"check": spec.id, "fixture": fid, "cold_s": wall,
                          "pass": res.passed, "max_residual": res.max_residual,
                          "error": res.error})
    return cells


def cold_metrics(cells):
    """checks.CHK-xx.cold_s: the cold cell times of each check, summed over fixtures."""
    out = {f"checks.{spec.id}.cold_s": 0.0 for spec in list_checks()}
    for cell in cells:
        out[f"checks.{cell['check']}.cold_s"] += cell["cold_s"]
    return out
