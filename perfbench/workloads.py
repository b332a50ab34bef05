"""The three benchmark workloads: set-up, one measured pass, and output checks.

Every workload drives finslerlab only through its public functions (and, for
``suite``, through ``cli.main``).  A workload object offers

* ``setup()``: grid sampling plus construction and validation of each
  fixture's structure; this is the work ``setup_s`` times;
* ``run_pass(k, size, profiler, clock)``: pass ``k`` of the workload, timed
  with ``clock``.  Structures are rebuilt before the timed loop, so memo
  growth is bounded by one pass and does not depend on how many passes fit
  into a run.  Outputs are checked after the timed loop;
* ``grid`` and ``probe_points()``: where the per-layer probes run.

Inputs depend only on the seed: pass ``k`` of seed ``s`` always draws the
same points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import finslerlab
from finslerlab import cli
from finslerlab.calculus import (
    DifferentialForm, fn_bracket, frame_vector, vertical_endomorphism,
)
from finslerlab.checks import list_checks
from finslerlab.connections import (
    berwald, dh_omega_residual, l_ehresmann_connection, vector_form2_residual,
    weak_torsion,
)
from finslerlab.core import sample_slit_points
from finslerlab.errors import FinslerLabError
from finslerlab.finsler import (
    berwald_connection, canonical_spray, finsler_fixture, fixture_ids,
    projector_residual, sharp,
)
from finslerlab.registry import build_field

SRC = Path(__file__).resolve().parent.parent / "src"
if SRC not in Path(finslerlab.__file__).resolve().parents:
    raise SystemExit(f"finslerlab was imported from {finslerlab.__file__}, not from {SRC}")

THIRD_ORDER_TOL = 1e-7      # CHK-15's tolerance for d_h omega
PROJECTOR_TOL = 1e-8        # connections.PRE_TOL, the projector-law pre-check
ROUND_TRIP_TOL = 1e-9       # CHK-03's tolerance for i_{sharp b} omega = b
SEMISPRAY_TOL = 1e-9


@dataclass
class PassResult:
    """One pass: its (start, end) and those of each query, on the pass's clock."""

    wall: tuple
    spans: list
    attempted: int
    failed: int
    notes: list = field(default_factory=list)
    digest: str | None = None


def stream_seed(*keys: int) -> int:
    """A seed for one input stream; distinct key tuples give independent streams."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def pass_seed(seed: int, k: int) -> int:
    """Seed of the points of pass ``k``; the probes use the first points of pass 0."""
    return stream_seed(seed, 0, k)


def _fixture_structures(grid, n):
    return {fid: finsler_fixture(fid, grid, n=n) for fid in fixture_ids()}


class Suite:
    """``finslerlab check`` at its defaults, in-process through ``cli.main``.

    One query is one whole check run: the report is printed only when every
    cell is done, so that is the latency a user sees.
    """

    name = "suite"
    n = 2
    samples = 32        # the default of `finslerlab check`
    trace_size = 8      # samples of the profiled check run
    cold_samples = 16   # samples of the cold per-cell timings
    min_passes = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.grid = sample_slit_points(self.n, self.samples, self.seed)
        self.structures = _fixture_structures(self.grid, self.n)

    def probe_points(self):
        return list(self.grid)[:6]

    def run_pass(self, k, size=None, profiler=None, clock=time.thread_time):
        argv = ["check", "--seed", str(self.seed)]
        if size is not None:
            argv += ["--samples", str(size)]
        out = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out):
            if profiler is not None:
                profiler.enable()
            try:
                code = cli.main(argv)
            finally:
                if profiler is not None:
                    profiler.disable()
        wall = (start, clock())
        report = out.getvalue()
        expected = len(list_checks()) * len(fixture_ids())
        records = [json.loads(line) for line in report.splitlines()]
        failed = sum(1 for r in records if r.get("pass") is not True)
        notes = [f"{r['check']}/{r['fixture']}: {r.get('error') or r['max_residual']}"
                 for r in records if r.get("pass") is not True]
        if len(records) != expected:
            failed = max(failed, expected - len(records), 1)
            notes.append(f"{len(records)} records, expected {expected}")
        if code != 0 and failed == 0:
            failed = 1
            notes.append(f"exit code {code} with every cell passing")
        return PassResult(wall, [wall], max(expected, len(records)), failed, notes,
                          hashlib.sha256(report.encode("utf-8")).hexdigest())


class ThirdOrder:
    """n = 3: d_h omega for the Berwald h0 and for h_L with L = [J, E dy1], plus [J, h0].

    One query evaluates the three quantities at one fresh point for every
    fixture, so every evaluation runs at a jet-lifted point.  (Per fixture the
    costs differ by 2x, and a median over so few queries would jump between
    fixtures.)
    """

    name = "third-order-n3"
    n = 3
    grid_size = 4            # validation grid of the structures and connections
    points_per_pass = 2      # points per pass; each is evaluated on every fixture
    trace_size = 2
    cold_samples = 4
    min_passes = 2

    def __init__(self, seed: int):
        self.seed = seed

    def _objects(self):
        J = vertical_endomorphism(self.n)
        objects = []
        for fid, F in _fixture_structures(self.grid, self.n).items():
            h0 = berwald(F)
            hL = l_ehresmann_connection(F, fn_bracket(J, build_field(F, "E-dy1")))
            objects.append((fid, F, h0, hL, weak_torsion(F, h0)))
        return objects

    def setup(self):
        self.grid = sample_slit_points(self.n, self.grid_size, self.seed)
        self.objects = self._objects()  # timed by setup_s; each pass builds its own

    def probe_points(self):
        return list(sample_slit_points(self.n, 6, pass_seed(self.seed, 0)))

    def run_pass(self, k, size=None, profiler=None, clock=time.thread_time):
        objects = self._objects()
        points = list(sample_slit_points(self.n, size or self.points_per_pass,
                                         pass_seed(self.seed, k)))
        spans, results = [], []
        if profiler is not None:
            profiler.enable()
        start = clock()
        for p in points:
            t0 = clock()
            for fid, F, h0, hL, torsion in objects:
                try:
                    res = (dh_omega_residual(F, h0, [p]), dh_omega_residual(F, hL, [p]),
                           vector_form2_residual(torsion, [p]))
                except FinslerLabError as e:
                    res = e
                results.append((fid, F, h0, hL, p, res))
            spans.append((t0, clock()))
        wall = (start, clock())
        if profiler is not None:
            profiler.disable()
        failed, notes = 0, []
        for fid, F, h0, hL, p, res in results:
            if isinstance(res, FinslerLabError):
                failed += 1
                notes.append(f"{fid} {p.coords()}: {type(res).__name__}: {res}")
                continue
            proj = (projector_residual(F, h0.form, [p]), projector_residual(F, hL.form, [p]))
            # all(), not max(): max() drops a NaN that is not first.
            if not (all(r < THIRD_ORDER_TOL for r in res)
                    and all(r < PROJECTOR_TOL for r in proj)):
                failed += 1
                notes.append(f"{fid} {p.coords()}: residuals {res}, projector {proj}")
        return PassResult(wall, spans, len(results), failed, notes)


def seeded_one_form(n: int, seed: int) -> DifferentialForm:
    """An affine 1-form b(z)(v) = sum_a (c_a + sum_b l_ab z_b) v_a with seeded coefficients."""
    rng = np.random.default_rng(seed)
    n2 = 2 * n
    const = rng.uniform(-1, 1, n2).tolist()
    lin = rng.uniform(-1, 1, (n2, n2)).tolist()

    def ev(z, v):
        acc = 0.0
        for a in range(n2):
            coeff = const[a]
            for b in range(n2):
                coeff = coeff + lin[a][b] * z[b]
            acc = acc + coeff * v[a]
        return acc

    return DifferentialForm(1, ev, n, name=f"beta{seed}")


class PointQueries:
    """n = 2 point queries, round-robin over the fixtures, one caller, batch size 1.

    A query evaluates canonical_spray(F)(z), berwald_connection(F).matrix(z)
    and sharp(F, b)(z) at a fresh point, so no memo ever hits.
    """

    name = "point-queries"
    n = 2
    grid_size = 32
    queries_per_pass = 1000
    trace_size = 600
    cold_samples = 4
    min_passes = 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.grid = sample_slit_points(self.n, self.grid_size, self.seed)
        # Timed by setup_s; each pass builds its own.
        self.structures = _fixture_structures(self.grid, self.n)

    def probe_points(self):
        return list(sample_slit_points(self.n, 6, pass_seed(self.seed, 0)))

    def run_pass(self, k, size=None, profiler=None, clock=time.thread_time):
        n2 = 2 * self.n
        objects = []
        for i, F in enumerate(_fixture_structures(self.grid, self.n).values()):
            beta = seeded_one_form(self.n, stream_seed(self.seed, 1, i))
            objects.append((F, canonical_spray(F), berwald_connection(F), sharp(F, beta), beta))
        count = size or self.queries_per_pass
        coords = [p.coords() for p in sample_slit_points(self.n, count, pass_seed(self.seed, k))]
        spans, answers = [], []
        if profiler is not None:
            profiler.enable()
        start = clock()
        for i, z in enumerate(coords):
            F, spray, h0, x, beta = objects[i % len(objects)]
            t0 = clock()
            try:
                answer = (spray(z), h0.matrix(z), x(z))
            except FinslerLabError as e:
                answer = e
            spans.append((t0, clock()))
            answers.append(answer)
        wall = (start, clock())
        if profiler is not None:
            profiler.disable()
        failed, notes = 0, []
        frame = [frame_vector(n2, b) for b in range(n2)]
        for i, (z, answer) in enumerate(zip(coords, answers)):
            F, _, _, _, beta = objects[i % len(objects)]
            if isinstance(answer, FinslerLabError):
                failed += 1
                notes.append(f"{F.name} {z}: {type(answer).__name__}: {answer}")
                continue
            s, _, xz = answer
            semispray = [abs(s[j] - z[self.n + j]) for j in range(self.n)]
            m = F.omega_matrix_at(z)
            round_trip = [abs(sum(xz[a] * m[a][b] for a in range(n2)) - beta(z, frame[b]))
                          for b in range(n2)]
            if not (all(r <= SEMISPRAY_TOL for r in semispray)
                    and all(r <= ROUND_TRIP_TOL for r in round_trip)):
                failed += 1
                notes.append(f"{F.name} {z}: J S0 - C {semispray}, round trip {round_trip}")
        return PassResult(wall, spans, count, failed, notes)


WORKLOADS = {w.name: w for w in (Suite, ThirdOrder, PointQueries)}
