"""Shared oracles and small utilities for the test suite.

The finite-difference oracle here is deliberately independent of the jet
machinery: it only ever calls the function under test on plain float
coordinates.  The constructions at the end are the library objects that only
tests use, among them the generic references that library shortcuts are
compared with: ``dh_omega_form`` for ``connections.dh_omega_residual`` and
``sharp_of_dLE_reference`` for ``connections.sharp_of_dLE``.
"""

from __future__ import annotations

import contextlib
import functools
import gc

import numpy as np

from finslerlab.calculus import VectorField, d_K, exterior_derivative, insert_one_form
from finslerlab.core import ScalarField
from finslerlab.finsler import sharp
from finslerlab.registry import BASE_FUNCTIONS


def fd_directional(fn, coords, direction, h=1e-5):
    """Central finite difference of a scalar function along one direction."""
    zp = [c + h * d for c, d in zip(coords, direction)]
    zm = [c - h * d for c, d in zip(coords, direction)]
    return (fn(zp) - fn(zm)) / (2.0 * h)


def fd_mixed(fn, coords, directions, h=1e-4):
    """Mixed directional derivative via nested central differences.

    Accuracy degrades quickly with order; callers pick h and tolerance per
    order (see the derivative-substrate tests).
    """
    if len(directions) == 1:
        return fd_directional(fn, coords, directions[0], h)

    def inner(z):
        return fd_mixed(fn, z, directions[1:], h)

    return fd_directional(inner, coords, directions[0], h)


def fd_vector(fn, coords, direction, h=1e-6):
    """Central finite difference of a vector-valued function."""
    zp = [c + h * d for c, d in zip(coords, direction)]
    zm = [c - h * d for c, d in zip(coords, direction)]
    fp, fm = fn(zp), fn(zm)
    return [(a - b) / (2.0 * h) for a, b in zip(fp, fm)]


def maxabs(values):
    return max(abs(v) for v in values) if values else 0.0


@contextlib.contextmanager
def collector_off():
    """The block runs with the cycle collector off, so only reference counting
    frees what it makes."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cyclic_garbage(run) -> int:
    """The number of objects that ``run()`` leaves for the cycle collector.

    Earlier garbage is collected first; ``run()`` then runs with the
    collector off, and ``gc.collect()`` under ``gc.DEBUG_SAVEALL`` counts
    what it left unreachable, before the collector is on again: the first
    allocation after that could collect it unseen.
    """
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with collector_off():
            run()
            return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


# every registry id at n = 2, each prefix with every base function and every
# field or form it can take; but l:jv:S0, whose form [J, S0] is not semibasic
FIELD_IDS = ["C", "S0", "vlift:1", "vlift:2", "E-dy1", "half-y1-C", "half-sqrtE-C"]
FORM_IDS = ["zero"] + [f"{prefix}:{f}" for prefix in ("wagner-form", "fvJ")
                       for f in BASE_FUNCTIONS] + [f"jv:{v}" for v in FIELD_IDS]
CONNECTION_IDS = ["berwald"] + [f"wagner:{f}" for f in BASE_FUNCTIONS] + \
    [f"l:{L}" for L in FORM_IDS if L != "jv:S0"]
REGISTRY_IDS = FIELD_IDS + FORM_IDS + CONNECTION_IDS


def point_memo(evaluator):
    """The ``memo.PointMemo`` that a memoised evaluator reads through, or None.

    A field's ``at``, a vector form's ``matrix`` and a structure's
    ``shared_omega_at`` are ``functools.partial(memo.get, compute=...)`` when
    memoised.
    """
    if isinstance(evaluator, functools.partial):
        return evaluator.func.__self__
    return None


def frame(n2, a):
    v = [0.0] * n2
    v[a] = 1.0
    return v


def constant_vector_field(vec, n: int, name: str = "") -> VectorField:
    vals = [float(v) for v in vec]
    return VectorField(lambda z: list(vals), n, name)


def random_scalar_fields(n: int, count: int, seed: int):
    """Quadratic polynomials with uniform coefficients; smooth and well scaled."""
    rng = np.random.default_rng(seed)
    n2 = 2 * n
    out = []
    for _ in range(count):
        lin = rng.uniform(-1, 1, n2).tolist()
        quad = rng.uniform(-1, 1, (n2, n2)).tolist()

        def ev(z, lin=lin, quad=quad):
            acc = sum(lin[a] * z[a] for a in range(n2))
            for i in range(n2):
                for j in range(n2):
                    acc = acc + quad[i][j] * z[i] * z[j]
            return acc

        out.append(ScalarField(ev, n))
    return out


def dh_omega_form(F, h):
    """d_h omega as a generic 3-form (reference path for the shared driver)."""
    om = F.omega.two_form
    return insert_one_form(h, exterior_derivative(om)) \
        - exterior_derivative(insert_one_form(h, om))


def sharp_of_dLE_reference(F, L):
    """(d_L E)# as the sharp of the generic 1-form d_K(L, E), whose every
    evaluation is a fresh pass of E along L's columns (the library contracts
    L's matrix with the dE of the structure's memo instead)."""
    return sharp(F, d_K(L, F.E))
