"""Points of the slit tangent bundle, scalar fields, and reproducible sampling.

Coordinates on the tangent bundle of R^n are ordered (x^1..x^n, y^1..y^n);
index a < n is a base direction, a >= n a fiber direction.  Scalar fields are
pure evaluators over these 2n coordinates and accept jet-valued inputs, which
is what makes every derivative in the library exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import BadConfig, OrderOutOfRange, ZeroSection

DEFAULT_BASE_RANGE = (-1.0, 1.0)
DEFAULT_FIBER_RANGE = (-2.0, 2.0)
DEFAULT_MIN_FIBER_NORM = 0.1
DEFAULT_SEED = 42
DEFAULT_SAMPLES = 32


@dataclass(frozen=True)
class TangentPoint:
    """A point (x, y) of the slit bundle over R^n; y must be nonzero."""

    base: tuple
    fiber: tuple

    def __post_init__(self):
        if len(self.base) != len(self.fiber):
            raise BadConfig("base and fiber must have the same dimension")
        if len(self.base) < 2:
            raise BadConfig("dimension must be at least 2")
        if self.fiber_norm() <= 0.0:
            raise ZeroSection(f"fiber must be nonzero, got {self.fiber}")

    @property
    def n(self) -> int:
        return len(self.base)

    def fiber_norm(self) -> float:
        return math.sqrt(sum(y * y for y in self.fiber))

    def coords(self) -> list:
        """Flat coordinate list (x^1..x^n, y^1..y^n)."""
        return list(self.base) + list(self.fiber)


class PointBatch:
    """A batch of slit-bundle points, evaluated as one point.

    Its 2n coordinates are batches over the points, in order: plain 1-d
    float arrays (``jets.Batch`` names the type).  An evaluator called once
    at ``coords()`` computes its values at every point of the batch, provided
    it keeps the batch rules in ``jets``: it never reads a batch's own
    truthiness, and it raises to constant powers with ``jets.power``, not
    ``**``.  Built from a ``SampleGrid`` or any sequence of TangentPoints
    and PointBatches of one dimension: a batch in the sequence contributes
    its points, so the batch holds every point in order, and ``points[i]``
    is the point of slot i.  An empty sequence raises ``BadConfig``.
    """

    __slots__ = ("points", "_coords")

    def __init__(self, points):
        self.points = tuple(q for p in points
                            for q in (p.points if isinstance(p, PointBatch) else (p,)))
        if not self.points:
            raise BadConfig("a grid needs at least one point")
        self._coords = [jets.batch(c) for c in zip(*(p.coords() for p in self.points))]
        for c in self._coords:
            c.flags.writeable = False  # shared by every coords() list

    @property
    def n(self) -> int:
        return self.points[0].n

    def __len__(self):
        return len(self.points)

    def coords(self) -> list:
        """Flat coordinate list (x^1..x^n, y^1..y^n), each a Batch over the points."""
        return list(self._coords)


def grid_coords(grid) -> list:
    """The coordinates of a grid of points, evaluated as one point.

    A grid of one TangentPoint or one PointBatch gives that point's
    ``coords()``, so a single TangentPoint is evaluated on floats; any other
    grid gives those of one ``PointBatch`` of all its points, in order.  An
    empty grid raises ``BadConfig``.
    """
    points = tuple(grid)
    if len(points) == 1:
        return points[0].coords()
    return PointBatch(points).coords()


def point(*coords) -> TangentPoint:
    """Build a TangentPoint from 2n flat coordinates."""
    if len(coords) % 2:
        raise BadConfig("need an even number of coordinates")
    n = len(coords) // 2
    return TangentPoint(tuple(float(c) for c in coords[:n]),
                        tuple(float(c) for c in coords[n:]))


class ScalarField:
    """Smooth real function of the 2n bundle coordinates, evaluable on jets."""

    __slots__ = ("fn", "n", "name")

    def __init__(self, fn, n: int, name: str = ""):
        self.fn = fn
        self.n = n
        self.name = name

    def __call__(self, z):
        return self.fn(z)

    def __repr__(self):
        return f"ScalarField({self.name or 'anonymous'}, n={self.n})"

    # pointwise algebra, closing over the operand evaluators

    def _lift(self, other):
        if isinstance(other, ScalarField):
            return other.fn
        return lambda z: other

    def __add__(self, other):
        g = self._lift(other)
        return ScalarField(lambda z: self.fn(z) + g(z), self.n)

    __radd__ = __add__

    def __sub__(self, other):
        g = self._lift(other)
        return ScalarField(lambda z: self.fn(z) - g(z), self.n)

    def __rsub__(self, other):
        g = self._lift(other)
        return ScalarField(lambda z: g(z) - self.fn(z), self.n)

    def __mul__(self, other):
        g = self._lift(other)
        return ScalarField(lambda z: self.fn(z) * g(z), self.n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._lift(other)
        return ScalarField(lambda z: self.fn(z) / g(z), self.n)

    def __rtruediv__(self, other):
        g = self._lift(other)
        return ScalarField(lambda z: g(z) / self.fn(z), self.n)

    def __neg__(self):
        return ScalarField(lambda z: -self.fn(z), self.n)


def constant(n: int, c: float) -> ScalarField:
    return ScalarField(lambda z: c, n, name=f"const({c})")


class BaseFunction:
    """Smooth function of the base coordinates only (a function on M)."""

    __slots__ = ("fn", "n", "name")

    def __init__(self, fn, n: int, name: str = ""):
        self.fn = fn
        self.n = n
        self.name = name

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"BaseFunction({self.name or 'anonymous'}, n={self.n})"


def evaluate(fld: ScalarField, p: TangentPoint, min_fiber_norm: float = 0.0):
    """Evaluate a scalar field at a point of the slit bundle."""
    if p.fiber_norm() < min_fiber_norm or p.fiber_norm() == 0.0:
        raise ZeroSection(f"point too close to the zero section: {p}")
    return fld(p.coords())


def directional_derivative(fld: ScalarField, p: TangentPoint, dirs, order: int):
    """Exact mixed directional derivative of order 1..3 via nested jets."""
    if not 1 <= order <= 3:
        raise OrderOutOfRange(f"order must be 1..3, got {order}")
    if len(dirs) != order:
        raise OrderOutOfRange(f"need {order} directions, got {len(dirs)}")
    return jets.nth_directional(fld.fn, p.coords(), [list(d) for d in dirs])


@dataclass(frozen=True)
class SampleGrid:
    """Deterministic batch of slit-bundle points, reproducible from its config."""

    points: tuple
    seed: int
    base_range: tuple = DEFAULT_BASE_RANGE
    fiber_range: tuple = DEFAULT_FIBER_RANGE
    min_fiber_norm: float = DEFAULT_MIN_FIBER_NORM
    n: int = 2

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def sample_slit_points(n: int, count: int, seed: int,
                       base_range=DEFAULT_BASE_RANGE,
                       fiber_range=DEFAULT_FIBER_RANGE,
                       min_fiber_norm: float = DEFAULT_MIN_FIBER_NORM) -> SampleGrid:
    """Draw ``count`` points uniformly from the box, rejecting short fibers.

    Identical arguments reproduce identical grids bit for bit.
    """
    if count < 1:
        raise BadConfig(f"count must be >= 1, got {count}")
    if n < 2:
        raise BadConfig(f"dimension must be >= 2, got {n}")
    if min_fiber_norm <= 0.0:
        raise BadConfig(f"min_fiber_norm must be positive, got {min_fiber_norm}")
    reach = max(abs(fiber_range[0]), abs(fiber_range[1])) * math.sqrt(n)
    if min_fiber_norm >= reach:
        raise BadConfig("min_fiber_norm unreachable inside the fiber box")

    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        base = tuple(float(v) for v in rng.uniform(base_range[0], base_range[1], n))
        for _attempt in range(1000):
            fiber = tuple(float(v) for v in rng.uniform(fiber_range[0], fiber_range[1], n))
            if math.sqrt(sum(y * y for y in fiber)) >= min_fiber_norm:
                break
        else:  # pragma: no cover - probability ~0 for sane configs
            raise BadConfig("could not sample a fiber above min_fiber_norm")
        pts.append(TangentPoint(base, fiber))
    return SampleGrid(points=tuple(pts), seed=seed, base_range=tuple(base_range),
                      fiber_range=tuple(fiber_range), min_fiber_norm=min_fiber_norm, n=n)
