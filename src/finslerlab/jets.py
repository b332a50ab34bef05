"""First-order jet (dual number) arithmetic with safe nesting.

A ``Jet`` stores a value and one directional-derivative coefficient.  Nesting
jets inside jets yields exact mixed derivatives of any order; every lift gets
a fresh integer tag so that arithmetic between jets created at different
nesting levels cannot confuse their infinitesimals (the classic perturbation
confusion bug).  The tag order is the nesting order: when two jets meet, the
one with the larger tag is the outer wrapper and treats the other as a
constant coefficient.

Tags act only through their order: arithmetic compares two tags with ``==``
and ``>``, never by value, and a jet's value and coefficient carry only tags
smaller than its own.  ``nth_directional`` and ``jvp`` strip the tags they
create before they return, so no internal tag escapes into a result.  Hence
renaming the tags of a computation's inputs by an order-preserving map
(``retag``) renames those of its outputs and changes nothing else; the point
memos (``calculus.PointMemo``) rely on this.

Tangents are sparse by structure: a lift leaves a coordinate whose direction
component is an exact float zero untagged, so arithmetic on it never carries
an identically-zero derivative coefficient.  ``tangent()`` of an untagged
value is ``0.0``, and the tag-ordered operators treat it as a constant, so
the result is the same as wrapping it with a zero coefficient.

Vector mode: a ``Vec`` is a tangent with one slot per lifted direction.
Lifting along ``vec_frame(k)``, whose component ``a`` is the a-th unit Vec,
moves all k frame directions under one tag in a single pass, and every
evaluator that is linear in its direction then returns all k values at once
(``slots`` unpacks them).  Four rules keep a vector pass exact:

1. A Jet's ``dot`` is a Vec exactly when its tag is a vector lift's tag.  A
   Vec is never a Jet's ``val``.
2. Jet operators return ``NotImplemented`` for a Vec operand, so the Vec
   computes the result slot by slot; a scalar operand (a float or a Jet)
   broadcasts across the slots.
3. An exact float-zero slot is structural: it is carried without arithmetic.
   This is the slot analogue of the untagged coordinate in ``lift``.
4. ``tangent``, ``primal`` and ``retag`` (and ``calculus.point_key``, the
   key of every point memo) map over slots.

Each slot then performs the float operations of the scalar pass along its
direction in the same order, operands swapped at most across a commutative
operation, so a vector pass gives the scalar passes' values; only the signs
of zeros can differ.

Batches: a batch holds the values of one quantity at a batch of points, a
plain 1-d float ``np.ndarray`` (``Batch`` is that type, named for the
concept), and stands wherever a float may: as a coordinate, a jet part or a
Vec slot.  One jet operation on batches then does the work of every point of
the batch in one numpy call.  Three rules keep a batch pass equal to the
per-point passes, value for value:

1. A batch is never a structural zero.  A structural zero is a value that is
   not an array and is falsy; ``lift`` and the Vec operators test exactly
   that (an array's own truthiness would raise, or read the value of a
   one-point batch).  So ``lift`` tags a coordinate whose direction is a
   batch, and a Vec slot that is a batch takes part in arithmetic; where a
   point's own pass would skip an exact zero, the batch multiplies or adds
   it, which changes at most the sign of a zero.
2. ``exp``, ``log``, ``sin``, ``cos`` and ``power`` apply libm per element,
   as the float pass does; numpy's vectorised versions round differently.
   Batch-exact code calls them, not ``np.exp`` and the rest, and raises to a
   constant power with ``power`` (or ``**`` on a Jet, which calls it), never
   with ``**`` on a bare array, which is numpy's own power.  ``sqrt`` and
   field arithmetic are correctly rounded either way.
3. ``Jet`` and ``Vec`` set ``__array_ufunc__ = None``, so numpy's operators
   return ``NotImplemented`` for them and a batch on the left of a Jet or a
   Vec defers to their reflected operator.

Control flow that reads a value must not read a batch as one bool: the
callers that branch on a value (the pivot guard of the sharp solve, the
energy axioms, ``sup_abs``) do so per point.

Only operations needed by smooth energy functions on the slit bundle are
implemented: field arithmetic, constant powers, sqrt, exp, log, sin, cos.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_TAGS = itertools.count(1)

Batch = np.ndarray
"""The float values of one quantity at a batch of points: a plain 1-d array."""


def fresh_tag() -> int:
    """Return a new, globally unique lift tag (monotonically increasing)."""
    return next(_TAGS)


class Jet:
    """value + epsilon * dot, for one particular lift tag."""

    __slots__ = ("tag", "val", "dot")
    __array_ufunc__ = None

    def __init__(self, tag, val, dot):
        self.tag = tag
        self.val = val
        self.dot = dot

    # -- helpers -----------------------------------------------------------

    def __repr__(self):
        return f"Jet<{self.tag}>({self.val!r}, {self.dot!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, o):
        if type(o) is Jet:
            t = o.tag
            if t == self.tag:
                return Jet(t, self.val + o.val, self.dot + o.dot)
            if t > self.tag:
                return Jet(t, self + o.val, o.dot)
        elif type(o) is Vec:
            return NotImplemented
        return Jet(self.tag, self.val + o, self.dot)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.tag, -self.val, -self.dot)

    def __sub__(self, o):
        if type(o) is Jet:
            t = o.tag
            if t == self.tag:
                return Jet(t, self.val - o.val, self.dot - o.dot)
            if t > self.tag:
                return Jet(t, self - o.val, -o.dot)
        elif type(o) is Vec:
            return NotImplemented
        return Jet(self.tag, self.val - o, self.dot)

    def __rsub__(self, o):
        # o is scalar or lower-tag jet
        return Jet(self.tag, o - self.val, -self.dot)

    def __mul__(self, o):
        if type(o) is Jet:
            t = o.tag
            if t == self.tag:
                sd, od = self.dot, o.dot
                if type(sd) is Vec and type(od) is Vec:
                    return Jet(t, self.val * o.val, sd.mul_add(o.val, self.val, od))
                return Jet(t, self.val * o.val, self.val * od + sd * o.val)
            if t > self.tag:
                return Jet(t, self * o.val, self * o.dot)
        elif type(o) is Vec:
            return NotImplemented
        return Jet(self.tag, self.val * o, self.dot * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is Jet:
            t = o.tag
            if t == self.tag:
                q = self.val / o.val
                return Jet(t, q, (self.dot - q * o.dot) / o.val)
            if t > self.tag:
                q = self / o.val
                return Jet(t, q, -q * o.dot / o.val)
        elif type(o) is Vec:
            return NotImplemented
        return Jet(self.tag, self.val / o, self.dot / o)

    def __rtruediv__(self, o):
        q = o / self.val
        return Jet(self.tag, q, -q * self.dot / self.val)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("jet powers must have constant numeric exponents")
        return Jet(self.tag, power(self.val, p), p * power(self.val, p - 1) * self.dot)

    # -- smooth primitives ---------------------------------------------------

    def sqrt(self):
        r = sqrt(self.val)
        return Jet(self.tag, r, self.dot / (2.0 * r))

    def exp(self):
        e = exp(self.val)
        return Jet(self.tag, e, e * self.dot)

    def log(self):
        return Jet(self.tag, log(self.val), self.dot / self.val)

    def sin(self):
        return Jet(self.tag, sin(self.val), cos(self.val) * self.dot)

    def cos(self):
        return Jet(self.tag, cos(self.val), -sin(self.val) * self.dot)


class Vec:
    """A tangent with one slot per direction of a vector lift.

    Vecs add and subtract slot by slot; any other operand is a scalar (a
    float, a batch or a Jet) and broadcasts across the slots.  An exact-zero
    slot is structural: it is carried as it is, never used in arithmetic; a
    batch slot never is.  Vecs are never mutated, so one may be shared.
    """

    __slots__ = ("s",)
    __array_ufunc__ = None

    def __init__(self, s):
        self.s = s

    def __repr__(self):
        return f"Vec({self.s!r})"

    def __add__(self, o):
        if type(o) is Vec:
            return Vec([b if type(a) is not Batch and not a else
                        a if type(b) is not Batch and not b else a + b
                        for a, b in zip(self.s, o.s)])
        if type(o) is not Batch and not o:
            return self
        return Vec([o if type(a) is not Batch and not a else a + o for a in self.s])

    def __radd__(self, o):
        if type(o) is not Batch and not o:
            return self
        return Vec([o if type(a) is not Batch and not a else o + a for a in self.s])

    def __neg__(self):
        return Vec([a if type(a) is not Batch and not a else -a for a in self.s])

    def __sub__(self, o):
        if type(o) is Vec:
            return Vec([a if type(b) is not Batch and not b else
                        -b if type(a) is not Batch and not a else a - b
                        for a, b in zip(self.s, o.s)])
        if type(o) is not Batch and not o:
            return self
        return Vec([-o if type(a) is not Batch and not a else a - o for a in self.s])

    def __rsub__(self, o):
        if type(o) is not Batch and not o:
            return -self
        return Vec([o if type(a) is not Batch and not a else o - a for a in self.s])

    def __mul__(self, o):
        if type(o) is Vec:
            return NotImplemented
        return Vec([a if type(a) is not Batch and not a else a * o for a in self.s])

    def __rmul__(self, o):
        return Vec([a if type(a) is not Batch and not a else o * a for a in self.s])

    def __truediv__(self, o):
        if type(o) is Vec:
            return NotImplemented
        return Vec([a if type(a) is not Batch and not a else a / o for a in self.s])

    def mul_add(self, x, y, w):
        """``y * w + self * x`` for scalars x, y and a Vec w, in one pass over the slots.

        The product rule of a Jet whose dots are Vecs: each slot does what
        ``y * w + self * x`` does, with the structural zeros of both Vecs.
        """
        return Vec([(a if type(a) is not Batch and not a else a * x)
                    if type(b) is not Batch and not b else
                    y * b if type(a) is not Batch and not a else y * b + a * x
                    for a, b in zip(self.s, w.s)])


def vec_frame(k: int):
    """The identity frame of a vector lift: component ``a`` is the a-th unit Vec."""
    return [Vec([1.0 if b == a else 0.0 for b in range(k)]) for a in range(k)]


def slots(x, k: int):
    """The k slot values of ``x``: a Vec's own slot list (do not modify it),
    or a scalar in every slot."""
    return x.s if type(x) is Vec else [x] * k


def batch(values) -> Batch:
    """The values (a sequence of floats or an array) as a batch, a 1-d float array."""
    return np.asarray(values, dtype=float)


def batch_size(z):
    """The number of points of a batch point ``z``, or None if no coordinate is a Batch."""
    for c in z:
        if type(c) is Batch:
            return len(c)
    return None


def stacked(m, z):
    """The real parts of a matrix of floats, batches and jets at point ``z`` as
    one float array of shape (points, rows, columns): one point at a float or
    jet point, ``batch_size(z)`` at a batch point.

    At a float or jet point the real parts are floats, and one ``np.array``
    call stacks them.  At a batch point each entry is assigned into its
    slice, which is exact and much faster than ``np.array`` over broadcast
    views.
    """
    size = batch_size(z)
    if size is None:
        return np.array([[[realpart(x) for x in row] for row in m]])
    out = np.empty((size, len(m), len(m[0])))
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            out[:, i, j] = realpart(x)
    return out


def _per_element(f, x):
    return batch([f(v) for v in x.tolist()])


def power(x, p):
    """``x ** p`` for a constant p; a batch applies libm per element."""
    return _per_element(lambda v: v ** p, x) if type(x) is Batch else x ** p


def sqrt(x):
    t = type(x)
    if t is Jet:
        return x.sqrt()
    return np.sqrt(x) if t is Batch else math.sqrt(x)


def exp(x):
    t = type(x)
    if t is Jet:
        return x.exp()
    return _per_element(math.exp, x) if t is Batch else math.exp(x)


def log(x):
    t = type(x)
    if t is Jet:
        return x.log()
    return _per_element(math.log, x) if t is Batch else math.log(x)


def sin(x):
    t = type(x)
    if t is Jet:
        return x.sin()
    return _per_element(math.sin, x) if t is Batch else math.sin(x)


def cos(x):
    t = type(x)
    if t is Jet:
        return x.cos()
    return _per_element(math.cos, x) if t is Batch else math.cos(x)


def realpart(x) -> float:
    """Strip all jet layers, returning the underlying float value."""
    while type(x) is Jet:
        x = x.val
    return x


def retag(x, tag_map):
    """``x`` with every lift tag ``t`` renamed to ``tag_map[t]``.

    The map must preserve the order of the tags it renames; then the result
    is what the same computation gives on the renamed inputs.  A tag missing
    from the map raises ``KeyError``.
    """
    if type(x) is Jet:
        return Jet(tag_map[x.tag], retag(x.val, tag_map), retag(x.dot, tag_map))
    if type(x) is Vec:
        return Vec([retag(a, tag_map) for a in x.s])
    return x


def lift(coords, direction, tag):
    """Wrap each coordinate as value + epsilon_tag * direction component.

    A coordinate whose component is a structural zero (an exact float zero),
    or a Vec of structural zeros, is returned as is (untagged): the lift does
    not move it, and ``tangent()`` of an untagged value is ``0.0``.  A jet- or
    batch-valued component is always lifted, whatever its value: a jet carries
    derivatives of an enclosing lift, and a batch is never a structural zero.
    The direction of a vector lift holds Vecs and exact zeros.
    """
    out = []
    for c, d in zip(coords, direction):
        if type(d) is Vec:
            for a in d.s:
                if type(a) is Batch or a:
                    out.append(Jet(tag, c, d))
                    break
            else:
                out.append(c)
        else:
            out.append(c if type(d) is not Batch and not d else Jet(tag, c, d))
    return out


def primal(x, tag):
    """Value part of ``x`` with respect to the lift ``tag`` (slot by slot for a Vec)."""
    if type(x) is Jet:
        return x.val if x.tag == tag else x
    if type(x) is Vec:
        return Vec([primal(a, tag) for a in x.s])
    return x


def tangent(x, tag):
    """Derivative part of ``x`` with respect to the lift ``tag`` (0.0 if constant).

    A Vec maps slot by slot; after a vector lift it is the Vec of the
    derivatives along the lifted directions.
    """
    if type(x) is Jet:
        return x.dot if x.tag == tag else 0.0
    if type(x) is Vec:
        return Vec([tangent(a, tag) for a in x.s])
    return 0.0


def jvp(fn, coords, direction):
    """Evaluate ``fn`` and its directional derivative along ``direction``.

    ``fn`` maps a coordinate list to a scalar or a list of scalars; the return
    mirrors that shape as (value, derivative).
    """
    tag = fresh_tag()
    out = fn(lift(coords, direction, tag))
    if isinstance(out, (list, tuple)):
        return [primal(o, tag) for o in out], [tangent(o, tag) for o in out]
    return primal(out, tag), tangent(out, tag)


def directional(fn, coords, direction):
    """Directional derivative of a scalar-or-vector function (derivative only)."""
    return jvp(fn, coords, direction)[1]


def nth_directional(fn, coords, directions):
    """Exact mixed directional derivative D_{v1} ... D_{vk} fn at ``coords``.

    Each direction adds one nested lift; directions may themselves contain
    jets from enclosing lifts.
    """
    if not directions:
        return fn(coords)
    tag = fresh_tag()
    inner = nth_directional(fn, lift(coords, directions[-1], tag), directions[:-1])
    if isinstance(inner, (list, tuple)):
        return [tangent(c, tag) for c in inner]
    return tangent(inner, tag)
