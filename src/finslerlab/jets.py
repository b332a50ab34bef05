"""First-order jet (dual number) arithmetic with safe nesting.

A ``Jet`` stores a value and one directional-derivative coefficient.  Nesting
jets inside jets yields exact mixed derivatives of any order; each lift has
an integer tag so that arithmetic between jets created at different nesting
levels cannot confuse their infinitesimals (the classic perturbation
confusion bug).  The tag order is the nesting order: when two jets meet, the
one with the larger tag is the outer wrapper and treats the other as a
constant coefficient.

A lift along a direction gets a fresh tag; a frame lift is one per point
object (``frame_lift``): while the point is cached, every lift of the same
coordinate objects along ``vec_frame(k)`` is the same lifted point under the
same tag, so the constructions that read a point's frame lift (the brackets
and the exterior derivative of ``calculus``,
``connections.dh_omega_residual``) meet one lifted point and memo hits there
need no renaming.  Sharing that tag confuses no perturbations (Siskind &
Pearlmutter, "Perturbation confusion and referential transparency", IFL
2005): two lifts share a tag only when they are one perturbation, the same
coordinates moved along the same frame, and the tag order is kept, because
the tag was fresh when the lift was made, after every jet of the point, and
the lifted point carries it on every coordinate (no frame vector is zero),
so every point computed from it carries it and its own frame lift, made
later, has a larger tag.  The one jet a shared tag can meet out of order is
one made after the lift and held by the evaluated function (an energy that
holds jets of its own); ``frame_pass`` sees it above the tag in the value
and evaluates again at a lift with a fresh tag.

Tags act only through their order: arithmetic compares two tags with ``==``
and ``>``, never by value, and a jet's value and coefficient carry only tags
smaller than its own.  ``nth_directional`` and ``jvp`` strip the tags they
create before they return, so no internal tag escapes into a result.  Hence
renaming the tags of a computation's inputs by an order-preserving map
(``retag``) renames those of its outputs and changes nothing else; the point
memos (``memo.PointMemo``) rely on this.

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
3. Exact zeros and units are structural.  An exact zero is a value that is
   not a batch and is falsy (0.0, -0.0, or the int 0 that ``sum()`` starts
   from).  As an operand of a Jet or Vec operator, a jet part or a slot, it
   takes no arithmetic: ``x + 0`` and ``x - 0`` are x, ``0 - x`` is -x, a
   product with it is the float zero (a Vec of float zeros when the other
   factor is a Vec, which keeps rule 1), and a zero slot is carried as it
   is.  A jet times itself (``Jet._square``) forms one product per nonzero
   tangent slot, ``p = a * v`` for the slot a and the value v, and the slot
   is ``p + p``: the product rule's ``v * a + a * v`` is that, because
   IEEE products commute, so a square equals the general product up to the
   signs of zeros.  A float 1.0 factor is the identity for an operand that
   is not an exact zero: ``1.0 * x`` and ``x / 1.0`` are x itself, bit for
   bit, a NaN included; ``1.0 * 0`` is the float zero, as every product
   with an exact zero is.  Division is otherwise plain: a zero divided
   and a division by zero are computed, so a 0/0 still surfaces.  This is
   the operand analogue of the untagged coordinate in ``lift``.  NaN
   semantics: a NaN or an infinity that meets only exact zeros is dropped,
   because no product with a zero is formed (plain arithmetic gives
   ``nan * 0.0 = nan``); one that meets a nonzero value reaches the
   result, and every residual that sees it reads NaN
   (``calculus.sup_abs``).  ``_mul``, ``_add`` and ``_sub`` are the rule on
   two operands, the one copy that ``calculus`` and ``finsler`` call.  The
   zero and unit tests are written inline at every site, not as calls of a
   zero and a unit predicate: a call per operand made the third-order
   workload about 17% slower and point queries about 11% (2 cores, Python
   3.11).
4. ``tangent``, ``primal`` and ``retag`` (and ``memo.point_key``, the
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
   point's own pass would skip an exact zero or a unit, the batch multiplies
   or adds it, which changes at most the sign of a finite zero.
2. ``exp``, ``log``, ``sin``, ``cos`` and ``power`` apply libm per element,
   as the float pass does; numpy's vectorised versions round differently.
   Batch-exact code calls them, not ``np.exp`` and the rest, and raises to a
   constant power with ``power`` (or ``**`` on a Jet, which calls it), never
   with ``**`` on a bare array, which is numpy's own power.  ``sqrt`` and
   field arithmetic are correctly rounded either way.  No library module
   outside ``jets`` uses ``**``, and a test keeps it so.  The five
   elementary functions read their scalar function from ``LIBM`` at each
   call, so a test can run the library at another precision.
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

import functools
import itertools
import math

import numpy as np

_TAGS = itertools.count(1)

Batch = np.ndarray
"""The float values of one quantity at a batch of points: a plain 1-d array."""


CACHED_POINTS = 64
"""Entries each point cache (``frame_lift``, ``memo.point_key``) holds; a full
cache is emptied before it takes the next one."""

_frame_lifts = {}  # (k, ids of the coordinates) -> (tag, lifted point)
point_keys = {}
"""The cache of ``memo.point_key``.  Its entries are lifts of the points in
``frame_lift``'s cache and what is computed from them, so it is emptied with
that cache."""


def fresh_tag() -> int:
    """Return a new, globally unique lift tag (monotonically increasing)."""
    return next(_TAGS)


def _mul(x, y):
    """``x * y`` with rule 3: an exact-zero operand gives the float zero (a
    Vec of float zeros when the other operand is a Vec, as a Jet's dot keeps
    its type), and a float 1.0 gives the other operand itself; zeros first,
    so ``_mul(1.0, 0)`` is 0.0, as ``_mul(0, 1.0)`` is."""
    if type(x) is not Batch and not x:
        return Vec([0.0] * len(y.s)) if type(y) is Vec else 0.0
    if type(y) is not Batch and not y:
        return Vec([0.0] * len(x.s)) if type(x) is Vec else 0.0
    if type(x) is float and x == 1.0:
        return y
    if type(y) is float and y == 1.0:
        return x
    return x * y


def _add(x, y):
    """``x + y``; an exact zero on either side adds nothing."""
    if type(y) is not Batch and not y:
        return x
    if type(x) is not Batch and not x:
        return y
    return x + y


def _sub(x, y):
    """``x - y``; ``x - 0.0`` is x and ``0.0 - y`` is -y."""
    if type(y) is not Batch and not y:
        return x
    if type(x) is not Batch and not x:
        return -y
    return x - y


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
            if t == self.tag:  # a Vec dot keeps rule 3 itself
                sd = self.dot
                return Jet(t, _add(self.val, o.val),
                           sd + o.dot if type(sd) is Vec else _add(sd, o.dot))
            if t > self.tag:
                return Jet(t, self + o.val, o.dot)
        elif type(o) is Vec:
            return NotImplemented
        elif type(o) is not Batch and not o:
            return self
        return Jet(self.tag, _add(self.val, o), self.dot)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.tag, -self.val, -self.dot)

    def __sub__(self, o):
        if type(o) is Jet:
            t = o.tag
            if t == self.tag:
                sd = self.dot
                return Jet(t, _sub(self.val, o.val),
                           sd - o.dot if type(sd) is Vec else _sub(sd, o.dot))
            if t > self.tag:
                return Jet(t, self - o.val, -o.dot)
        elif type(o) is Vec:
            return NotImplemented
        elif type(o) is not Batch and not o:
            return self
        return Jet(self.tag, _sub(self.val, o), self.dot)

    def __rsub__(self, o):
        # o is scalar or lower-tag jet
        if type(o) is not Batch and not o:
            return -self
        return Jet(self.tag, _sub(o, self.val), -self.dot)

    def __mul__(self, o):
        if o is self:
            return self._square()
        if type(o) is Jet:
            t = o.tag
            if t == self.tag:
                sv, ov, sd, od = self.val, o.val, self.dot, o.dot
                if type(sd) is Vec and type(od) is Vec:
                    return Jet(t, _mul(sv, ov), sd.mul_add(ov, sv, od))
                return Jet(t, _mul(sv, ov), _add(_mul(sv, od), _mul(sd, ov)))
            if t > self.tag:
                return Jet(t, self * o.val, self * o.dot)
        elif type(o) is Vec:
            return NotImplemented
        elif type(o) is not Batch:
            if not o:
                return 0.0
            if type(o) is float and o == 1.0:
                return self
        d = self.dot
        return Jet(self.tag, _mul(self.val, o), d * o if type(d) is Vec else _mul(d, o))

    __rmul__ = __mul__

    def _square(self):
        """``self * self``, with one product per nonzero tangent slot.

        The product rule gives ``v * a + a * v`` for the value v and a slot
        (or scalar tangent) a; products commute, so that is ``p + p`` for
        ``p = a * v``, and the square equals the general product up to the
        signs of zeros (rule 3 of the module docstring).
        """
        v, d = self.val, self.dot
        if type(d) is not Vec:
            u = _mul(v, d)
            return Jet(self.tag, _mul(v, v), _add(u, u))
        if type(v) is not Batch and not v:
            return Jet(self.tag, 0.0, d * v)
        v1 = type(v) is float and v == 1.0
        out = []
        for a in d.s:
            if type(a) is not Batch and not a:
                out.append(a)
                continue
            p = a if v1 else v if type(a) is float and a == 1.0 else a * v
            out.append(p + p)
        return Jet(self.tag, _mul(v, v), Vec(out))

    def __truediv__(self, o):
        if type(o) is Jet:
            t = o.tag
            if t == self.tag:
                q = self.val / o.val
                return Jet(t, q, _sub(self.dot, _mul(q, o.dot)) / o.val)
            if t > self.tag:
                q = self / o.val
                return Jet(t, q, _mul(-q, o.dot) / o.val)
        elif type(o) is Vec:
            return NotImplemented
        elif type(o) is float and o == 1.0:
            return self
        return Jet(self.tag, self.val / o, self.dot / o)

    def __rtruediv__(self, o):
        q = o / self.val
        return Jet(self.tag, q, _mul(-q, self.dot) / self.val)

    def __pow__(self, p):
        """``self ** p`` for a constant p.  ``x ** 0`` is the constant
        ``val ** 0``, whose tangent is a structural zero, never
        ``0 * x ** -1``, which a zero x would raise in; p enters the tangent
        as a float, so no part is an int."""
        if not isinstance(p, (int, float)):
            raise TypeError("jet powers must have constant numeric exponents")
        if not p:
            return power(self.val, 0.0)
        p = float(p)
        return Jet(self.tag, power(self.val, p), _mul(_mul(p, power(self.val, p - 1.0)), self.dot))


class Vec:
    """A tangent with one slot per direction of a vector lift.

    Vecs add and subtract slot by slot; any other operand is a scalar (a
    float, a batch or a Jet) and broadcasts across the slots.  Exact zeros
    and units are structural (rule 3): an exact-zero slot is carried as it
    is, never used in arithmetic, and a slot or scalar that is a float 1.0
    multiplies as the identity; a batch never is either.  Vecs are never
    mutated, so one may be shared.
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

    __radd__ = __add__

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
        if type(o) is not Batch:
            if not o:
                return Vec([0.0] * len(self.s))
            if type(o) is float and o == 1.0:
                return self
        return Vec([a if type(a) is not Batch and not a else
                    o if type(a) is float and a == 1.0 else a * o for a in self.s])

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is Vec:
            return NotImplemented
        if type(o) is float and o == 1.0:
            return self
        return Vec([a if type(a) is not Batch and not a else a / o for a in self.s])

    def mul_add(self, x, y, w):
        """``y * w + self * x`` for scalars x, y and a Vec w, in one pass over the slots.

        The product rule of a Jet whose dots are Vecs, x and y being the
        values of the two jets: each slot does what ``y * w + self * x``
        does, with the structural zeros and units of both Vecs and of x and
        y.  An exact-zero y or x gives ``self * x`` or ``y * w`` alone.
        """
        if type(y) is not Batch and not y:
            return self * x
        if type(x) is not Batch and not x:
            return y * w
        x1 = type(x) is float and x == 1.0
        y1 = type(y) is float and y == 1.0
        out = []
        for a, b in zip(self.s, w.s):
            # the slot products a * x and y * b; ax is None for a structural zero
            if type(a) is not Batch and not a:
                ax = None
            elif x1:
                ax = a
            elif type(a) is float and a == 1.0:
                ax = x
            else:
                ax = a * x
            if type(b) is not Batch and not b:
                out.append(a if ax is None else ax)
                continue
            yb = b if y1 else y if type(b) is float and b == 1.0 else y * b
            out.append(yb if ax is None else yb + ax)
        return Vec(out)


@functools.cache
def vec_frame(k: int):
    """The identity frame of a vector lift: component ``a`` is the a-th unit Vec.

    Built once per k and shared by every caller, as a tuple; Vecs are never
    mutated, so sharing them is safe.
    """
    return tuple(Vec([1.0 if b == a else 0.0 for b in range(k)]) for a in range(k))


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
    call stacks them; a float entry is its own real part.  At a batch point
    each entry is assigned into its slice, which is exact and much faster
    than ``np.array`` over broadcast views.
    """
    size = batch_size(z)
    if size is None:
        return np.array([[[x if type(x) is float else realpart(x) for x in row]
                          for row in m]])
    out = np.empty((size, len(m), len(m[0])))
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            out[:, i, j] = realpart(x)
    return out


def power(x, p):
    """``x ** p`` for a constant p; a batch applies libm per element."""
    return batch([v ** p for v in x.tolist()]) if type(x) is Batch else x ** p


LIBM = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos}
"""The scalar function behind each elementary function, read at every call: a
test swaps in mpmath's to run the library at 40 digits."""


def _elementary(name, chain):
    """The elementary function ``name``: ``LIBM[name]`` at a scalar, per element
    at a batch (``np.sqrt`` for sqrt, which rounds correctly), and at a jet
    ``f(val)`` with the tangent ``chain(val, f(val), dot)``, the chain rule."""

    def f(x):
        t = type(x)
        if t is Jet:
            v = f(x.val)
            return Jet(x.tag, v, chain(x.val, v, x.dot))
        if t is Batch:
            return np.sqrt(x) if name == "sqrt" else batch([LIBM[name](v) for v in x.tolist()])
        return LIBM[name](x)

    return f


sqrt = _elementary("sqrt", lambda val, r, dot: dot / (2.0 * r))
exp = _elementary("exp", lambda val, e, dot: _mul(e, dot))
log = _elementary("log", lambda val, _, dot: dot / val)
sin = _elementary("sin", lambda val, _, dot: _mul(cos(val), dot))
cos = _elementary("cos", lambda val, _, dot: _mul(-sin(val), dot))


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


def frame_lift(z, k):
    """``(tag, lifted)``: z lifted along ``vec_frame(k)``, one lift per point object.

    A point object is its coordinate objects, in order: every call with the
    same ones returns the same tag and the same lifted point, which is shared
    (do not modify it).  The lifted point holds the coordinates, so no id of
    theirs is reused while its entry lives.  At most ``CACHED_POINTS``
    entries are kept, and a new point that carries no jet (a float or batch
    point, where a computation starts) empties the cache and ``point_keys``
    first.  So a stream of fresh points keeps the lifts of one point alive,
    not of 64, and the cycle collector, whose runs are counted in objects
    that outlive their call, runs no more often than without the cache.  The
    module docstring gives the argument that sharing the tag confuses no
    perturbations.
    """
    key = (k, *map(id, z))
    hit = _frame_lifts.get(key)
    if hit is None:
        if len(_frame_lifts) >= CACHED_POINTS or Jet not in map(type, z):
            _frame_lifts.clear()
            point_keys.clear()
        tag = fresh_tag()
        hit = _frame_lifts[key] = (tag, lift(z, vec_frame(k), tag))
    return hit


def frame_pass(fn, z, k):
    """``(tag, fn(lifted))`` for ``(tag, lifted) = frame_lift(z, k)``.

    ``fn`` maps a point to a value or to nested lists or tuples of values.  A
    value whose tag is above the lift's was made by a jet that ``fn`` holds
    and that is newer than the shared lift: a jet's own tag is the largest it
    carries, so the lift's tag would not be outermost and its parts could
    not be read.  Then ``fn`` is evaluated again at z lifted with a fresh
    tag, above every jet made so far.
    """
    tag, lifted = frame_lift(z, k)
    out = fn(lifted)
    stack = [out]
    while stack:
        x = stack.pop()
        if type(x) is list or type(x) is tuple:
            stack += x
        elif type(x) is Jet and x.tag > tag:
            tag = fresh_tag()
            return tag, fn(lift(z, vec_frame(k), tag))
    return tag, out


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
