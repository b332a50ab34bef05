"""Point memos, and constructions kept on their operands.

A ``PointMemo`` keeps values computed at points, keyed by ``point_key``, the
canonical form of a point up to an order-preserving renaming of its lift
tags; the memoised fields and vector forms of ``calculus`` and the omega
memo of a ``finsler.FinslerStructure`` are point memos, each read through
an evaluator ``functools.partial(memo.get, compute=fn)``.  ``kept_on`` keeps
a construction on its operand, so the same operands give the same object for
as long as the operand lives.  An operand holds its kept constructions, and
they hold their operands' evaluators, never the operands, so none of them
refers back to the operand it is kept on.
"""

from __future__ import annotations

import itertools
import math

from . import jets

NEG_ZERO = "-0.0"
_VEC = "vec"
_keys = jets.point_keys  # ids of a point's coordinates -> (point_key's result, the coordinates)
_last_base = [()]  # the base of the point walked last


def point_key(z):
    """One pass over a point: ``(key, base, tags)``, or None if it has no key.

    ``tags`` lists the point's lift tags in order of first appearance and
    ``base`` holds the real parts of the coordinates.  The key lists every
    float of the point (a negative zero as its own token: ``tuple(z)`` would
    give -0.0 and 0.0 the same key, and a function may tell them apart), a
    mark for each jet node giving the position of its tag in ``tags`` and one
    for each Vec giving its number of slots, then the order of those tags.
    Two points get the same key exactly when an order-preserving renaming of
    tags maps one onto the other.  A ``jets.Batch``, as a coordinate or a jet
    part of a batch point, enters the key (and ``base``) as the bytes of its
    array, which tell -0.0 from 0.0 at every point too.  A coordinate or jet
    part of any other type leaves the point without a key.

    A float point is keyed by its floats at once, and keeps no entry.  Any
    other point object is walked once: a point whose coordinates are the same
    objects, in order, as those of one walked before gets its result from a
    cache (coordinates and their parts are never modified).  So a frame lift,
    one per point object (``jets.frame_lift``), and the points computed from
    it are walked once however many memos read them.  The cache
    (``jets.point_keys``) holds the coordinates, so no id of theirs is reused
    while their entry lives; it holds at most ``jets.CACHED_POINTS`` entries,
    and a frame lift of a new float or batch point empties it.  Bytes equal
    to a coordinate's base are entered as the bytes object in ``base``, which
    is the base of the point walked last when equal, so the keys of every
    memo at one batch point share one copy of its bytes.
    """
    coords = tuple(z)
    for c in coords:
        if type(c) is not float:
            break
    else:
        key = coords
        if 0.0 in key:
            key = tuple(c if c or math.copysign(1.0, c) > 0.0 else NEG_ZERO for c in key)
        return key + ((),), coords, []
    ids = tuple(map(id, coords))
    hit = _keys.get(ids)
    if hit is not None:
        return hit[0]
    point = _walk(coords, _last_base[0])
    _last_base[0] = point[1] if point else ()
    if len(_keys) >= jets.CACHED_POINTS:
        _keys.clear()
    _keys[ids] = (point, coords)
    return point


def _walk(z, last_base):
    """``point_key``'s pass over a point that is not a float point;
    ``last_base`` is the base of the point walked last, whose bytes objects
    an equal base reuses."""
    Jet, Vec, Batch, copysign = jets.Jet, jets.Vec, jets.Batch, math.copysign
    flat, base, tags, marks = [], [], [], {}
    push = flat.append
    for c, last in itertools.zip_longest(z, last_base[:len(z)]):
        b = c
        while type(b) is Jet:
            b = b.val
        if type(b) is Batch:
            b_bytes = b.tobytes()
            if b_bytes == last:
                b_bytes = last
        else:
            b_bytes = None
        base.append(b if b_bytes is None else b_bytes)
        stack = [c]
        while stack:
            x = stack.pop()
            if type(x) is Jet:
                mark = marks.get(x.tag)
                if mark is None:
                    mark = marks[x.tag] = f"tag{len(tags)}"
                    tags.append(x.tag)
                push(mark)
                stack += (x.dot, x.val)
            elif type(x) is float:
                push(x if x or copysign(1.0, x) > 0.0 else NEG_ZERO)
            elif type(x) is Vec:
                push(_VEC)
                push(len(x.s))
                stack += x.s
            elif type(x) is Batch:
                x_bytes = b_bytes if x is b else x.tobytes()
                push(b_bytes if x_bytes == b_bytes else x_bytes)
            else:
                return None
    push(tuple(sorted(range(len(tags)), key=tags.__getitem__)) if len(tags) > 1 else ())
    return tuple(flat), tuple(base), tags


class PointMemo:
    """Values computed at points, keyed by ``point_key``.

    Entries are kept for one base point (the real parts of the coordinates)
    and dropped when a keyed point arrives at another one, so a memo holds
    one point's entries at most; every lift of a batch point has the batch's
    base, so they live while the batch is evaluated.  An entry is stored
    with the tags of the point that computed it; a point that differs from
    it by an order-preserving renaming of tags hits it, and renaming the
    stored value to that point's tags gives, bit for bit, what the
    computation gives there, because jet arithmetic compares tags only by
    their order and strips the tags it makes.  A value that holds a tag no
    point carries (a function that holds jets of its own) cannot be renamed:
    ``jets.retag`` raises ``KeyError`` and the value is computed afresh.
    ``put`` stores a value computed elsewhere that is exact at its point.

    ``lifted_reads`` predicts whether the current base point will be read
    at a jet point, for a ``compute`` that can do that work at its float or
    batch miss (``finsler._omega_entry``).  It is a 2-bit saturating counter
    (J. E. Smith, "A Study of Branch Prediction Strategies", ISCA 1981):
    when a keyed point arrives at another base point, it counts up if the
    base point left had a lookup at a jet point (a hit or a miss) and down
    if it had none.  ``LIFT_AT`` or more predicts a lookup at a jet point;
    a stream whose base points alternate between having one and not never
    reaches it.
    """

    __slots__ = ("base", "entries", "lifted_reads", "read_lifted")
    LIFT_AT = 2

    def __init__(self):
        self.base = None
        self.entries = {}
        self.lifted_reads = 0
        self.read_lifted = False  # the current base point had a lookup at a jet point

    def get(self, z, compute):
        """``compute(z)`` through the memo.

        A miss stores the value, unless ``compute`` raises or z has no key; a
        hit stored with other tags is returned as ``retag_array(value,
        renaming)``, where ``renaming`` maps the stored tags to z's.  The
        result is shared: do not modify it.
        """
        point = point_key(z)
        if point is None:
            return compute(z)
        key, base, tags = point
        if base != self.base:
            c = self.lifted_reads
            self.lifted_reads = min(c + 1, 3) if self.read_lifted else max(c - 1, 0)
            self.read_lifted = False
            self.entries = {}
            self.base = base
        if tags:
            self.read_lifted = True
        hit = self.entries.get(key)
        if hit is None:
            value = compute(z)
            self.entries[key] = (tags, value)
            return value
        stored, value = hit
        if stored == tags:
            return value
        try:
            return retag_array(value, dict(zip(stored, tags)))
        except KeyError:  # the value holds a tag the point does not carry
            return compute(z)

    def put(self, z, value):
        """Store ``value`` at z, a point at the memo's base point, unless an
        entry is there.  It must be what ``compute`` would give at z."""
        point = point_key(z)
        if point is not None and point[1] == self.base:
            self.entries.setdefault(point[0], (point[2], value))


def retag_array(x, tag_map):
    """``jets.retag`` over nested lists (a matrix or a frame array)."""
    if type(x) is list:
        return [retag_array(v, tag_map) for v in x]
    return jets.retag(x, tag_map)


def kept_on(holder, tag, operands, build):
    """What ``build()`` gives, built once and kept on ``holder``.

    The entry is keyed by ``tag`` and the other operands, never the holder
    itself.  Ids hash by value and objects by identity, so the entry keeps
    them alive and never matches a new object at a reused address; a
    structure enters a key as its evaluator ``shared_omega_at``.  A
    construction lives exactly as long as its holder (a field, vector form
    or structure), never in a module-level table, and holds the evaluators
    of what it is built from, not the objects, so reference counting frees
    it with the holder.  A shared constant (``_built`` False) keeps nothing;
    a build that raises stores nothing, so the next call raises again.
    """
    built = holder._built
    if built is False:
        return build()
    if built is None:
        built = holder._built = {}
    key = (tag, *operands)
    value = built.get(key)
    if value is None:
        value = built[key] = build()
    return value
