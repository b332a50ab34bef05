"""Vector fields, differential forms, vector-valued forms, and their calculus.

Everything is stored as a pure evaluator over flat bundle coordinates.  Forms
and vector forms are pointwise multilinear, so they are always evaluated on
constant coordinate vectors; derivative-based operators (exterior derivative,
Lie and Frolicher-Nijenhuis brackets) extend the arguments as constant fields,
which the tensoriality of each formula makes legitimate.

Degree and sign conventions:

* insertion of a vector 1-form K into a p-form:  (i_K a)(X_1..X_p) =
  sum_i a(X_1, .., K X_i, .., X_p);
* d_K := i_K d - (-1)^(k-1) d i_K, so on functions d_K f = df o K and for
  vector fields d_Y is the Lie derivative;
* the bracket satisfies d_[K,L] = d_K d_L - (-1)^(k l) d_L d_K as graded
  derivations (tested, not assumed);
* homogeneity degree r means [C, K] = (r - 1) K for vector fields and for
  vector 1-forms alike.
"""

from __future__ import annotations

import itertools
import math

from . import jets
from .core import BaseFunction, ScalarField
from .errors import DegreeOutOfRange, NotSemibasic, NotSemispray

PRECHECK_TOL = 1e-8


def frame_vector(n2: int, a: int):
    v = [0.0] * n2
    v[a] = 1.0
    return v


def frame(n2: int):
    return [frame_vector(n2, a) for a in range(n2)]


NEG_ZERO = "-0.0"


def float_key(z):
    """Memo key of a point whose coordinates are all floats, else None.

    A negative zero is its own token: ``tuple(z)`` would give -0.0 and 0.0
    the same key, and a function may tell them apart.
    """
    key = tuple(z)
    for c in key:
        if type(c) is not float:
            return None
    if 0.0 in key:
        key = tuple(c if c or math.copysign(1.0, c) > 0.0 else NEG_ZERO for c in key)
    return key


_VEC = "vec"


def point_key(z):
    """One pass over a point: ``(key, base, tags)``, or None if it has no key.

    ``tags`` lists the point's lift tags in order of first appearance and
    ``base`` holds the real parts of the coordinates.  The key lists every
    float of the point (a negative zero as its own token, as in
    ``float_key``), a mark for each jet node giving the position of its tag
    in ``tags`` and one for each Vec giving its number of slots, then the
    order of those tags.  Two points get the same key exactly when an
    order-preserving renaming of tags maps one onto the other.  A coordinate
    or jet part that is neither a float, a Jet nor a Vec leaves the point
    without a key.
    """
    key = float_key(z)
    if key is not None:
        return key + ((),), tuple(z), []
    Jet, Vec, copysign = jets.Jet, jets.Vec, math.copysign
    flat, base, tags, marks = [], [], [], {}
    push = flat.append
    for c in z:
        if type(c) is float:
            push(c if c or copysign(1.0, c) > 0.0 else NEG_ZERO)
            base.append(c)
            continue
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
            else:
                return None
        while type(c) is Jet:
            c = c.val
        base.append(c)
    push(tuple(sorted(range(len(tags)), key=tags.__getitem__)) if len(tags) > 1 else ())
    return tuple(flat), tuple(base), tags


class PointMemo:
    """Values computed at points, keyed by ``point_key``.

    Float entries are kept for the memo's life.  Jet entries are kept for one
    base point (the real parts of the coordinates) and dropped when a keyed
    point, float or jet, arrives at another one.  An entry is stored with the tags of the
    point that computed it; a point that differs from it by an
    order-preserving renaming of tags hits it, and renaming the stored value
    to that point's tags gives, bit for bit, what the computation gives
    there, because jet arithmetic compares tags only by their order and
    strips the tags it makes.  A value that holds a tag no point carries (a
    function that holds jets of its own) cannot be renamed: ``jets.retag``
    raises ``KeyError`` and the value is computed afresh.
    """

    __slots__ = ("base", "jets", "floats")

    def __init__(self):
        self.base = None
        self.jets = {}
        self.floats = {}

    def entry(self, point, compute):
        """``(value, renaming)`` at a ``point_key`` result.

        ``value`` is the stored value, or ``compute()`` stored on a miss;
        ``renaming`` maps the tags it is stored with to the point's, and is
        None when they are the same.  A point without a key (None) is not
        stored.
        """
        if point is None:
            return compute(), None
        key, base, tags = point
        if base != self.base:
            self.jets = {}
            self.base = base
        if not tags:
            value = self.floats.get(key)
            if value is None:
                value = self.floats[key] = compute()
            return value, None
        hit = self.jets.get(key)
        if hit is None:
            value = compute()
            self.jets[key] = (tags, value)
            return value, None
        stored, value = hit
        return value, (None if stored == tags else dict(zip(stored, tags)))

    def get(self, z, compute, rename):
        """``compute(z)`` through the memo; a hit stored with other tags is
        returned as ``rename(value, renaming)``.  The result is shared: do not
        modify it."""
        value, renaming = self.entry(point_key(z), lambda: compute(z))
        if renaming is None:
            return value
        try:
            return rename(value, renaming)
        except KeyError:  # the value holds a tag the point does not carry
            return compute(z)


def retag_array(x, tag_map):
    """``jets.retag`` over nested lists (a matrix or a frame array)."""
    if type(x) is list:
        return [retag_array(v, tag_map) for v in x]
    return jets.retag(x, tag_map)


# ---------------------------------------------------------------------------
# vector fields


class VectorField:
    """2n-component vector field over the coordinate frame (d/dx^i, d/dy^i)."""

    __slots__ = ("fn", "n", "name", "_memo")

    def __init__(self, fn, n: int, name: str = "", memo: bool = False):
        self.fn = fn
        self.n = n
        self.name = name
        self._memo = {} if memo else None

    def __call__(self, z):
        memo = self._memo
        if memo is None:
            return self.fn(z)
        key = float_key(z)
        if key is None:
            return self.fn(z)
        hit = memo.get(key)
        if hit is None:
            hit = self.fn(z)
            memo[key] = hit
        return hit

    def __repr__(self):
        return f"VectorField({self.name or 'anonymous'}, n={self.n})"

    def component(self, a: int) -> ScalarField:
        return ScalarField(lambda z: self(z)[a], self.n)

    def __add__(self, other):
        return VectorField(lambda z: [a + b for a, b in zip(self(z), other(z))], self.n)

    def __sub__(self, other):
        return VectorField(lambda z: [a - b for a, b in zip(self(z), other(z))], self.n)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, c):
        """Scale by a constant or a ScalarField coefficient."""
        if isinstance(c, ScalarField):
            return VectorField(lambda z: [c(z) * a for a in self(z)], self.n)
        return VectorField(lambda z: [c * a for a in self(z)], self.n)


def vector_field_from_components(components, n: int, name: str = "") -> VectorField:
    comps = list(components)

    def ev(z):
        return [c(z) for c in comps]

    return VectorField(ev, n, name)


def constant_vector_field(vec, n: int, name: str = "") -> VectorField:
    vals = [float(v) for v in vec]
    return VectorField(lambda z: list(vals), n, name)


def zero_vector_field(n: int) -> VectorField:
    return VectorField(lambda z: [0.0] * (2 * n), n, "0")


def field_apply(X: VectorField, f: ScalarField) -> ScalarField:
    """The function Xf = sum_a X^a df/dz^a."""

    def ev(z):
        return jets.directional(f.fn, z, X(z))

    return ScalarField(ev, X.n, name=f"({X.name}){f.name}" if X.name else "")


def lie_bracket(xi: VectorField, eta: VectorField) -> VectorField:
    """[xi, eta]^a = xi(eta^a) - eta(xi^a)."""

    def ev(z):
        xz = xi(z)
        ez, d_xi_eta = jets.jvp(eta.fn, z, xz)
        d_eta_xi = jets.directional(xi.fn, z, ez)
        return [a - b for a, b in zip(d_xi_eta, d_eta_xi)]

    return VectorField(ev, xi.n)


# ---------------------------------------------------------------------------
# canonical fields and lifts


def liouville_field(n: int) -> VectorField:
    """C = y^i d/dy^i, the radial vertical field."""

    def ev(z):
        return [0.0] * n + list(z[n:])

    return VectorField(ev, n, "C")


def vertical_lift_function(f: BaseFunction) -> ScalarField:
    """f^v(x, y) = f(x)."""
    return ScalarField(lambda z: f.fn(z[:f.n]), f.n, name=f"{f.name}^v")


def complete_lift_function(f: BaseFunction) -> ScalarField:
    """f^c(x, y) = y^i df/dx^i."""
    n = f.n

    def ev(z):
        return jets.directional(f.fn, z[:n], z[n:])

    return ScalarField(ev, n, name=f"{f.name}^c")


def vertical_lift_vector(components, n: int, name: str = "") -> VectorField:
    """X^v = (0, .., 0, X^1(x), .., X^n(x)) for base-only components."""
    comps = list(components)

    def ev(z):
        x = z[:n]
        return [0.0] * n + [c.fn(x) if isinstance(c, BaseFunction) else c(x) for c in comps]

    return VectorField(ev, n, name or "X^v")


# ---------------------------------------------------------------------------
# differential forms


class DifferentialForm:
    """Skew p-linear form, 0 <= p <= 3, evaluated on constant vectors."""

    __slots__ = ("degree", "fn", "n", "name")

    def __init__(self, degree: int, fn, n: int, name: str = ""):
        if not 0 <= degree <= 3:
            raise DegreeOutOfRange(f"form degree must be 0..3, got {degree}")
        self.degree = degree
        self.fn = fn
        self.n = n
        self.name = name

    def __call__(self, z, *vectors):
        if len(vectors) != self.degree:
            raise DegreeOutOfRange(
                f"{self.degree}-form called with {len(vectors)} vectors")
        return self.fn(z, *vectors)

    def __repr__(self):
        return f"DifferentialForm(p={self.degree}, {self.name or 'anonymous'})"

    def __add__(self, other):
        if other.degree != self.degree:
            raise DegreeOutOfRange("cannot add forms of different degree")
        return DifferentialForm(
            self.degree, lambda z, *v: self.fn(z, *v) + other.fn(z, *v), self.n)

    def __sub__(self, other):
        if other.degree != self.degree:
            raise DegreeOutOfRange("cannot subtract forms of different degree")
        return DifferentialForm(
            self.degree, lambda z, *v: self.fn(z, *v) - other.fn(z, *v), self.n)

    def scale(self, c):
        if isinstance(c, ScalarField):
            return DifferentialForm(self.degree, lambda z, *v: c(z) * self.fn(z, *v), self.n)
        return DifferentialForm(self.degree, lambda z, *v: c * self.fn(z, *v), self.n)


def zero_form(degree: int, n: int) -> DifferentialForm:
    return DifferentialForm(degree, lambda z, *v: 0.0, n, "0")


def function_form(f: ScalarField) -> DifferentialForm:
    """Wrap a scalar field as a 0-form."""
    return DifferentialForm(0, lambda z: f.fn(z), f.n, f.name)


def coordinate_one_form(n: int, a: int) -> DifferentialForm:
    """dz^a as a constant-coefficient 1-form."""
    return DifferentialForm(1, lambda z, v: v[a], n, f"dz[{a}]")


def d_function(f: ScalarField) -> DifferentialForm:
    """df as a 1-form: (df)(v) = D_v f."""

    def ev(z, v):
        return jets.directional(f.fn, z, v)

    return DifferentialForm(1, ev, f.n, name=f"d({f.name})" if f.name else "df")


def exterior_derivative(alpha: DifferentialForm) -> DifferentialForm:
    """d(alpha) by the alternating sum of coordinate-frame derivatives.

    Arguments are extended as constant fields, so no bracket terms appear.
    """
    p = alpha.degree
    if p > 2:
        raise DegreeOutOfRange("exterior derivative supported up to 2-forms")
    if p == 0:
        return DifferentialForm(1, lambda z, v: jets.directional(alpha.fn, z, v),
                                alpha.n, name=f"d({alpha.name})")

    def ev(z, *vectors):
        total = 0.0
        for i, v in enumerate(vectors):
            rest = vectors[:i] + vectors[i + 1:]
            term = jets.directional(lambda w: alpha.fn(w, *rest), z, v)
            total = total + term if i % 2 == 0 else total - term
        return total

    return DifferentialForm(p + 1, ev, alpha.n, name=f"d({alpha.name})")


# ---------------------------------------------------------------------------
# vector forms


class VectorForm:
    """Vector-valued skew k-form, k in {1, 2}; k = 0 is just VectorField."""

    __slots__ = ("degree", "fn", "n", "name", "_matrix_fn", "_matrix_memo")

    def __init__(self, degree: int, fn, n: int, name: str = "", matrix_fn=None):
        if degree not in (1, 2):
            raise DegreeOutOfRange(f"vector form degree must be 1 or 2, got {degree}")
        self.degree = degree
        self.fn = fn
        self.n = n
        self.name = name
        self._matrix_fn = matrix_fn
        self._matrix_memo = None

    def __call__(self, z, *vectors):
        if len(vectors) != self.degree:
            raise DegreeOutOfRange(
                f"vector {self.degree}-form called with {len(vectors)} vectors")
        return self.fn(z, *vectors)

    def __repr__(self):
        return f"VectorForm(k={self.degree}, {self.name or 'anonymous'})"

    def matrix(self, z):
        """The form's frame array at z.

        Degree 1: the matrix M[a][b] = component a of K(e_b), whose columns
        are the images of the frame.  Degree 2: the array T[a][b] = K(e_a,
        e_b), a list of 2n vectors of 2n components.  From the form's matrix
        function, else from ``fn`` on the frame (degree 2: on every ordered
        frame pair).  Shared with the memo once ``memoize_matrix`` is on: do
        not modify it.
        """
        memo = self._matrix_memo
        if memo is None:
            return self._compute_matrix(z)
        return memo.get(z, self._compute_matrix, retag_array)

    def memoize_matrix(self):
        """Keep the frame arrays computed at points in a ``PointMemo``."""
        if self._matrix_memo is None:
            self._matrix_memo = PointMemo()

    def _compute_matrix(self, z):
        if self._matrix_fn is not None:
            return self._matrix_fn(z)
        n2 = 2 * self.n
        fr = frame(n2)
        if self.degree == 2:
            return [[self.fn(z, u, v) for v in fr] for u in fr]
        cols = [self.fn(z, v) for v in fr]
        return [[cols[b][a] for b in range(n2)] for a in range(n2)]

    def apply(self, z, vec):
        """K(z) applied to one constant vector (degree 1)."""
        return self.fn(z, vec)

    def __add__(self, other):
        if other.degree != self.degree:
            raise DegreeOutOfRange("cannot add vector forms of different degree")
        mfn = None
        if self.degree == 1:
            def mfn(z):
                a, b = self.matrix(z), other.matrix(z)
                return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        return VectorForm(self.degree,
                          lambda z, *v: [x + y for x, y in zip(self.fn(z, *v), other.fn(z, *v))],
                          self.n, matrix_fn=mfn)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        if isinstance(c, ScalarField):
            mfn = None
            if self.degree == 1:
                def mfn(z):
                    s = c(z)
                    return [[s * x for x in row] for row in self.matrix(z)]
            return VectorForm(self.degree,
                              lambda z, *v: [c(z) * x for x in self.fn(z, *v)],
                              self.n, matrix_fn=mfn)
        mfn = None
        if self.degree == 1:
            def mfn(z):
                return [[c * x for x in row] for row in self.matrix(z)]
        return VectorForm(self.degree, lambda z, *v: [c * x for x in self.fn(z, *v)],
                          self.n, matrix_fn=mfn)


def _matvec(m, v):
    return [sum(row[b] * v[b] for b in range(len(v))) for row in m]


class ConstantVectorForm(VectorForm):
    """Vector 1-form with constant coefficients in the coordinate frame."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, n: int, name: str = ""):
        self.coeffs = [list(row) for row in coeffs]
        super().__init__(1, lambda z, v: _matvec(self.coeffs, v), n, name,
                         matrix_fn=lambda z: [list(row) for row in self.coeffs])


def identity_form(n: int) -> ConstantVectorForm:
    n2 = 2 * n
    m = [[1.0 if a == b else 0.0 for b in range(n2)] for a in range(n2)]
    return ConstantVectorForm(m, n, "Id")


def vertical_endomorphism(n: int) -> ConstantVectorForm:
    """J: d/dx^i -> d/dy^i, d/dy^i -> 0."""
    n2 = 2 * n
    m = [[0.0] * n2 for _ in range(n2)]
    for i in range(n):
        m[n + i][i] = 1.0
    return ConstantVectorForm(m, n, "J")


def tensor_one_form_field(alpha: DifferentialForm, X: VectorField) -> VectorForm:
    """alpha (x) X as a vector 1-form: v -> alpha(v) X."""
    if alpha.degree != 1:
        raise DegreeOutOfRange("tensor product needs a 1-form")

    def ev(z, v):
        c = alpha.fn(z, v)
        return [c * a for a in X(z)]

    def mfn(z):
        xz = X(z)
        n2 = 2 * X.n
        row = [alpha.fn(z, frame_vector(n2, b)) for b in range(n2)]
        return [[row[b] * xa for b in range(n2)] for xa in xz]

    return VectorForm(1, ev, X.n, name=f"{alpha.name}(x){X.name}", matrix_fn=mfn)


def zero_vector_form(n: int, degree: int = 1) -> VectorForm:
    return VectorForm(degree, lambda z, *v: [0.0] * (2 * n), n, "0")


# ---------------------------------------------------------------------------
# insertions and derivations


def insert_vector(Y: VectorField, K):
    """i_Y K: plug the vector field into the first slot, lowering the degree."""
    if isinstance(K, DifferentialForm):
        if K.degree < 1:
            raise DegreeOutOfRange("cannot insert a vector into a 0-form")
        if K.degree == 1:
            return ScalarField(lambda z: K.fn(z, Y(z)), K.n,
                               name=f"i_{Y.name}{K.name}")
        return DifferentialForm(K.degree - 1,
                                lambda z, *v: K.fn(z, Y(z), *v), K.n,
                                name=f"i_{Y.name}{K.name}")
    if isinstance(K, VectorForm):
        if K.degree == 1:
            return VectorField(lambda z: K.fn(z, Y(z)), K.n, name=f"{K.name}({Y.name})")
        return VectorForm(1, lambda z, v: K.fn(z, Y(z), v), K.n,
                          name=f"i_{Y.name}{K.name}")
    raise TypeError(f"cannot insert a vector field into {type(K).__name__}")


def insert_one_form(K: VectorForm, alpha: DifferentialForm) -> DifferentialForm:
    """i_K alpha = sum over slots of alpha(.., K X_i, ..) for a vector 1-form K."""
    if K.degree != 1:
        raise DegreeOutOfRange("insertion derivation requires a vector 1-form")
    if alpha.degree < 1:
        raise DegreeOutOfRange("cannot insert into a 0-form")

    def ev(z, *vectors):
        total = 0.0
        for i in range(len(vectors)):
            replaced = list(vectors)
            replaced[i] = K.fn(z, vectors[i])
            total = total + alpha.fn(z, *replaced)
        return total

    return DifferentialForm(alpha.degree, ev, alpha.n, name=f"i_{K.name}{alpha.name}")


def d_K(K: VectorForm, target) -> DifferentialForm:
    """d_K on a scalar field (d_K f = df o K) or a form (i_K d - d i_K)."""
    if isinstance(target, ScalarField):
        if K.degree == 1:
            def ev(z, v):
                return jets.directional(target.fn, z, K.fn(z, v))
            return DifferentialForm(1, ev, K.n, name=f"d_{K.name}{target.name}")

        def ev2(z, u, v):
            return jets.directional(target.fn, z, K.fn(z, u, v))
        return DifferentialForm(2, ev2, K.n, name=f"d_{K.name}{target.name}")
    if isinstance(target, DifferentialForm):
        if target.degree == 0:
            return d_K(K, ScalarField(target.fn, target.n, target.name))
        if K.degree != 1:
            raise DegreeOutOfRange("d_K on forms implemented for vector 1-forms")
        if target.degree > 2:
            raise DegreeOutOfRange("result degree would exceed 3")
        return insert_one_form(K, exterior_derivative(target)) - \
            exterior_derivative(insert_one_form(K, target))
    raise TypeError(f"d_K target must be a scalar field or form, got {type(target).__name__}")


def lie_derivative(Y: VectorField, alpha: DifferentialForm) -> DifferentialForm:
    """L_Y alpha = i_Y d(alpha) + d(i_Y alpha) (Cartan)."""
    if alpha.degree == 0:
        return function_form(field_apply(Y, ScalarField(alpha.fn, alpha.n)))
    da = exterior_derivative(alpha)
    first = insert_vector(Y, da)
    iya = insert_vector(Y, alpha)
    if alpha.degree == 1:
        second = d_function(iya)
    else:
        second = exterior_derivative(iya)
    if isinstance(first, ScalarField):
        first = function_form(first)
    if isinstance(second, ScalarField):  # pragma: no cover - degrees align above
        second = function_form(second)
    return first + second


# ---------------------------------------------------------------------------
# Frolicher-Nijenhuis brackets


def _bracket_1_0(K: VectorForm, Y: VectorField) -> VectorForm:
    """[K, Y] X = [KX, Y] - K [X, Y], tensorial in X."""
    n2 = 2 * K.n
    const = getattr(K, "coeffs", None)

    def column(z, X):
        if const is not None:
            kx = _matvec(const, X)
            if any(v != 0.0 for v in kx):
                d_kx_Y = jets.directional(Y.fn, z, kx)
            else:
                d_kx_Y = [0.0] * n2
            d_x_Y = jets.directional(Y.fn, z, X)
            kdxy = _matvec(const, d_x_Y)
            return [a - b for a, b in zip(d_kx_Y, kdxy)]
        yz = Y(z)
        kxz = K.fn(z, X)
        d_kx_Y = jets.directional(Y.fn, z, kxz)
        d_y_KX = jets.directional(lambda w: K.fn(w, X), z, yz)
        d_x_Y = jets.directional(Y.fn, z, X)
        kdxy = K.fn(z, d_x_Y)
        return [a - b - c for a, b, c in zip(d_kx_Y, d_y_KX, kdxy)]

    def matrix_fn(z):
        if const is not None:
            # one vector pass: slot b lifts along e_b, slot n2 + b along K e_b
            dirs = [jets.Vec(frame_vector(n2, c) + const[c]) for c in range(n2)]
            jac = [jets.slots(d, 2 * n2) for d in jets.directional(Y.fn, z, dirs)]
            cols = []
            for b in range(n2):
                kdxy = _matvec(const, [jac[a][b] for a in range(n2)])
                cols.append([jac[a][n2 + b] - c for a, c in enumerate(kdxy)])
            return [[cols[b][a] for b in range(n2)] for a in range(n2)]
        yz = Y(z)
        kmat = K.matrix(z)
        kmat_shift = jets.directional(lambda w: _flatten(K.matrix(w)), z, yz)
        frame_lifts = [jets.directional(Y.fn, z, frame_vector(n2, b)) for b in range(n2)]
        kcol_lifts = [jets.directional(Y.fn, z, [kmat[a][b] for a in range(n2)])
                      for b in range(n2)]
        cols = []
        for b in range(n2):
            d_y_KX = [kmat_shift[a * n2 + b] for a in range(n2)]
            kdxy = _matvec(kmat, frame_lifts[b])
            cols.append([p - q - r for p, q, r in zip(kcol_lifts[b], d_y_KX, kdxy)])
        return [[cols[b][a] for b in range(n2)] for a in range(n2)]

    return VectorForm(1, column, K.n, name=f"[{K.name},{Y.name}]", matrix_fn=matrix_fn)


def _flatten(m):
    return [x for row in m for x in row]


def _combine(coeffs, vectors):
    """sum_c coeffs[c] * vectors[c], skipping the exact-zero coefficients.

    A unit coefficient contributes ``vectors[c]`` itself, so along a frame
    vector the result is that vector, bit for bit, and with no nonzero
    coefficient it is the zero vector.  The result may be one of the inputs.
    """
    out = None
    for x, vec in zip(coeffs, vectors):
        if isinstance(x, (int, float)):
            if x == 0:
                continue
            if x != 1:
                vec = [x * v for v in vec]
        else:
            vec = [x * v for v in vec]
        out = vec if out is None else [o + v for o, v in zip(out, vec)]
    return [0.0] * len(vectors[0]) if out is None else out


def _lifted_columns(m, tag, n2):
    """The columns of a matrix at a point lifted along the vector frame with
    ``tag``: ``cols[b]`` is M e_b at the point and ``d[b][c]`` is D_c(M e_b),
    the derivative along e_c."""
    rng = range(n2)
    cols = [[jets.primal(m[a][b], tag) for a in rng] for b in rng]
    d = []
    for b in rng:
        t = [jets.slots(jets.tangent(m[a][b], tag), n2) for a in rng]
        d.append([[t[a][c] for a in rng] for c in rng])
    return cols, d


def _bracket_1_1(K: VectorForm, L: VectorForm) -> VectorForm:
    """Frolicher-Nijenhuis bracket of two vector 1-forms, a vector 2-form.

    [K,L](X,Y) = [KX,LY] + [LX,KY] - K([LX,Y] + [X,LY]) - L([KX,Y] + [X,KY]);
    the (KL + LK)[X,Y] term vanishes for constant X, Y, and then
    [U, V] = D_U V - D_V U.  With D_c the derivative along e_c and D_v =
    sum_c v^c D_c, the frame pair (e_a, e_b) gives

        T[a][b] = (D_{K e_a} L e_b - D_{L e_b} K e_a)
                  + (D_{L e_a} K e_b - D_{K e_b} L e_a)
                  - K(D_a L e_b - D_b L e_a) - L(D_a K e_b - D_b K e_a).

    One lift of the point along the vector frame gives K and L there (the
    primal parts of their matrices) and every D_c(K e_b) and D_c(L e_b)
    (slot c of the tangents); each D_v and each application of K or L is
    then a contraction over components (``_combine``).  Only a < b is
    formed: T[b][a] = -T[a][b] and T[a][a] = 0, as the formula gives them.

    Exactness: a contraction along a frame vector or zero is, bit for bit,
    the scalar lift along it, because a vector lift's slot repeats the
    scalar pass.  So when every column of K is a frame vector or zero and K
    is constant (as for J), every entry is what the pairwise scalar lifts
    give, up to the signs of zeros.  Other K round differently.  ``fn``
    contracts the array the same way, so on frame vectors it returns its
    entries.
    """
    n2 = 2 * K.n
    rng = range(n2)
    frame_vec = jets.vec_frame(n2)

    def matrix_fn(z):
        tag = jets.fresh_tag()
        za = jets.lift(z, frame_vec, tag)
        kc, dk = _lifted_columns(K.matrix(za), tag, n2)
        lc, dl = _lifted_columns(L.matrix(za), tag, n2)
        arr = [[[0.0] * n2 for _ in rng] for _ in rng]
        for a in rng:
            for b in range(a + 1, n2):
                p = _combine(kc[a], dl[b])
                q = _combine(lc[b], dk[a])
                r = _combine(lc[a], dk[b])
                s = _combine(kc[b], dl[a])
                k_term = _combine([x - y for x, y in zip(dl[b][a], dl[a][b])], kc)
                l_term = _combine([x - y for x, y in zip(dk[b][a], dk[a][b])], lc)
                v = [(p_ - q_) + (r_ - s_) - t_ - u_
                     for p_, q_, r_, s_, t_, u_ in zip(p, q, r, s, k_term, l_term)]
                arr[a][b] = v
                arr[b][a] = [-x for x in v]
        return arr

    def ev(z, X, Y):
        return list(_combine(X, [_combine(Y, row) for row in matrix_fn(z)]))

    return VectorForm(2, ev, K.n, name=f"[{K.name},{L.name}]", matrix_fn=matrix_fn)


def fn_bracket(K, L):
    """Frolicher-Nijenhuis bracket for degrees (1,0), (0,1), (1,1) and (0,0)."""
    k_is_form = isinstance(K, VectorForm)
    l_is_form = isinstance(L, VectorForm)
    if not k_is_form and not l_is_form:
        return lie_bracket(K, L)
    if k_is_form and not l_is_form:
        if K.degree != 1:
            raise DegreeOutOfRange("bracket with a vector field needs a vector 1-form")
        return _bracket_1_0(K, L)
    if not k_is_form and l_is_form:
        if L.degree != 1:
            raise DegreeOutOfRange("bracket with a vector field needs a vector 1-form")
        # [Y, L] = -[L, Y] (degrees 0 and 1)
        return _bracket_1_0(L, K).scale(-1.0)
    if K.degree == 1 and L.degree == 1:
        return _bracket_1_1(K, L)
    raise DegreeOutOfRange(
        f"bracket of degrees ({K.degree},{L.degree}) would exceed degree 2")


# ---------------------------------------------------------------------------
# potentials and structural residuals


def sup_abs(values) -> float:
    """sup |v| over the values (0.0 if there are none); NaN if any value is NaN.

    A hand-written ``max(worst, abs(v))`` loop drops a NaN that is not the
    first value, because ``max(0.0, nan) == 0.0``.
    """
    worst = 0.0
    for v in values:
        a = abs(v)
        if a != a:
            return a
        if a > worst:
            worst = a
    return worst


def semispray_residual(S: VectorField, points) -> float:
    """sup |J S - C|, i.e. how far the base components are from y."""
    n = S.n
    devs = []
    for p in points:
        z = p.coords()
        sz = S(z)
        devs.extend(sz[i] - z[n + i] for i in range(n))
    return sup_abs(devs)


def potential(K, S: VectorField, points=None, tol: float = PRECHECK_TOL):
    """K deg minus one obtained by inserting a semispray; the potential of K.

    When sample points are supplied, the preconditions (K semibasic, S a
    semispray) are residual-tested first.
    """
    degree = K.degree if isinstance(K, (VectorForm, DifferentialForm)) else 0
    if degree < 1:
        raise DegreeOutOfRange("potential needs degree >= 1")
    if points is not None:
        if semispray_residual(S, points) > tol:
            raise NotSemispray("J(S) != C beyond tolerance on the supplied points")
        r = semibasic_residual(K, points)
        if r > tol:
            raise NotSemibasic(f"potential needs a semibasic operand, residual {r:.3e}")
    return insert_vector(S, K)


def homogeneity_residual(K, r: float, points, C: VectorField | None = None) -> float:
    """sup norm of [C, K] - (r - 1) K over the points (and frame, for 1-forms)."""
    if isinstance(K, VectorField):
        C = C or liouville_field(K.n)
        dev = lie_bracket(C, K) - K.scale(r - 1.0)
        return sup_abs(c for p in points for c in dev(p.coords()))
    if isinstance(K, VectorForm) and K.degree == 1:
        C = C or liouville_field(K.n)
        dev = fn_bracket(C, K) - K.scale(r - 1.0)
        return sup_abs(x for p in points for row in dev.matrix(p.coords()) for x in row)
    raise TypeError("homogeneity defined for vector fields and vector 1-forms")


def semibasic_residual(K, points) -> float:
    """Deviation of K from being semibasic.

    Vector forms: sup of |J o K| and |K(vertical, ..)| over the frame.
    Differential forms: sup of |i_J K| over frame arguments (for 1-forms this
    is the same as vanishing on verticals).
    """
    if isinstance(K, VectorForm):
        n = K.n
        n2 = 2 * n
        devs = []
        for p in points:
            m = K.matrix(p.coords())
            if K.degree == 1:
                # J o K = 0: every column must be vertical (first n rows zero)
                devs.extend(m[i][b] for b in range(n2) for i in range(n))
                # K kills verticals: columns n..2n-1 vanish entirely
                devs.extend(m[a][n + i] for i in range(n) for a in range(n2))
            else:
                # vertical insertion vanishes
                for i in range(n):
                    for b in range(n2):
                        devs.extend(m[n + i][b])
                # J o K = 0: output of K is vertical on every frame pair
                for a in range(n2):
                    for b in range(a + 1, n2):
                        devs.extend(m[a][b][:n])
        return sup_abs(devs)
    if isinstance(K, DifferentialForm):
        if K.degree < 1:
            raise DegreeOutOfRange("semibasic test needs degree >= 1")
        J = vertical_endomorphism(K.n)
        ijk = insert_one_form(J, K)
        n2 = 2 * K.n
        fr = frame(n2)
        return sup_abs(ijk.fn(p.coords(), *args) for p in points
                       for args in itertools.combinations(fr, K.degree))
    raise TypeError("semibasic test defined for forms and vector forms")
