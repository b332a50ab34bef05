"""Vector fields, differential forms, vector-valued forms, and their calculus.

Everything is stored as a pure evaluator over flat bundle coordinates; a
differential form of degree >= 1 and a vector form as the evaluator of its
frame array, and calling one contracts that array with the vectors.  A
differential form given by a closure has its array read from the closure: in
one pass along ``jets.vec_frame`` at degree 1, per frame pair or triple at
degree 2 or 3.  The exterior derivative reads its operand's array at the
point's frame lift, and insertions, sums and scales contract and combine
arrays, so no operator composes closures.  Forms and vector forms are
pointwise multilinear, so they are always evaluated on constant coordinate
vectors; derivative-based operators (exterior derivative, Lie and
Frolicher-Nijenhuis brackets) extend the arguments as constant fields, which
the tensoriality of each formula makes legitimate.

Degree and sign conventions:

* insertion of a vector 1-form K into a p-form:  (i_K a)(X_1..X_p) =
  sum_i a(X_1, .., K X_i, .., X_p);
* d_K := i_K d - (-1)^(k-1) d i_K, so on functions d_K f = df o K and for
  vector fields d_Y is the Lie derivative;
* the bracket satisfies d_[K,L] = d_K d_L - (-1)^(k l) d_L d_K as graded
  derivations (tested, not assumed);
* homogeneity degree r means [C, K] = (r - 1) K for vector fields and for
  vector 1-forms alike.

Exact zeros and units are structural in the array layer, by rule 3 of the
vector mode of ``jets``, which states the rule and its NaN semantics.  The
contractions (``_combine``, ``_dot``), the sums, differences and multiples of
forms and vector forms, ``tensor_one_form_field`` and the final combinations
of the brackets' and the exterior derivative's arrays form their products
and sums through ``_mul``, ``_add`` and ``_sub``,
and keep the grouping of every formula, so a finite result changes at most
in the sign of a zero.  J, the semibasic 1-forms and the vertical fields are
mostly zeros, so most numpy calls on batches and most jets built on their
entries are skipped.

A construction is built once per operand (``memo.kept_on``): J and C are one
shared constant per n, ``fn_bracket`` gives one object per operand pair, and
the connection constructions one per structure and operand, each kept on its
operand and living exactly as long as it.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import jets
from .core import BaseFunction, ScalarField, grid_coords
from .errors import DegreeOutOfRange, NotSemibasic, NotSemispray
from .memo import PointMemo, kept_on

PRECHECK_TOL = 1e-8


def precheck(residual: float, error: Exception) -> None:
    """Raise ``error`` unless ``residual <= PRECHECK_TOL``; a NaN raises too.

    The one gate of every hypothesis pre-check in the library: a construction
    or predicate measures its hypothesis as a residual and passes it here
    with the typed error to raise.  ``r > tol`` is False for a NaN, so the
    test is written as ``not r <= tol``.
    """
    if not residual <= PRECHECK_TOL:
        raise error


def frame_vector(n2: int, a: int):
    v = [0.0] * n2
    v[a] = 1.0
    return v


def frame(n2: int):
    return [frame_vector(n2, a) for a in range(n2)]


def _one_per_n(build):
    """``build(n)`` as one shared constant per n, which keeps no construction."""
    made = {}

    @functools.wraps(build)
    def constant(n):
        c = made.get(n)
        if c is None:
            c = made[n] = build(n)
            c._built = False
        return c

    return constant


# ---------------------------------------------------------------------------
# vector fields


class VectorField:
    """2n-component vector field over the coordinate frame (d/dx^i, d/dy^i)."""

    __slots__ = ("fn", "n", "name", "_memo", "_built", "__weakref__")

    def __init__(self, fn, n: int, name: str = "", memo: bool = False):
        self.fn = fn
        self.n = n
        self.name = name
        self._memo = PointMemo() if memo else None
        self._built = None

    def __call__(self, z):
        memo = self._memo
        if memo is None:
            return self.fn(z)
        return memo.get(z, self.fn)

    def __repr__(self):
        return f"VectorField({self.name or 'anonymous'}, n={self.n})"

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


@_one_per_n
def liouville_field(n: int) -> VectorField:
    """C = y^i d/dy^i, the radial vertical field; one shared constant per n."""

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
    """Skew p-linear form, 0 <= p <= 3, evaluated on constant vectors.

    A form of degree p >= 1 is its frame array at each point (``array``): at
    degree 1 its row w[a] = w(e_a), at degree 2 the skew 2n x 2n array
    w[a][b] = w(e_a, e_b), at degree 3 the skew 2n x 2n x 2n array
    w[a][b][c].  ``form(z, *vectors)`` contracts the array with the vectors
    (``_contract``), the last slot first, as ``VectorForm.__call__`` does.
    The operators of this module build forms from arrays (``_array_form``).
    A form may also be given by a closure ``fn(z, *vectors)``, linear and
    skew in the vectors: its array is then read with one pass along
    ``jets.vec_frame`` at degree 1, and with one call per frame pair or
    triple at degree 2 or 3.  A 0-form is its function ``fn(z)``.
    """

    __slots__ = ("degree", "fn", "n", "name", "_array_fn")

    def __init__(self, degree: int, fn, n: int, name: str = ""):
        if not 0 <= degree <= 3:
            raise DegreeOutOfRange(f"form degree must be 0..3, got {degree}")
        self.degree = degree
        self.fn = fn
        self.n = n
        self.name = name
        self._array_fn = None

    def __call__(self, z, *vectors):
        if len(vectors) != self.degree:
            raise DegreeOutOfRange(
                f"{self.degree}-form called with {len(vectors)} vectors")
        if not vectors:
            return self.fn(z)
        return _contract(self.array(z), vectors)

    def __repr__(self):
        return f"DifferentialForm(p={self.degree}, {self.name or 'anonymous'})"

    def array(self, z):
        """The form's frame array at z (see the class docstring); do not modify it."""
        if self._array_fn is not None:
            return self._array_fn(z)
        p, n2 = self.degree, 2 * self.n
        if p == 0:
            raise DegreeOutOfRange("a 0-form has no frame array")
        if p == 1:
            return jets.slots(self.fn(z, jets.vec_frame(n2)), n2)
        fr = frame(n2)
        return _skew_array(p, n2, lambda *idx: self.fn(z, *(fr[i] for i in idx)))

    def __add__(self, other):
        if other.degree != self.degree:
            raise DegreeOutOfRange("cannot add forms of different degree")
        return _array_form(self.degree, lambda z: _add_arrays(self.array(z), other.array(z)),
                           self.n)

    def __sub__(self, other):
        if other.degree != self.degree:
            raise DegreeOutOfRange("cannot subtract forms of different degree")
        return _array_form(self.degree, lambda z: _sub_arrays(self.array(z), other.array(z)),
                           self.n)

    def scale(self, c):
        if isinstance(c, ScalarField):
            return _array_form(self.degree, lambda z: _scale_array(c(z), self.array(z)), self.n)
        return _array_form(self.degree, lambda z: _scale_array(c, self.array(z)), self.n)


def _array_form(degree: int, array_fn, n: int, name: str = "") -> DifferentialForm:
    """The form of degree >= 1 whose frame array at z is ``array_fn(z)``."""
    form = DifferentialForm(degree, None, n, name)
    form._array_fn = array_fn
    return form


def _dot(coeffs, values):
    """sum_c coeffs[c] * values[c], with exact float zeros and units structural
    (``_mul``, ``_add``), in the order of c: the scalar case of ``_combine``."""
    out = 0.0
    for x, v in zip(coeffs, values):
        out = _add(out, _mul(x, v))
    return out


def _contract(arr, vectors):
    """A form's frame array contracted with one vector per slot, the last slot
    first: sum_a u^a (sum_b v^b arr[a][b]) at degree 2."""
    if len(vectors) == 1:
        return _dot(vectors[0], arr)
    return _dot(vectors[0], [_contract(x, vectors[1:]) for x in arr])


def _skew_array(p: int, n2: int, entry):
    """The skew frame array of degree p (2 or 3) whose entry at a < b (< c)
    is ``entry(a, b(, c))``: every other order of the indices is that entry,
    negated for an odd permutation, and an entry with a repeated index is 0.0."""
    rng = range(n2)
    if p == 2:
        arr = [[0.0] * n2 for _ in rng]
        for a, b in itertools.combinations(rng, 2):
            v = entry(a, b)
            arr[a][b] = v
            arr[b][a] = -v
        return arr
    arr = [[[0.0] * n2 for _ in rng] for _ in rng]
    for a, b, c in itertools.combinations(rng, 3):
        v = entry(a, b, c)
        w = -v
        arr[a][b][c] = arr[b][c][a] = arr[c][a][b] = v
        arr[b][a][c] = arr[a][c][b] = arr[c][b][a] = w
    return arr


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
    alpha's array is read at the point's frame lift (``jets.frame_pass``):
    slot a of the tangent of entry I is D_a alpha_I, and the array of
    d(alpha) alternates these over the slots, D_a alpha_b - D_b alpha_a at
    degree 1 and (D_a alpha_bc - D_b alpha_ac) + D_c alpha_ab at degree 2.
    """
    p = alpha.degree
    if p > 2:
        raise DegreeOutOfRange("exterior derivative supported up to 2-forms")
    if p == 0:
        return DifferentialForm(1, lambda z, v: jets.directional(alpha.fn, z, v),
                                alpha.n, name=f"d({alpha.name})")
    n2 = 2 * alpha.n

    def array_fn(z):
        tag, arr = jets.frame_pass(alpha.array, z, n2)
        if p == 1:
            d = [jets.slots(jets.tangent(x, tag), n2) for x in arr]  # d[b][a] = D_a alpha_b
            return _skew_array(2, n2, lambda a, b: _sub(d[b][a], d[a][b]))
        d = {(a, b): jets.slots(jets.tangent(arr[a][b], tag), n2)
             for a, b in itertools.combinations(range(n2), 2)}
        return _skew_array(3, n2, lambda a, b, c: _add(_sub(d[b, c][a], d[a, c][b]), d[a, b][c]))

    return _array_form(p + 1, array_fn, alpha.n, name=f"d({alpha.name})")


# ---------------------------------------------------------------------------
# vector forms


class VectorForm:
    """Vector-valued skew k-form, k in {1, 2}; k = 0 is just VectorField.

    A vector form is its frame array at each point, given by its matrix
    function: at degree 1 the matrix M[a][b] = component a of K(e_b), whose
    columns are the images of the frame; at degree 2 the array T[a][b] =
    K(e_a, e_b), a list of 2n vectors of 2n components.  ``K(z, *vectors)``
    contracts the array with the vectors (``_combine``): degree 1 over the
    columns, degree 2 over the rows and then over the entries of each row.
    """

    __slots__ = ("degree", "n", "name", "_matrix_fn", "_matrix_memo", "_built", "__weakref__")

    def __init__(self, degree: int, matrix_fn, n: int, name: str = ""):
        if degree not in (1, 2):
            raise DegreeOutOfRange(f"vector form degree must be 1 or 2, got {degree}")
        self.degree = degree
        self.n = n
        self.name = name
        self._matrix_fn = matrix_fn
        self._matrix_memo = None
        self._built = None

    def __call__(self, z, *vectors):
        if len(vectors) != self.degree:
            raise DegreeOutOfRange(
                f"vector {self.degree}-form called with {len(vectors)} vectors")
        m = self.matrix(z)
        if self.degree == 1:
            return list(_combine(vectors[0], list(zip(*m))))
        u, v = vectors
        return list(_combine(u, [_combine(v, row) for row in m]))

    def __repr__(self):
        return f"VectorForm(k={self.degree}, {self.name or 'anonymous'})"

    def matrix(self, z):
        """The form's frame array at z (see the class docstring).

        Shared with the memo once ``memoize_matrix`` is on: do not modify it.
        """
        memo = self._matrix_memo
        if memo is None:
            return self._compute_matrix(z)
        return memo.get(z, self._compute_matrix)

    @property
    def form(self):
        """The form itself: the old ``connection.form`` read, kept only for
        perfbench/workloads.py, its one reader."""
        return self

    def memoize_matrix(self):
        """Keep the frame arrays computed at points in a ``PointMemo``."""
        if self._matrix_memo is None:
            self._matrix_memo = PointMemo()

    def _compute_matrix(self, z):
        return self._matrix_fn(z)

    def __add__(self, other):
        if other.degree != self.degree:
            raise DegreeOutOfRange("cannot add vector forms of different degree")
        return VectorForm(self.degree, lambda z: _add_arrays(self.matrix(z), other.matrix(z)),
                          self.n)

    def __sub__(self, other):
        if other.degree != self.degree:
            raise DegreeOutOfRange("cannot subtract vector forms of different degree")
        return VectorForm(self.degree, lambda z: _sub_arrays(self.matrix(z), other.matrix(z)),
                          self.n)

    def scale(self, c):
        if isinstance(c, ScalarField):
            return VectorForm(self.degree, lambda z: _scale_array(c(z), self.matrix(z)), self.n)
        return VectorForm(self.degree, lambda z: _scale_array(c, self.matrix(z)), self.n)


def _mul(c, x):
    """``c * x`` by rule 3 of ``jets``, except that an exact zero on either
    side is returned as it is, even against a Vec: an entry that only zeros
    reach stays a float zero."""
    if type(c) is not jets.Batch:
        if not c:
            return c
        if type(c) is float and c == 1.0:
            return x
    if type(x) is not jets.Batch:
        if not x:
            return x
        if type(x) is float and x == 1.0:
            return c
    return c * x


_add, _sub = jets._add, jets._sub  # x + y and x - y by rule 3 of ``jets``


def _add_arrays(a, b):
    """``a + b`` entry by entry (``_add``), for two arrays of one shape: the
    frame arrays of forms and vector forms."""
    if type(a[0]) is list:
        return [_add_arrays(x, y) for x, y in zip(a, b)]
    return [_add(x, y) for x, y in zip(a, b)]


def _sub_arrays(a, b):
    """``a - b`` entry by entry (``_sub``), for two arrays of one shape."""
    if type(a[0]) is list:
        return [_sub_arrays(x, y) for x, y in zip(a, b)]
    return [_sub(x, y) for x, y in zip(a, b)]


def _scale_array(c, a):
    """``c * x`` (``_mul``) for every entry x of a frame array."""
    if type(a[0]) is list:
        return [_scale_array(c, x) for x in a]
    return [_mul(c, x) for x in a]


def constant_vector_form(coeffs, n: int, name: str = "") -> VectorForm:
    """Vector 1-form with constant coefficients in the coordinate frame."""
    m = [list(row) for row in coeffs]
    return VectorForm(1, lambda z: [list(row) for row in m], n, name)


def identity_form(n: int) -> VectorForm:
    n2 = 2 * n
    m = [[1.0 if a == b else 0.0 for b in range(n2)] for a in range(n2)]
    return constant_vector_form(m, n, "Id")


@_one_per_n
def vertical_endomorphism(n: int) -> VectorForm:
    """J: d/dx^i -> d/dy^i, d/dy^i -> 0; one shared constant per n."""
    n2 = 2 * n
    m = [[0.0] * n2 for _ in range(n2)]
    for i in range(n):
        m[n + i][i] = 1.0
    return constant_vector_form(m, n, "J")


def tensor_one_form_field(alpha: DifferentialForm, X: VectorField) -> VectorForm:
    """alpha (x) X as a vector 1-form: v -> alpha(v) X."""
    if alpha.degree != 1:
        raise DegreeOutOfRange("tensor product needs a 1-form")

    n2 = 2 * X.n

    def mfn(z):
        xz = X(z)
        row = alpha.array(z)
        return [[_mul(row[b], xa) for b in range(n2)] for xa in xz]

    return VectorForm(1, mfn, X.n, name=f"{alpha.name}(x){X.name}")


def zero_vector_form(n: int, degree: int = 1) -> VectorForm:
    n2 = 2 * n
    if degree == 1:
        return VectorForm(1, lambda z: [[0.0] * n2 for _ in range(n2)], n, "0")
    return VectorForm(degree, lambda z: [[[0.0] * n2 for _ in range(n2)] for _ in range(n2)],
                      n, "0")


# ---------------------------------------------------------------------------
# insertions and derivations


def insert_vector(Y: VectorField, K):
    """i_Y K: plug the vector field into the first slot, lowering the degree."""
    if isinstance(K, DifferentialForm):
        if K.degree < 1:
            raise DegreeOutOfRange("cannot insert a vector into a 0-form")
        if K.degree == 1:
            return ScalarField(lambda z: K(z, Y(z)), K.n, name=f"i_{Y.name}{K.name}")
        n2 = 2 * K.n

        def array_fn(z):
            # (i_Y K)[b..] = sum_a Y^a K[a][b..], the contraction over the first slot
            yz, arr = Y(z), K.array(z)
            if K.degree == 2:
                return [_dot(yz, [row[b] for row in arr]) for b in range(n2)]
            return _skew_array(2, n2, lambda b, c: _dot(yz, [m[b][c] for m in arr]))

        return _array_form(K.degree - 1, array_fn, K.n, name=f"i_{Y.name}{K.name}")
    if isinstance(K, VectorForm):
        if K.degree == 1:
            return VectorField(lambda z: K(z, Y(z)), K.n, name=f"{K.name}({Y.name})")

        def mfn(z):
            # column b is K(Y, e_b), the contraction of Y with the frame array's column b
            t, yz = K.matrix(z), Y(z)
            cols = [_combine(yz, [row[b] for row in t]) for b in range(len(t))]
            return [[col[a] for col in cols] for a in range(len(t))]

        return VectorForm(1, mfn, K.n, name=f"i_{Y.name}{K.name}")
    raise TypeError(f"cannot insert a vector field into {type(K).__name__}")


def insert_one_form(K: VectorForm, alpha: DifferentialForm) -> DifferentialForm:
    """i_K alpha = sum over slots of alpha(.., K X_i, ..) for a vector 1-form K.

    K is read as ``K(z, jets.vec_frame(2n))``, whose component a has slot b
    (K e_b)^a, and alpha(.., K e_b, ..) contracts the column K e_b with
    alpha's array in that slot (``_dot``).
    """
    if K.degree != 1:
        raise DegreeOutOfRange("insertion derivation requires a vector 1-form")
    p = alpha.degree
    if p < 1:
        raise DegreeOutOfRange("cannot insert into a 0-form")
    n2 = 2 * alpha.n
    rng = range(n2)

    def array_fn(z):
        cols = list(zip(*(jets.slots(x, n2) for x in K(z, jets.vec_frame(n2)))))
        arr = alpha.array(z)
        if p == 1:
            return [_dot(cols[b], arr) for b in rng]
        if p == 2:
            return _skew_array(2, n2, lambda a, b: _add(
                _dot(cols[a], [row[b] for row in arr]), _dot(cols[b], arr[a])))
        return _skew_array(3, n2, lambda a, b, c: _add(_add(
            _dot(cols[a], [m[b][c] for m in arr]), _dot(cols[b], [row[c] for row in arr[a]])),
            _dot(cols[c], arr[a][b])))

    return _array_form(p, array_fn, alpha.n, name=f"i_{K.name}{alpha.name}")


def d_K(K: VectorForm, target) -> DifferentialForm:
    """d_K on a scalar field (d_K f = df o K) or a form (i_K d - d i_K)."""
    if isinstance(target, ScalarField):
        if K.degree == 1:
            def ev(z, v):
                return jets.directional(target.fn, z, K(z, v))
            return DifferentialForm(1, ev, K.n, name=f"d_{K.name}{target.name}")

        def ev2(z, u, v):
            return jets.directional(target.fn, z, K(z, u, v))
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
    iya = insert_vector(Y, alpha)
    second = d_function(iya) if alpha.degree == 1 else exterior_derivative(iya)
    return insert_vector(Y, exterior_derivative(alpha)) + second


# ---------------------------------------------------------------------------
# Frolicher-Nijenhuis brackets


def _bracket_1_0(K: VectorForm, Y: VectorField) -> VectorForm:
    """[K, Y] = DY.K - D_Y K - K.DY, a vector 1-form.

    For constant X, [K, Y] X = [KX, Y] - K [X, Y] = D_{KX} Y - D_Y(KX) - K D_X Y,
    with DY the Jacobian of Y (column c is D_c Y, the derivative along e_c)
    and D_Y K the derivative of K's matrix along Y.  One lift of the point
    along the vector frame (``jets.frame_pass``, one lift per point) gives Y
    there and DY; one lift along Y(z), with a fresh tag, gives K there and
    D_Y K.  An entry of K's lifted matrix that does not carry the lift's tag
    (every entry of Id or any constant K) has the tangent 0.0, a structural
    zero, so ``_sub`` forms no D_Y K term for it.  A shared constant K (J) is
    not lifted at all: its matrix at z is K, and D_Y K is float zeros.  The
    products are contractions whose coefficients are K's entries (``_combine``):
    column b of DY.K is DY (K e_b), and row a of K.DY is the rows of DY
    weighted by row a of K.  An exact-zero entry of K is skipped and a unit
    entry takes a column or row of DY as it is, so for K = J (and Id) every
    entry is what the scalar passes of the column formula give, up to the
    sign of a zero: a vector lift's slot repeats the scalar pass.
    """
    n2 = 2 * K.n
    rng = range(n2)
    y_fn = Y.fn  # not Y: [K, Y] kept on Y must not hold Y, or the two form a cycle
    constant = K._built is False

    def matrix_fn(z):
        frame_tag, y = jets.frame_pass(y_fn, z, n2)
        dy_rows = [jets.slots(jets.tangent(v, frame_tag), n2) for v in y]
        dy_cols = list(zip(*dy_rows))
        if constant:
            k, d_y_k = K.matrix(z), [[0.0] * n2] * n2
        else:
            tag = jets.fresh_tag()
            k = K.matrix(jets.lift(z, [jets.primal(v, frame_tag) for v in y], tag))
            d_y_k = [[jets.tangent(x, tag) for x in row] for row in k]
            k = [[jets.primal(x, tag) for x in row] for row in k]
        dy_k = [_combine([row[b] for row in k], dy_cols) for b in rng]
        k_dy = [_combine(row, dy_rows) for row in k]
        return [[_sub(_sub(dy_k[b][a], d_y_k[a][b]), k_dy[a][b]) for b in rng] for a in rng]

    return VectorForm(1, matrix_fn, K.n, name=f"[{K.name},{Y.name}]")


def _combine(coeffs, vectors):
    """sum_c coeffs[c] * vectors[c], with exact float zeros structural.

    An exact-zero coefficient is skipped, and so is an exact-zero entry of a
    vector and of a partial sum (``_mul``, ``_add``): an entry that no
    nonzero product reaches is the float zero itself, not a batch or a jet.
    A unit coefficient contributes ``vectors[c]`` itself, so along a frame
    vector the result is that vector, bit for bit, and with no nonzero
    coefficient it is the zero vector.  The sums run in the order of c, so a
    finite entry is what plain arithmetic gives up to the sign of a zero.  A
    NaN or an infinity that meets only exact zeros, as a coefficient or as
    an entry, does not reach the result: ``nan * 0.0`` is skipped, not NaN.
    The result may be one of the inputs.
    """
    out = None
    for x, vec in zip(coeffs, vectors):
        if type(x) is not jets.Batch and not x:
            continue
        if not (type(x) is float and x == 1.0):
            vec = [_mul(x, v) for v in vec]
        out = vec if out is None else [_add(o, v) for o, v in zip(out, vec)]
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

    One lift of the point along the vector frame (``jets.frame_pass``, one
    lift per point) gives K and L there (the primal parts of their matrices)
    and every D_c(K e_b) and D_c(L e_b) (slot c of the tangents); each D_v
    and each application of K or L is then a contraction over components
    (``_combine``).  A shared constant K (J) is not lifted: its columns are
    those of its matrix at z, and every D_c(K e_b) is float zeros.  Only
    a < b is formed: T[b][a] = -T[a][b] and T[a][a] = 0, as the formula gives
    them.

    Exactness: a contraction along a frame vector or zero is, bit for bit,
    the scalar lift along it, because a vector lift's slot repeats the
    scalar pass.  So when every column of K is a frame vector or zero and K
    is constant (as for J), every entry is what the pairwise scalar lifts
    give, up to the signs of zeros.  Other K round differently.  Applied to
    frame vectors, the form returns the array's entries.
    """
    n2 = 2 * K.n
    rng = range(n2)
    constant = K._built is False

    def matrices(za):
        return K.matrix(za), L.matrix(za)

    def matrix_fn(z):
        if constant:
            tag, lm = jets.frame_pass(L.matrix, z, n2)
            kc, dk = [list(col) for col in zip(*K.matrix(z))], [[[0.0] * n2] * n2] * n2
        else:
            tag, (km, lm) = jets.frame_pass(matrices, z, n2)
            kc, dk = _lifted_columns(km, tag, n2)
        lc, dl = _lifted_columns(lm, tag, n2)
        arr = [[[0.0] * n2 for _ in rng] for _ in rng]
        for a in rng:
            for b in range(a + 1, n2):
                p = _combine(kc[a], dl[b])
                q = _combine(lc[b], dk[a])
                r = _combine(lc[a], dk[b])
                s = _combine(kc[b], dl[a])
                k_term = _combine([_sub(x, y) for x, y in zip(dl[b][a], dl[a][b])], kc)
                l_term = _combine([_sub(x, y) for x, y in zip(dk[b][a], dk[a][b])], lc)
                v = [_sub(_sub(_add(_sub(p_, q_), _sub(r_, s_)), t_), u_)
                     for p_, q_, r_, s_, t_, u_ in zip(p, q, r, s, k_term, l_term)]
                arr[a][b] = v
                arr[b][a] = [-x for x in v]
        return arr

    return VectorForm(2, matrix_fn, K.n, name=f"[{K.name},{L.name}]")


def fn_bracket(K, L):
    """Frolicher-Nijenhuis bracket for degrees (1,0), (0,1), (1,1) and (0,0).

    One object per operand pair (``kept_on``): it is kept on L, or on K when
    L is a shared constant (J, C), so [J, V] lives as long as V.  A bracket
    of two shared constants is built at each call.
    """
    holder = K if L._built is False else L
    return kept_on(holder, "fn_bracket", (K, L), lambda: _bracket(K, L))


def _bracket(K, L):
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
        form = _bracket_1_0(L, K).scale(-1.0)
        form.name = f"[{K.name},{L.name}]"
        return form
    if K.degree == 1 and L.degree == 1:
        return _bracket_1_1(K, L)
    raise DegreeOutOfRange(
        f"bracket of degrees ({K.degree},{L.degree}) would exceed degree 2")


# ---------------------------------------------------------------------------
# potentials and structural residuals


def sup_abs(values) -> float:
    """sup |v| over the values (0.0 if there are none); NaN if any value is NaN.

    A hand-written ``max(worst, abs(v))`` loop drops a NaN that is not the
    first value, because ``max(0.0, nan) == 0.0``.  A value may be a
    ``jets.Batch``: its values over a batch of points count one by one.  Float
    values are compared in turn, and the batch values are collected and
    reduced with one ``np.abs(...).max()``, which is NaN if any point is NaN.
    """
    worst = 0.0
    batches = []
    for v in values:
        if type(v) is jets.Batch:
            batches.append(v)
            continue
        a = abs(v)
        if a != a:
            return a
        if a > worst:
            worst = a
    if batches:
        a = float(np.abs(np.concatenate(batches)).max())
        if a != a or a > worst:
            return a
    return worst


def semispray_residual(S: VectorField, points) -> float:
    """sup |J S - C|, i.e. how far the base components are from y."""
    n = S.n
    z = grid_coords(points)
    sz = S(z)
    return sup_abs(sz[i] - z[n + i] for i in range(n))


def potential(K, S: VectorField, points=None):
    """K deg minus one obtained by inserting a semispray; the potential of K.

    When sample points are supplied, the preconditions (S a semispray, K
    semibasic) are residual-tested first, through ``precheck``.
    """
    degree = K.degree if isinstance(K, (VectorForm, DifferentialForm)) else 0
    if degree < 1:
        raise DegreeOutOfRange("potential needs degree >= 1")
    if points is not None:
        precheck(semispray_residual(S, points),
                 NotSemispray("J(S) != C beyond tolerance on the supplied points"))
        r = semibasic_residual(K, points)
        precheck(r, NotSemibasic(f"potential needs a semibasic operand, residual {r:.3e}"))
    return insert_vector(S, K)


def homogeneity_residual(K, r: float, points, C: VectorField | None = None) -> float:
    """sup norm of [C, K] - (r - 1) K over the points (and frame, for 1-forms)."""
    if isinstance(K, VectorField):
        C = C or liouville_field(K.n)
        dev = lie_bracket(C, K) - K.scale(r - 1.0)
        return sup_abs(dev(grid_coords(points)))
    if isinstance(K, VectorForm) and K.degree == 1:
        C = C or liouville_field(K.n)
        dev = fn_bracket(C, K) - K.scale(r - 1.0)
        return sup_abs(x for row in dev.matrix(grid_coords(points)) for x in row)
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
        m = K.matrix(grid_coords(points))
        if K.degree == 1:
            # J o K = 0: every column must be vertical (first n rows zero);
            # K kills verticals: columns n..2n-1 vanish entirely
            return sup_abs([m[i][b] for b in range(n2) for i in range(n)]
                           + [m[a][n + i] for i in range(n) for a in range(n2)])
        # vertical insertion vanishes; J o K = 0: output of K is vertical on
        # every frame pair
        return sup_abs([v for i in range(n) for b in range(n2) for v in m[n + i][b]]
                       + [v for a in range(n2) for b in range(a + 1, n2) for v in m[a][b][:n]])
    if isinstance(K, DifferentialForm):
        if K.degree < 1:
            raise DegreeOutOfRange("semibasic test needs degree >= 1")
        arr = insert_one_form(vertical_endomorphism(K.n), K).array(grid_coords(points))
        return sup_abs(functools.reduce(list.__getitem__, idx, arr)
                       for idx in itertools.combinations(range(2 * K.n), K.degree))
    raise TypeError("semibasic test defined for forms and vector forms")
