"""String-addressable constructions for the command line and the check suite.

Ids compose left to right: ``l:jv:E-dy1`` is the L-Ehresmann connection of the
bracket form [J, E d/dy1].  Base functions parameterise the Wagner objects.
Each builder keeps what it builds on F, so an id names one object per structure.
"""

from __future__ import annotations

from . import jets
from .calculus import (
    VectorField, fn_bracket, liouville_field, vertical_endomorphism,
    vertical_lift_function, vertical_lift_vector, zero_vector_form,
)
from .core import BaseFunction
from .errors import BadConfig
from .finsler import FinslerStructure, berwald_connection, canonical_spray
from .connections import l_ehresmann_connection, wagner_connection
from .memo import kept_on

BASE_FUNCTIONS = {
    "zero": lambda n: BaseFunction(lambda x: 0.0, n, "zero"),
    "x1": lambda n: BaseFunction(lambda x: x[0], n, "x1"),
    "x2": lambda n: BaseFunction(lambda x: x[1], n, "x2"),
    "x1x2": lambda n: BaseFunction(lambda x: x[0] * x[1], n, "x1x2"),
}


class _UnknownId(BadConfig):
    """Raised by a builder for an id it does not recognise at all."""

    def __init__(self, kind: str, oid: str):
        super().__init__(f"unknown {kind} id {oid!r}")
        self.oid = oid


def base_function(fid: str, n: int) -> BaseFunction:
    try:
        return BASE_FUNCTIONS[fid](n)
    except KeyError:
        raise BadConfig(f"unknown base function id {fid!r}; known: {sorted(BASE_FUNCTIONS)}") \
            from None


def build_field(F: FinslerStructure, fid: str) -> VectorField:
    return kept_on(F, "build_field", (fid,), lambda: _field(F, fid))


def _field(F, fid):
    n, E = F.n, F.E
    if fid == "C":
        return liouville_field(n)
    if fid == "S0":
        return canonical_spray(F)
    if fid.startswith("vlift:"):
        try:
            i = int(fid.split(":", 1)[1])
        except ValueError:
            raise BadConfig(f"vlift index is not an integer in {fid!r}") from None
        if not 1 <= i <= n:
            raise BadConfig(f"vlift index out of range in {fid!r}")
        comps = [BaseFunction(lambda x, j=j: 1.0 if j == i - 1 else 0.0, n)
                 for j in range(n)]
        return vertical_lift_vector(comps, n, name=fid)
    if fid == "E-dy1":
        return VectorField(lambda z: [0.0] * n + [E(z)] + [0.0] * (n - 1), n, fid)
    if fid == "half-y1-C":
        return VectorField(lambda z: [0.0] * n + [0.5 * z[n] * z[n + i] for i in range(n)],
                           n, fid)
    if fid == "half-sqrtE-C":
        return VectorField(
            lambda z: [0.0] * n + [0.5 * jets.sqrt(E(z)) * z[n + i] for i in range(n)],
            n, fid)
    raise _UnknownId("field", fid)


def _wagner(F, fid):
    """The Wagner pair (connection, L_W) of the base function ``fid``."""
    return kept_on(F, "wagner_connection", (fid,),
                   lambda: wagner_connection(F, base_function(fid, F.n)))


def build_form(F: FinslerStructure, fid: str):
    return kept_on(F, "build_form", (fid,), lambda: _form(F, fid))


def _form(F, fid):
    n = F.n
    if fid == "zero":
        return zero_vector_form(n)
    if fid.startswith("wagner-form:"):
        return _wagner(F, fid.split(":", 1)[1])[1]
    if fid.startswith("jv:"):
        return fn_bracket(vertical_endomorphism(n), build_field(F, fid.split(":", 1)[1])).memoize()
    if fid.startswith("fvJ:"):
        f_v = vertical_lift_function(base_function(fid.split(":", 1)[1], n))
        return vertical_endomorphism(n).scale(f_v)
    raise _UnknownId("form", fid)


def build_connection(F: FinslerStructure, cid: str):
    return kept_on(F, "build_connection", (cid,), lambda: _connection(F, cid))


def _connection(F, cid):
    if cid == "berwald":
        return berwald_connection(F)
    if cid.startswith("wagner:"):
        return _wagner(F, cid.split(":", 1)[1])[0]
    if cid.startswith("l:"):
        return l_ehresmann_connection(F, build_form(F, cid.split(":", 1)[1]))
    raise _UnknownId("connection", cid)


def build_object(F: FinslerStructure, oid: str):
    """Resolve an id of any kind; returns (kind, object).

    An id that one kind does not recognise is tried as the next kind; any
    other error, such as a bad index or an unknown id nested inside a
    recognised prefix, is raised as is.
    """
    for kind, builder in (("field", build_field), ("form", build_form),
                          ("connection", build_connection)):
        try:
            return kind, builder(F, oid)
        except _UnknownId as e:
            if e.oid != oid:
                raise
    raise BadConfig(f"id {oid!r} matches no field, form, or connection")
