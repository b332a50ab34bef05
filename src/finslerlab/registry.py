"""String-addressable constructions for the command line and the check suite.

Ids compose left to right: ``l:jv:E-dy1`` is the L-Ehresmann connection of the
bracket form [J, E d/dy1].  Base functions parameterise the Wagner objects.
"""

from __future__ import annotations

from . import jets
from .calculus import (
    VectorField, fn_bracket, liouville_field, vertical_endomorphism,
    vertical_lift_function, vertical_lift_vector, zero_vector_form,
)
from .core import BaseFunction
from .errors import BadConfig
from .finsler import FinslerStructure, canonical_spray
from .connections import berwald, l_ehresmann_connection, wagner_connection

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
    n = F.n
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
        return VectorField(lambda z: [0.0] * n + [F.E(z)] + [0.0] * (n - 1), n, fid)
    if fid == "half-y1-C":
        return VectorField(lambda z: [0.0] * n + [0.5 * z[n] * z[n + i] for i in range(n)],
                           n, fid)
    if fid == "half-sqrtE-C":
        return VectorField(
            lambda z: [0.0] * n + [0.5 * jets.sqrt(F.E(z)) * z[n + i] for i in range(n)],
            n, fid)
    raise _UnknownId("field", fid)


def build_form(F: FinslerStructure, fid: str):
    n = F.n
    if fid == "zero":
        return zero_vector_form(n)
    if fid.startswith("wagner-form:"):
        _, L_W = wagner_connection(F, base_function(fid.split(":", 1)[1], n))
        return L_W
    if fid.startswith("jv:"):
        V = build_field(F, fid.split(":", 1)[1])
        return fn_bracket(vertical_endomorphism(n), V)
    if fid.startswith("fvJ:"):
        f_v = vertical_lift_function(base_function(fid.split(":", 1)[1], n))
        return vertical_endomorphism(n).scale(f_v)
    raise _UnknownId("form", fid)


def build_connection(F: FinslerStructure, cid: str):
    if cid == "berwald":
        return berwald(F)
    if cid.startswith("wagner:"):
        h, _ = wagner_connection(F, base_function(cid.split(":", 1)[1], F.n))
        return h
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
