"""Small ditalgebra presentations used across the test suite and the docs.

All constructors take the ground field so the same shapes can be exercised
over F_2, F_3, F_101, or Q.
"""

from __future__ import annotations

from .bigraph import Bigraph, Factor
from .interlace import Dit, IdealData, lift_differential
from .scalars import Field, LocElt, Poly
from .tensor import Differential, Elem, Layer


def ex1(F: Field) -> Dit:
    """A2 quiver: one solid arrow a: 1 -> 2, no dashed arrows, zero
    differential, zero ideal."""
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2")])
    layer = Layer(b)
    return Dit(layer, Differential(layer, {}), IdealData(), name="EX1")


def ex2(F: Field) -> Dit:
    """One solid and one dashed arrow 1 -> 2 with delta(a) = v (the classic
    regularization shape)."""
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    delta = Differential(layer, {"a": Elem.arrow(b, "v")})
    return Dit(layer, delta, IdealData(), name="EX2")


def exi(F: Field) -> Dit:
    """Chain 1 -> 2 -> 3 with the composite relation: solid a, b, dashed
    u: 1 -> 3, zero differential, I = <b a>."""
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "2", "3")], dashed=[("u", "1", "3")])
    layer = Layer(b)
    delta = Differential(layer, {})
    ba = Elem.arrow(b, "b") * Elem.arrow(b, "a")
    return Dit(layer, delta, IdealData([ba]), name="EX-I")


def exk(F: Field) -> Dit:
    """Kronecker quiver: two solid arrows a, b: 1 -> 2."""
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "1", "2")])
    layer = Layer(b)
    return Dit(layer, Differential(layer, {}), IdealData(), name="EXK")


def exl(F: Field) -> Dit:
    """A lifted fixture with a nonzero generated ideal in degree 1: chain
    g: 1 -> 2, h: 2 -> 3 with I = <h g>, a dashed m: 3 -> 4 composing over the
    relation (so m*h*g spans part of J cap V), plus a dashed s: 1 -> 2."""
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial()),
                    ("3", Factor.trivial()), ("4", Factor.trivial())],
                solid=[("g", "1", "2"), ("h", "2", "3")],
                dashed=[("m", "3", "4"), ("s", "1", "2")])
    hg = Elem.arrow(b, "h") * Elem.arrow(b, "g")
    return lift_differential(b, [hg], {})


def exl2(F: Field) -> Dit:
    """Lifted fixture whose quotient differential has a genuine degree-2
    value: delta-dot(v-bar) = u' (x) u over the relation ideal <b a>."""
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "2", "3")],
                dashed=[("u", "1", "2"), ("u2", "2", "3"), ("v", "1", "3")])
    ba = Elem.arrow(b, "b") * Elem.arrow(b, "a")
    dv = Elem.arrow(b, "u2") * Elem.arrow(b, "u")
    return lift_differential(b, [ba], {"v": dv})


def exr(F: Field) -> Dit:
    """Source-equipped regularization fixture: source z0 with c: z0 -> 1 and
    a regularizable arrow a: 1 -> 2 away from the source."""
    b = Bigraph(F, [("z0", Factor.trivial()), ("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("c", "z0", "1"), ("a", "1", "2")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    delta = Differential(layer, {"a": Elem.arrow(b, "v")})
    return Dit(layer, delta, IdealData(), name="EXR")


def exq(F: Field) -> Dit:
    """Source-equipped factor-out fixture: parallel solid arrows p, q with
    I = <p>, away from the source z0."""
    b = Bigraph(F, [("z0", Factor.trivial()), ("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("c", "z0", "1"), ("p", "1", "2"), ("q", "1", "2")],
                dashed=[("v", "1", "2")])
    layer = Layer(b)
    delta = Differential(layer, {})
    return Dit(layer, delta, IdealData([Elem.arrow(b, "p")]), name="EXQ")


def exa(F: Field) -> Dit:
    """Source-equipped absorption fixture: a loop ell at point 1 with zero
    differential (non-directed, certified through explicit filtrations)."""
    b = Bigraph(F, [("z0", Factor.trivial()), ("1", Factor.trivial())],
                solid=[("c", "z0", "1"), ("ell", "1", "1")])
    layer = Layer(b, w0_levels=(frozenset({"c", "ell"}),))
    delta = Differential(layer, {})
    return Dit(layer, delta, IdealData(), name="EXA")


def exx(F: Field) -> Dit:
    """Source-equipped edge-reduction fixture: c: z0 -> 1 then a: 1 -> 2."""
    b = Bigraph(F, [("z0", Factor.trivial()), ("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("c", "z0", "1"), ("a", "1", "2")])
    layer = Layer(b)
    return Dit(layer, Differential(layer, {}), IdealData(), name="EXX")


ALL_FIXTURES = {
    "EX1": ex1, "EX2": ex2, "EX-I": exi, "EXK": exk,
    "EXL": exl, "EXL2": exl2, "EXR": exr, "EXQ": exq, "EXA": exa, "EXX": exx,
}


def stellar_case1(F: Field) -> Dit:
    """Stellar fixture with the ideal meeting a rational factor: center e0,
    one rational arm point p carrying I = <x^2 e_p>."""
    b = Bigraph(F, [("e0", Factor.trivial()), ("p", Factor.rational([]))],
                solid=[("w", "e0", "p")])
    layer = Layer(b)
    delta = Differential(layer, {})
    ring = b.factor_ring("p")
    gen = Elem.decorated(b, "p", LocElt(ring, Poly.x(F) ** 2, 0))
    return Dit(layer, delta, IdealData([gen]), name="STL1")


def stellar_case2(F: Field) -> Dit:
    """Stellar fixture whose ideal sits inside W0 without being a summand:
    I = <x*w1> over the rational arm, split only after inverting x."""
    b = Bigraph(F, [("e0", Factor.trivial()), ("p", Factor.rational([]))],
                solid=[("w1", "e0", "p"), ("w2", "e0", "p")])
    layer = Layer(b)
    delta = Differential(layer, {})
    ring = b.factor_ring("p")
    gen = Elem.decorated(b, "p", LocElt(ring, Poly.x(F), 0)) * Elem.arrow(b, "w1")
    return Dit(layer, delta, IdealData([gen]), name="STL2")
