"""Localized polynomial rings k[x]_h and finitely generated module presentations.

Elements of k[x]_h are kept as num/h^e with e minimal, so equality is
syntactic.  `localize_to_free` implements the standard PID fact: after
inverting a single h every layer of a finitely generated module filtration
becomes free and a direct summand of the next, with explicit nested bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import linalg
from .fields import Field
from .poly import Poly
from .smith import PolyRing, poly_kernel_basis, smith_normal_form


class LocalizedRing:
    """k[x] localized at the product of the (monic, nonconstant) polys in `inverted`."""

    __slots__ = ("field", "inverted", "h")

    def __init__(self, field: Field, inverted: Sequence[Poly] = ()):
        norm = []
        for p in inverted:
            if p.is_zero():
                raise ValueError("cannot invert the zero polynomial")
            p = p.monic()
            if not p.is_constant():
                norm.append(p)
        self.field = field
        self.inverted = tuple(norm)
        h = Poly.one(field)
        for p in norm:
            h = h * p
        self.h = h

    # ring protocol ----------------------------------------------------

    @property
    def zero(self) -> "LocElt":
        return LocElt(self, Poly.zero(self.field), 0)

    @property
    def one(self) -> "LocElt":
        return LocElt(self, Poly.one(self.field), 0)

    def add(self, a: "LocElt", b: "LocElt") -> "LocElt":
        e = max(a.den_exp, b.den_exp)
        num = a.num * self.h ** (e - a.den_exp) + b.num * self.h ** (e - b.den_exp)
        return LocElt(self, num, e)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a: "LocElt", b: "LocElt") -> "LocElt":
        return LocElt(self, a.num * b.num, a.den_exp + b.den_exp)

    def neg(self, a: "LocElt") -> "LocElt":
        return LocElt(self, -a.num, a.den_exp)

    def is_zero(self, a: "LocElt") -> bool:
        return a.num.is_zero()

    def from_int(self, n: int) -> "LocElt":
        return LocElt(self, Poly.const(self.field, self.field.from_int(n)), 0)

    def from_poly(self, p: Poly) -> "LocElt":
        return LocElt(self, p, 0)

    def embed(self, c) -> "LocElt":
        """A ground-field scalar as a constant of the ring."""
        return LocElt(self, Poly.const(self.field, c), 0)

    def is_unit(self, a: "LocElt") -> bool:
        if a.num.is_zero():
            return False
        num = strip_h_factors(a.num, self.h)
        return num.is_constant()

    def inv(self, a: "LocElt") -> "LocElt":
        """Inverse of a unit num/h^e; the numerator must divide some h-power."""
        if a.num.is_zero():
            raise ZeroDivisionError("inverting zero in localized ring")
        num = a.num
        m = 0
        cof = Poly.one(self.field)
        cur = Poly.one(self.field)
        while True:
            q, r = cur.divmod(num)
            if r.is_zero():
                cof = q
                break
            m += 1
            if m > 2 + num.degree * max(1, self.h.degree):
                raise ZeroDivisionError(f"{num} is not invertible in {self!r}")
            cur = cur * self.h
        # 1/a = h^e * cof / h^m
        return LocElt(self, cof * self.h ** a.den_exp, m)

    def __eq__(self, other):
        return (isinstance(other, LocalizedRing) and other.field == self.field
                and other.inverted == self.inverted)

    def __hash__(self):
        return hash(("LocalizedRing", self.field, self.inverted))

    def __repr__(self):
        if not self.inverted:
            return "k[x]"
        return "k[x]_{" + ", ".join(str(p) for p in self.inverted) + "}"


def strip_h_factors(p: Poly, h: Poly) -> Poly:
    """Divide out every factor of p that also divides a power of h."""
    if p.is_zero() or h.is_constant():
        return p
    while True:
        g = p.gcd(h)
        if g.is_constant():
            return p
        while True:
            q, r = p.divmod(g)
            if not r.is_zero():
                break
            p = q
            if p.is_constant():
                return p


@dataclass(frozen=True)
class LocElt:
    """num / h^den_exp with den_exp minimal (h never divides num when e > 0)."""

    ring: LocalizedRing
    num: Poly
    den_exp: int

    def __post_init__(self):
        num, e = self.num, self.den_exp
        h = self.ring.h
        if num.is_zero():
            e = 0
        elif h.is_constant():
            e = 0
        else:
            if e < 0:
                num = num * h ** (-e)
                e = 0
            while e > 0:
                q, r = num.divmod(h)
                if r.is_zero():
                    num, e = q, e - 1
                else:
                    break
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den_exp", e)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        # falsy exactly at zero, as a ring context's values must be
        return bool(self.num.coeffs)

    def __add__(self, other):
        return self.ring.add(self, other)

    def __sub__(self, other):
        return self.ring.sub(self, other)

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def __neg__(self):
        return self.ring.neg(self)

    def __str__(self):
        if self.den_exp == 0:
            return str(self.num)
        return f"({self.num})/({self.ring.h})^{self.den_exp}"

    def __repr__(self):
        return f"LocElt({self})"


# -- finitely generated module presentations ----------------------------


@dataclass(frozen=True)
class ModulePresentation:
    """Cokernel of `relations` in the free module ring^rank.

    The columns of `relations` (a rank x nrel polynomial matrix) generate the
    relation submodule; entries live in k[x] (denominators cleared).
    """

    ring: LocalizedRing
    rank: int
    relations: Tuple[Tuple[Poly, ...], ...]

    @staticmethod
    def make(ring: LocalizedRing, rank: int, relation_cols: Sequence[Sequence[Poly]]):
        rows = [[Poly.zero(ring.field)] * len(relation_cols) for _ in range(rank)]
        for j, col in enumerate(relation_cols):
            if len(col) != rank:
                raise ValueError("relation column has wrong length")
            for i, p in enumerate(col):
                rows[i][j] = p
        return ModulePresentation(ring, rank, tuple(tuple(r) for r in rows))


@dataclass
class LocalizationResult:
    h: Poly                      # extra polynomial to invert (monic)
    ring: LocalizedRing          # original ring with h adjoined to the inverted set
    layer_bases: List[List[List[Poly]]]  # for each layer, ambient vectors whose classes form a basis
    layer_ranks: List[int]


def _proj_syzygies(F: Field, gen_cols: List[List[Poly]], mod_cols: List[List[Poly]],
                   rank: int) -> List[List[Poly]]:
    """Columns c with gen*c in the span of mod_cols, i.e. relations of the
    classes of gen_cols in the cokernel presented by mod_cols.  In the zero
    module (rank 0) every column is a syzygy."""
    t = len(gen_cols)
    if t == 0:
        return []
    if rank == 0:
        return linalg.identity(PolyRing(F), t)
    kb = poly_kernel_basis(F, linalg.transpose(gen_cols + mod_cols))
    out = []
    for vec in kb:
        head = vec[:t]
        if any(not p.is_zero() for p in head):
            out.append(head)
    return out


def localize_to_free(pres: ModulePresentation,
                     filtration: Sequence[Sequence[Sequence[Poly]]] = ()) -> LocalizationResult:
    """Find h such that R_h (x) U and every filtration layer become free with
    nested bases; layers are given as lists of generator columns (ambient
    vectors), taken cumulatively."""
    F = pres.ring.field
    R = PolyRing(F)
    rank = pres.rank
    rel_cols = linalg.transpose(pres.relations)

    # cumulative generator sets; final layer = whole module (ambient basis)
    layers: List[List[List[Poly]]] = []
    acc: List[List[Poly]] = []
    for gens in filtration:
        acc = acc + [list(col) for col in gens]
        layers.append(list(acc))
    layers.append(list(acc) + linalg.identity(R, rank))

    h = Poly.one(F)
    prev_gens: List[List[Poly]] = []
    prev_basis: List[List[Poly]] = []
    layer_bases: List[List[List[Poly]]] = []
    for gens in layers:
        new_gens = gens[len(prev_gens):]
        mod_cols = prev_gens + rel_cols
        rel = _proj_syzygies(F, new_gens, mod_cols, rank)
        # SNF of the relation matrix of the quotient layer
        t = len(new_gens)
        if t == 0:
            layer_bases.append(list(prev_basis))
            prev_gens = gens
            prev_basis = list(prev_basis)
            continue
        if rel:
            P, D, Q = smith_normal_form(F, linalg.transpose(rel))
            Pinv = linalg.adjugate_inverse(R, P)
            if Pinv is None:
                raise ValueError("matrix is not unimodular")
            nfac = 0
            for i in range(min(t, len(rel))):
                if not D[i][i].is_zero():
                    h = h * strip_constant(D[i][i])
                    nfac += 1
            # the columns of Pinv past the torsion ones span the free part
            combos = linalg.transpose(Pinv)[nfac:]
        else:
            combos = linalg.identity(R, t)
        basis = list(prev_basis) + linalg.mul(R, combos, new_gens)
        layer_bases.append(basis)
        prev_gens = gens
        prev_basis = basis

    h = h.monic() if not h.is_zero() else h
    h = strip_h_factors(h, pres.ring.h).monic() if not h.is_constant() else Poly.one(F)
    new_ring = LocalizedRing(F, pres.ring.inverted + ((h,) if not h.is_constant() else ()))
    return LocalizationResult(h=h if not h.is_constant() else Poly.one(F),
                              ring=new_ring,
                              layer_bases=layer_bases,
                              layer_ranks=[len(b) for b in layer_bases])


def strip_constant(p: Poly) -> Poly:
    return p.monic() if not p.is_constant() else Poly.one(p.field)


def independent_over_localization(F: Field, cols: List[List[Poly]],
                                  rel_cols: List[List[Poly]], rank: int) -> bool:
    """True iff the classes of `cols` are R_h-independent for every h.

    A syzygy module inside a free k[x]-module is torsion free, so it localizes
    to zero iff it is zero; independence therefore needs no h at all.
    """
    return not _proj_syzygies(F, cols, rel_cols, rank)
