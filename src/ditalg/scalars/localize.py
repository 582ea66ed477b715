"""Localized polynomial rings k[x]_h and finitely generated module presentations.

Elements of k[x]_h are kept as num/h^e with e minimal, so equality is
syntactic.  `localize_to_free` implements the standard PID fact: after
inverting a single h every layer of a finitely generated module filtration
becomes free and a direct summand of the next, with explicit nested bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .fields import Field
from .poly import Poly
from .smith import PolyMatrix, smith_normal_form


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

    def __add__(self, other):
        return self.ring.add(self, other)

    def __sub__(self, other):
        return self.ring.sub(self, other)

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def __neg__(self):
        return self.ring.neg(self)

    def eval(self, v):
        """Evaluate at a field point where h does not vanish."""
        F = self.ring.field
        hv = self.ring.h.eval(v)
        if F.is_zero(hv) and self.den_exp > 0:
            raise ZeroDivisionError("evaluation point is a zero of the inverted product")
        val = self.num.eval(v)
        if self.den_exp:
            val = F.mul(val, F.inv(pow_field(F, hv, self.den_exp)))
        return val

    def __str__(self):
        if self.den_exp == 0:
            return str(self.num)
        return f"({self.num})/({self.ring.h})^{self.den_exp}"

    def __repr__(self):
        return f"LocElt({self})"


def pow_field(F: Field, a, n: int):
    out = F.one
    for _ in range(n):
        out = F.mul(out, a)
    return out


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
    classes of gen_cols in the cokernel presented by mod_cols."""
    from .smith import poly_kernel_basis

    t = len(gen_cols)
    if t == 0:
        return []
    stacked = []
    for i in range(rank):
        row = [col[i] for col in gen_cols] + [col[i] for col in mod_cols]
        stacked.append(row)
    kb = poly_kernel_basis(F, stacked) if stacked else []
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
    rank = pres.rank
    rel_cols = [[pres.relations[i][j] for i in range(rank)]
                for j in range(len(pres.relations[0]) if pres.relations and pres.relations[0] else 0)]

    # cumulative generator sets; final layer = whole module (ambient basis)
    layers: List[List[List[Poly]]] = []
    acc: List[List[Poly]] = []
    for gens in filtration:
        acc = acc + [list(col) for col in gens]
        layers.append(list(acc))
    ambient = [[Poly.one(F) if i == j else Poly.zero(F) for i in range(rank)] for j in range(rank)]
    layers.append(list(acc) + ambient)

    h = Poly.one(F)
    chosen: List[List[List[Poly]]] = []
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
        relmat = [[rel[j][i] for j in range(len(rel))] for i in range(t)]
        if not rel:
            relmat = [[] for _ in range(t)]
        P, D, Q = smith_normal_form(F, relmat) if rel else (None, None, None)
        if rel:
            Pinv = _unimodular_inverse(F, P)
            nfac = 0
            for i in range(min(t, len(rel))):
                if not D[i][i].is_zero():
                    d = D[i][i]
                    h = h * strip_constant(d)
                    nfac += 1
            free_idx = list(range(nfac, t))
            combos = [[Pinv[v][u] for v in range(t)] for u in free_idx]
        else:
            combos = [[Poly.one(F) if v == u else Poly.zero(F) for v in range(t)] for u in range(t)]
        new_basis = []
        for combo in combos:
            vec = [Poly.zero(F)] * rank
            for v, c in enumerate(combo):
                if not c.is_zero():
                    for i in range(rank):
                        vec[i] = vec[i] + c * new_gens[v][i]
            new_basis.append(vec)
        basis = list(prev_basis) + new_basis
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


def _unimodular_inverse(F: Field, P: PolyMatrix) -> PolyMatrix:
    """Inverse of a square polynomial matrix with constant nonzero determinant."""
    n = len(P)
    if n == 0:
        return []
    adj = [[Poly.zero(F)] * n for _ in range(n)]
    from .smith import poly_det

    d = poly_det(F, P)
    if d.is_zero() or not d.is_constant():
        raise ValueError("matrix is not unimodular")
    dinv = F.inv(d.coeff(0))
    for i in range(n):
        for j in range(n):
            minor = [[P[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = poly_det(F, minor)
            sign = F.one if (i + j) % 2 == 0 else F.neg(F.one)
            adj[j][i] = cof.scale(F.mul(sign, dinv))
    return adj


def independent_over_localization(F: Field, cols: List[List[Poly]],
                                  rel_cols: List[List[Poly]], rank: int) -> bool:
    """True iff the classes of `cols` are R_h-independent for every h.

    A syzygy module inside a free k[x]-module is torsion free, so it localizes
    to zero iff it is zero; independence therefore needs no h at all.
    """
    return not _proj_syzygies(F, cols, rel_cols, rank)


def in_localized_span(F: Field, cols: List[List[Poly]], rank: int,
                      target: List[Poly], h: Poly) -> bool:
    """Is the ambient vector `target` in the R_h-span of the columns `cols`?"""
    if all(p.is_zero() for p in target):
        return True
    if not cols:
        return False
    mat = [[col[i] for col in cols] for i in range(rank)]
    P, D, Q = smith_normal_form(F, mat)
    pt = []
    for row in P:
        acc = Poly.zero(F)
        for c, t in zip(row, target):
            acc = acc + c * t
        pt.append(acc)
    nfac = 0
    for i in range(min(rank, len(cols))):
        if not D[i][i].is_zero():
            nfac += 1
    for u in range(len(pt)):
        if u < nfac:
            d = strip_h_factors(D[u][u], h)
            if not d.divides(pt[u]):
                return False
        else:
            if not pt[u].is_zero():
                return False
    return True
