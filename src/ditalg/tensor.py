"""The layered graded tensor algebra of a bigraph.

Elements are kept in a canonical normal form: a term is a decorated arrow word
whose decorations are k-basis elements of the point factor rings, together
with one field scalar.  Equal elements therefore have identical term
dictionaries, which makes every downstream membership or identity check a
plain linear-algebra question.

Decoration basis of a rational factor k[x]_h: the monomials x^a together with
the h-adic fractions x^b/h^j (j >= 1, 0 <= b < deg h).  Trivial factors only
carry the unit decoration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from .bigraph import Bigraph, BigraphError
from .scalars import LocElt, LocalizedRing, Poly, linalg

# decoration basis key: (a, j) represents x^a / h^j; j = 0 is the monomial x^a,
# and for j >= 1 the numerator satisfies a < deg h.
BasisKey = Tuple[int, int]
UNIT: BasisKey = (0, 0)


def decompose_locelt(ring: LocalizedRing, elt: LocElt) -> List[Tuple[BasisKey, object]]:
    """Expand an element of k[x]_h over the canonical decoration basis."""
    F = ring.field
    out: List[Tuple[BasisKey, object]] = []
    num, e = elt.num, elt.den_exp
    if num.is_zero():
        return out
    if e == 0:
        for i, c in enumerate(num.coeffs):
            if not F.is_zero(c):
                out.append(((i, 0), c))
        return out
    he = ring.h ** e
    q, rem = num.divmod(he)
    for i, c in enumerate(q.coeffs):
        if not F.is_zero(c):
            out.append(((i, 0), c))
    # h-adic digits of the proper fraction rem / h^e
    m = 0
    cur = rem
    while not cur.is_zero() and m < e:
        cur, digit = cur.divmod(ring.h)
        for b, c in enumerate(digit.coeffs):
            if not F.is_zero(c):
                out.append(((b, e - m), c))
        m += 1
    return out


def key_to_locelt(ring: LocalizedRing, key: BasisKey) -> LocElt:
    a, j = key
    return LocElt(ring, Poly.x(ring.field) ** a, j)


def mul_keys(ring: Optional[LocalizedRing], k1: BasisKey, k2: BasisKey):
    """Product of two decoration basis elements, re-expanded over the basis."""
    if ring is None:
        if k1 != UNIT or k2 != UNIT:
            raise ValueError("trivial factor admits only the unit decoration")
        return [(UNIT, None)]  # scalar one, caller keeps its own coefficient
    prod = ring.mul(key_to_locelt(ring, k1), key_to_locelt(ring, k2))
    return decompose_locelt(ring, prod)


class Word:
    """Decorated path.  `arrows` are in application order (index 0 acts
    first); `coeffs[i]` is the decoration at the i-th point of the path, so
    `coeffs[0]` sits at the start point and `coeffs[-1]` at the end.

    A value: equal and hashed as the tuple (start, arrows, coeffs), whose
    hash is computed once, as every term dictionary looks words up.  The
    fields are never reassigned."""

    __slots__ = ("start", "arrows", "coeffs", "_hash")

    def __init__(self, start: str, arrows: Tuple[str, ...], coeffs: Tuple[BasisKey, ...]):
        if len(coeffs) != len(arrows) + 1:
            raise ValueError("decoration count must be arrow count + 1")
        self.start = start
        self.arrows = arrows
        self.coeffs = coeffs
        self._hash = hash((start, arrows, coeffs))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Word:
            return NotImplemented
        return (self._hash == other._hash and self.start == other.start
                and self.arrows == other.arrows and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"Word(start={self.start!r}, arrows={self.arrows!r}, coeffs={self.coeffs!r})"

    def path(self, b: Bigraph) -> List[str]:
        pts = [self.start]
        for name in self.arrows:
            pts.append(b.arrow(name).target)
        return pts

    def end(self, b: Bigraph) -> str:
        return b.arrow(self.arrows[-1]).target if self.arrows else self.start

    def degree(self, b: Bigraph) -> int:
        return sum(1 for a in self.arrows if b.arrow(a).dashed)

    def length(self) -> int:
        return len(self.arrows)

    def __str__(self):
        if not self.arrows:
            a, j = self.coeffs[0]
            dec = "" if (a, j) == UNIT else f"[x^{a}/h^{j}]"
            return f"{dec}e_{self.start}"
        parts = []
        for i in range(len(self.arrows) - 1, -1, -1):
            ck = self.coeffs[i + 1]
            if ck != UNIT:
                parts.append(f"[x^{ck[0]}/h^{ck[1]}]")
            parts.append(self.arrows[i])
        if self.coeffs[0] != UNIT:
            parts.append(f"[x^{self.coeffs[0][0]}/h^{self.coeffs[0][1]}]")
        return "*".join(parts)


def idempotent_word(point: str) -> Word:
    return Word(point, (), (UNIT,))


def add_term(F, terms: Dict[Word, object], w: Word, c) -> None:
    """terms[w] += c in place, for a nonzero scalar c: a word met for the first
    time is stored as it comes, and one whose sum cancels is deleted."""
    if w in terms:
        c = F.add(terms[w], c)
        if not c:
            del terms[w]
            return
    terms[w] = c


class Elem:
    """Tensor algebra element in normal form: dict of Word -> field scalar.

    Invariant: every stored scalar is nonzero.  Sums and products rely on it
    and on the field having no zero divisors: a word met for the first time
    is stored with its scalar as it comes (a product of nonzero scalars is
    nonzero), so only a repeated word costs an addition, and a factor equal
    to one costs no multiplication.

    Invariant: `terms` is never changed after construction.  Every sum and
    product accumulates into a fresh dictionary, so two elements may share
    one `terms`: a value that a pushforward renames to itself keeps the
    source value's dictionary, uncopied (`LetterMap.push`).
    `tests/test_hygiene.py` keeps every module from writing into a
    `.terms`."""

    __slots__ = ("bigraph", "terms")

    def __init__(self, bigraph: Bigraph, terms: Optional[Dict[Word, object]] = None):
        self.bigraph = bigraph
        self.terms: Dict[Word, object] = {w: c for w, c in terms.items() if c} if terms else {}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(b: Bigraph) -> "Elem":
        return Elem(b)

    @staticmethod
    def nonzero(b: Bigraph, terms: Dict[Word, object]) -> "Elem":
        """The element with `terms`, whose scalars the caller knows to be
        nonzero: the dictionary is kept as it is, with no zero test."""
        out = Elem(b)
        out.terms = terms
        return out

    @staticmethod
    def idempotent(b: Bigraph, point: str, scalar=None) -> "Elem":
        c = b.field.one if scalar is None else scalar
        return Elem(b, {idempotent_word(point): c})

    @staticmethod
    def arrow(b: Bigraph, name: str, scalar=None) -> "Elem":
        a = b.arrow(name)
        c = b.field.one if scalar is None else scalar
        return Elem(b, {Word(a.source, (name,), (UNIT, UNIT)): c})

    @staticmethod
    def from_word(b: Bigraph, word: Word, scalar=None) -> "Elem":
        c = b.field.one if scalar is None else scalar
        return Elem(b, {word: c})

    @staticmethod
    def decorated(b: Bigraph, point: str, value: LocElt) -> "Elem":
        """Element c*e_point for a rational point value c."""
        ring = b.factor_ring(point)
        if ring is None:
            raise ValueError(f"{point} is a trivial point")
        out = Elem(b)
        for key, c in decompose_locelt(ring, value):
            out = out + Elem(b, {Word(point, (), (key,)): c})
        return out

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Elem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Elem") -> "Elem":
        F = self.bigraph.field
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(F, out, w, c)
        return Elem.nonzero(self.bigraph, out)

    def __sub__(self, other: "Elem") -> "Elem":
        return self + other.scale(self.bigraph.field.neg(self.bigraph.field.one))

    def __neg__(self) -> "Elem":
        return self.scale(self.bigraph.field.neg(self.bigraph.field.one))

    def scale(self, c) -> "Elem":
        F = self.bigraph.field
        if F.is_zero(c):
            return Elem(self.bigraph)
        one = F.one
        if c == one:
            return Elem.nonzero(self.bigraph, dict(self.terms))
        return Elem.nonzero(self.bigraph, {w: c if v == one else F.mul(c, v)
                                           for w, v in self.terms.items()})

    def __mul__(self, other: "Elem") -> "Elem":
        """Graded product; non-composable words multiply to zero."""
        b = self.bigraph
        F = b.field
        one = F.one
        out: Dict[Word, object] = {}
        for w2, c2 in other.terms.items():  # w2 acts first
            end2 = w2.end(b)
            ring = b.factor_ring(end2)
            # at a trivial point two unit decorations meet in the unit
            plain = ring is None and w2.coeffs[-1] == UNIT
            for w1, c1 in self.terms.items():
                if w1.start != end2:
                    continue
                scalar = c2 if c1 == one else c1 if c2 == one else F.mul(c1, c2)
                if plain and w1.coeffs[0] == UNIT:
                    add_term(F, out, Word(w2.start, w2.arrows + w1.arrows,
                                          w2.coeffs + w1.coeffs[1:]), scalar)
                    continue
                for key, kc in mul_keys(ring, w1.coeffs[0], w2.coeffs[-1]):
                    word = Word(w2.start, w2.arrows + w1.arrows,
                                w2.coeffs[:-1] + (key,) + w1.coeffs[1:])
                    s = scalar if kc is None or kc == one else F.mul(scalar, kc)
                    add_term(F, out, word, s)
        return Elem.nonzero(b, out)

    def degrees(self) -> List[int]:
        b = self.bigraph
        return sorted({w.degree(b) for w in self.terms})

    def max_length(self) -> int:
        return max((w.length() for w in self.terms), default=0)

    def component(self, source: str, target: str) -> "Elem":
        b = self.bigraph
        return Elem(b, {w: c for w, c in self.terms.items()
                        if w.start == source and w.end(b) == target})

    def components(self) -> Dict[Tuple[str, str], "Elem"]:
        """The nonzero (source, target) components, keyed by the pair in
        point order: one pass over the terms.  They sum to the element."""
        b = self.bigraph
        parts: Dict[Tuple[str, str], Dict[Word, object]] = {}
        for w, c in self.terms.items():
            parts.setdefault((w.start, w.end(b)), {})[w] = c
        pos = b.point_order.index
        return {key: Elem.nonzero(b, parts[key])
                for key in sorted(parts, key=lambda k: (pos(k[0]), pos(k[1])))}

    def __str__(self):
        if not self.terms:
            return "0"
        F = self.bigraph.field
        parts = []
        for w in sorted(self.terms, key=lambda w: (w.length(), str(w))):
            c = self.terms[w]
            cs = "" if c == F.one else f"{F.format(c)}*"
            parts.append(f"{cs}{w}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Elem({self})"


# -- layers and differentials ---------------------------------------------


@dataclass(frozen=True)
class Layer:
    """Free generation data: the bigraph whose solid and dashed arrows freely
    generate the layer.  Its triangular filtrations are not stored here: the
    least ones are derived from the differential (`interlace.Dit.levels`), so
    the filtration keys of a presentation file are accepted but not read."""

    bigraph: Bigraph


class Differential:
    """Generator values delta0 (solid -> degree 1) and delta1 (dashed ->
    degree 2), extended to the whole algebra by the graded Leibniz rule."""

    def __init__(self, layer: Layer, values: Dict[str, Elem],
                 _copied: AbstractSet[str] = frozenset()):
        """Each value is checked to be homogeneous of the arrow's degree and
        to run between its endpoints.  `_copied` is internal to the
        pushforward: it names values copied whole from a validated
        presentation through letters that keep their kind and endpoints,
        which are stored unchecked."""
        self.layer = layer
        b = layer.bigraph
        dashed = frozenset(a.name for a in b.dashed_arrows())
        target = {n: a.target for n, a in b.arrows.items()}
        self.values: Dict[str, Elem] = {}
        for name, arr in b.arrows.items():
            v = values.get(name)
            if v is None:
                v = Elem.zero(b)
            elif name not in _copied:
                expected = 2 if arr.dashed else 1
                for w in v.terms:
                    if sum(map(dashed.__contains__, w.arrows)) != expected:
                        raise ValueError(f"delta({name}) must be homogeneous of degree {expected}")
                    if w.start != arr.source or target[w.arrows[-1]] != arr.target:
                        raise ValueError(f"delta({name}) violates the bimodule constraint")
            self.values[name] = v

    @property
    def bigraph(self) -> Bigraph:
        return self.layer.bigraph

    def of_arrow(self, name: str) -> Elem:
        return self.values[name]

    def apply(self, elem: Elem) -> Elem:
        """Leibniz extension: delta(ab) = delta(a) b + (-1)^deg(a) a delta(b),
        with delta vanishing on all point-factor decorations."""
        b = self.bigraph
        F = b.field
        out = Elem.zero(b)
        for word, scalar in elem.terms.items():
            n = len(word.arrows)
            if n == 0:
                continue
            dashed_after = 0  # degree of the part applied after position j
            for j in range(n - 1, -1, -1):
                name = word.arrows[j]
                dval = self.values[name]
                if not dval.is_zero():
                    sign = F.one if dashed_after % 2 == 0 else F.neg(F.one)
                    prefix = Elem(b, {Word(word.start, word.arrows[:j],
                                           word.coeffs[:j + 1]): F.one})
                    suffix = Elem(b, {Word(b.arrow(name).target, word.arrows[j + 1:],
                                           word.coeffs[j + 1:]): F.one})
                    piece = suffix * dval * prefix
                    out = out + piece.scale(F.mul(scalar, sign))
                if b.arrow(name).dashed:
                    dashed_after += 1
        return out

    def square(self, elem: Elem) -> Elem:
        return self.apply(self.apply(elem))


def graded_component_basis(b: Bigraph, source: str, target: str, degree: int,
                           word_length_cap: int, exp_cap: int = 3,
                           allow_cycles: bool = False) -> List[Word]:
    """Spanning words of e_target [T] e_source in the given degree, up to the
    length cap; exact (cap-independent) when every decoration point is
    trivial.  Rejects non-directed bigraphs unless the caller opts into the
    capped (hence possibly incomplete) enumeration."""
    if not allow_cycles and not b.is_directed():
        raise BigraphError("graded enumeration requires a directed bigraph")

    paths: List[Tuple[str, ...]] = []

    def walk(point, acc):
        if len(acc) <= word_length_cap:
            if point == target and sum(1 for n in acc if b.arrow(n).dashed) == degree:
                paths.append(tuple(acc))
        if len(acc) == word_length_cap:
            return
        for a in b.arrows_from(point):
            acc.append(a.name)
            walk(a.target, acc)
            acc.pop()

    walk(source, [])

    def keys_at(point) -> List[BasisKey]:
        fac = b.factor(point)
        if fac.is_trivial:
            return [UNIT]
        ring = fac.ring(b.field)
        keys = [(a, 0) for a in range(exp_cap + 1)]
        if not ring.h.is_constant():
            keys += [(a, j) for j in range(1, exp_cap + 1) for a in range(ring.h.degree)]
        return keys

    words: List[Word] = []
    for path_arrows in paths:
        pts = [source]
        for n in path_arrows:
            pts.append(b.arrow(n).target)
        if path_arrows == () and source != target:
            continue
        choices = [keys_at(p) for p in pts]

        def fill(i, acc):
            if i == len(choices):
                words.append(Word(source, path_arrows, tuple(acc)))
                return
            for k in choices[i]:
                acc.append(k)
                fill(i + 1, acc)
                acc.pop()

        fill(0, [])
    return words


def elem_coordinates(elems: Sequence[Elem]) -> Tuple[List[Word], List[List]]:
    """Joint word support and coordinate rows of the given elements."""
    support: List[Word] = []
    seen = set()
    for e in elems:
        for w in e.terms:
            if w not in seen:
                seen.add(w)
                support.append(w)
    F = elems[0].bigraph.field if elems else None
    rows = []
    for e in elems:
        rows.append([e.terms.get(w, F.zero) for w in support])
    return support, rows


def in_span(cands: Sequence[Elem], target: Elem) -> bool:
    """Exact linear membership of target in the k-span of cands."""
    if target.is_zero():
        return True
    if not cands:
        return False
    F = target.bigraph.field
    support, rows = elem_coordinates(list(cands) + [target])
    span_rows = rows[:-1]
    vec = rows[-1]
    return linalg.row_space_contains(F, span_rows, vec)
