"""Reduction by a complete triangular admissible module.

The admissible data consists of a subalgebra B = T_R(W0') with delta(W0') = 0
and an admissible B-module X with End(X)^op = S (+) P, S a product of trivial
and rational factors and P the radical part.  The reduced presentation has
solid arrows nu (x) w (x) x, dashed arrows nu (x) w (x) x and P*-duals, and
the differential is assembled from the comultiplication mu and the maps
lambda and rho induced by the P-action.  The sigma expansion carries products
across: sigma(delta(w)) is expanded once per source arrow w and read at every
pair of dual basis vectors, each word prefix that delta values and ideal
generators share is multiplied out once (`SigmaExpander`), and the functor
F^X is built from the sigma matrix of each letter.  The reduced ideal is
the sigma entries of the ideal generators; its triangular filtration is
derived from the reduced delta (`interlace.ideal_levels`), not stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .bigraph import Bigraph, Factor
from .interlace import Dit, IdealData, inherit_certificates
from .modcat import (
    DecomposableError, EndAlgebra, IsoClassIndex, MorphismPair, Rep, _convolve, compose, hom,
    pair_to_vector,
)
from .reduce import ReductionFunctor, RepData
from .scalars import LocalizedRing, LocElt, Poly, linalg
from .scalars.linalg import Mat
from .tensor import Differential, Elem, Layer, UNIT, Word, add_term


class AdmissibleError(ValueError):
    pass


@dataclass
class Summand:
    """One direct summand of X: either a finite-dimensional B-module or the
    (localized) regular factor at a rational-or-trivial point."""

    kind: str            # "findim" | "regular"
    label: str
    rep: Optional[Rep] = None            # findim: a B-representation
    point: Optional[str] = None          # regular: the carried source point
    extra_inverted: Tuple[Poly, ...] = ()

    def s_factor(self, src: Bigraph) -> Factor:
        if self.kind == "findim":
            return Factor.trivial()
        base = src.factor(self.point)
        if base.is_trivial and not self.extra_inverted:
            return Factor.trivial()
        if base.is_trivial:
            raise AdmissibleError("cannot localize a trivial point")
        inverted = tuple(base.inverted or ()) + tuple(self.extra_inverted)
        return Factor.rational(inverted)


@dataclass
class DualBasisElement:
    index: int
    summand: Summand
    point: str            # source point carrying this basis vector
    coordinate: int       # index inside the summand's space at that point

    @property
    def label(self) -> str:
        if self.summand.kind == "regular":
            return self.summand.label
        return f"{self.summand.label}.{self.point}.{self.coordinate}"


@dataclass
class RadBasisElement:
    index: int
    pair: MorphismPair
    dom: Summand
    cod: Summand


@dataclass
class AdmissibleModuleData:
    dit: Dit
    b_arrows: Tuple[str, ...]        # the W0' selection (delta-closed solid arrows)
    b_dit: Dit                       # the subalgebra as its own presentation
    summands: List[Summand]
    x_basis: List[DualBasisElement]
    p_basis: List[RadBasisElement]
    # multiplication data
    p_products: List[List[List]]     # coords of p_i . p_j over the p-basis
    x_p_action: List[List[List]]     # coords of x_i . p_j over the x-basis

    @property
    def c_x(self) -> int:
        return len(self.x_basis)


def summand_weight(dit: Dit, dims: Dict[str, int]) -> int:
    """The dimension that a summand with dimension vector `dims` pulls back
    to through the functor chain that produced `dit`: the sum over its
    points of dim_p times the weight of p (`Dit.point_weights`)."""
    return sum(n * dit.point_weights.get(p, 1) for p, n in dims.items())


def _sub_bigraph_dit(dit: Dit, b_arrows: Sequence[str]) -> Dit:
    """B = T_R(W0') as its own presentation (same points, selected arrows)."""
    b = dit.bigraph
    sel = set(b_arrows)
    layer = Layer(b.without(arrows=[n for n, a in b.arrows.items()
                                    if a.dashed or n not in sel]))
    return Dit(layer, Differential(layer, {}), IdealData(), name=f"{dit.name}|B")


def _host(b_dit: Dit, rep: Union[Rep, RepData]) -> Rep:
    """A B-representation (a Rep over any presentation of B, or the RepData
    of one) as a Rep over b_dit."""
    if isinstance(rep, Rep) and rep.dit is b_dit:
        return rep
    b = b_dit.bigraph
    return Rep(b_dit, {p: rep.dims.get(p, 0) for p in b.point_order},
               {a.name: rep.arrow_ops[a.name] for a in b.solid_arrows()
                if a.name in rep.arrow_ops},
               dict(rep.point_ops))


def build_admissible(dit: Dit, b_arrows: Sequence[str],
                     findim: Sequence[Tuple[str, Union[Rep, RepData]]] = (),
                     regular: Sequence[Tuple[str, str, Sequence[Poly]]] = (),
                     check: bool = True) -> AdmissibleModuleData:
    """Assemble admissible data.

    findim: (label, B-representation) pairs, pairwise non-isomorphic
    indecomposables, each hosted on B's own presentation.  regular: (label,
    point, extra_inverted) case-2 summands; the B-arrows must act as zero
    there, so regular summands may not sit at an arrow endpoint.

    The findim precondition is what makes each summand's S-factor trivial
    and what `_radical_basis` builds P from: for pairwise non-isomorphic
    indecomposables X_i, rad(X_i, X_j) = Hom(X_i, X_j) when i != j, and the
    diagonal block is rad End(X_i) (Auslander, Reiten & Smalo, ch. V).
    `check` verifies it through an IsoClassIndex; without it the caller
    vouches for it, as the pipeline does for its simples, projectives and
    distinct companion blocks.
    """
    b = dit.bigraph
    F = b.field
    for name in b_arrows:
        if b.arrow(name).dashed:
            raise AdmissibleError("B is generated by solid arrows")
        if not dit.delta.of_arrow(name).is_zero():
            raise AdmissibleError(f"delta({name}) must vanish for the subalgebra")
    b_dit = _sub_bigraph_dit(dit, b_arrows)
    endpoint_pts = {p for name in b_arrows for p in (b.arrow(name).source, b.arrow(name).target)}

    summands = [Summand("findim", label, rep=_host(b_dit, rep)) for label, rep in findim]
    for label, point, extra in regular:
        if point in endpoint_pts:
            raise AdmissibleError("regular summands may not sit at a B-arrow endpoint")
        summands.append(Summand("regular", label, point=point,
                                extra_inverted=tuple(p.monic() for p in extra)))
    findim_summands = [s for s in summands if s.kind == "findim"]
    ends: List[EndAlgebra] = []
    if check:
        index = IsoClassIndex(b_dit)
        for s in findim_summands:
            try:
                new = index.add(s.rep)
            except DecomposableError:
                raise AdmissibleError("findim summands must be indecomposable") from None
            if not new:
                raise AdmissibleError("findim summands must be pairwise non-isomorphic")
        ends = index.ends

    # dual basis of X over S
    x_basis: List[DualBasisElement] = []
    for s in summands:
        if s.kind == "findim":
            for p in b.point_order:
                for c in range(s.rep.dims[p]):
                    x_basis.append(DualBasisElement(len(x_basis), s, p, c))
        else:
            x_basis.append(DualBasisElement(len(x_basis), s, s.point, 0))
    x_at = {p: [x for x in x_basis if x.point == p] for p in b.point_order}

    p_basis = _radical_basis(b_dit, findim_summands, ends)

    def action(x: DualBasisElement, pj: RadBasisElement) -> List:
        """x . p_j = p_j(x) over the x-basis."""
        out = [F.zero] * len(x_basis)
        if x.summand is pj.dom:
            col = pj.pair.f0[x.point].data
            for y in x_at[x.point]:
                if y.summand is pj.cod:
                    out[y.index] = col[y.coordinate][x.coordinate]
        return out

    adm = AdmissibleModuleData(
        dit=dit, b_arrows=tuple(b_arrows), b_dit=b_dit, summands=summands, x_basis=x_basis,
        p_basis=p_basis, p_products=_products(b_dit, p_basis),
        x_p_action=[[action(x, pj) for pj in p_basis] for x in x_basis])
    _check_nilpotent(adm)
    if check:
        _verify_associative(F, adm.p_products)
    return adm


def _radical_basis(b_dit: Dit, summands: List[Summand],
                   ends: Sequence[EndAlgebra] = ()) -> List[RadBasisElement]:
    """A basis of P, the radical of End_B(Z) for Z the sum of the findim
    summands, built one (dom, cod) block at a time in sorted order.

    The summands are pairwise non-isomorphic indecomposables, the
    precondition of `build_admissible`.  The radical of End(Z) is then the
    sum of its blocks rad(X_i, X_j): Hom(X_i, X_j) for i != j, as no map
    between non-isomorphic indecomposables is an isomorphism, and
    rad End(X_i) on the diagonal (Auslander, Reiten & Smalo, Representation
    Theory of Artin Algebras, ch. V).  So no End algebra of Z is built: a
    Hom basis per pair and the radical of each End(X_i), which is ends[i]
    when the caller has the End algebras already."""
    basis: List[RadBasisElement] = []
    for (i, dom), (j, cod) in itertools.product(enumerate(summands), repeat=2):
        if i == j:
            E = ends[i] if ends else EndAlgebra(b_dit, dom.rep)
            # a one-dimensional End(X_i) is k, with no radical
            block = [E.from_coordinates(vec) for vec in E.rad] if E.dim > 1 else []
        else:
            block = hom(b_dit, dom.rep, cod.rep)
        basis += [RadBasisElement(len(basis) + k, f, dom, cod) for k, f in enumerate(block)]
    return basis


def _products(b_dit: Dit, p_basis: List[RadBasisElement]) -> List[List[List]]:
    """Coordinates of p_i p_j over the p-basis: the op-composition p_j after
    p_i, as functions x -> p_j(p_i(x))."""
    F = b_dit.field
    table = []
    for pi in p_basis:
        row = []
        for pj in p_basis:
            coords = [F.zero] * len(p_basis)
            if pi.cod is pj.dom:
                comp = compose(b_dit, pj.pair, pi.pair, pi.dom.rep, pi.cod.rep, pj.cod.rep)
                if not comp.is_zero():
                    cands = [pk for pk in p_basis if pk.dom is pi.dom and pk.cod is pj.cod]
                    cols = [pair_to_vector(b_dit, pk.dom.rep, pk.cod.rep, pk.pair)
                            for pk in cands]
                    sol = linalg.solve(F, linalg.transpose(cols),
                                       pair_to_vector(b_dit, pi.dom.rep, pj.cod.rep, comp))
                    if sol is None:
                        raise AdmissibleError("radical products escape the radical basis")
                    for pk, c in zip(cands, sol):
                        coords[pk.index] = c
            row.append(coords)
        table.append(row)
    return table


def _check_nilpotent(adm: AdmissibleModuleData):
    """Raise unless X . P^m = 0 for some m <= dim P + 1, with X . P^m kept
    as a row-reduced basis.  P acts faithfully on X, so that holds exactly
    when P is nilpotent."""
    F = adm.dit.field
    n_x, n_p = len(adm.x_basis), len(adm.p_basis)
    acts = [[adm.x_p_action[i][j] for i in range(n_x)] for j in range(n_p)]
    span = [[F.one if i == k else F.zero for i in range(n_x)] for k in range(n_x)]
    for _ in range(n_p + 1):
        if not span:
            return
        rows = [r for a in acts for r in linalg.mul(F, span, a)]
        red, piv = linalg.rref(F, rows) if rows else ([], [])
        span = red[:len(piv)]
    if span:
        raise AdmissibleError("P is not nilpotent")


def _verify_associative(F, table: List[List[List]]):
    """(p_i p_j) p_k = p_i (p_j p_k) for the P multiplication table, checked
    exactly: the coassociativity of mu, in coordinates."""
    n = len(table)
    unit = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        if (_convolve(F, table, table[i][j], unit[k], n)
                != _convolve(F, table, unit[i], table[j][k], n)):
            raise AdmissibleError("P multiplication is not associative")


# -- the reduced presentation ---------------------------------------------------


def _convert_decoration(tgt_ring: LocalizedRing, src_ring: LocalizedRing,
                        key) -> LocElt:
    """Re-express x^a / h_src^j inside the finer localization."""
    a, j = key
    num = Poly.x(tgt_ring.field) ** a
    if j == 0:
        return LocElt(tgt_ring, num, 0)
    # x^a / h_src^j = x^a * (h_tgt / h_src)^j / h_tgt^j
    quot, rem = tgt_ring.h.divmod(src_ring.h)
    if not rem.is_zero():
        raise AdmissibleError("target localization does not refine the source")
    return LocElt(tgt_ring, num * quot ** j, j)


# a sigma matrix: row -> column -> nonzero entry
Sparse = Dict[int, Dict[int, Elem]]


class SigmaExpander:
    """sigma_{nu,x}: T -> T^X computed letter-by-letter as a matrix over the
    reduced algebra, indexed by the dual basis of X.  `names` maps
    (w, u, v) to the target arrow nu_u (x) w (x) x_v; `x_at` lists the dual
    basis vectors at each source point.

    A sigma matrix is held sparse, as {row: {column: Elem}} with only the
    nonzero entries.  sigma of each letter (an arrow, or a decoration key at
    a point) and sigma of each word prefix, keyed by (start, arrows[:k],
    coeffs[:k+1]), are computed once per expander and kept for its lifetime:
    the delta values and ideal generators of one reduction share prefixes.
    A UNIT decoration is never multiplied: sigma(e_p) is the diagonal of the
    idempotents at the summands of x_at[p], every entry in row u of sigma of
    a word ending at p ends at u's summand, and every entry in column v of
    sigma of an arrow leaving p starts at v's summand, so multiplying by
    sigma(e_p) on either side returns each entry word for word.

    A word is renamed, not multiplied out, when it starts at a point whose X
    has a single dual basis vector, all its decorations are UNIT, and every
    letter lies outside B and ends at such a point.  sigma of each letter is
    then the 1x1 matrix [nu_u (x) w (x) x_v] with scalar one, and the unit
    decorations are not multiplied, so sigma of the word is the 1x1 matrix
    holding the word of the renamed letters with scalar one: the product
    the multiplication would return.  The renamed letters come from one
    letter map per expander.  A delta value every word of which is renamed
    is renamed whole (`renamed_whole`): one pass over its terms through
    that map, in their order and with their scalars, which is the entry
    `expand` accumulates from the renamed words, since the renaming is
    injective."""

    def __init__(self, adm: AdmissibleModuleData, target: Bigraph,
                 names: Dict[Tuple[str, int, int], str],
                 x_at: Dict[str, List[DualBasisElement]]):
        self.adm = adm
        self.target = target
        self.names = names
        self.x_at = x_at
        self.F = adm.dit.field
        # the points whose X has one dual basis vector, and the letters
        # outside B that end at one: the words `_renamed` builds directly
        self._single = single = frozenset(p for p, xs in x_at.items() if len(xs) == 1)
        arrows = adm.dit.bigraph.arrows
        self._plain = frozenset(n for n, a in arrows.items()
                                if n not in adm.b_arrows and a.target in single)
        # the letter map of those words, built once: each plain letter from a
        # single point to its renamed letter, and each single point to the
        # label of its summand
        self._letter = {n: names[n, x_at[a.target][0].index, x_at[a.source][0].index]
                        for n in self._plain if (a := arrows[n]).source in single}
        self._label = {p: x_at[p][0].summand.label for p in single}
        # sigma of each letter, keyed by arrow name or (point, key), and of
        # each word prefix, keyed by (start, arrows, coeffs)
        self._memo: Dict[object, Sparse] = {}

    def arrow_elem(self, w: str, u: DualBasisElement, v: DualBasisElement) -> Elem:
        return Elem.arrow(self.target, self.names[w, u.index, v.index])

    def letter_decoration(self, point: str, key) -> Sparse:
        """Matrix of sigma on a decoration c e_point."""
        if (point, key) in self._memo:
            return self._memo[point, key]
        adm, F, tgt = self.adm, self.F, self.target
        out: Sparse = {}
        for v in self.x_at[point]:
            s = v.summand
            if s.kind == "regular":
                tgt_ring = tgt.factor_ring(s.label)
                if tgt_ring is None:
                    if key != UNIT:
                        raise AdmissibleError("decorated trivial regular summand")
                    out[v.index] = {v.index: Elem.idempotent(tgt, s.label)}
                    continue
                src_ring = adm.dit.bigraph.factor_ring(point)
                val = _convert_decoration(tgt_ring, src_ring, key)
                out[v.index] = {v.index: Elem.decorated(tgt, s.label, val)}
            else:
                act = s.rep.decoration_action(point, key)
                for u in self.x_at[point]:
                    if u.summand is s:
                        c = act.data[u.coordinate][v.coordinate]
                        if not F.is_zero(c):
                            out.setdefault(u.index, {})[v.index] = Elem.idempotent(tgt, s.label, c)
        self._memo[point, key] = out
        return out

    def letter_arrow(self, name: str) -> Sparse:
        """Matrix of sigma on an arrow: scalar entries where B acts on X,
        the arrows nu_u (x) w (x) x_v otherwise."""
        if name in self._memo:
            return self._memo[name]
        arr = self.adm.dit.bigraph.arrow(name)
        in_b = name in self.adm.b_arrows
        out: Sparse = {}
        for v in self.x_at[arr.source]:
            for u in self.x_at[arr.target]:
                if not in_b:
                    out.setdefault(u.index, {})[v.index] = self.arrow_elem(name, u, v)
                elif u.summand is v.summand and v.summand.kind == "findim":
                    c = v.summand.rep.arrow_ops[name].data[u.coordinate][v.coordinate]
                    if not self.F.is_zero(c):
                        out.setdefault(u.index, {})[v.index] = Elem.idempotent(
                            self.target, u.summand.label, c)
        self._memo[name] = out
        return out

    def _word(self, start: str, arrows: Tuple[str, ...], coeffs: Tuple) -> Sparse:
        """sigma of the decorated word (start, arrows, coeffs): the last
        decoration times the last arrow times sigma of the shorter prefix,
        or the renamed word where the class docstring says so."""
        key = (start, arrows, coeffs)
        if key in self._memo:
            return self._memo[key]
        if not arrows:
            return self.letter_decoration(start, coeffs[0])
        if self._renames(start, arrows, coeffs):
            step = self._renamed(start, arrows, coeffs)
        else:
            step = self.letter_arrow(arrows[-1])
            if len(arrows) > 1 or coeffs[0] != UNIT:
                step = self._mat_mul(step, self._word(start, arrows[:-1], coeffs[:-1]))
            if coeffs[-1] != UNIT:
                end = self.adm.dit.bigraph.arrow(arrows[-1]).target
                step = self._mat_mul(self.letter_decoration(end, coeffs[-1]), step)
        self._memo[key] = step
        return step

    def _renames(self, start: str, arrows: Tuple[str, ...], coeffs: Tuple) -> bool:
        """Whether `_word` renames the word (start, arrows, coeffs) of at
        least one arrow: the condition the class docstring states."""
        return (start in self._single and self._plain.issuperset(arrows)
                and coeffs.count(UNIT) == len(coeffs))

    def _renamed(self, start: str, arrows: Tuple[str, ...], coeffs: Tuple) -> Sparse:
        """sigma of a word that `_word` renames: the word of the renamed
        letters with scalar one, at its ends (`_at_ends`)."""
        word = Word(self._label[start], tuple(map(self._letter.__getitem__, arrows)), coeffs)
        return self._at_ends(start, arrows, Elem.from_word(self.target, word))

    def renamed_whole(self, elem: Elem) -> Optional[Sparse]:
        """sigma of a nonzero delta value (its words run between the same
        two points) every word of which `_word` renames, in one pass: each
        word renamed through the letter map, with its scalar, in the value's
        term order, at the value's ends.  The renaming is injective, so no
        two terms meet, and this is what `expand` returns.  None for any
        other value."""
        if not elem.terms or not all(w.arrows and self._renames(w.start, w.arrows, w.coeffs)
                                     for w in elem.terms):
            return None
        letter, label = self._letter.__getitem__, self._label
        renamed = {Word(label[w.start], tuple(map(letter, w.arrows)), w.coeffs): c
                   for w, c in elem.terms.items()}
        w = next(iter(elem.terms))
        return self._at_ends(w.start, w.arrows, Elem.nonzero(self.target, renamed))

    def _at_ends(self, start: str, arrows: Tuple[str, ...], entry: Elem) -> Sparse:
        """The 1x1 matrix holding `entry` at the single dual basis vectors
        of the ends of a renamed word (start, arrows)."""
        end = self.adm.dit.bigraph.arrows[arrows[-1]].target
        return {self.x_at[end][0].index: {self.x_at[start][0].index: entry}}

    def expand(self, elem: Elem) -> Sparse:
        """Full sigma matrix of an element of the source algebra.  The terms
        of each entry accumulate in one dictionary, in the order and with
        the cancellations of a chain of sums."""
        F = self.F
        one = F.one
        total: Dict[int, Dict[int, Dict[Word, object]]] = {}
        for w, coeff in elem.terms.items():
            for u, row in self._word(w.start, w.arrows, w.coeffs).items():
                acc = total.setdefault(u, {})
                for v, e in row.items():
                    terms = acc.setdefault(v, {})
                    for t, c in e.terms.items():
                        add_term(F, terms, t, c if coeff == one else
                                 coeff if c == one else F.mul(coeff, c))
        return {u: kept for u, row in total.items()
                if (kept := {v: Elem.nonzero(self.target, terms)
                             for v, terms in row.items() if terms})}

    def _mat_mul(self, a: Sparse, c: Sparse) -> Sparse:
        """a * c over the nonzero entries, each sum taken in ascending k."""
        out: Sparse = {}
        for i, row in a.items():
            acc = out[i] = {}
            for k in sorted(row):
                for j, e in c.get(k, {}).items():
                    prod = row[k] * e
                    if not prod.is_zero():
                        acc[j] = acc[j] + prod if j in acc else prod
        return _drop_zeros(out)


def _drop_zeros(m: Sparse) -> Sparse:
    return {i: kept for i, row in m.items()
            if (kept := {j: e for j, e in row.items() if not e.is_zero()})}


def _at(m: Sparse, u: DualBasisElement, v: DualBasisElement) -> Optional[Elem]:
    return m.get(u.index, {}).get(v.index)


def reduce_admissible(dit: Dit, adm: AdmissibleModuleData,
                      name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Build (A^X, I^X) and the functor F^X."""
    b = dit.bigraph
    F = b.field
    x_at = {p: [x for x in adm.x_basis if x.point == p] for p in b.point_order}
    arrows = ([a for a in b.solid_arrows() if a.name not in adm.b_arrows]
              + list(b.dashed_arrows()))

    names: Dict[Tuple[str, int, int], str] = {}
    decl: Dict[bool, List[Tuple[str, str, str]]] = {False: [], True: []}
    for a in arrows:
        for v in x_at[a.source]:
            for u in x_at[a.target]:
                nm = names[a.name, u.index, v.index] = f"{a.name}[{u.label};{v.label}]"
                decl[a.dashed].append((nm, v.summand.label, u.summand.label))
    gamma_names = [f"g[{pb.index}]" for pb in adm.p_basis]
    decl[True] += [(nm, pb.dom.label, pb.cod.label) for nm, pb in zip(gamma_names, adm.p_basis)]
    tgt = Bigraph(F, [(s.label, s.s_factor(b)) for s in adm.summands],
                  solid=decl[False], dashed=decl[True])
    sigma = SigmaExpander(adm, tgt, names, x_at)
    gamma = [Elem.arrow(tgt, nm) for nm in gamma_names]

    delta_values: Dict[str, Elem] = {}
    # gamma differentials: mu
    for k, nm in enumerate(gamma_names):
        acc = Elem.zero(tgt)
        for i, j in itertools.product(range(len(gamma)), repeat=2):
            c = adm.p_products[i][j][k]
            if not F.is_zero(c):
                acc = acc + (gamma[j] * gamma[i]).scale(c)
        delta_values[nm] = acc

    for a in arrows:
        dw = dit.delta.of_arrow(a.name)
        sig = sigma.renamed_whole(dw) or sigma.expand(dw)
        sign = F.one if a.dashed else F.neg(F.one)        # (-1)^(deg w + 1)
        for v in x_at[a.source]:
            for u in x_at[a.target]:
                acc = Elem.zero(tgt)
                # lambda(nu_u) (x) w (x) x_v
                for j, g in enumerate(gamma):
                    for y in x_at[a.target]:
                        c = adm.x_p_action[y.index][j][u.index]
                        if not F.is_zero(c):
                            acc = acc + (g * sigma.arrow_elem(a.name, y, v)).scale(c)
                # sigma_{nu_u, x_v}(delta(w))
                if (e := _at(sig, u, v)) is not None:
                    acc = acc + e
                # (-1)^(deg w + 1) nu_u (x) w (x) rho(x_v)
                for j, g in enumerate(gamma):
                    for y in x_at[a.source]:
                        c = adm.x_p_action[v.index][j][y.index]
                        if not F.is_zero(c):
                            acc = acc + (sigma.arrow_elem(a.name, u, y) * g).scale(F.mul(sign, c))
                delta_values[names[a.name, u.index, v.index]] = acc

    layer = Layer(tgt)
    delta = Differential(layer, delta_values)

    # the reduced ideal: sigma entries of the ideal generators
    ideal_gens: List[Elem] = []
    for g in dit.ideal.generators:
        mat = sigma.expand(g)
        for u, v in itertools.product(adm.x_basis, repeat=2):
            if (e := _at(mat, u, v)) is not None:
                ideal_gens.append(e)
    new_dit = Dit(layer, delta, IdealData(ideal_gens), name=name or f"{dit.name}^X")
    inherit_certificates(dit, new_dit)
    for s in adm.summands:
        new_dit.point_weights[s.label] = summand_weight(
            dit, s.rep.dims if s.kind == "findim" else {s.point: 1})

    # ---- functor data: the nonzero entries of sigma of each letter ----
    def entries(mat, src: str, dst: str) -> List[Tuple[int, int, Elem]]:
        """(row, column, entry) with the positions in x_at[dst] and x_at[src]."""
        return [(ri, ci, e) for ri, u in enumerate(x_at[dst]) for ci, v in enumerate(x_at[src])
                if (e := _at(mat, u, v)) is not None]

    point_sigma = {p: entries(sigma.letter_decoration(p, (1, 0)), p, p)
                   for p in b.point_order if not b.factor(p).is_trivial}
    arrow_sigma = {a.name: entries(sigma.letter_arrow(a.name), a.source, a.target)
                   for a in b.solid_arrows()}

    def assemble(N: Rep, roffs: List[int], coffs: List[int], src: str, dst: str, ents) -> Mat:
        """The matrix of one letter on F^X(N), with N's block at each
        sigma entry; an entry whose row or column block N leaves empty
        writes nothing, so it is skipped."""
        out = Mat(N.ring, roffs[-1], coffs[-1])
        if not out.rows or not out.cols:
            return out
        for ri, ci, e in ents:
            r0, c0, c1 = roffs[ri], coffs[ci], coffs[ci + 1]
            if r0 == roffs[ri + 1] or c0 == c1:
                continue
            blk = N.elem_action(e, x_at[src][ci].summand.label, x_at[dst][ri].summand.label)
            for i, row in enumerate(blk.data):
                out.data[r0 + i][c0:c1] = row
        return out

    def apply_rep(N: Rep) -> Rep:
        offs = {p: list(itertools.accumulate([0] + [N.dims[x.summand.label] for x in x_at[p]]))
                for p in b.point_order}
        return Rep(dit, {p: offs[p][-1] for p in b.point_order},
                   {a.name: assemble(N, offs[a.target], offs[a.source], a.source, a.target,
                                     arrow_sigma[a.name]) for a in b.solid_arrows()},
                   {p: assemble(N, offs[p], offs[p], p, p, ents)
                    for p, ents in point_sigma.items()},
                   ring=N.ring)

    functor = ReductionFunctor(kind="admissible", source=dit, target=new_dit,
                               apply_rep=apply_rep, dim_scale=adm.c_x)
    return new_dit, functor
