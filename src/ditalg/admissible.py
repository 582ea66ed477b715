"""Reduction by a complete triangular admissible module.

The admissible data consists of a subalgebra B = T_R(W0') with delta(W0') = 0
and an admissible B-module X with End(X)^op = S (+) P, S a product of trivial
and rational factors and P the radical part.  The reduced presentation has
solid arrows nu (x) w (x) x, dashed arrows nu (x) w (x) x and P*-duals, and
the differential is assembled from the comultiplication mu and the maps
lambda and rho induced by the P-action.  sigma is the letter map
`reduce.LetterMap` over the dual basis of X (`sigma_map`): sigma(delta(w))
is expanded once per source arrow w and read at every pair of dual basis
vectors (pushed, between one-vector points), each word prefix that delta
values and ideal generators share is multiplied out once, and the functor
F^X is the letter map's `pullback`.  The reduced ideal is
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
from .reduce import LetterMap, ReductionFunctor, RepData, Sparse, pullback
from .scalars import LocalizedRing, LocElt, Poly, linalg
from .tensor import Differential, Elem, Layer, UNIT


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


def sigma_map(adm: AdmissibleModuleData, tgt: Bigraph, names: Dict[Tuple[str, int, int], str],
              x_at: Dict[str, List[DualBasisElement]]) -> LetterMap:
    """sigma_{nu,x}: T -> T^X as the letter map over the dual basis of X.
    `names` maps (w, u, v) to the target arrow nu_u (x) w (x) x_v, and
    `x_at` lists the dual basis vectors at each source point.  An arrow
    outside B goes to the arrows nu_u (x) w (x) x_v, and renames to its one
    such arrow between points whose X has a single dual basis vector; an
    arrow of B has scalar entries where it acts on X.

    A unit decoration is never multiplied: sigma(e_p) is the diagonal of the
    idempotents at the summands of x_at[p], every entry in row u of sigma of
    a word ending at p ends at u's summand, and every entry in column v of
    sigma of an arrow leaving p starts at v's summand, so multiplying by
    sigma(e_p) on either side returns each entry word for word."""
    src, F = adm.dit.bigraph, adm.dit.field

    def decoration(point: str, key) -> Sparse:
        """sigma of the decoration c e_point."""
        out: Sparse = {}
        for v in x_at[point]:
            s = v.summand
            if s.kind == "regular":
                tgt_ring = tgt.factor_ring(s.label)
                if tgt_ring is None:
                    if key != UNIT:
                        raise AdmissibleError("decorated trivial regular summand")
                    out[v.index] = {v.index: Elem.idempotent(tgt, s.label)}
                    continue
                val = _convert_decoration(tgt_ring, src.factor_ring(point), key)
                out[v.index] = {v.index: Elem.decorated(tgt, s.label, val)}
            else:
                act = s.rep.decoration_action(point, key)
                for u in x_at[point]:
                    if u.summand is s:
                        c = act.data[u.coordinate][v.coordinate]
                        if not F.is_zero(c):
                            out.setdefault(u.index, {})[v.index] = Elem.idempotent(tgt, s.label, c)
        return out

    def letter(name: str) -> Sparse:
        arr, out = src.arrows[name], {}
        for v in x_at[arr.source]:
            for u in x_at[arr.target]:
                if name not in adm.b_arrows:
                    e = Elem.arrow(tgt, names[name, u.index, v.index])
                elif u.summand is v.summand and v.summand.kind == "findim":
                    c = v.summand.rep.arrow_ops[name].data[u.coordinate][v.coordinate]
                    e = Elem.idempotent(tgt, u.summand.label, c)
                else:
                    continue
                if e.terms:
                    out.setdefault(u.index, {})[v.index] = e
        return out

    single = {p for p, xs in x_at.items() if len(xs) == 1}
    renaming = {n: names[n, x_at[a.target][0].index, x_at[a.source][0].index]
                for n, a in src.arrows.items()
                if n not in adm.b_arrows and a.source in single and a.target in single}
    return LetterMap(src, tgt, {p: [x.index for x in xs] for p, xs in x_at.items()},
                     [x.summand.label for x in adm.x_basis], letter, decoration, renaming,
                     frozenset())


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
    sigma = sigma_map(adm, tgt, names, x_at)
    gamma = [Elem.arrow(tgt, nm) for nm in gamma_names]

    def nu(w: str, u: DualBasisElement, v: DualBasisElement) -> Elem:
        return Elem.arrow(tgt, names[w, u.index, v.index])

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
        # between one-vector points sigma is 1x1, and its one entry the push
        ends = x_at[a.target], x_at[a.source]
        sig = ({ends[0][0].index: {ends[1][0].index: sigma.push(dw)}}
               if len(ends[0]) == len(ends[1]) == 1 else sigma.expand(dw))
        sign = F.one if a.dashed else F.neg(F.one)        # (-1)^(deg w + 1)
        for v in x_at[a.source]:
            for u in x_at[a.target]:
                acc = Elem.zero(tgt)
                # lambda(nu_u) (x) w (x) x_v
                for j, g in enumerate(gamma):
                    for y in x_at[a.target]:
                        c = adm.x_p_action[y.index][j][u.index]
                        if not F.is_zero(c):
                            acc = acc + (g * nu(a.name, y, v)).scale(c)
                # sigma_{nu_u, x_v}(delta(w))
                if (e := _at(sig, u, v)) is not None:
                    acc = acc + e
                # (-1)^(deg w + 1) nu_u (x) w (x) rho(x_v)
                for j, g in enumerate(gamma):
                    for y in x_at[a.source]:
                        c = adm.x_p_action[v.index][j][y.index]
                        if not F.is_zero(c):
                            acc = acc + (nu(a.name, u, y) * g).scale(F.mul(sign, c))
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
    functor = ReductionFunctor(kind="admissible", source=dit, target=new_dit,
                               apply_rep=pullback(dit, sigma), dim_scale=adm.c_x)
    return new_dit, functor
