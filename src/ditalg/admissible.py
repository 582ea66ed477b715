"""Reduction by a complete triangular admissible module.

The admissible data consists of a subalgebra B = T_R(W0') with delta(W0') = 0
and an admissible B-module X with End(X)^op = S (+) P, S a product of trivial
and rational factors and P the radical part.  The reduced presentation has
solid arrows nu (x) w (x) x, dashed arrows nu (x) w (x) x and P*-duals, and
the differential is assembled from the comultiplication mu and the maps
lambda and rho induced by the P-action.  The sigma expansion carries products
across: sigma(delta(w)) is expanded once per source arrow w and read at every
pair of dual basis vectors, and the functor F^X is built from the sigma
matrix of each letter.  The x-heights that weight the reduced ideal are
bounded by dim P + 1, which holds exactly when P is nilpotent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .bigraph import Bigraph, Factor
from .interlace import Dit, IdealData, inherit_certificates
from .modcat import (
    DecomposableError, EndAlgebra, IsoClassIndex, MorphismPair, Rep, _convolve, compose,
    direct_sum, pair_to_vector, zero_morphism,
)
from .reduce import ReductionFunctor, RepData
from .scalars import LocalizedRing, LocElt, Poly, linalg
from .scalars.linalg import Mat
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
    height: int = 1

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
    ell_x: int = 1                   # the largest x-height

    @property
    def c_x(self) -> int:
        return len(self.x_basis)


def _sub_bigraph_dit(dit: Dit, b_arrows: Sequence[str]) -> Dit:
    """B = T_R(W0') as its own presentation (same points, selected arrows)."""
    b = dit.bigraph
    sel = set(b_arrows)
    tgt = Bigraph(b.field, [(p, b.factor(p)) for p in b.point_order],
                  solid=[(a.name, a.source, a.target) for a in b.solid_arrows()
                         if a.name in sel])
    layer = Layer(tgt)
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
    if check:
        index = IsoClassIndex(b_dit)
        for s in findim_summands:
            try:
                new = index.add(s.rep)
            except DecomposableError:
                raise AdmissibleError("findim summands must be indecomposable") from None
            if not new:
                raise AdmissibleError("findim summands must be pairwise non-isomorphic")

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

    p_basis = _radical_basis(b_dit, findim_summands)

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
    adm.ell_x = _fill_heights(adm)
    if check:
        _verify_associative(F, adm.p_products)
    return adm


def _radical_basis(b_dit: Dit, summands: List[Summand]) -> List[RadBasisElement]:
    """A basis of P, the radical of End_B(Z) for Z the sum of the findim
    summands, made of the (dom, cod)-summand components of its elements."""
    if not summands:
        return []
    F, pts = b_dit.field, b_dit.bigraph.point_order
    E = EndAlgebra(b_dit, direct_sum([s.rep for s in summands]))
    offs = {p: list(itertools.accumulate([0] + [s.rep.dims[p] for s in summands]))
            for p in pts}
    pieces: Dict[Tuple[int, int], List[MorphismPair]] = {}
    for vec in E.rad:
        f = E.from_coordinates(vec)
        for (si, dom), (sj, cod) in itertools.product(enumerate(summands), repeat=2):
            piece = zero_morphism(dom.rep, cod.rep)
            for p in pts:
                piece.f0[p] = f.f0[p].submatrix(offs[p][sj], offs[p][sj + 1],
                                                offs[p][si], offs[p][si + 1])
            if not piece.is_zero():
                pieces.setdefault((si, sj), []).append(piece)
    basis: List[RadBasisElement] = []
    for (si, sj), group in sorted(pieces.items()):
        dom, cod = summands[si], summands[sj]
        rows: List[List] = []
        for piece in group:
            vec = pair_to_vector(b_dit, dom.rep, cod.rep, piece)
            if not linalg.row_space_contains(F, rows, vec):
                rows.append(vec)
                basis.append(RadBasisElement(len(basis), piece, dom, cod))
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


def _fill_heights(adm: AdmissibleModuleData) -> int:
    """Set each x-height, the least m >= 1 with x . P^m = 0, and return the
    largest.  P acts faithfully on X, so every height is at most dim P + 1
    exactly when P is nilpotent."""
    F = adm.dit.field
    n_x, n_p = len(adm.x_basis), len(adm.p_basis)
    acts = [[adm.x_p_action[i][j] for i in range(n_x)] for j in range(n_p)]
    for x in adm.x_basis:
        span = [[F.one if i == x.index else F.zero for i in range(n_x)]]
        m = 0
        while span:
            if m > n_p:
                raise AdmissibleError("P is not nilpotent")
            rows = [r for a in acts for r in linalg.mul(F, span, a)]
            red, piv = linalg.rref(F, rows) if rows else ([], [])
            span = red[:len(piv)]
            m += 1
        x.height = m
    return max((x.height for x in adm.x_basis), default=1)


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


class SigmaExpander:
    """sigma_{nu,x}: T -> T^X computed letter-by-letter as a matrix over the
    reduced algebra, indexed by the dual basis of X.  `names` maps
    (w, u, v) to the target arrow nu_u (x) w (x) x_v; `x_at` lists the dual
    basis vectors at each source point."""

    def __init__(self, adm: AdmissibleModuleData, target: Bigraph,
                 names: Dict[Tuple[str, int, int], str],
                 x_at: Dict[str, List[DualBasisElement]]):
        self.adm = adm
        self.target = target
        self.names = names
        self.x_at = x_at
        self.F = adm.dit.field
        self.n = len(adm.x_basis)

    def _zero(self) -> List[List[Optional[Elem]]]:
        return [[None] * self.n for _ in range(self.n)]

    def arrow_elem(self, w: str, u: DualBasisElement, v: DualBasisElement) -> Elem:
        return Elem.arrow(self.target, self.names[w, u.index, v.index])

    def letter_decoration(self, point: str, key) -> List[List[Optional[Elem]]]:
        """Matrix of sigma on a decoration c e_point."""
        adm, F, tgt = self.adm, self.F, self.target
        out = self._zero()
        for v in self.x_at[point]:
            s = v.summand
            if s.kind == "regular":
                tgt_ring = tgt.factor_ring(s.label)
                if tgt_ring is None:
                    if key != UNIT:
                        raise AdmissibleError("decorated trivial regular summand")
                    out[v.index][v.index] = Elem.idempotent(tgt, s.label)
                    continue
                src_ring = adm.dit.bigraph.factor_ring(point)
                val = _convert_decoration(tgt_ring, src_ring, key)
                out[v.index][v.index] = Elem.decorated(tgt, s.label, val)
            else:
                act = s.rep.decoration_action(point, key)
                for u in self.x_at[point]:
                    if u.summand is s:
                        c = act.data[u.coordinate][v.coordinate]
                        if not F.is_zero(c):
                            out[u.index][v.index] = Elem.idempotent(tgt, s.label, c)
        return out

    def letter_arrow(self, name: str) -> List[List[Optional[Elem]]]:
        """Matrix of sigma on an arrow: scalar entries where B acts on X,
        the arrows nu_u (x) w (x) x_v otherwise."""
        arr = self.adm.dit.bigraph.arrow(name)
        in_b = name in self.adm.b_arrows
        out = self._zero()
        for v in self.x_at[arr.source]:
            for u in self.x_at[arr.target]:
                if not in_b:
                    out[u.index][v.index] = self.arrow_elem(name, u, v)
                elif u.summand is v.summand and v.summand.kind == "findim":
                    c = v.summand.rep.arrow_ops[name].data[u.coordinate][v.coordinate]
                    if not self.F.is_zero(c):
                        out[u.index][v.index] = Elem.idempotent(self.target, u.summand.label, c)
        return out

    def expand(self, elem: Elem) -> List[List[Optional[Elem]]]:
        """Full sigma matrix of an element of the source algebra."""
        total = self._zero()
        b = self.adm.dit.bigraph
        for w, coeff in elem.terms.items():
            pts = w.path(b)
            cur = self.letter_decoration(pts[0], w.coeffs[0])
            for i, name in enumerate(w.arrows):
                step = self.letter_arrow(name)
                cur = self._mat_mul(step, cur)
                dec = self.letter_decoration(pts[i + 1], w.coeffs[i + 1])
                cur = self._mat_mul(dec, cur)
            for uu in range(self.n):
                for vv in range(self.n):
                    if cur[uu][vv] is not None:
                        piece = cur[uu][vv].scale(coeff)
                        total[uu][vv] = piece if total[uu][vv] is None else total[uu][vv] + piece
        return total

    def _mat_mul(self, a, c):
        out = self._zero()
        for i in range(self.n):
            for k in range(self.n):
                if a[i][k] is None:
                    continue
                for j in range(self.n):
                    if c[k][j] is None:
                        continue
                    prod = a[i][k] * c[k][j]
                    if prod.is_zero():
                        continue
                    out[i][j] = prod if out[i][j] is None else out[i][j] + prod
        return out


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
        sig = None if dw.is_zero() else sigma.expand(dw)
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
                if sig is not None and sig[u.index][v.index] is not None:
                    acc = acc + sig[u.index][v.index]
                # (-1)^(deg w + 1) nu_u (x) w (x) rho(x_v)
                for j, g in enumerate(gamma):
                    for y in x_at[a.source]:
                        c = adm.x_p_action[v.index][j][y.index]
                        if not F.is_zero(c):
                            acc = acc + (sigma.arrow_elem(a.name, u, y) * g).scale(F.mul(sign, c))
                delta_values[names[a.name, u.index, v.index]] = acc

    layer = Layer(tgt)
    delta = Differential(layer, delta_values)

    # the reduced ideal: sigma entries of the ideal generators, filtered by
    # the height weight ht(nu) + 2 ell_X ht(h) + ht(x)
    ideal_gens: List[Elem] = []
    weighted: List[Tuple[int, Elem]] = []
    for g in dit.ideal.generators:
        mat = sigma.expand(g)
        for u, v in itertools.product(adm.x_basis, repeat=2):
            e = mat[u.index][v.index]
            if e is not None and not e.is_zero():
                ideal_gens.append(e)
                weighted.append((u.height + 2 * adm.ell_x + v.height, e))
    weighted.sort(key=lambda t: t[0])
    filtration = [[e for m, e in weighted if m <= top]
                  for top in sorted({m for m, _ in weighted})] or None
    new_dit = Dit(layer, delta, IdealData(ideal_gens, filtration),
                  name=name or f"{dit.name}^X")
    inherit_certificates(dit, new_dit)
    old_w = getattr(dit, "point_weights", {}) or {}
    for s in adm.summands:
        new_dit.point_weights[s.label] = sum(old_w.get(x.point, 1)
                                             for x in adm.x_basis if x.summand is s)

    # ---- functor data: the nonzero entries of sigma of each letter ----
    def entries(mat, src: str, dst: str) -> List[Tuple[int, int, Elem]]:
        """(row, column, entry) with the positions in x_at[dst] and x_at[src]."""
        return [(ri, ci, e) for ri, u in enumerate(x_at[dst]) for ci, v in enumerate(x_at[src])
                if (e := mat[u.index][v.index]) is not None and not e.is_zero()]

    point_sigma = {p: entries(sigma.letter_decoration(p, (1, 0)), p, p)
                   for p in b.point_order if not b.factor(p).is_trivial}
    arrow_sigma = {a.name: entries(sigma.letter_arrow(a.name), a.source, a.target)
                   for a in b.solid_arrows()}

    def offsets(N: Rep, p: str) -> List[int]:
        return list(itertools.accumulate([0] + [N.dims[x.summand.label] for x in x_at[p]]))

    def assemble(N: Rep, src: str, dst: str, ents) -> Mat:
        roffs, coffs = offsets(N, dst), offsets(N, src)
        out = Mat(N.ring, roffs[-1], coffs[-1])
        for ri, ci, e in ents:
            blk = N.elem_action(e, x_at[src][ci].summand.label, x_at[dst][ri].summand.label)
            for i, row in enumerate(blk.data):
                out.data[roffs[ri] + i][coffs[ci]:coffs[ci + 1]] = row
        return out

    def apply_rep(N: Rep) -> Rep:
        M = Rep(dit, {p: offsets(N, p)[-1] for p in b.point_order}, ring=N.ring)
        for p, ents in point_sigma.items():
            M.point_ops[p] = assemble(N, p, p, ents)
        for a in b.solid_arrows():
            M.arrow_ops[a.name] = assemble(N, a.source, a.target, arrow_sigma[a.name])
        return M

    functor = ReductionFunctor(kind="admissible", source=dit, target=new_dit,
                               apply_rep=apply_rep, dim_scale=adm.c_x)
    return new_dit, functor
