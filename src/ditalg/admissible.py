"""Reduction by a complete triangular admissible module.

The admissible data consists of a subalgebra B = T_R(W0') with delta(W0') = 0
and an admissible B-module X with End(X)^op = S (+) P, S a product of trivial
and rational factors and P the radical part.  The reduced presentation has
solid arrows nu (x) w (x) x, dashed arrows nu (x) w (x) x and P*-duals, and
the differential is assembled from the comultiplication mu and the maps
lambda and rho induced by the P-action, with the sigma expansion carrying
products across.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .bigraph import Bigraph, Factor
from .interlace import CertificationError, Dit, IdealData, certify
from .modcat import (
    EndAlgebra, MorphismPair, Rep, algebra_radical, compose, decompose,
    evaluate_f1, hom, identity_morphism, is_indecomposable, iso_test,
    zero_morphism,
)
from .scalars import Field, LocalizedRing, LocElt, Poly
from .scalars.linalg import Mat
from .tensor import Differential, Elem, Layer, UNIT, Word, decompose_locelt


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
    depth: int = 1

    @property
    def label(self) -> str:
        return f"g{self.index}"


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
    ell_x: int = 1
    ell_p: int = 1

    @property
    def c_x(self) -> int:
        return len(self.x_basis)

    def s_points(self) -> List[Tuple[str, Factor]]:
        src = self.dit.bigraph
        return [(s.label, s.s_factor(src)) for s in self.summands]

    def x_basis_at(self, point: str) -> List[DualBasisElement]:
        return [x for x in self.x_basis if x.point == point]


def _sub_bigraph_dit(dit: Dit, b_arrows: Sequence[str]) -> Dit:
    """B = T_R(W0') as its own presentation (same points, selected arrows)."""
    b = dit.bigraph
    sel = set(b_arrows)
    tgt = Bigraph(b.field, [(p, b.factor(p)) for p in b.point_order],
                  solid=[(a.name, a.source, a.target) for a in b.solid_arrows()
                         if a.name in sel])
    layer = Layer(tgt)
    return Dit(layer, Differential(layer, {}), IdealData(), name=f"{dit.name}|B")


def build_admissible(dit: Dit, b_arrows: Sequence[str],
                     findim: Sequence[Tuple[str, Rep]] = (),
                     regular: Sequence[Tuple[str, str, Sequence[Poly]]] = (),
                     check: bool = True) -> AdmissibleModuleData:
    """Assemble admissible data.

    findim: (label, B-representation) pairs, pairwise non-isomorphic
    indecomposables.  regular: (label, point, extra_inverted) case-2 summands;
    the B-arrows must act as zero there, so regular summands may not sit at an
    arrow endpoint.
    """
    b = dit.bigraph
    F = b.field
    for name in b_arrows:
        if b.arrow(name).dashed:
            raise AdmissibleError("B is generated by solid arrows")
        if not dit.delta.of_arrow(name).is_zero():
            raise AdmissibleError(f"delta({name}) must vanish for the subalgebra")
    b_dit = _sub_bigraph_dit(dit, b_arrows)
    endpoint_pts = set()
    for name in b_arrows:
        endpoint_pts.add(b.arrow(name).source)
        endpoint_pts.add(b.arrow(name).target)

    summands: List[Summand] = []
    for label, rep in findim:
        if rep.dit is not b_dit:
            rep = Rep(b_dit, dict(rep.dims),
                      {a: m for a, m in rep.arrow_ops.items() if a in set(b_arrows)},
                      dict(rep.point_ops))
        summands.append(Summand("findim", label, rep=rep))
    for label, point, extra in regular:
        if point in endpoint_pts:
            raise AdmissibleError("regular summands may not sit at a B-arrow endpoint")
        summands.append(Summand("regular", label, point=point,
                                extra_inverted=tuple(p.monic() for p in extra)))
    if check:
        reps = [s.rep for s in summands if s.kind == "findim"]
        for r in reps:
            if not is_indecomposable(b_dit, r):
                raise AdmissibleError("findim summands must be indecomposable")
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if iso_test(b_dit, reps[i], reps[j]):
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

    # radical of End_B(Z), Z = findim part, with hom-component basis
    findim_summands = [s for s in summands if s.kind == "findim"]
    p_basis: List[RadBasisElement] = []
    if findim_summands:
        Z = None
        from .modcat import direct_sum

        Z = direct_sum([s.rep for s in findim_summands])
        offs: Dict[str, List[int]] = {}
        for p in b.point_order:
            offs[p] = [0]
            for s in findim_summands:
                offs[p].append(offs[p][-1] + s.rep.dims[p])
        E = EndAlgebra(b_dit, Z)
        table = E.mult_table()
        rad = algebra_radical(E.F, table, E.dim)
        # split each radical element into (dom, cod)-summand components
        comp_map: Dict[Tuple[int, int], List[MorphismPair]] = {}
        for vec in rad:
            f = E.from_coordinates(vec)
            for si, s_dom in enumerate(findim_summands):
                for sj, s_cod in enumerate(findim_summands):
                    piece = zero_morphism(s_dom.rep, s_cod.rep)
                    nonzero = False
                    for p in b.point_order:
                        blk = f.f0[p].submatrix(offs[p][sj], offs[p][sj + 1],
                                                offs[p][si], offs[p][si + 1])
                        piece.f0[p] = blk
                        if not blk.is_zero():
                            nonzero = True
                    if nonzero:
                        comp_map.setdefault((si, sj), []).append(piece)
        # independent spanning set per component
        from .scalars import linalg

        for (si, sj), pieces in sorted(comp_map.items()):
            vecs = []
            kept = []
            for piece in pieces:
                flat = []
                for p in b.point_order:
                    for row in piece.f0[p].data:
                        flat.extend(row)
                if not vecs or not linalg.row_space_contains(F, vecs, flat):
                    vecs.append(flat)
                    kept.append(piece)
            for piece in kept:
                p_basis.append(RadBasisElement(len(p_basis), piece,
                                               findim_summands[si], findim_summands[sj]))

    adm = AdmissibleModuleData(dit=dit, b_arrows=tuple(b_arrows), b_dit=b_dit,
                               summands=summands, x_basis=x_basis, p_basis=p_basis,
                               p_products=[], x_p_action=[])
    _fill_structure(adm)
    _fill_heights(adm)
    if check:
        _verify_identities(adm)
    return adm


def _fill_structure(adm: AdmissibleModuleData):
    """Structure constants: p_i p_j over the p-basis (op-composition
    p_j after p_i as functions x -> p_j(p_i(x))) and x_i p_j = p_j(x_i)."""
    F = adm.dit.field
    b = adm.dit.bigraph
    n_p = len(adm.p_basis)
    n_x = len(adm.x_basis)

    def apply_p(pj: RadBasisElement, x: DualBasisElement) -> List:
        out = [F.zero] * n_x
        if x.summand is not pj.dom:
            return out
        col = pj.pair.f0[x.point].data
        # image vector of the x-th basis vector of dom at x.point
        for x2 in adm.x_basis:
            if x2.summand is pj.cod and x2.point == x.point:
                out[x2.index] = col[x2.coordinate][x.coordinate]
        return out

    adm.x_p_action = [[apply_p(pj, xi) for pj in adm.p_basis] for xi in adm.x_basis]

    def flat(mp: MorphismPair, dom: Summand, cod: Summand) -> List:
        v = []
        for p in b.point_order:
            for row in mp.f0[p].data:
                v.extend(row)
        return v

    from .scalars import linalg

    adm.p_products = []
    for pi in adm.p_basis:
        row = []
        for pj in adm.p_basis:
            coords = [F.zero] * n_p
            if pi.cod is pj.dom:
                comp = compose(adm.b_dit, pj.pair, pi.pair, pi.dom.rep,
                               pi.cod.rep, pj.cod.rep)
                cands = [pk for pk in adm.p_basis
                         if pk.dom is pi.dom and pk.cod is pj.cod]
                if cands and not all(m.is_zero() for m in comp.f0.values()):
                    mat_rows = [flat(pk.pair, pk.dom, pk.cod) for pk in cands]
                    target = flat(comp, pi.dom, pj.cod)
                    sol = linalg.solve(F, linalg.transpose(mat_rows), target)
                    if sol is None:
                        raise AdmissibleError("radical products escape the radical basis")
                    for pk, c in zip(cands, sol):
                        coords[pk.index] = c
            row.append(coords)
        adm.p_products.append(row)


def _fill_heights(adm: AdmissibleModuleData):
    """Depths from the P-power filtration: depth(p) = largest m with
    p in P^(m); x-heights = minimal m with x . P^(m) = 0."""
    F = adm.dit.field
    n_p = len(adm.p_basis)
    if n_p == 0:
        adm.ell_p = 1
        for x in adm.x_basis:
            x.height = 1
        adm.ell_x = 1
        return
    from .scalars import linalg

    # power filtration in coordinates
    full = [[F.one if i == j else F.zero for i in range(n_p)] for j in range(n_p)]
    powers = [full]
    cur = full
    while cur:
        nxt = []
        for a in cur:
            for jj in range(n_p):
                prod = [F.zero] * n_p
                for ii in range(n_p):
                    if F.is_zero(a[ii]):
                        continue
                    coords = adm.p_products[ii][jj]
                    for k in range(n_p):
                        prod[k] = F.add(prod[k], F.mul(a[ii], coords[k]))
                nxt.append(prod)
        red, piv = linalg.rref(F, nxt) if nxt else ([], [])
        cur = [red[i] for i in range(len(piv))]
        if cur:
            powers.append(cur)
        if len(powers) > n_p + 1:
            raise AdmissibleError("P is not nilpotent")
    adm.ell_p = len(powers)
    for pb in adm.p_basis:
        vec = [F.one if i == pb.index else F.zero for i in range(n_p)]
        depth = 1
        for m in range(1, len(powers)):
            if linalg.row_space_contains(F, powers[m], vec):
                depth = m + 1
        pb.depth = depth

    # x-heights: minimal m with x annihilated by all products of m p's
    def x_killed_by(x: DualBasisElement, m: int) -> bool:
        frontier = {x.index: F.one}
        for _ in range(m):
            nxt: Dict[int, object] = {}
            for xi, c in frontier.items():
                for pj in range(n_p):
                    vec = adm.x_p_action[xi][pj]
                    for k, v in enumerate(vec):
                        if not F.is_zero(v):
                            nxt[k] = F.add(nxt.get(k, F.zero), F.mul(c, v))
            frontier = {k: v for k, v in nxt.items() if not F.is_zero(v)}
            if not frontier:
                return True
        return not frontier

    maxh = 1
    for x in adm.x_basis:
        m = 1
        while not x_killed_by(x, m):
            m += 1
        x.height = m
        maxh = max(maxh, m)
    adm.ell_x = maxh


def _verify_identities(adm: AdmissibleModuleData):
    """Dual-basis identities and coassociativity of mu, checked exactly."""
    F = adm.dit.field
    n_p = len(adm.p_basis)
    # dual basis for X is coordinate-dual by construction; the P identity
    # sum_j p_j gamma_j(p) = p translates to coordinates being coordinates.
    # mu coassociativity: (mu (x) 1) mu = (1 (x) mu) mu on every gamma;
    # in coordinates this is associativity of the p-multiplication.
    for i in range(n_p):
        for j in range(n_p):
            for k in range(n_p):
                left = [F.zero] * n_p
                mid = adm.p_products[i][j]
                for t in range(n_p):
                    if F.is_zero(mid[t]):
                        continue
                    more = adm.p_products[t][k]
                    for s in range(n_p):
                        left[s] = F.add(left[s], F.mul(mid[t], more[s]))
                right = [F.zero] * n_p
                mid2 = adm.p_products[j][k]
                for t in range(n_p):
                    if F.is_zero(mid2[t]):
                        continue
                    more = adm.p_products[i][t]
                    for s in range(n_p):
                        right[s] = F.add(right[s], F.mul(mid2[t], more[s]))
                if left != right:
                    raise AdmissibleError("P multiplication is not associative")


# -- the reduced presentation ---------------------------------------------------


def _arrow_name(kind: str, w: str, u: DualBasisElement, v: DualBasisElement) -> str:
    return f"{w}[{u.label};{v.label}]"


@dataclass
class AdmissibleMaps:
    adm: AdmissibleModuleData
    target: Bigraph
    solid_names: Dict[Tuple[str, int, int], str]
    dashed_names: Dict[Tuple[str, int, int], str]
    gamma_names: Dict[int, str]

    def arrow_elem(self, w_name: str, u: int, v: int, dashed: bool) -> Elem:
        key = (w_name, u, v)
        name = self.dashed_names[key] if dashed else self.solid_names[key]
        return Elem.arrow(self.target, name)

    def gamma_elem(self, j: int) -> Elem:
        return Elem.arrow(self.target, self.gamma_names[j])


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
    reduced algebra, indexed by the dual basis of X."""

    def __init__(self, adm: AdmissibleModuleData, maps: AdmissibleMaps):
        self.adm = adm
        self.maps = maps
        self.F = adm.dit.field
        self.n = len(adm.x_basis)

    def _scalar_entry(self, value, u: DualBasisElement) -> Elem:
        """A scalar in the u-summand's S-factor as a decorated idempotent."""
        tgt = self.maps.target
        return Elem.idempotent(tgt, u.summand.label, value)

    def letter_decoration(self, point: str, key) -> List[List[Optional[Elem]]]:
        """Matrix of sigma on a decoration c e_point."""
        adm, F = self.adm, self.F
        tgt = self.maps.target
        out: List[List[Optional[Elem]]] = [[None] * self.n for _ in range(self.n)]
        for v in adm.x_basis:
            if v.point != point:
                continue
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
                for u in adm.x_basis:
                    if u.summand is s and u.point == point:
                        c = act.data[u.coordinate][v.coordinate]
                        if not F.is_zero(c):
                            out[u.index][v.index] = self._scalar_entry(c, u)
        return out

    def letter_arrow(self, name: str) -> List[List[Optional[Elem]]]:
        adm, F = self.adm, self.F
        b = adm.dit.bigraph
        arr = b.arrow(name)
        out: List[List[Optional[Elem]]] = [[None] * self.n for _ in range(self.n)]
        if name in adm.b_arrows:
            # B acts on X: scalar entries
            for v in adm.x_basis:
                if v.point != arr.source or v.summand.kind != "findim":
                    continue
                act = v.summand.rep.arrow_ops[name]
                for u in adm.x_basis:
                    if u.summand is v.summand and u.point == arr.target:
                        c = act.data[u.coordinate][v.coordinate]
                        if not F.is_zero(c):
                            out[u.index][v.index] = self._scalar_entry(c, u)
            return out
        for v in adm.x_basis:
            if v.point != arr.source:
                continue
            for u in adm.x_basis:
                if u.point == arr.target:
                    out[u.index][v.index] = self.maps.arrow_elem(
                        name, u.index, v.index, arr.dashed)
        return out

    def expand(self, elem: Elem) -> List[List[Optional[Elem]]]:
        """Full sigma matrix of an element of the source algebra."""
        tgt = self.maps.target
        F = self.F
        total: List[List[Optional[Elem]]] = [[None] * self.n for _ in range(self.n)]
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
        out: List[List[Optional[Elem]]] = [[None] * self.n for _ in range(self.n)]
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
                      name: str = "") -> Tuple[Dit, "ReductionFunctor"]:
    """Build (A^X, I^X) and the functor F^X."""
    from .reduce import ReductionFunctor, ReductionError

    b = dit.bigraph
    F = b.field
    sel = set(adm.b_arrows)
    w0_rest = [a for a in b.solid_arrows() if a.name not in sel]
    w1_src = list(b.dashed_arrows())

    tgt_points = adm.s_points()
    solid_names: Dict[Tuple[str, int, int], str] = {}
    dashed_names: Dict[Tuple[str, int, int], str] = {}
    gamma_names: Dict[int, str] = {}
    solid_decl = []
    dashed_decl = []
    for a in w0_rest:
        for v in adm.x_basis:
            if v.point != a.source:
                continue
            for u in adm.x_basis:
                if u.point != a.target:
                    continue
                nm = _arrow_name("s", a.name, u, v)
                solid_names[(a.name, u.index, v.index)] = nm
                solid_decl.append((nm, v.summand.label, u.summand.label))
    for a in w1_src:
        for v in adm.x_basis:
            if v.point != a.source:
                continue
            for u in adm.x_basis:
                if u.point != a.target:
                    continue
                nm = _arrow_name("d", a.name, u, v)
                dashed_names[(a.name, u.index, v.index)] = nm
                dashed_decl.append((nm, v.summand.label, u.summand.label))
    for pb in adm.p_basis:
        nm = f"g[{pb.index}]"
        gamma_names[pb.index] = nm
        dashed_decl.append((nm, pb.dom.label, pb.cod.label))

    tgt = Bigraph(F, tgt_points, solid=solid_decl, dashed=dashed_decl)
    maps = AdmissibleMaps(adm, tgt, solid_names, dashed_names, gamma_names)
    sigma = SigmaExpander(adm, maps)

    delta_values: Dict[str, Elem] = {}
    # gamma differentials: mu
    for pk in adm.p_basis:
        acc = Elem.zero(tgt)
        for pi in adm.p_basis:
            for pj in adm.p_basis:
                c = adm.p_products[pi.index][pj.index][pk.index]
                if not F.is_zero(c):
                    acc = acc + (maps.gamma_elem(pj.index) * maps.gamma_elem(pi.index)).scale(c)
        delta_values[gamma_names[pk.index]] = acc

    def arrow_delta(a, u: DualBasisElement, v: DualBasisElement, dashed: bool) -> Elem:
        deg = 1 if dashed else 0
        acc = Elem.zero(tgt)
        # lambda(nu_u) (x) w (x) x_v
        for pb in adm.p_basis:
            for xi in adm.x_basis:
                c = adm.x_p_action[xi.index][pb.index][u.index]
                if F.is_zero(c):
                    continue
                if xi.point != a.target:
                    continue
                inner = maps.arrow_elem(a.name, xi.index, v.index, dashed)
                acc = acc + (maps.gamma_elem(pb.index) * inner).scale(c)
        # sigma_{nu_u, x_v}(delta(w))
        dvals = dit.delta.of_arrow(a.name)
        if not dvals.is_zero():
            mat = sigma.expand(dvals)
            if mat[u.index][v.index] is not None:
                acc = acc + mat[u.index][v.index]
        # (-1)^{deg w + 1} nu_u (x) w (x) rho(x_v)
        sign = F.one if (deg + 1) % 2 == 0 else F.neg(F.one)
        for pb in adm.p_basis:
            vec = adm.x_p_action[v.index][pb.index]
            for xi in adm.x_basis:
                c = vec[xi.index]
                if F.is_zero(c):
                    continue
                if xi.point != a.source:
                    continue
                inner = maps.arrow_elem(a.name, u.index, xi.index, dashed)
                acc = acc + (inner * maps.gamma_elem(pb.index)).scale(F.mul(sign, c))
        return acc

    for a in w0_rest:
        for (an, ui, vi), nm in solid_names.items():
            if an != a.name:
                continue
            delta_values[nm] = arrow_delta(a, adm.x_basis[ui], adm.x_basis[vi], False)
    for a in w1_src:
        for (an, ui, vi), nm in dashed_names.items():
            if an != a.name:
                continue
            delta_values[nm] = arrow_delta(a, adm.x_basis[ui], adm.x_basis[vi], True)

    # triangular filtrations from dependency order (checked afterwards)
    layer = Layer(tgt)
    delta = Differential(layer, delta_values)

    # the reduced ideal: sigma entries of the ideal generators, filtered by
    # the height weight ht(nu) + 2 ell_X ht(h) + ht(x)
    ideal_gens: List[Elem] = []
    weighted: List[Tuple[int, Elem]] = []
    for g in dit.ideal.generators:
        mat = sigma.expand(g)
        for uu in range(len(adm.x_basis)):
            for vv in range(len(adm.x_basis)):
                if mat[uu][vv] is not None and not mat[uu][vv].is_zero():
                    ideal_gens.append(mat[uu][vv])
                    m = adm.x_basis[uu].height + 2 * adm.ell_x + adm.x_basis[vv].height
                    weighted.append((m, mat[uu][vv]))
    filtration = None
    if weighted:
        filtration = []
        acc: List[Elem] = []
        for m in sorted({m for m, _ in weighted}):
            acc = acc + [e for mm, e in weighted if mm == m]
            filtration.append(list(acc))
    new_dit = Dit(layer, delta, IdealData(ideal_gens, filtration),
                  name=name or f"{dit.name}^X")
    unit_absorbed = False
    for g in ideal_gens:
        for w in g.terms:
            if w.length() == 0:
                unit_absorbed = True
    recompute_triangular_filtrations(new_dit)
    from .reduce import inherit_certificates

    inherit_certificates(dit, new_dit)
    old_w = getattr(dit, "point_weights", {}) or {}
    for s in adm.summands:
        w = 0
        for x in adm.x_basis:
            if x.summand is s:
                w += old_w.get(x.point, 1)
        new_dit.point_weights[s.label] = w

    # ---- functor data ----
    x_order: Dict[str, List[DualBasisElement]] = {p: adm.x_basis_at(p) for p in b.point_order}

    def block_offsets(N: Rep, p: str):
        offs = [0]
        for x in x_order[p]:
            offs.append(offs[-1] + N.dims[x.summand.label])
        return offs

    sigma_x_cache: Dict[str, list] = {}

    def sigma_x_action(p: str):
        if p not in sigma_x_cache:
            sigma_x_cache[p] = sigma.letter_decoration(p, (1, 0))
        return sigma_x_cache[p]

    def _assemble_blocks(N: Rep, src_p: str, tgt_p: str, mat) -> Mat:
        rows_x = x_order[tgt_p]
        cols_x = x_order[src_p]
        roffs = block_offsets(N, tgt_p)
        coffs = block_offsets(N, src_p)
        out = Mat(N.ring, roffs[-1], coffs[-1])
        for ri, u in enumerate(rows_x):
            for ci, v in enumerate(cols_x):
                e = mat[u.index][v.index]
                if e is None or e.is_zero():
                    continue
                blk = N.elem_action(e, v.summand.label, u.summand.label)
                for i in range(blk.rows):
                    for j in range(blk.cols):
                        out.data[roffs[ri] + i][coffs[ci] + j] = blk.data[i][j]
        return out

    def apply_rep_real(N: Rep) -> Rep:
        dims = {p: block_offsets(N, p)[-1] for p in b.point_order}
        M = Rep(dit, dims, ring=N.ring)
        for p in b.point_order:
            if not b.factor(p).is_trivial:
                M.point_ops[p] = _assemble_blocks(N, p, p, sigma_x_action(p))
        for a in b.solid_arrows():
            mat = sigma.letter_arrow(a.name)
            M.arrow_ops[a.name] = _assemble_blocks(N, a.source, a.target, mat)
        return M

    def apply_morphism(f: MorphismPair, Nm: Rep, Nn: Rep) -> MorphismPair:
        Mm, Mn = apply_rep_real(Nm), apply_rep_real(Nn)
        out = zero_morphism(Mm, Mn)
        for p in b.point_order:
            roffs_n = block_offsets(Nn, p)
            coffs_m = block_offsets(Nm, p)
            m0 = Mat(F, roffs_n[-1], coffs_m[-1])
            for ri, u in enumerate(x_order[p]):
                for ci, v in enumerate(x_order[p]):
                    blk = None
                    if u is v:
                        blk = f.f0[u.summand.label]
                    # + sum_j coeff(x_u in x_v p_j) f1(gamma_j)
                    for pb in adm.p_basis:
                        c = adm.x_p_action[v.index][pb.index][u.index]
                        if F.is_zero(c):
                            continue
                        extra = f.f1[gamma_names[pb.index]].scale(c)
                        blk = extra if blk is None else blk + extra
                    if blk is None or blk.is_zero():
                        continue
                    for i in range(blk.rows):
                        for j in range(blk.cols):
                            m0.data[roffs_n[ri] + i][coffs_m[ci] + j] = blk.data[i][j]
            out.f0[p] = m0
        for a in b.dashed_arrows():
            roffs_n = block_offsets(Nn, a.target)
            coffs_m = block_offsets(Nm, a.source)
            m1 = Mat(F, roffs_n[-1], coffs_m[-1])
            for ri, u in enumerate(x_order[a.target]):
                for ci, v in enumerate(x_order[a.source]):
                    e = maps.arrow_elem(a.name, u.index, v.index, True)
                    word = next(iter(e.terms))
                    blk = evaluate_f1(new_dit, Nm, Nn, f.f1,
                                      Elem.arrow(tgt, word.arrows[0]),
                                      v.summand.label, u.summand.label)
                    if blk.is_zero():
                        continue
                    for i in range(blk.rows):
                        for j in range(blk.cols):
                            m1.data[roffs_n[ri] + i][coffs_m[ci] + j] = blk.data[i][j]
            out.f1[a.name] = m1
        return out

    functor = ReductionFunctor(kind="admissible", source=dit, target=new_dit,
                               apply_rep=apply_rep_real, apply_morphism=apply_morphism,
                               data={"adm": adm, "maps": maps, "sigma": sigma,
                                     "unit_absorbed": unit_absorbed},
                               full=True, faithful=True, dim_scale=adm.c_x)
    return new_dit, functor


def recompute_triangular_filtrations(dit: Dit):
    """Build layer filtrations from the delta-dependency DAGs: an arrow
    depends on the same-kind arrows occurring in its differential value.
    Longest-path levels give a valid triangular filtration when acyclic."""
    b = dit.bigraph
    solids = [a.name for a in b.solid_arrows()]
    dasheds = [a.name for a in b.dashed_arrows()]

    def levels(names, same_kind_dashed: bool):
        deps = {}
        for n in names:
            used = set()
            for w in dit.delta.of_arrow(n).terms:
                for an in w.arrows:
                    if b.arrow(an).dashed == same_kind_dashed and an in set(names):
                        used.add(an)
            deps[n] = used
        level: Dict[str, int] = {}
        remaining = set(names)
        guard = 0
        while remaining:
            progressed = False
            for n in sorted(remaining):
                if deps[n] <= set(level):
                    level[n] = max([level[d] for d in deps[n]], default=0) + 1
                    remaining.discard(n)
                    progressed = True
            if not progressed:
                raise CertificationError("delta dependencies contain a cycle")
            guard += 1
            if guard > len(names) + 2:
                break
        if not level:
            return ()
        out = []
        acc = set()
        for lv in range(1, max(level.values()) + 1):
            acc |= {n for n, l in level.items() if l == lv}
            out.append(frozenset(acc))
        return tuple(out)

    dit.layer.w0_levels = levels(solids, False) or dit.layer.w0_levels
    dit.layer.w1_levels = levels(dasheds, True) or dit.layer.w1_levels
