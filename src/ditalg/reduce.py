"""The reduction calculus: quotient-type reductions (deletion,
regularization, factoring out), absorption, source detachment, admissible
module reductions, and the functor records that map reduced-side modules and
morphisms back to the source category."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bigraph import Bigraph, Factor
from .interlace import (
    CertificationError, Dit, IdealData, certify, membership_in_ideal_window,
)
from .modcat import (
    MorphismPair, Rep, evaluate_f1, hom, transport_structure, zero_morphism,
)
from .scalars import Field, Poly
from .scalars.linalg import Mat
from .tensor import Differential, Elem, Layer, Word, UNIT


class ReductionError(ValueError):
    pass


@dataclass
class ReductionFunctor:
    """A step record: maps target-side modules/morphisms back to the source.

    kind: deletion | regularization | factor_out | absorption | admissible |
    detachment | induced | composite.
    """

    kind: str
    source: Dit
    target: Dit
    # object/morphism transports
    apply_rep: Callable[[Rep], Rep] = None
    apply_morphism: Callable[[MorphismPair, Rep, Rep], MorphismPair] = None
    data: dict = field(default_factory=dict)
    children: List["ReductionFunctor"] = field(default_factory=list)
    full: bool = False
    faithful: bool = False
    equivalence: bool = False
    dim_scale: int = 1  # c-constant: dim F(N) <= dim_scale * dim N

    def __call__(self, N: Rep) -> Rep:
        return self.apply_rep(N)


def compose_functors(steps: Sequence[ReductionFunctor]) -> ReductionFunctor:
    """steps[0] is the outermost (source-side) reduction; the composite maps
    modules over steps[-1].target back to steps[0].source."""
    if not steps:
        raise ReductionError("empty composition")
    if len(steps) == 1:
        return steps[0]

    def apply_rep(N: Rep) -> Rep:
        cur = N
        for st in reversed(steps):
            cur = st.apply_rep(cur)
        return cur

    def apply_morphism(f: MorphismPair, M: Rep, N: Rep) -> MorphismPair:
        curf, curM, curN = f, M, N
        for st in reversed(steps):
            newM, newN = st.apply_rep(curM), st.apply_rep(curN)
            curf = st.apply_morphism(curf, curM, curN)
            curM, curN = newM, newN
        return curf

    return ReductionFunctor(
        kind="composite", source=steps[0].source, target=steps[-1].target,
        apply_rep=apply_rep, apply_morphism=apply_morphism,
        children=list(steps),
        full=all(s.full for s in steps), faithful=all(s.faithful for s in steps),
        equivalence=all(s.equivalence for s in steps),
        dim_scale=_prod(s.dim_scale for s in steps))


def _prod(it):
    out = 1
    for v in it:
        out *= v
    return out




def inherit_certificates(src_dit: Dit, new_dit: Dit):
    """Reductions of triangular interlaced presentations stay triangular
    interlaced (context-of-reduction lemma items 2-3 and its relatives), so
    constructions transfer the certificates instead of re-deriving them."""
    flags = src_dit.certificates
    new_dit.certificates["directed"] = new_dit.bigraph.is_directed()
    for key in ("triangular_layer", "triangular_ideal", "balanced", "interlaced", "roiter"):
        if flags.get(key):
            new_dit.certificates[key] = True
    weights = getattr(src_dit, "point_weights", None) or {}
    for p in new_dit.bigraph.point_order:
        if p in weights:
            new_dit.point_weights[p] = weights[p]


# -- the generic quotient-type reduction -------------------------------------


def _map_elem(src: Bigraph, tgt: Bigraph, point_map: Dict[str, Optional[str]],
              arrow_images: Dict[str, Elem], elem: Elem) -> Elem:
    """Push an element of T(src) through the graded algebra morphism given by
    a point map and generator images."""
    out = Elem.zero(tgt)
    F = tgt.field
    for w, c in elem.terms.items():
        pts = w.path(src)
        img_pt = point_map.get(pts[0])
        if img_pt is None:
            continue
        if tgt.factor(img_pt).is_trivial and w.coeffs[0] != UNIT:
            continue
        cur = Elem(tgt, {Word(img_pt, (), (w.coeffs[0],)): F.one})
        dead = False
        for i, name in enumerate(w.arrows):
            img = arrow_images.get(name)
            if img is None or img.is_zero():
                dead = True
                break
            cur = img * cur
            nxt = point_map.get(pts[i + 1])
            if nxt is None:
                dead = True
                break
            dec = Elem(tgt, {Word(nxt, (), (w.coeffs[i + 1],)): F.one})
            cur = dec * cur
        if not dead and not cur.is_zero():
            out = out + cur.scale(c)
    return out


def induced_reduction(dit: Dit, point_map: Dict[str, Optional[str]],
                      target_bigraph: Bigraph,
                      arrow_images: Dict[str, Elem],
                      name: str = "induced",
                      kind: str = "induced",
                      check_squares: bool = True) -> Tuple[Dit, ReductionFunctor]:
    """Reduction along a surjection phi determined by a point map and
    generator images; the target differential is phi . delta on surviving
    generators, and the two commuting squares are checked on generators."""
    b = dit.bigraph
    tgt = target_bigraph

    def push(e: Elem) -> Elem:
        return _map_elem(b, tgt, point_map, arrow_images, e)

    # target differential on the surviving generators: delta'(phi(w)) := phi(delta w).
    # For the quotient-type reductions every target arrow is the image of a
    # unique source arrow.
    preimage: Dict[str, str] = {}
    for src_arrow, img in arrow_images.items():
        if img is None or img.is_zero():
            continue
        if len(img.terms) == 1:
            w = next(iter(img.terms))
            if w.length() == 1 and img.terms[w] == tgt.field.one and w.coeffs == (UNIT, UNIT):
                tgt_name = w.arrows[0]
                if tgt_name not in preimage:
                    preimage[tgt_name] = src_arrow
    delta_values: Dict[str, Elem] = {}
    for tname in tgt.arrows:
        if tname not in preimage:
            raise ReductionError(f"target arrow {tname} has no plain preimage")
        delta_values[tname] = push(dit.delta.of_arrow(preimage[tname]))
    tgt_layer = Layer(tgt)
    tgt_delta = Differential(tgt_layer, delta_values)
    if check_squares:
        for sname, img in arrow_images.items():
            lhs = push(dit.delta.of_arrow(sname))
            rhs = tgt_delta.apply(img)
            if lhs != rhs:
                raise ReductionError(f"commuting square fails at generator {sname}")
    ideal_gens = [g2 for g2 in (push(g) for g in dit.ideal.generators) if not g2.is_zero()]
    new_dit = Dit(tgt_layer, tgt_delta, IdealData(ideal_gens), name=name)
    from .admissible import recompute_triangular_filtrations

    recompute_triangular_filtrations(new_dit)
    inherit_certificates(dit, new_dit)

    def apply_rep(N: Rep) -> Rep:
        dims = {}
        for p in b.point_order:
            ip = point_map.get(p)
            dims[p] = N.dims[ip] if ip is not None else 0
        M = Rep(dit, dims, ring=N.ring)
        for arr in b.solid_arrows():
            img = arrow_images.get(arr.name)
            if img is not None and not img.is_zero():
                M.arrow_ops[arr.name] = N.elem_action(
                    img, point_map[arr.source], point_map[arr.target])
        for p in b.point_order:
            ip = point_map.get(p)
            if ip is not None and not b.factor(p).is_trivial:
                M.point_ops[p] = N.point_ops[ip]
        return M

    def apply_morphism(f: MorphismPair, Nm: Rep, Nn: Rep) -> MorphismPair:
        Mm, Mn = apply_rep(Nm), apply_rep(Nn)
        out = zero_morphism(Mm, Mn)
        for p in b.point_order:
            ip = point_map.get(p)
            if ip is not None:
                out.f0[p] = f.f0[ip]
        for arr in b.dashed_arrows():
            img = arrow_images.get(arr.name)
            if img is None or img.is_zero():
                continue
            ip, jp = point_map.get(arr.source), point_map.get(arr.target)
            if ip is None or jp is None:
                continue
            out.f1[arr.name] = evaluate_f1(new_dit, Nm, Nn, f.f1, img, ip, jp)
        return out

    functor = ReductionFunctor(kind=kind, source=dit, target=new_dit,
                               apply_rep=apply_rep, apply_morphism=apply_morphism,
                               data={"point_map": point_map, "arrow_images": arrow_images},
                               faithful=True)
    return new_dit, functor


# -- deletion -----------------------------------------------------------------


def delete_idempotents(dit: Dit, kept_points: Sequence[str],
                       name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Deletion of the idempotent complementary to the kept points; image =
    modules annihilated by the deleted points."""
    b = dit.bigraph
    kept = [p for p in b.point_order if p in set(kept_points)]
    tgt = Bigraph(b.field, [(p, b.factor(p)) for p in kept],
                  solid=[(a.name, a.source, a.target) for a in b.solid_arrows()
                         if a.source in kept and a.target in kept],
                  dashed=[(a.name, a.source, a.target) for a in b.dashed_arrows()
                          if a.source in kept and a.target in kept])
    point_map = {p: (p if p in kept else None) for p in b.point_order}
    images = {}
    for a in b.arrows.values():
        if a.source in kept and a.target in kept:
            images[a.name] = Elem.arrow(tgt, a.name)
        else:
            images[a.name] = Elem.zero(tgt)
    new_dit, functor = induced_reduction(dit, point_map, tgt, images,
                                         name=name or f"{dit.name}^d", kind="deletion")
    functor.full = True
    functor.faithful = True
    return new_dit, functor


def deletion_image_characterization(functor: ReductionFunctor, M: Rep) -> bool:
    """(1-e) M = 0: M lies in the image iff every deleted point has dim 0."""
    point_map = functor.data["point_map"]
    return all(M.dims[p] == 0 for p, ip in point_map.items() if ip is None)


# -- regularization -------------------------------------------------------------


def regularize(dit: Dit, solid_selection: Sequence[str],
               name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Regularization of W0' = span(solid_selection); requires W1 to split as
    delta(W0') (+) W1'' after an invertible change of dashed basis, which is
    found by unit-coefficient elimination and rejected otherwise (the pipeline
    localizes first in that case)."""
    b = dit.bigraph
    F = b.field
    sel = list(solid_selection)
    for s in sel:
        if b.arrow(s).dashed:
            raise ReductionError("regularization selects solid arrows")
    # delta must embed the selection into W1 (length-1 words) with an
    # invertible triangular base change: pick a unit pivot per selected arrow.
    images = {a: dit.delta.of_arrow(a) for a in sel}
    for a, img in images.items():
        for w in img.terms:
            if w.length() != 1:
                raise ReductionError(
                    f"delta({a}) is not inside W1; regularization unavailable")
    pivots: Dict[str, str] = {}
    used: set = set()
    remaining = dict(images)
    progress = True
    while remaining and progress:
        progress = False
        for a, img in list(remaining.items()):
            # find a term c*v with unit decorations and v unused
            for w, c in img.terms.items():
                if w.arrows[0] in used:
                    continue
                if w.coeffs != (UNIT, UNIT):
                    continue
                arrw = b.arrow(w.arrows[0])
                if (arrw.source, arrw.target) != (b.arrow(a).source, b.arrow(a).target):
                    continue
                pivots[a] = w.arrows[0]
                used.add(w.arrows[0])
                remaining.pop(a)
                progress = True
                break
    if remaining:
        raise ReductionError(
            "delta(W0') is not a direct summand of W1 over this base "
            "(no unit pivot); localize first")

    kept_solid = [a.name for a in b.solid_arrows() if a.name not in set(sel)]
    kept_dashed = [a.name for a in b.dashed_arrows() if a.name not in used]
    tgt = Bigraph(F, [(p, b.factor(p)) for p in b.point_order],
                  solid=[(n, b.arrow(n).source, b.arrow(n).target) for n in kept_solid],
                  dashed=[(n, b.arrow(n).source, b.arrow(n).target) for n in kept_dashed])
    point_map = {p: p for p in b.point_order}

    # phi on dashed arrows: the pivot arrows are rewritten via
    # v_pivot = c^-1 (delta(a) - other terms) |-> -c^-1 (other terms image);
    # solve the triangular system iteratively.
    images_dashed: Dict[str, Elem] = {n: Elem.arrow(tgt, n) for n in kept_dashed}
    pending = {pivots[a]: (a, images[a]) for a in pivots}
    for _ in range(len(pending) + 1):
        ready = {}
        for vp, (a, img) in list(pending.items()):
            c_piv = None
            rest = Elem.zero(tgt)
            ok = True
            for w, c in img.terms.items():
                vn = w.arrows[0]
                if vn == vp and w.coeffs == (UNIT, UNIT):
                    c_piv = c
                    continue
                if vn in images_dashed:
                    piece = _map_elem(b, tgt, point_map, images_dashed, Elem(b, {w: c}))
                    rest = rest + piece
                elif vn in pending and vn != vp:
                    ok = False
                    break
                else:
                    ok = False
                    break
            if ok and c_piv is not None:
                # phi(v_pivot) = -c^-1 * phi(rest): delta(a) maps to zero
                images_dashed[vp] = rest.scale(F.neg(F.inv(c_piv)))
                ready[vp] = True
        for vp in ready:
            pending.pop(vp)
        if not pending:
            break
    if pending:
        raise ReductionError("could not triangularize the dashed base change")

    arrow_images: Dict[str, Elem] = {}
    for n in kept_solid:
        arrow_images[n] = Elem.arrow(tgt, n)
    for n in sel:
        arrow_images[n] = Elem.zero(tgt)
    arrow_images.update(images_dashed)

    new_dit, functor = induced_reduction(dit, point_map, tgt, arrow_images,
                                         name=name or f"{dit.name}^r",
                                         kind="regularization")
    functor.full = True
    functor.faithful = True
    # ker(delta) cap W0' = 0 certifies the equivalence (delta injective here by
    # the pivot construction)
    functor.equivalence = True
    return new_dit, functor


# -- factoring out a direct summand of W0 ---------------------------------------


def factor_out(dit: Dit, solid_selection: Sequence[str],
               name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Factor out W0' = span(solid_selection) with W0' inside I and
    delta(W0') in A W0' V + V W0' A; equivalence of categories."""
    b = dit.bigraph
    sel = list(solid_selection)
    sel_elems = [Elem.arrow(b, s) for s in sel]
    for s in sel:
        g = Elem.arrow(b, s)
        if not membership_in_ideal_window(dit, g, 0):
            raise ReductionError(f"{s} is not inside the ideal")
        dg = dit.delta.apply(g)
        if not dg.is_zero():
            if not membership_in_ideal_window(dit, dg, 1, middle=sel_elems,
                                              splits=[(1, 0), (0, 1)]):
                raise ReductionError(f"delta({s}) is not inside A W0' V + V W0' A")
    kept_solid = [a.name for a in b.solid_arrows() if a.name not in set(sel)]
    tgt = Bigraph(b.field, [(p, b.factor(p)) for p in b.point_order],
                  solid=[(n, b.arrow(n).source, b.arrow(n).target) for n in kept_solid],
                  dashed=[(a.name, a.source, a.target) for a in b.dashed_arrows()])
    point_map = {p: p for p in b.point_order}
    arrow_images = {n: Elem.arrow(tgt, n) for n in kept_solid}
    arrow_images.update({a.name: Elem.arrow(tgt, a.name) for a in b.dashed_arrows()})
    for s in sel:
        arrow_images[s] = Elem.zero(tgt)
    new_dit, functor = induced_reduction(dit, point_map, tgt, arrow_images,
                                         name=name or f"{dit.name}^q", kind="factor_out")
    functor.full = True
    functor.faithful = True
    functor.equivalence = True
    return new_dit, functor


# -- absorption ------------------------------------------------------------------


def absorb(dit: Dit, loop_arrow: str, name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Absorb a delta-closed solid loop into its point's factor: the point
    becomes rational (k[x]) and the loop becomes the x-action.  Isomorphism of
    categories; representation data is just reinterpreted."""
    b = dit.bigraph
    arr = b.arrow(loop_arrow)
    if arr.dashed or arr.source != arr.target:
        raise ReductionError("absorption needs a solid loop")
    if not dit.delta.of_arrow(loop_arrow).is_zero():
        raise ReductionError("absorption needs delta(loop) = 0")
    point = arr.source
    if not b.factor(point).is_trivial:
        raise ReductionError("absorption target point must currently be trivial")
    for g in dit.ideal.generators:
        for w in g.terms:
            if loop_arrow in w.arrows:
                raise ReductionError("loop occurs in an ideal generator")
    new_points = [(p, b.factor(p) if p != point else Factor.rational([])) for p in b.point_order]
    tgt = Bigraph(b.field, new_points,
                  solid=[(a.name, a.source, a.target) for a in b.solid_arrows()
                         if a.name != loop_arrow],
                  dashed=[(a.name, a.source, a.target) for a in b.dashed_arrows()])
    point_map = {p: p for p in b.point_order}

    x_elem = Elem.decorated(tgt, point, tgt.factor_ring(point).from_poly(Poly.x(b.field)))
    arrow_images: Dict[str, Elem] = {loop_arrow: x_elem}
    for a in b.arrows.values():
        if a.name != loop_arrow:
            arrow_images[a.name] = Elem.arrow(tgt, a.name)

    delta_values = {}
    for a in tgt.arrows:
        delta_values[a] = _map_elem(b, tgt, point_map, arrow_images, dit.delta.of_arrow(a))
    tgt_layer = Layer(tgt)
    tgt_delta = Differential(tgt_layer, delta_values)
    ideal_gens = [_map_elem(b, tgt, point_map, arrow_images, g) for g in dit.ideal.generators]
    new_dit = Dit(tgt_layer, tgt_delta, IdealData([g for g in ideal_gens if not g.is_zero()]),
                  name=name or f"{dit.name}^a")
    from .admissible import recompute_triangular_filtrations

    recompute_triangular_filtrations(new_dit)
    inherit_certificates(dit, new_dit)

    def apply_rep(N: Rep) -> Rep:
        M = Rep(dit, dict(N.dims), ring=N.ring)
        for a in b.solid_arrows():
            if a.name == loop_arrow:
                M.arrow_ops[a.name] = N.point_ops[point]
            else:
                M.arrow_ops[a.name] = N.arrow_ops[a.name]
        for p in b.point_order:
            if not b.factor(p).is_trivial:
                M.point_ops[p] = N.point_ops[p]
        return M

    def apply_morphism(f: MorphismPair, Nm: Rep, Nn: Rep) -> MorphismPair:
        Mm, Mn = apply_rep(Nm), apply_rep(Nn)
        out = zero_morphism(Mm, Mn)
        for p in b.point_order:
            out.f0[p] = f.f0[p]
        for a in b.dashed_arrows():
            out.f1[a.name] = f.f1[a.name]
        return out

    functor = ReductionFunctor(kind="absorption", source=dit, target=new_dit,
                               apply_rep=apply_rep, apply_morphism=apply_morphism,
                               data={"point": point, "loop": loop_arrow},
                               full=True, faithful=True, equivalence=True)
    return new_dit, functor


# -- source detachment ------------------------------------------------------------


def is_source_point(dit: Dit, point: str) -> bool:
    """Source of (A, I): trivial factor, no incoming arrows, e0 not in I."""
    b = dit.bigraph
    if not b.factor(point).is_trivial:
        return False
    if b.arrows_into(point):
        return False
    e0 = Elem.idempotent(b, point)
    if membership_in_ideal_window(dit, e0, 0):
        return False
    return True


def detach_source(dit: Dit, point: str, name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Detachment of the source e0: the target is ke0 x (f T f) with the
    restricted differential and ideal; Res is restriction (f M plus the e0
    component as the one-point factor)."""
    b = dit.bigraph
    if not is_source_point(dit, point):
        raise ReductionError(f"{point} is not a source of (A, I)")
    tgt = Bigraph(b.field, [(p, b.factor(p)) for p in b.point_order],
                  solid=[(a.name, a.source, a.target) for a in b.solid_arrows()
                         if a.source != point and a.target != point],
                  dashed=[(a.name, a.source, a.target) for a in b.dashed_arrows()
                          if a.source != point and a.target != point])
    point_map = {p: p for p in b.point_order}
    arrow_images = {}
    for a in b.arrows.values():
        if a.source != point and a.target != point:
            arrow_images[a.name] = Elem.arrow(tgt, a.name)
        else:
            arrow_images[a.name] = Elem.zero(tgt)
    delta_values = {}
    for a in tgt.arrows:
        delta_values[a] = _map_elem(b, tgt, point_map, arrow_images, dit.delta.of_arrow(a))
    tgt_layer = Layer(tgt)
    tgt_delta = Differential(tgt_layer, delta_values)
    ideal_gens = []
    for g in dit.ideal.generators:
        img = _map_elem(b, tgt, point_map, arrow_images, g)
        img = Elem(tgt, {w: c for w, c in img.terms.items()
                         if point not in w.path(tgt)})
        if not img.is_zero():
            ideal_gens.append(img)
    new_dit = Dit(tgt_layer, tgt_delta, IdealData(ideal_gens),
                  name=name or f"{dit.name}^o")
    from .admissible import recompute_triangular_filtrations

    recompute_triangular_filtrations(new_dit)
    inherit_certificates(dit, new_dit)

    def res_rep(M: Rep) -> Rep:
        out = Rep(new_dit, dict(M.dims), ring=M.ring)
        for a in tgt.solid_arrows():
            out.arrow_ops[a.name] = M.arrow_ops[a.name]
        for p in tgt.point_order:
            if not tgt.factor(p).is_trivial:
                out.point_ops[p] = M.point_ops[p]
        return out

    def res_morphism(f: MorphismPair, Mm: Rep, Mn: Rep) -> MorphismPair:
        rm, rn = res_rep(Mm), res_rep(Mn)
        out = zero_morphism(rm, rn)
        for p in tgt.point_order:
            out.f0[p] = f.f0[p]
        for a in tgt.dashed_arrows():
            out.f1[a.name] = f.f1[a.name]
        return out

    functor = ReductionFunctor(kind="detachment", source=dit, target=new_dit,
                               apply_rep=res_rep, apply_morphism=res_morphism,
                               data={"point": point})
    return new_dit, functor


def detached_is_product(dit: Dit, detached: Dit, point: str) -> bool:
    """Structural check of the product decomposition: the detached dit equals
    the one-point ditalgebra at e0 times the idempotent-deleted dit."""
    b = detached.bigraph
    if point not in b.points:
        return False
    if b.arrows_from(point) or b.arrows_into(point):
        return False
    deleted, _ = delete_idempotents(dit, [p for p in dit.bigraph.point_order if p != point])
    db = deleted.bigraph
    if set(db.points) != set(b.points) - {point}:
        return False
    if set(db.arrows) != set(b.arrows):
        return False
    for a in db.arrows:
        if deleted.delta.of_arrow(a) != _relabel(detached.delta.of_arrow(a), db):
            return False
    src_span = [_relabel(g, db) for g in detached.ideal.generators]
    from .tensor import in_span

    for g in deleted.ideal.generators:
        if not in_span(src_span, g):
            return False
    for g in src_span:
        if not in_span(deleted.ideal.generators, g) and not g.is_zero():
            return False
    return True


def _relabel(elem: Elem, tgt: Bigraph) -> Elem:
    return Elem(tgt, {Word(w.start, w.arrows, w.coeffs): c for w, c in elem.terms.items()})


# -- structural equality and source commutation ---------------------------------


def structural_equal(d1: Dit, d2: Dit) -> bool:
    """Presentation-level equality: points with factors, arrows, differential
    values, and equal ideal spans."""
    b1, b2 = d1.bigraph, d2.bigraph
    if b1.point_order != b2.point_order:
        return False
    for p in b1.point_order:
        f1, f2 = b1.factor(p), b2.factor(p)
        if f1.is_trivial != f2.is_trivial:
            return False
        if not f1.is_trivial and set(f1.inverted) != set(f2.inverted):
            return False
    if set(b1.arrows) != set(b2.arrows):
        return False
    for n, a in b1.arrows.items():
        a2 = b2.arrow(n)
        if (a.source, a.target, a.dashed) != (a2.source, a2.target, a2.dashed):
            return False
    for n in b1.arrows:
        if _relabel(d1.delta.of_arrow(n), b2) != d2.delta.of_arrow(n):
            return False
    from .tensor import in_span

    g1 = [_relabel(g, b2) for g in d1.ideal.generators]
    g2 = d2.ideal.generators
    for g in g1:
        if not in_span(g2, g) and not g.is_zero():
            return False
    for g in g2:
        if not in_span(g1, g) and not g.is_zero():
            return False
    return True


def rep_equal(M: Rep, N: Rep) -> bool:
    """Exact equality of representation data."""
    if M.dims != N.dims:
        return False
    return (all(M.arrow_ops[a] == N.arrow_ops[a] for a in M.arrow_ops)
            and all(M.point_ops[p] == N.point_ops[p] for p in M.point_ops))


@dataclass
class StepSpec:
    """Construction data of a single reduction step, replayable on any dit
    that carries the referenced generators (used for the source-detachment
    commutation and for lifting a deleted-side plan to the full dit)."""

    kind: str       # deletion | regularization | factor_out | absorption | admissible
    data: dict

    def apply(self, dit: Dit, name: str = ""):
        if self.kind == "deletion":
            kept = [p for p in dit.bigraph.point_order if p in set(self.data["kept"])]
            return delete_idempotents(dit, kept, name=name)
        if self.kind == "regularization":
            return regularize(dit, self.data["solid"], name=name)
        if self.kind == "factor_out":
            return factor_out(dit, self.data["solid"], name=name)
        if self.kind == "absorption":
            return absorb(dit, self.data["loop"], name=name)
        if self.kind == "admissible":
            from .admissible import build_admissible, reduce_admissible

            adm = build_admissible(
                dit, self.data["b_arrows"],
                findim=[(lbl, _rehost_rep(dit, self.data["b_arrows"], spec))
                        for lbl, spec in self.data.get("findim", ())],
                regular=self.data.get("regular", ()),
                check=self.data.get("check", True))
            return reduce_admissible(dit, adm, name=name)
        raise ReductionError(f"unknown step kind {self.kind}")

    def lifted_over_source(self, source_point: str) -> "StepSpec":
        """The corresponding step on a dit that still carries the source
        point: deletions keep it; admissible steps gain the k e0 summand."""
        if self.kind == "deletion":
            return StepSpec("deletion", {"kept": list(self.data["kept"]) + [source_point]})
        if self.kind == "admissible":
            data = dict(self.data)
            data["regular"] = list(data.get("regular", ())) + [
                (source_point, source_point, ())]
            return StepSpec("admissible", data)
        return StepSpec(self.kind, dict(self.data))


def _rehost_rep(dit: Dit, b_arrows, spec):
    """Rebuild a B-representation over this dit's subalgebra presentation."""
    from .admissible import _sub_bigraph_dit

    dims, arrow_mats, point_mats = spec
    b_dit = _sub_bigraph_dit(dit, b_arrows)
    full_dims = {p: dims.get(p, 0) for p in b_dit.bigraph.point_order}
    r = Rep(b_dit, full_dims)
    for a, m in arrow_mats.items():
        r.arrow_ops[a] = m
    for p, m in point_mats.items():
        r.point_ops[p] = m
    return r


def rep_spec(rep: Rep):
    """Portable data of a B-representation for StepSpec."""
    return (dict(rep.dims), dict(rep.arrow_ops), dict(rep.point_ops))

# -- base change of a solid arm ---------------------------------------------------


def change_solid_basis(dit: Dit, source_point: str, target_point: str,
                       new_arrows: Sequence[Tuple[str, Elem]],
                       name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Replace the solid arrows from source_point to target_point by an
    invertible combination (coefficients in the endpoint factor rings); all
    differential values and ideal generators are rewritten.  This is an
    isomorphism of presentations (a unimodular change of the generator basis
    of one arm of W0)."""
    from .scalars import LocalizedRing, LocElt, Poly
    from .tensor import decompose_locelt, key_to_locelt

    b = dit.bigraph
    F = b.field
    old = [a.name for a in b.solid_arrows()
           if a.source == source_point and a.target == target_point]
    if len(new_arrows) != len(old):
        raise ReductionError("base change must preserve the arm rank")
    trivial_target = b.factor(target_point).is_trivial
    trivial_source = b.factor(source_point).is_trivial
    if not trivial_target and not trivial_source:
        raise ReductionError("bivariate arm base change is unsupported")
    ring = (b.factor_ring(target_point) if not trivial_target
            else b.factor_ring(source_point)) or LocalizedRing(F, ())

    # coefficient matrix C: new_i = sum_j C[i][j] old_j (coefficients in ring)
    def coeff_of(elem: Elem, arrow: str) -> LocElt:
        acc = ring.zero
        for w, c in elem.terms.items():
            if w.arrows != (arrow,):
                continue
            key = w.coeffs[1] if not trivial_target else w.coeffs[0]
            other = w.coeffs[0] if not trivial_target else w.coeffs[1]
            if other != (0, 0):
                raise ReductionError("decoration on the trivial side of the arm")
            scalar = LocElt(ring, Poly.const(F, c), 0)
            acc = ring.add(acc, ring.mul(scalar, key_to_locelt(ring, key)))
        return acc

    n = len(old)
    C = Mat(ring, n, n, [[coeff_of(e, old[j]) for j in range(n)] for _, e in new_arrows])
    Cinv = C.inverse()
    if Cinv is None:
        raise ReductionError("base change matrix is not invertible over the arm ring")

    tgt = Bigraph(F, [(p, b.factor(p)) for p in b.point_order],
                  solid=[(a.name, a.source, a.target) for a in b.solid_arrows()
                         if a.name not in set(old)]
                        + [(nm, source_point, target_point) for nm, _ in new_arrows],
                  dashed=[(a.name, a.source, a.target) for a in b.dashed_arrows()])

    def decorated_arrow(nm: str, value: LocElt) -> Elem:
        out = Elem.zero(tgt)
        for key, c in decompose_locelt(ring, value):
            if trivial_target:
                w = Word(source_point, (nm,), (key, (0, 0)))
            else:
                w = Word(source_point, (nm,), ((0, 0), key))
            out = out + Elem(tgt, {w: c})
        return out

    point_map = {p: p for p in b.point_order}
    arrow_images: Dict[str, Elem] = {}
    for a in b.arrows.values():
        if a.name not in set(old):
            arrow_images[a.name] = Elem.arrow(tgt, a.name)
    for j, oname in enumerate(old):
        acc = Elem.zero(tgt)
        for i, (nm, _) in enumerate(new_arrows):
            v = Cinv.data[j][i]
            if not ring.is_zero(v):
                acc = acc + decorated_arrow(nm, v)
        arrow_images[oname] = acc

    # target differential: delta'(new_i) = phi(delta(sum_j C[i][j] old_j))
    delta_values: Dict[str, Elem] = {}
    for a in tgt.arrows.values():
        if a.name in b.arrows and a.name not in set(old):
            delta_values[a.name] = _map_elem(b, tgt, point_map, arrow_images,
                                             dit.delta.of_arrow(a.name))
    for nm, comb in new_arrows:
        delta_values[nm] = _map_elem(b, tgt, point_map, arrow_images,
                                     dit.delta.apply(comb))
    tgt_layer = Layer(tgt)
    tgt_delta = Differential(tgt_layer, delta_values)
    ideal_gens = [g2 for g2 in (_map_elem(b, tgt, point_map, arrow_images, g)
                                for g in dit.ideal.generators) if not g2.is_zero()]
    new_dit = Dit(tgt_layer, tgt_delta, IdealData(ideal_gens),
                  name=name or f"{dit.name}~")
    from .admissible import recompute_triangular_filtrations

    recompute_triangular_filtrations(new_dit)
    inherit_certificates(dit, new_dit)

    comb_by_new = {nm: comb for nm, comb in new_arrows}

    def apply_rep(N: Rep) -> Rep:
        M = Rep(dit, dict(N.dims), ring=N.ring)
        for a in b.solid_arrows():
            if a.name in set(old):
                M.arrow_ops[a.name] = N.elem_action(arrow_images[a.name],
                                                    a.source, a.target)
            else:
                M.arrow_ops[a.name] = N.arrow_ops[a.name]
        for p in b.point_order:
            if not b.factor(p).is_trivial:
                M.point_ops[p] = N.point_ops[p]
        return M

    def apply_morphism(f: MorphismPair, Nm: Rep, Nn: Rep) -> MorphismPair:
        Mm, Mn = apply_rep(Nm), apply_rep(Nn)
        out = zero_morphism(Mm, Mn)
        for p in b.point_order:
            out.f0[p] = f.f0[p]
        for a in b.dashed_arrows():
            out.f1[a.name] = f.f1[a.name]
        return out

    functor = ReductionFunctor(kind="basechange", source=dit, target=new_dit,
                               apply_rep=apply_rep, apply_morphism=apply_morphism,
                               data={"point_map": point_map, "arrow_images": arrow_images,
                                     "new_arrows": comb_by_new},
                               full=True, faithful=True, equivalence=True)
    return new_dit, functor
