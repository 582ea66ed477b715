"""The reduction calculus.  Each reduction F: Mod(A', I') -> Mod(A, I) comes
from a morphism phi of tensor algebras, and its target presentation is the
pushforward of delta and I along phi (`_pushforward`).  phi keeps the points of
the target bigraph and kills the others; a reduction names only the generators
it changes, and every other generator goes to the target arrow of the same
name or to zero.  A fixed letter keeps its name, endpoints and kind between
points whose factor is unchanged.  The pushforward copies a word made of
fixed letters verbatim, which is exact because its decorations are already
canonical basis keys of the same factor rings; only the words through a
changed letter or point are multiplied out again.  Deletion,
regularization, factoring out and base change of a solid arm go through
`induced_reduction`, and absorption and source detachment have their own
object formulas.  Admissible-module reduction lives in `admissible`.  Each
step returns a ReductionFunctor, which maps target-side modules back to the
source category."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Sequence, Tuple

from .bigraph import Bigraph, Factor
from .interlace import (
    Dit, IdealData, inherit_certificates, membership_in_ideal_window, point_in_ideal,
)
from .modcat import Rep
from .scalars import LocalizedRing, LocElt, Poly
from .scalars.linalg import Mat
from .tensor import (
    Differential, Elem, Layer, Word, UNIT, add_term, decompose_locelt, in_span,
)


class ReductionError(ValueError):
    pass


@dataclass
class ReductionFunctor:
    """A reduction step F: Mod(target) -> Mod(source); `apply_rep` maps a
    target-side module to the source category, and dim F(N) <= dim_scale *
    dim N.  Detachment is the exception: its `apply_rep` is Res, restriction
    from the source to the target, so `compose_functors` rejects it.

    kind: the `StepSpec` kind that builds it (deletion | regularization |
    factor_out | absorption | admissible | basechange), or detachment |
    induced | composite for the functors no plan step records.
    """

    kind: str
    source: Dit
    target: Dit
    apply_rep: Callable[[Rep], Rep] = None
    dim_scale: int = 1

    def __call__(self, N: Rep) -> Rep:
        return self.apply_rep(N)


def compose_functors(steps: Sequence[ReductionFunctor]) -> ReductionFunctor:
    """steps[0] is the outermost (source-side) reduction; the composite maps
    modules over steps[-1].target back to steps[0].source.  A detachment
    step maps the other way (Res), so it cannot be composed."""
    if not steps:
        raise ReductionError("empty composition")
    for i, st in enumerate(steps):
        if st.kind == "detachment":
            raise ReductionError(
                f"cannot compose detachment step {i} ({st.source.name} -> {st.target.name}):"
                " its apply_rep is Res, from Mod(source) to Mod(target)")
    if len(steps) == 1:
        return steps[0]

    def apply_rep(N: Rep) -> Rep:
        for st in reversed(steps):
            N = st.apply_rep(N)
        return N

    return ReductionFunctor(kind="composite", source=steps[0].source,
                            target=steps[-1].target, apply_rep=apply_rep,
                            dim_scale=math.prod(s.dim_scale for s in steps))


# -- the pushforward along phi -------------------------------------------------


def _fixed_letters(src: Bigraph, tgt: Bigraph, changed: Dict[str, Elem],
                   lifts: Dict[str, Elem]) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(same, fixed): the points of `tgt` whose factor is unchanged, and the
    generators that phi sends to the target arrow of the same name, with the
    same endpoints and kind, between two such points (the fixed letters)."""
    same = frozenset(p for p, fac in tgt.points.items() if src.points.get(p) == fac)
    fixed = frozenset(s for s, a in src.arrows.items()
                      if s not in changed and s not in lifts and tgt.arrows.get(s) == a
                      and a.source in same and a.target in same)
    return same, fixed


def _map_elem(src: Bigraph, tgt: Bigraph, images: Dict[str, Elem], elem: Elem,
              same: FrozenSet[str] = frozenset(),
              fixed: FrozenSet[str] = frozenset()) -> Elem:
    """Push an element of T(src) through the graded algebra morphism that
    keeps the points of `tgt`, kills the others, sends each fixed letter to
    itself and every other generator to its image in `images` (zero when it
    has none).  A word whose letters are all fixed, or a word with no arrows
    at a point of `same`, is copied verbatim: each letter goes to the plain
    arrow of the same name, and a decoration is a canonical basis key of an
    unchanged factor ring, so multiplying the images back together returns
    the word itself.  An element made only of such words is copied whole;
    otherwise the terms accumulate in one dictionary, where a word seen for
    the first time is stored as it comes (a product of nonzero scalars).
    Each image runs between the endpoints of its generator, so a unit
    decoration after a letter is not multiplied."""
    F = tgt.field
    one = F.one

    def verbatim(w: Word) -> bool:
        return fixed.issuperset(w.arrows) if w.arrows else w.start in same

    if all(verbatim(w) for w in elem.terms):
        return Elem.nonzero(tgt, dict(elem.terms))
    out: Dict[Word, object] = {}
    for w, c in elem.terms.items():
        if verbatim(w):
            add_term(F, out, w, c)
            continue
        if w.start not in tgt.points:
            continue
        if tgt.factor(w.start).is_trivial and w.coeffs[0] != UNIT:
            continue
        cur = Elem(tgt, {Word(w.start, (), (w.coeffs[0],)): F.one})
        n, i = len(w.arrows), 0
        while i < n:
            name = w.arrows[i]
            if name in fixed:  # appending a run of fixed letters multiplies nothing out
                j = i + 1
                while j < n and w.arrows[j] in fixed:
                    j += 1
                run, keys = w.arrows[i:j], w.coeffs[i + 1:j + 1]
                cur = Elem.nonzero(tgt, {Word(u.start, u.arrows + run, u.coeffs + keys): v
                                         for u, v in cur.terms.items()})
                i = j
                continue
            nxt = src.arrows[name].target
            img = images.get(name)
            if img is None or img.is_zero() or nxt not in tgt.points:
                break
            cur = img * cur
            if w.coeffs[i + 1] != UNIT:  # a unit decoration at nxt multiplies nothing out
                cur = Elem(tgt, {Word(nxt, (), (w.coeffs[i + 1],)): F.one}) * cur
            i += 1
        else:
            for u, v in cur.terms.items():
                add_term(F, out, u, v if c == one else c if v == one else F.mul(c, v))
    return Elem.nonzero(tgt, out)


def _generator_images(src: Bigraph, tgt: Bigraph, changed: Dict[str, Elem],
                      fixed: FrozenSet[str] = frozenset()) -> Dict[str, Elem]:
    """phi on every generator of `src` but the fixed letters: its image in
    `changed`, else the target arrow of the same name, else zero."""
    zero = Elem.zero(tgt)
    return {s: changed[s] if s in changed else
            Elem.arrow(tgt, s) if s in tgt.arrows else zero
            for s in src.arrows if s not in fixed}


def _pushforward(dit: Dit, tgt: Bigraph, changed: Dict[str, Elem], name: str,
                 lifts: Optional[Dict[str, Elem]] = None) -> Dit:
    """The target presentation of the reduction along phi: T(dit) -> T(tgt),
    which keeps the points of `tgt`, kills the others, fixes the letters that
    `_fixed_letters` names and sends the other generators as
    `_generator_images` says.  delta'(t) = phi(delta(lifts[t])) for a lifted
    t and phi(delta(t)) otherwise; I' is generated by phi(I).  The fixed set
    is derived once, so each push copies the all-fixed words verbatim.  A
    value of a target arrow with the name, endpoints and kind it has in the
    source, made only of fixed letters, is copied whole and not validated
    again: the source presentation validated it, and fixed letters keep
    their kind and endpoints.  Every other value is validated.
    Raises ReductionError on a target arrow that is neither lifted nor a
    source generator, on an image that does not run between the endpoints
    of its generator, and unless delta' phi = phi delta on every generator
    other than a fixed letter, where it holds by definition."""
    b = dit.bigraph
    lifts = lifts or {}
    same, fixed = _fixed_letters(b, tgt, changed, lifts)
    images = _generator_images(b, tgt, changed, fixed)

    def push(e: Elem) -> Elem:
        return _map_elem(b, tgt, images, e, same, fixed)

    values: Dict[str, Elem] = {}
    copied = set()
    for t, arr in tgt.arrows.items():
        if t in lifts:
            values[t] = push(dit.delta.apply(lifts[t]))
        elif t in b.arrows:
            v = dit.delta.of_arrow(t)
            if b.arrows[t] == arr and all(fixed.issuperset(w.arrows) for w in v.terms):
                values[t] = Elem.nonzero(tgt, dict(v.terms))  # what push(v) returns
                copied.add(t)
            else:
                values[t] = push(v)
        else:
            raise ReductionError(f"target arrow {t} is neither lifted nor a source generator")
    layer = Layer(tgt)
    delta = Differential(layer, values, _copied=copied)
    # `_map_elem` skips a unit decoration after a letter on this condition;
    # checked after the validation above, which names a target arrow moved
    # to other endpoints when its own value shows the move
    for s, img in images.items():
        a = b.arrows[s]
        if any(w.start != a.source or w.end(tgt) != a.target for w in img.terms):
            raise ReductionError(f"the image of {s} does not run from {a.source} to {a.target}")
    # a fixed letter s has delta'(s) = phi(delta(s)); a generator that keeps
    # its name has that value in values[s] already, built above
    for s, img in images.items():
        kept = s not in changed and s not in lifts and s in tgt.arrows
        if (values[s] if kept else push(dit.delta.of_arrow(s))) != delta.apply(img):
            raise ReductionError(f"commuting square fails at generator {s}")
    ideal = [g2 for g2 in (push(g) for g in dit.ideal.generators) if not g2.is_zero()]
    new_dit = Dit(layer, delta, IdealData(ideal), name=name)
    inherit_certificates(dit, new_dit)
    return new_dit


def induced_reduction(dit: Dit, target_bigraph: Bigraph, changed: Dict[str, Elem],
                      name: str = "induced",
                      kind: str = "induced",
                      lifts: Optional[Dict[str, Elem]] = None
                      ) -> Tuple[Dit, ReductionFunctor]:
    """Reduction along phi, which sends the generators named in `changed` to
    their given images and fixes the rest (see `_pushforward`); a module N
    over the target goes to phi^* N, which reads a fixed letter's matrix off
    N directly and builds every other matrix once, acting by an image only
    where N has support at both of its ends."""
    b = dit.bigraph
    tgt = target_bigraph
    new_dit = _pushforward(dit, tgt, changed, name, lifts)

    def apply_rep(N: Rep) -> Rep:
        dims = {p: N.dims[p] if p in tgt.points else 0 for p in b.point_order}
        arrow_ops = {}
        for arr in b.solid_arrows():
            img = changed.get(arr.name)
            rows, cols = dims[arr.target], dims[arr.source]
            if img is None and arr.name in tgt.arrows:
                arrow_ops[arr.name] = N.arrow_ops[arr.name]
            elif img is not None and rows and cols and not img.is_zero():
                arrow_ops[arr.name] = N.elem_action(img, arr.source, arr.target)
            else:
                arrow_ops[arr.name] = Mat(N.ring, rows, cols)
        point_ops = {p: N.point_ops[p] if p in tgt.points else Mat(N.ring, 0, 0)
                     for p in b.point_order if not b.factor(p).is_trivial}
        return Rep(dit, dims, arrow_ops, point_ops, ring=N.ring)

    functor = ReductionFunctor(kind=kind, source=dit, target=new_dit, apply_rep=apply_rep)
    return new_dit, functor


# -- deletion -----------------------------------------------------------------


def delete_idempotents(dit: Dit, kept_points: Sequence[str],
                       name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Deletion of the idempotent complementary to the kept points; image =
    modules annihilated by the deleted points.  Raises ReductionError on a
    kept point the presentation does not have."""
    b = dit.bigraph
    kept = set(kept_points)
    unknown = [p for p in kept_points if p not in b.points]
    if unknown:
        raise ReductionError(f"kept points not in the presentation: {', '.join(unknown)}")
    tgt = b.without(points=[p for p in b.point_order if p not in kept])
    return induced_reduction(dit, tgt, {}, name=name or f"{dit.name}^d", kind="deletion")


def deletion_image_characterization(functor: ReductionFunctor, M: Rep) -> bool:
    """(1-e) M = 0: M lies in the image iff every deleted point has dim 0."""
    kept = functor.target.bigraph.points
    return all(M.dims[p] == 0 for p in functor.source.bigraph.point_order if p not in kept)


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

    tgt = b.without(arrows=[*sel, *used])

    # phi on the pivot arrows: v_pivot = c^-1 (delta(a) - other terms) |->
    # -c^-1 phi(other terms), so that delta(a) maps to zero; the triangular
    # system is solved pass by pass, each pass solving at least one pivot.
    same, fixed = _fixed_letters(b, tgt, {}, {})
    phi = _generator_images(b, tgt, {}, fixed)
    pending = {pivots[a]: images[a] for a in pivots}
    for _ in range(len(pending)):
        for vp, img in list(pending.items()):
            piv = Word(b.arrow(vp).source, (vp,), (UNIT, UNIT))
            rest = {w: c for w, c in img.terms.items() if w != piv}
            if any(w.arrows[0] in pending for w in rest):
                continue
            phi[vp] = _map_elem(b, tgt, phi, Elem(b, rest), same, fixed).scale(
                F.neg(F.inv(img.terms[piv])))
            del pending[vp]
    if pending:
        raise ReductionError("could not triangularize the dashed base change")
    return induced_reduction(dit, tgt, {vp: phi[vp] for vp in pivots.values()},
                             name=name or f"{dit.name}^r", kind="regularization")


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
            if not membership_in_ideal_window(dit, dg, 1, middle=sel_elems):
                raise ReductionError(f"delta({s}) is not inside A W0' V + V W0' A")
    return induced_reduction(dit, b.without(arrows=sel), {}, name=name or f"{dit.name}^q",
                             kind="factor_out")


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
    x_elem = Elem.decorated(tgt, point, tgt.factor_ring(point).from_poly(Poly.x(b.field)))
    new_dit = _pushforward(dit, tgt, {loop_arrow: x_elem}, name or f"{dit.name}^a")

    # N's matrices are reinterpreted as they are, which is cheaper than the
    # generic phi^* of `induced_reduction`
    def apply_rep(N: Rep) -> Rep:
        arrow_ops = {a.name: N.point_ops[point] if a.name == loop_arrow else
                     N.arrow_ops[a.name] for a in b.solid_arrows()}
        point_ops = {p: N.point_ops[p] for p in b.point_order if not b.factor(p).is_trivial}
        return Rep(dit, dict(N.dims), arrow_ops, point_ops, ring=N.ring)

    functor = ReductionFunctor(kind="absorption", source=dit, target=new_dit,
                               apply_rep=apply_rep)
    return new_dit, functor


# -- source detachment ------------------------------------------------------------


def is_source_point(dit: Dit, point: str) -> bool:
    """Source of (A, I): trivial factor, no incoming arrows, e0 not in I.
    With no arrow into the point there is no loop or cycle through it, so
    `point_in_ideal` decides e0 in I exactly."""
    b = dit.bigraph
    return (b.factor(point).is_trivial and not b.arrows_into(point)
            and not point_in_ideal(dit, point))


def detach_source(dit: Dit, point: str, name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Detachment of the source e0: the target is ke0 x (f T f) with the
    restricted differential and ideal; Res is restriction (f M plus the e0
    component as the one-point factor).  No ideal term survives at e0: it
    would be a multiple of e0, putting e0 in I, which `is_source_point`
    excludes."""
    b = dit.bigraph
    if not is_source_point(dit, point):
        raise ReductionError(f"{point} is not a source of (A, I)")
    # a source has no arrow into it
    tgt = b.without(arrows=[a.name for a in b.arrows_from(point)])
    new_dit = _pushforward(dit, tgt, {}, name or f"{dit.name}^o")

    def res_rep(M: Rep) -> Rep:
        return Rep(new_dit, dict(M.dims),
                   {a.name: M.arrow_ops[a.name] for a in tgt.solid_arrows()},
                   {p: M.point_ops[p] for p in tgt.point_order if not tgt.factor(p).is_trivial},
                   ring=M.ring)

    functor = ReductionFunctor(kind="detachment", source=dit, target=new_dit,
                               apply_rep=res_rep)
    return new_dit, functor


# -- structural equality and source commutation ---------------------------------


def _relabel(elem: Elem, tgt: Bigraph) -> Elem:
    return Elem(tgt, {Word(w.start, w.arrows, w.coeffs): c for w, c in elem.terms.items()})


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
    g1 = [_relabel(g, b2) for g in d1.ideal.generators]
    g2 = d2.ideal.generators
    for g in g1:
        if not in_span(g2, g) and not g.is_zero():
            return False
    for g in g2:
        if not in_span(g1, g) and not g.is_zero():
            return False
    return True


@dataclass
class StepSpec:
    """Construction data of a single reduction step, replayable on any dit
    that carries the referenced generators (used for the source-detachment
    commutation and for lifting a deleted-side plan to the full dit).  The
    data names generators and holds field elements, polynomials and RepData
    only, never an element of a particular dit:

    deletion {"kept"}, regularization {"solid"}, factor_out {"solid"},
    absorption {"loop"}, admissible {"b_arrows", "findim", "regular",
    "check"}, basechange {"source", "target", "arrows": [(name, [Poly per
    old arm arrow])]} (see `change_solid_basis`)."""

    kind: str
    data: dict

    def apply(self, dit: Dit, name: str = ""):
        if self.kind == "deletion":
            return delete_idempotents(dit, self.data["kept"], name=name)
        if self.kind == "regularization":
            return regularize(dit, self.data["solid"], name=name)
        if self.kind == "factor_out":
            return factor_out(dit, self.data["solid"], name=name)
        if self.kind == "absorption":
            return absorb(dit, self.data["loop"], name=name)
        if self.kind == "admissible":
            from .admissible import build_admissible, reduce_admissible

            adm = build_admissible(dit, self.data["b_arrows"],
                                   findim=self.data.get("findim", ()),
                                   regular=self.data.get("regular", ()),
                                   check=self.data.get("check", True))
            return reduce_admissible(dit, adm, name=name)
        if self.kind == "basechange":
            return change_solid_basis(dit, self.data["source"], self.data["target"],
                                      self.data["arrows"], name=name)
        raise ReductionError(f"unknown step kind {self.kind}")

    def lifted_over_source(self, source_point: str) -> "StepSpec":
        """The corresponding step on a dit that still carries the source
        point: deletions keep it; admissible steps gain the k e0 summand;
        every other kind is unchanged."""
        if self.kind == "deletion":
            return StepSpec("deletion", {"kept": list(self.data["kept"]) + [source_point]})
        if self.kind == "admissible":
            data = dict(self.data)
            data["regular"] = list(data.get("regular", ())) + [
                (source_point, source_point, ())]
            return StepSpec("admissible", data)
        return StepSpec(self.kind, dict(self.data))


class RepData(NamedTuple):
    """Portable data of a B-representation for StepSpec: `build_admissible`
    hosts it on the B presentation of the dit the step is applied to."""
    dims: Dict[str, int]
    arrow_ops: Dict[str, Mat]
    point_ops: Dict[str, Mat]


def rep_spec(rep: Rep) -> RepData:
    return RepData(dict(rep.dims), dict(rep.arrow_ops), dict(rep.point_ops))


# -- base change of a solid arm ---------------------------------------------------


def change_solid_basis(dit: Dit, source_point: str, target_point: str,
                       arrows: Sequence[Tuple[str, Sequence[Poly]]],
                       name: str = "") -> Tuple[Dit, ReductionFunctor]:
    """Replace the solid arrows from source_point to target_point, in arm
    order, by the named arrows new_i = sum_j C[i][j] old_j, where `arrows`
    gives each new name with its row of C: one polynomial of the arm ring
    (the factor ring of the arm's rational end) per old arrow.  C must be
    invertible over that ring.  All differential values and ideal generators
    are rewritten.  This is an isomorphism of presentations (a unimodular
    change of the generator basis of one arm of W0)."""
    b = dit.bigraph
    F = b.field
    old = [a.name for a in b.solid_arrows()
           if a.source == source_point and a.target == target_point]
    if len(arrows) != len(old) or any(len(row) != len(old) for _, row in arrows):
        raise ReductionError("base change must preserve the arm rank")
    rational = [p for p in (source_point, target_point) if not b.factor(p).is_trivial]
    if len(rational) > 1:
        raise ReductionError("bivariate arm base change is unsupported")
    if not rational and any(not c.is_constant() for _, row in arrows for c in row):
        raise ReductionError("a trivial arm takes only constant coefficients")
    ring = b.factor_ring(rational[0]) if rational else LocalizedRing(F, ())
    at_source = rational == [source_point]
    C = Mat(ring, len(old), len(old), [[ring.from_poly(c) for c in row] for _, row in arrows])
    Cinv = C.inverse()
    if Cinv is None:
        raise ReductionError("base change matrix is not invertible over the arm ring")
    tgt = Bigraph(F, [(p, b.factor(p)) for p in b.point_order],
                  solid=[(a.name, a.source, a.target) for a in b.solid_arrows()
                         if a.name not in set(old)]
                        + [(nm, source_point, target_point) for nm, _ in arrows],
                  dashed=[(a.name, a.source, a.target) for a in b.dashed_arrows()])

    def combination(bg: Bigraph, names: Sequence[str], coeffs: Sequence[LocElt]) -> Elem:
        """sum_j coeffs[j] names[j], each coefficient at the rational end."""
        return Elem(bg, {Word(source_point, (nm,), (key, UNIT) if at_source else (UNIT, key)): c
                         for nm, v in zip(names, coeffs) for key, c in decompose_locelt(ring, v)})

    new = [nm for nm, _ in arrows]
    lifts = {nm: combination(b, old, C.data[i]) for i, nm in enumerate(new)}
    phi = {o: combination(tgt, new, Cinv.data[j]) for j, o in enumerate(old)}
    # delta'(new_i) = phi(delta(sum_j C[i][j] old_j))
    return induced_reduction(dit, tgt, phi, name=name or f"{dit.name}~",
                             kind="basechange", lifts=lifts)
