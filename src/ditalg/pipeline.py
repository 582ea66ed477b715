"""Bounded-dimension reduction driver: source recursion with detachment
lifting, the stellar phase, the generic seminested loop, classification of
indecomposables up to a dimension bound, and emission of the parametrizing
bimodules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .admissible import build_admissible, reduce_admissible, recompute_triangular_filtrations
from .bigraph import Bigraph, Factor
from .bimodule import generic_regular, push_generic
from .interlace import Dit, certify, membership_in_ideal_window
from .modcat import (
    ModcatError, Rep, decompose, hom_dim, is_indecomposable, iso_test, jordan_at,
    simple_at,
)
from .reduce import (
    ReductionError, ReductionFunctor, StepSpec, absorb, change_solid_basis,
    compose_functors, delete_idempotents, detach_source, factor_out,
    regularize, rep_spec,
)
from .scalars import (
    LocalizedRing, LocElt, ModulePresentation, Poly, factor as poly_factor,
    localize_to_free, strip_h_factors,
)
from .scalars.linalg import Mat
from .tensor import Elem, UNIT, Word


class PipelineError(ValueError):
    pass


@dataclass
class Obstruction:
    reason: str
    dit: Dit
    steps: List["PlanStep"] = field(default_factory=list)

    def __str__(self):
        return f"Obstruction({self.reason}; stuck at {self.dit!r})"


@dataclass
class PlanStep:
    spec: Optional[StepSpec]
    functor: ReductionFunctor
    note: str = ""


@dataclass
class ReductionPlan:
    source: Dit
    steps: List[PlanStep]
    final: Dit
    dimension_bound: int
    budget_used: int = 0

    def composite(self) -> Optional[ReductionFunctor]:
        if not self.steps:
            return None
        return compose_functors([s.functor for s in self.steps])

    def apply(self, N: Rep) -> Rep:
        comp = self.composite()
        return N if comp is None else comp.apply_rep(N)

    def log(self) -> List[str]:
        return [f"{i}: {s.functor.kind} ({s.note})" for i, s in enumerate(self.steps)]


def is_minimal(dit: Dit) -> bool:
    return not dit.bigraph.solid_arrows() and dit.ideal.is_zero()


# -- ideal shape helpers ---------------------------------------------------------


def point_in_ideal(dit: Dit, p: str) -> bool:
    """e_p lies in I iff the length-zero (p, p) part of the generators spans a
    unit ideal of the point factor (word lengths add, so only length-zero
    generator parts can witness an idempotent)."""
    b = dit.bigraph
    F = b.field
    ring = b.factor_ring(p)
    from .tensor import key_to_locelt
    from .scalars import LocalizedRing

    use_ring = ring if ring is not None else LocalizedRing(F, ())
    acc = Poly.zero(F)
    for g in dit.ideal.generators:
        comp = g.component(p, p)
        for w, c in comp.terms.items():
            if w.length() != 0:
                continue
            e = key_to_locelt(use_ring, w.coeffs[0])
            acc = acc.gcd(e.num.scale(c))
    if acc.is_zero():
        return False
    return strip_h_factors(acc, use_ring.h).is_constant()


def ideal_point_polynomial(dit: Dit, p: str) -> Optional[Poly]:
    """Generator of the (p, p) ring part of I at a rational point: the gcd of
    the length-zero components of the ideal generators, inverted factors
    stripped; None when that part vanishes."""
    b = dit.bigraph
    ring = b.factor_ring(p)
    if ring is None:
        return None
    vals = []
    for g in dit.ideal.generators:
        comp = g.component(p, p)
        for w, c in comp.terms.items():
            if w.length() != 0:
                raise PipelineError("mixed-length ideal component at a point")
            from .tensor import key_to_locelt

            e = key_to_locelt(ring, w.coeffs[0])
            vals.append(LocElt(ring, e.num.scale(c), e.den_exp))
    if not vals:
        return None
    acc = Poly.zero(b.field)
    for v in vals:
        acc = acc.gcd(v.num)
    acc = strip_h_factors(acc, ring.h)
    if acc.is_constant():
        # a unit: the whole point dies; treat as the idempotent case upstream
        return Poly.one(b.field)
    return acc.monic()


def torsion_blocks(F, h: Poly, ring: LocalizedRing, bound: int) -> List[Tuple[str, Poly]]:
    """Indecomposable modules of k[x]_g/(h^bound): companion blocks of
    irreducible powers pi^s with pi | h, s <= bound * multiplicity."""
    out = []
    for pi, mult in poly_factor(h):
        if not strip_h_factors(pi, ring.h).is_constant():
            for s in range(1, bound * mult + 1):
                out.append((f"{pi}^{s}", pi ** s))
    return out


def companion_rep(dit: Dit, point: str, modulus: Poly) -> Rep:
    """k[x]/(modulus) as a representation concentrated at a rational point."""
    F = dit.field
    n = modulus.degree
    dims = {p: (n if p == point else 0) for p in dit.bigraph.point_order}
    r = Rep(dit, dims)
    X = Mat(F, n, n)
    for i in range(1, n):
        X.data[i][i - 1] = F.one
    for i in range(n):
        X.data[i][n - 1] = F.neg(modulus.coeff(i))
    r.point_ops[point] = X
    err = r.validate()
    if err:
        raise PipelineError(f"companion block invalid: {err}")
    return r


# -- the stellar phase -------------------------------------------------------------


def stellar_center(dit: Dit) -> Optional[str]:
    solids = dit.bigraph.solid_arrows()
    if not solids:
        return None
    sources = {a.source for a in solids}
    if len(sources) != 1:
        return None
    return next(iter(sources))


def _fresh(ctx: dict, base: str) -> str:
    ctx.setdefault("counter", 0)
    ctx["counter"] += 1
    return f"{base}{ctx['counter']}"


def _spend(ctx: dict, n: int = 1):
    ctx["budget"] -= n
    if ctx["budget"] < 0:
        raise _BudgetExhausted()


class _BudgetExhausted(Exception):
    pass


def _admissible_step(dit: Dit, b_arrows, findim_reps, regular_specs, ctx,
                     note: str) -> Tuple[Dit, PlanStep]:
    spec = StepSpec("admissible", {
        "b_arrows": list(b_arrows),
        "findim": [(lbl, rep_spec(r)) for lbl, r in findim_reps],
        "regular": list(regular_specs),
        "check": False,
    })
    adm = build_admissible(dit, list(b_arrows),
                           findim=list(findim_reps), regular=list(regular_specs),
                           check=False)
    nd, f = reduce_admissible(dit, adm, name=_fresh(ctx, f"{dit.name}.X"))
    _spend(ctx)
    return nd, PlanStep(spec, f, note)


def stellar_to_seminested(dit: Dit, d: int, ctx: dict) -> Tuple[List[PlanStep], Dit]:
    """The stellar induction: delete ideal idempotents; case 1 reduces the
    rational points meeting the ideal with the finite-representation-type
    module; case 2 localizes the arms, base-changes the ideal into a direct
    summand of W0, and factors it out."""
    steps: List[PlanStep] = []
    cur = dit
    guard = 0
    while True:
        guard += 1
        if guard > 60:
            raise PipelineError("stellar phase failed to make progress")
        b = cur.bigraph
        if cur.ideal.is_zero():
            return steps, cur
        # idempotents inside I die first
        dead = [p for p in b.point_order if point_in_ideal(cur, p)]
        if dead:
            kept = [p for p in b.point_order if p not in set(dead)]
            nd, f = delete_idempotents(cur, kept, name=_fresh(ctx, f"{cur.name}.d"))
            _spend(ctx)
            steps.append(PlanStep(StepSpec("deletion", {"kept": kept}), f,
                                  f"delete ideal idempotents {dead}"))
            cur = nd
            continue
        # case 1: I meets a rational factor (no star structure required)
        case1 = {}
        for p in b.point_order:
            h0 = ideal_point_polynomial(cur, p)
            if h0 is not None and not h0.is_one():
                case1[p] = h0
        if case1:
            findim = []
            for p, h0 in case1.items():
                ring = b.factor_ring(p)
                for lbl, modulus in torsion_blocks(b.field, h0, ring, 1):
                    findim.append((_fresh(ctx, "z"), companion_rep(
                        _sub_b(cur, []), p, modulus)))
            regulars = []
            for p in b.point_order:
                if p not in case1:
                    regulars.append((_fresh(ctx, f"r_{p}_"), p, ()))
            cur, step = _admissible_step(cur, [], findim, regulars, ctx,
                                         f"case-1 torsion split at {sorted(case1)}")
            steps.append(step)
            continue

        center = stellar_center(cur)
        if center is None:
            if not cur.bigraph.solid_arrows():
                return steps, cur
            raise PipelineError("stellar phase requires a stellar presentation")

        # case 2: I cap R = 0, so I sits inside W0; make it a summand
        arm_data = {}
        needs_localization = []
        for p in b.point_order:
            if p == center:
                continue
            arm = [a.name for a in b.solid_arrows()
                   if a.source == center and a.target == p]
            if not arm:
                continue
            gen_cols, ring = _arm_ideal_columns(cur, center, p, arm)
            if not gen_cols:
                continue
            if ring is not None:
                pres = ModulePresentation.make(ring, len(arm), [])
                res = localize_to_free(pres, [gen_cols])
                if not res.h.is_one():
                    needs_localization.append((p, res.h))
                    continue
                arm_data[p] = (arm, res.layer_bases[0], res.layer_bases[1], ring)
            else:
                arm_data[p] = (arm, None, None, None)
        if needs_localization:
            findim = []
            for p, h in needs_localization:
                ring = b.factor_ring(p)
                for lbl, modulus in torsion_blocks(b.field, h, ring, d):
                    findim.append((_fresh(ctx, "z"), companion_rep(_sub_b(cur, []), p, modulus)))
            regulars = []
            for p in b.point_order:
                if p == center:
                    continue
                extra = [h for q, h in needs_localization if q == p]
                regulars.append((_fresh(ctx, f"r_{p}_"), p, tuple(extra)))
            regulars.append((center, center, ()))
            cur, step = _admissible_step(cur, [], findim, regulars, ctx,
                                         "case-2 localization "
                                         f"h = {[str(h) for _, h in needs_localization]}")
            steps.append(step)
            continue
        # base-change every arm so the ideal part is an arrow subset, then factor out
        ideal_arrows: List[str] = []
        changed = False
        for p, (arm, bi, bfull, ring) in arm_data.items():
            sel, nd, step = _arm_base_change(cur, center, p, arm, ring, ctx)
            if step is not None:
                steps.append(step)
                cur = nd
                changed = True
            ideal_arrows.extend(sel)
        if not ideal_arrows:
            return steps, cur
        nd, f = factor_out(cur, ideal_arrows, name=_fresh(ctx, f"{cur.name}.q"))
        _spend(ctx)
        steps.append(PlanStep(StepSpec("factor_out", {"solid": ideal_arrows}), f,
                              f"factor out the ideal arrows {ideal_arrows}"))
        cur = nd
        # after factoring out, the ideal is zero: loop exits on the next pass


def _sub_b(dit: Dit, arrows) -> Dit:
    from .admissible import _sub_bigraph_dit

    return _sub_bigraph_dit(dit, arrows)


def _arm_ideal_columns(dit: Dit, center: str, p: str, arm: List[str]):
    """Ideal generator components along one arm, as coefficient columns over
    the arm ring (None ring for a trivial arm point)."""
    b = dit.bigraph
    F = b.field
    ring = b.factor_ring(p)
    cols = []
    for g in dit.ideal.generators:
        comp = g.component(center, p)
        if comp.is_zero():
            continue
        col: Dict[str, LocElt] = {}
        use_ring = ring if ring is not None else LocalizedRing(F, ())
        for w, c in comp.terms.items():
            if w.length() != 1:
                raise PipelineError("stellar ideal with non-arm component")
            name = w.arrows[0]
            from .tensor import key_to_locelt

            e = key_to_locelt(use_ring, w.coeffs[1])
            if w.coeffs[0] != UNIT:
                raise PipelineError("decorated center side in a stellar ideal")
            col[name] = use_ring.add(col.get(name, use_ring.zero),
                                     LocElt(use_ring, e.num.scale(c), e.den_exp))
        # clear denominators into polynomial columns
        max_e = max((v.den_exp for v in col.values()), default=0)
        vec = []
        for a in arm:
            v = col.get(a)
            if v is None:
                vec.append(Poly.zero(F))
            else:
                vec.append(v.num * use_ring.h ** (max_e - v.den_exp))
        cols.append(vec)
    return cols, ring


def _arm_base_change(dit: Dit, center: str, p: str, arm: List[str], ring, ctx):
    """Base-change one arm so the ideal part becomes a leading arrow subset.
    Returns (ideal_arrow_names, new_dit, PlanStep-or-None)."""
    b = dit.bigraph
    F = b.field
    gen_cols, ring2 = _arm_ideal_columns(dit, center, p, arm)
    if not gen_cols:
        return [], dit, None
    use_ring = ring2 if ring2 is not None else LocalizedRing(F, ())
    pres = ModulePresentation.make(use_ring, len(arm), [])
    res = localize_to_free(pres, [gen_cols])
    if not res.h.is_one():
        raise PipelineError("arm still needs localization")
    basis_i = res.layer_bases[0]
    basis_full = res.layer_bases[1]
    # if the ideal part is already spanned by plain arrows, skip the base change
    plain = []
    for vec in basis_i:
        nz = [(i, c) for i, c in enumerate(vec) if not c.is_zero()]
        if len(nz) == 1 and nz[0][1].is_constant():
            plain.append(arm[nz[0][0]])
        else:
            plain = None
            break
    if plain is not None and len(plain) == len(basis_i):
        return plain, dit, None

    new_arrows = []
    sel_names = []
    for k, vec in enumerate(basis_full):
        nm = _fresh(ctx, f"{p}w")
        comb = Elem.zero(b)
        for i, c in enumerate(vec):
            if c.is_zero():
                continue
            if ring2 is None:
                comb = comb + Elem.arrow(b, arm[i], c.coeff(0))
            else:
                dec = Elem.decorated(b, p, LocElt(ring2, c, 0))
                comb = comb + dec * Elem.arrow(b, arm[i])
        new_arrows.append((nm, comb))
        if k < len(basis_i):
            sel_names.append(nm)
    nd, f = change_solid_basis(dit, center, p, new_arrows,
                               name=_fresh(ctx, f"{dit.name}.b"))
    _spend(ctx)
    step = PlanStep(None, f, f"arm base change at {p}")
    return sel_names, nd, step


# -- the generic seminested loop ------------------------------------------------------


def _prune_heavy_points(cur: Dit, d: int, ctx: dict, steps: List[PlanStep]) -> Dit:
    """Points whose simple already pulls back to dimension > d cannot support
    any module of bounded dimension: delete them.  This is what makes the
    bounded-dimension loop terminate."""
    heavy = [p for p in cur.bigraph.point_order
             if cur.point_weights.get(p, 1) > d]
    if not heavy:
        return cur
    kept = [p for p in cur.bigraph.point_order if p not in set(heavy)]
    nd, f = delete_idempotents(cur, kept, name=_fresh(ctx, f"{cur.name}.w"))
    _spend(ctx)
    steps.append(PlanStep(StepSpec("deletion", {"kept": kept}), f,
                          f"prune points beyond the dimension bound: {heavy}"))
    return nd


def seminested_loop(dit: Dit, d: int, ctx: dict) -> Tuple[List[PlanStep], Dit]:
    """Priority order: regularize whatever regularizes (shrinks the layer),
    absorb delta-closed loops, and only then edge-reduce the minimal solid
    arrow (which grows the quiver before later steps shrink it again)."""
    steps: List[PlanStep] = []
    cur = dit
    while True:
        cur = _prune_heavy_points(cur, d, ctx, steps)
        b = cur.bigraph
        solids = b.solid_arrows()
        if not solids:
            return steps, cur
        recompute_triangular_filtrations(cur)
        level_of = {}
        for i, lv in enumerate(cur.layer.w0_levels):
            for n in lv:
                level_of.setdefault(n, i)
        ordered = sorted(solids, key=lambda a: (level_of.get(a.name, 0), a.name))

        # 1. regularization pass
        did = False
        for arr in ordered:
            dv = cur.delta.of_arrow(arr.name)
            if dv.is_zero() or any(w.length() != 1 for w in dv.terms):
                continue
            try:
                nd, f = regularize(cur, [arr.name], name=_fresh(ctx, f"{cur.name}.r"))
                _spend(ctx)
                steps.append(PlanStep(StepSpec("regularization", {"solid": [arr.name]}),
                                      f, f"regularize {arr.name}"))
                cur = nd
                did = True
                break
            except ReductionError:
                loc = _localization_for_pivot(cur, arr.name, dv)
                if loc is None:
                    continue
                point, h = loc
                cur, step = _localize_point(cur, point, h, d, ctx)
                steps.append(step)
                did = True
                break
        if did:
            continue

        # 2. absorb a delta-closed loop at a trivial point
        for arr in ordered:
            if arr.source == arr.target and cur.delta.of_arrow(arr.name).is_zero() \
                    and b.factor(arr.source).is_trivial:
                nd, f = absorb(cur, arr.name, name=_fresh(ctx, f"{cur.name}.a"))
                _spend(ctx)
                steps.append(PlanStep(StepSpec("absorption", {"loop": arr.name}), f,
                                      f"absorb loop {arr.name}"))
                cur = nd
                did = True
                break
        if did:
            continue

        # 3. edge-reduce the minimal delta-closed non-loop arrow
        pick = None
        for arr in ordered:
            if cur.delta.of_arrow(arr.name).is_zero() and arr.source != arr.target \
                    and b.factor(arr.source).is_trivial and b.factor(arr.target).is_trivial:
                pick = arr
                break
        if pick is None:
            rational_edges = [a.name for a in ordered
                              if not (b.factor(a.source).is_trivial
                                      and b.factor(a.target).is_trivial)]
            if rational_edges:
                raise PipelineError(
                    "seminested loop stalled: solid arrow(s) with a rational "
                    f"endpoint remain ({rational_edges[0][:60]}); edge reduction "
                    "over rational factors is outside the implemented calculus")
            raise PipelineError(
                "stuck: no regularizable, absorbable, or reducible solid arrow")
        cur, step = _edge_reduction(cur, pick.name, ctx)
        steps.append(step)


def _localization_for_pivot(dit: Dit, arrow: str, dv: Elem):
    """Find (point, h) whose inversion turns some delta-term coefficient into
    a unit."""
    b = dit.bigraph
    for w, c in dv.terms.items():
        if w.length() != 1:
            continue
        for pos, point in ((0, w.start), (1, w.end(b))):
            key = w.coeffs[pos]
            if key == UNIT:
                continue
            ring = b.factor_ring(point)
            if ring is None:
                continue
            a, j = key
            if j == 0 and a > 0:
                return point, Poly.x(b.field)
    # fall back: invert the full numerator of some coefficient
    for w, c in dv.terms.items():
        for pos, point in ((0, w.start), (1, w.end(b))):
            key = w.coeffs[pos]
            ring = b.factor_ring(point)
            if ring is not None and key != UNIT:
                from .tensor import key_to_locelt

                e = key_to_locelt(ring, key)
                h = strip_h_factors(e.num, ring.h)
                if not h.is_constant():
                    return point, h.monic()
    return None


def _localize_point(dit: Dit, point: str, h: Poly, d: int, ctx) -> Tuple[Dit, PlanStep]:
    """Invert h at a rational point, keeping bounded-dimension coverage by
    adjoining the torsion blocks of h^d."""
    b = dit.bigraph
    ring = b.factor_ring(point)
    findim = []
    for lbl, modulus in torsion_blocks(b.field, h, ring, d):
        findim.append((_fresh(ctx, "z"), companion_rep(_sub_b(dit, []), point, modulus)))
    regulars = []
    for p in b.point_order:
        extra = (h,) if p == point else ()
        regulars.append((_fresh(ctx, f"r_{p}_"), p, extra))
    nd, step = _admissible_step(dit, [], findim, regulars, ctx,
                                f"localize {point} at {h}")
    return nd, step


def _edge_reduction(dit: Dit, arrow: str, ctx) -> Tuple[Dit, PlanStep]:
    b = dit.bigraph
    arr = b.arrow(arrow)
    b_dit = _sub_b(dit, [arrow])
    s1 = simple_at(b_dit, arr.source)
    s2 = simple_at(b_dit, arr.target)
    p1 = Rep(b_dit, {p: (1 if p in (arr.source, arr.target) else 0)
                     for p in b.point_order})
    p1.arrow_ops[arrow] = Mat(b.field, 1, 1, [[b.field.one]])
    findim = [(_fresh(ctx, "s"), s1), (_fresh(ctx, "s"), s2), (_fresh(ctx, "e"), p1)]
    regulars = []
    for p in b.point_order:
        if p not in (arr.source, arr.target):
            regulars.append((_fresh(ctx, f"r_{p}_"), p, ()))
    spec = StepSpec("admissible", {
        "b_arrows": [arrow],
        "findim": [(lbl, rep_spec(r)) for lbl, r in findim],
        "regular": regulars,
        "check": False,
    })
    adm = build_admissible(dit, [arrow], findim=findim, regular=regulars, check=False)
    nd, f = reduce_admissible(dit, adm, name=_fresh(ctx, f"{dit.name}.X"))
    _spend(ctx)
    return nd, PlanStep(spec, f, f"edge reduction at {arrow}")


# -- the main driver -------------------------------------------------------------------


def reduce_to_minimal(dit: Dit, d: int, budget: int = 200):
    """Theorem-driver: source detachment recursion, stellar phase, seminested
    loop.  Returns (ReductionPlan, minimal Dit) or an Obstruction."""
    ctx = {"budget": budget, "counter": 0}
    try:
        steps, final = _reduce_rec(dit, d, ctx)
    except _BudgetExhausted:
        return Obstruction("budget exhausted", dit)
    except PipelineError as exc:
        return Obstruction(str(exc), dit)
    plan = ReductionPlan(source=dit, steps=steps, final=final, dimension_bound=d,
                         budget_used=budget - ctx["budget"])
    return plan, final


def _reduce_rec(dit: Dit, d: int, ctx: dict) -> Tuple[List[PlanStep], Dit]:
    steps: List[PlanStep] = []
    cur = dit
    certify(cur)

    # ideal idempotents die first
    while True:
        dead = [p for p in cur.bigraph.point_order if point_in_ideal(cur, p)]
        if not dead:
            break
        kept = [p for p in cur.bigraph.point_order if p not in set(dead)]
        nd, f = delete_idempotents(cur, kept, name=_fresh(ctx, f"{cur.name}.d"))
        _spend(ctx)
        steps.append(PlanStep(StepSpec("deletion", {"kept": kept}), f,
                              f"delete ideal idempotents {dead}"))
        cur = nd

    if is_minimal(cur):
        return steps, cur
    if not cur.bigraph.solid_arrows():
        # armless presentation with an ideal: case 1 of the stellar phase
        st_steps, cur = stellar_to_seminested(cur, d, ctx)
        steps.extend(st_steps)
        loop_steps, cur = seminested_loop(cur, d, ctx)
        steps.extend(loop_steps)
        return steps, cur

    order = cur.bigraph.topological_order()
    if order is None:
        raise PipelineError("driver requires a directed presentation")
    source = None
    for p in order:
        if cur.bigraph.factor(p).is_trivial and not cur.bigraph.arrows_into(p):
            source = p
            break
    if source is None:
        raise PipelineError("no source point available")

    if len(cur.bigraph.point_order) > 1:
        deleted, _ = delete_idempotents(
            cur, [p for p in cur.bigraph.point_order if p != source],
            name=_fresh(ctx, f"{cur.name}.rec"))
        sub_steps, _sub_final = _reduce_rec(deleted, d, ctx)
        # lift the deleted-side plan over the source (section 8 commutations)
        for sub in sub_steps:
            if sub.spec is None:
                raise PipelineError("unliftable step in recursion")
            lifted = sub.spec.lifted_over_source(source)
            nd, f = lifted.apply(cur, name=_fresh(ctx, f"{cur.name}.l"))
            _spend(ctx)
            steps.append(PlanStep(lifted, f, f"lifted {sub.note}"))
            cur = nd

    # now every solid arrow starts at the source: the stellar phase
    if cur.bigraph.solid_arrows():
        center = stellar_center(cur)
        if center != source:
            raise PipelineError("reassembled presentation is not stellar at the source")
    st_steps, cur = stellar_to_seminested(cur, d, ctx)
    steps.extend(st_steps)
    loop_steps, cur = seminested_loop(cur, d, ctx)
    steps.extend(loop_steps)
    return steps, cur


# -- classification ----------------------------------------------------------------------


@dataclass
class Family:
    point: str
    inverted: Tuple[Poly, ...]
    bimodule: Rep
    sample_images: List[Tuple[object, Rep]] = field(default_factory=list)


@dataclass
class ClassificationReport:
    plan: ReductionPlan
    minimal: Dit
    indecomposables: List[Rep]
    families: List[Family]
    exceptional: List[Rep]
    brute_residue: Optional[List[Rep]] = None
    notes: List[str] = field(default_factory=list)

    def summary(self) -> List[str]:
        out = [f"minimal presentation: {len(self.minimal.bigraph.points)} points, "
               f"{len(self.plan.steps)} reduction steps"]
        for r in self.indecomposables:
            out.append(f"indecomposable dims {dict(r.dims)}")
        for fam in self.families:
            out.append(f"family at {fam.point}: Gamma = k[x] localized at "
                       f"{[str(p) for p in fam.inverted]}, rank {fam.bimodule.total_dim()}")
        for r in self.exceptional:
            out.append(f"exceptional dims {dict(r.dims)}")
        out.extend(self.notes)
        return out


def classify(dit: Dit, d: int, budget: int = 200,
             lambda_sample: Sequence = (), brute_force_residue: bool = True):
    """Classify indecomposables of total dimension <= d."""
    result = reduce_to_minimal(dit, d, budget)
    if isinstance(result, Obstruction):
        return result
    plan, minimal = result
    F = dit.field
    if not lambda_sample:
        lambda_sample = [F.from_int(i) for i in (0, 1, 2)]
    comp = plan.composite()

    def push(N: Rep) -> Rep:
        return N if comp is None else comp.apply_rep(N)

    mb = minimal.bigraph
    images: List[Rep] = []
    families: List[Family] = []
    for p in mb.point_order:
        fac = mb.factor(p)
        if fac.is_trivial:
            img = push(simple_at(minimal, p))
            if 0 < img.total_dim() <= d:
                images.append(img)
        else:
            ring = mb.factor_ring(p)
            gen = generic_regular(minimal, p)
            Z = gen if comp is None else push_generic(comp, gen)
            fam = Family(point=p, inverted=tuple(fac.inverted or ()), bimodule=Z)
            for lam in lambda_sample:
                if F.is_zero(ring.h.eval(lam)):
                    continue
                for t in range(1, d + 1):
                    try:
                        img = push(jordan_at(minimal, p, lam, t))
                    except ModcatError:
                        continue
                    if 0 < img.total_dim() <= d:
                        fam.sample_images.append(((lam, t), img))
            families.append(fam)

    # dedup everything shown
    shown: List[Rep] = []
    for img in images:
        if not any(iso_test(dit, img, s) for s in shown):
            shown.append(img)
    family_members: List[Rep] = []
    for fam in families:
        kept = []
        for key, img in fam.sample_images:
            if not any(iso_test(dit, img, s) for s in shown + family_members):
                kept.append((key, img))
                family_members.append(img)
        fam.sample_images = kept

    # sporadics outside every family are the report's exceptional modules;
    # without any one-parameter family the notion is empty
    if families:
        exceptional = [s for s in shown
                       if not any(iso_test(dit, s, m) for m in family_members
                                  if m.dim_vector() == s.dim_vector())]
    else:
        exceptional = []

    report = ClassificationReport(plan=plan, minimal=minimal,
                                  indecomposables=shown + family_members,
                                  families=families, exceptional=exceptional)

    if brute_force_residue and F.char and _brute_feasible(dit, d):
        residue = []
        all_classes = brute_force_indecomposables(dit, d)
        covered = report.indecomposables
        for cls in all_classes:
            if not any(iso_test(dit, cls, c) for c in covered if
                       c.dim_vector() == cls.dim_vector()):
                residue.append(cls)
        report.brute_residue = residue
        if residue:
            report.notes.append(
                f"{len(residue)} indecomposable class(es) outside the functor image "
                "(the finite exceptional set of the parametrization)")
    return report




def _brute_feasible(dit: Dit, d: int) -> bool:
    import itertools

    b = dit.bigraph
    pts = b.point_order
    worst = 0
    for dims in itertools.product(range(d + 1), repeat=len(pts)):
        if not 0 < sum(dims) <= d:
            continue
        dimmap = dict(zip(pts, dims))
        total = sum(dimmap[a.target] * dimmap[a.source] for a in b.solid_arrows())
        total += sum(dimmap[p] ** 2 for p in pts if not b.factor(p).is_trivial)
        worst = max(worst, total)
    return dit.field.char ** worst <= 10 ** 6


def brute_force_indecomposables(dit: Dit, d: int) -> List[Rep]:
    """Exhaustive enumeration of indecomposables with total dimension <= d
    over a finite field, up to isomorphism."""
    import itertools

    b = dit.bigraph
    F = dit.field
    pts = b.point_order
    classes: List[Rep] = []
    for dims in itertools.product(range(d + 1), repeat=len(pts)):
        if not 0 < sum(dims) <= d:
            continue
        dimmap = dict(zip(pts, dims))
        arrows = [a for a in b.solid_arrows()]
        shapes = [(dimmap[a.target], dimmap[a.source]) for a in arrows]
        rational = [p for p in pts if not b.factor(p).is_trivial]
        rshapes = [(dimmap[p], dimmap[p]) for p in rational]
        counts = [r * c for r, c in shapes] + [r * c for r, c in rshapes]
        total = sum(counts)
        if F.char ** total > 10 ** 6:
            raise PipelineError("brute force space too large")
        for vals in itertools.product(range(F.char), repeat=total):
            rep = Rep(dit, dict(dimmap))
            off = 0
            ok = True
            for a, (r, c) in zip(arrows, shapes):
                rep.arrow_ops[a.name] = Mat(F, r, c,
                                            [[F.from_int(vals[off + i * c + j])
                                              for j in range(c)] for i in range(r)])
                off += r * c
            for p, (r, c) in zip(rational, rshapes):
                rep.point_ops[p] = Mat(F, r, c,
                                       [[F.from_int(vals[off + i * c + j])
                                         for j in range(c)] for i in range(r)])
                off += r * c
            if rep.validate() is not None:
                continue
            if not is_indecomposable(dit, rep):
                continue
            if not any(iso_test(dit, rep, c) for c in classes
                       if c.dim_vector() == rep.dim_vector()):
                classes.append(rep)
    return classes
