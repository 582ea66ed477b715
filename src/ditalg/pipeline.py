"""Bounded-dimension reduction driver: source recursion with detachment
lifting, the stellar phase, the generic seminested loop, classification of
indecomposables up to a dimension bound, and emission of the parametrizing
bimodules.

Every plan step except an arm base change is applied through its
`StepSpec` (`_step`), the same path as the source lift and
`ditalg reduce --plan`; an arm base change has no spec and is recorded as
`PlanStep(None, ...)`."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .admissible import _sub_bigraph_dit
from .bimodule import generic_regular, push_generic
from .interlace import Dit, certify, level_order
from .modcat import DecomposableError, IsoClassIndex, ModcatError, Rep, jordan_at, simple_at
from .reduce import (
    ReductionError, ReductionFunctor, StepSpec, change_solid_basis, compose_functors,
    delete_idempotents, rep_spec,
)
from .scalars import (
    LocalizedRing, LocElt, ModulePresentation, Poly, factor as poly_factor,
    localize_to_free, strip_h_factors,
)
from .scalars.linalg import Mat
from .tensor import Elem, UNIT, key_to_locelt


class PipelineError(ValueError):
    pass


@dataclass
class Obstruction:
    """Why the reduction stopped, the presentation `dit` it stopped at, and
    the plan `steps` that lead there: from the input, or from the subproblem of
    the source-detachment recursion that was open when it stopped."""
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

    def log(self) -> List[str]:
        return [f"{i}: {s.functor.kind} ({s.note})" for i, s in enumerate(self.steps)]


def is_minimal(dit: Dit) -> bool:
    return not dit.bigraph.solid_arrows() and dit.ideal.is_zero()


# -- ideal shape helpers ---------------------------------------------------------


def _point_ideal_gcd(dit: Dit, p: str, ring: LocalizedRing) -> Tuple[Poly, bool]:
    """The gcd of the numerators of the length-zero (p, p) parts of the ideal
    generators, each part summed in `ring` first, and whether a longer (p, p)
    word occurs."""
    acc, longer = Poly.zero(dit.field), False
    for g in dit.ideal.generators:
        part = ring.zero
        for w, c in g.component(p, p).terms.items():
            if w.length() != 0:
                longer = True
            else:
                part = ring.add(part, ring.mul(ring.embed(c), key_to_locelt(ring, w.coeffs[0])))
        if not ring.is_zero(part):
            acc = acc.gcd(part.num)
    return acc, longer


def point_in_ideal(dit: Dit, p: str) -> bool:
    """e_p lies in I iff the length-zero (p, p) part of the generators spans a
    unit ideal of the point factor (word lengths add, so only length-zero
    generator parts can witness an idempotent)."""
    ring = dit.bigraph.factor_ring(p) or LocalizedRing(dit.field, ())
    acc, _ = _point_ideal_gcd(dit, p, ring)
    return not acc.is_zero() and strip_h_factors(acc, ring.h).is_constant()


def ideal_point_polynomial(dit: Dit, p: str) -> Optional[Poly]:
    """Generator of the (p, p) ring part of I at a rational point: the gcd of
    the length-zero components of the ideal generators, inverted factors
    stripped; None when that part vanishes."""
    ring = dit.bigraph.factor_ring(p)
    if ring is None:
        return None
    acc, longer = _point_ideal_gcd(dit, p, ring)
    if longer:
        raise PipelineError("mixed-length ideal component at a point")
    if acc.is_zero():
        return None
    acc = strip_h_factors(acc, ring.h)
    # a unit: the whole point dies; treat as the idempotent case upstream
    return Poly.one(dit.field) if acc.is_constant() else acc.monic()


def torsion_blocks(h: Poly, ring: LocalizedRing, bound: int) -> List[Poly]:
    """Indecomposable modules of k[x]_g/(h^bound): companion blocks of
    irreducible powers pi^s with pi | h, s <= bound * multiplicity."""
    out = []
    for pi, mult in poly_factor(h):
        if not strip_h_factors(pi, ring.h).is_constant():
            for s in range(1, bound * mult + 1):
                out.append(pi ** s)
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


def _open_steps(ctx: dict, start: Optional[Dit] = None) -> List[PlanStep]:
    """A fresh step list for one phase, kept on ctx's stack of open phases
    until `_close_steps`.  A phase that raises leaves it there for
    `_stopped_at`.  `start` marks a recursion level with that input: its
    steps begin a new chain instead of continuing the caller's."""
    steps: List[PlanStep] = []
    ctx.setdefault("open", []).append((start, steps))
    return steps


def _close_steps(ctx: dict, steps: List[PlanStep]) -> List[PlanStep]:
    assert ctx["open"].pop()[1] is steps
    return steps


def _stopped_at(ctx: dict, dit: Dit) -> Tuple[Dit, List[PlanStep]]:
    """The presentation a failed reduction stopped at and the steps leading
    to it from the input of the innermost open recursion level."""
    start, steps = dit, []
    for level, phase_steps in ctx.get("open", []):
        if level is not None:
            start, steps = level, []
        steps = steps + phase_steps
    return (steps[-1].functor.target if steps else start), steps


def _step(ctx: dict, steps: List[PlanStep], cur: Dit, spec: StepSpec, suffix: str,
          note: str) -> Dit:
    """Apply `spec` to `cur` as the next plan step, named `cur.name + suffix`
    and a fresh number; raises what `StepSpec.apply` raises before spending."""
    nd, f = spec.apply(cur, name=_fresh(ctx, cur.name + suffix))
    _spend(ctx)
    steps.append(PlanStep(spec, f, note))
    return nd


def _delete_dead_points(ctx: dict, steps: List[PlanStep], cur: Dit) -> Dit:
    """Delete the points whose idempotent lies in I until none does."""
    while True:
        dead = [p for p in cur.bigraph.point_order if point_in_ideal(cur, p)]
        if not dead:
            return cur
        kept = [p for p in cur.bigraph.point_order if p not in dead]
        cur = _step(ctx, steps, cur, StepSpec("deletion", {"kept": kept}), ".d",
                    f"delete ideal idempotents {dead}")


def _torsion_step(ctx: dict, steps: List[PlanStep], cur: Dit, blocks, regular,
                  note: str, center: Optional[str] = None) -> Dit:
    """One admissible step with no B-arrows: the companion blocks of the
    torsion modules of h^bound at each (point, h, bound) of `blocks`, a
    regular summand at each (point, inverted) of `regular` with the extra
    inverted polynomials, and the untouched `center`."""
    sub = _sub_bigraph_dit(cur, [])
    findim = [(_fresh(ctx, "z"), rep_spec(companion_rep(sub, p, modulus)))
              for p, h, bound in blocks
              for modulus in torsion_blocks(h, cur.bigraph.factor_ring(p), bound)]
    regulars = [(_fresh(ctx, f"r_{p}_"), p, inverted) for p, inverted in regular]
    if center is not None:
        regulars.append((center, center, ()))
    spec = StepSpec("admissible", {"b_arrows": [], "findim": findim, "regular": regulars,
                                   "check": False})
    return _step(ctx, steps, cur, spec, ".X", note)


def stellar_to_seminested(dit: Dit, d: int, ctx: dict) -> Tuple[List[PlanStep], Dit]:
    """The stellar induction: delete ideal idempotents; case 1 reduces the
    rational points meeting the ideal with the finite-representation-type
    module; case 2 localizes the arms, base-changes the ideal into a direct
    summand of W0, and factors it out."""
    steps = _open_steps(ctx)
    cur = dit
    guard = 0
    while True:
        guard += 1
        if guard > 60:
            raise PipelineError("stellar phase failed to make progress")
        # idempotents inside I die first
        cur = _delete_dead_points(ctx, steps, cur)
        if cur.ideal.is_zero():
            return _close_steps(ctx, steps), cur
        b = cur.bigraph
        # case 1: I meets a rational factor (no star structure required)
        case1 = {}
        for p in b.point_order:
            h0 = ideal_point_polynomial(cur, p)
            if h0 is not None and not h0.is_one():
                case1[p] = h0
        if case1:
            cur = _torsion_step(ctx, steps, cur, [(p, h0, 1) for p, h0 in case1.items()],
                                [(p, ()) for p in b.point_order if p not in case1],
                                f"case-1 torsion split at {sorted(case1)}")
            continue

        center = stellar_center(cur)
        if center is None:
            if not cur.bigraph.solid_arrows():
                return _close_steps(ctx, steps), cur
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
            pres = ModulePresentation.make(ring or LocalizedRing(b.field, ()), len(arm), [])
            res = localize_to_free(pres, [gen_cols])
            if not res.h.is_one():
                needs_localization.append((p, res.h))
            else:
                arm_data[p] = (arm, ring, res.layer_bases)
        if needs_localization:
            cur = _torsion_step(
                ctx, steps, cur, [(p, h, d) for p, h in needs_localization],
                [(p, tuple(h for q, h in needs_localization if q == p))
                 for p in b.point_order if p != center],
                f"case-2 localization h = {[str(h) for _, h in needs_localization]}",
                center=center)
            continue
        # base-change every arm so the ideal part is an arrow subset, then factor out
        ideal_arrows: List[str] = []
        for p, (arm, ring, bases) in arm_data.items():
            sel, cur = _arm_base_change(ctx, steps, cur, center, p, arm, ring, bases)
            ideal_arrows.extend(sel)
        if not ideal_arrows:
            return _close_steps(ctx, steps), cur
        cur = _step(ctx, steps, cur, StepSpec("factor_out", {"solid": ideal_arrows}), ".q",
                    f"factor out the ideal arrows {ideal_arrows}")
        # after factoring out, the ideal is zero: loop exits on the next pass


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


def _arm_base_change(ctx: dict, steps: List[PlanStep], dit: Dit, center: str, p: str,
                     arm: List[str], ring, bases) -> Tuple[List[str], Dit]:
    """Base-change one arm so the ideal part becomes a leading arrow subset,
    given the localized bases (ideal part, whole arm) of the arm's ideal
    columns.  Returns (ideal_arrow_names, new_dit); a base change is recorded
    with no spec."""
    b = dit.bigraph
    basis_i, basis_full = bases
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
        return plain, dit

    new_arrows = []
    sel_names = []
    for k, vec in enumerate(basis_full):
        nm = _fresh(ctx, f"{p}w")
        comb = Elem.zero(b)
        for i, c in enumerate(vec):
            if c.is_zero():
                continue
            if ring is None:
                comb = comb + Elem.arrow(b, arm[i], c.coeff(0))
            else:
                dec = Elem.decorated(b, p, LocElt(ring, c, 0))
                comb = comb + dec * Elem.arrow(b, arm[i])
        new_arrows.append((nm, comb))
        if k < len(basis_i):
            sel_names.append(nm)
    nd, f = change_solid_basis(dit, center, p, new_arrows,
                               name=_fresh(ctx, f"{dit.name}.b"))
    _spend(ctx)
    steps.append(PlanStep(None, f, f"arm base change at {p}"))
    return sel_names, nd


# -- the generic seminested loop ------------------------------------------------------


def _prune_heavy_points(cur: Dit, d: int, ctx: dict, steps: List[PlanStep]) -> Dit:
    """Points whose simple already pulls back to dimension > d cannot support
    any module of bounded dimension: delete them.  This is what makes the
    bounded-dimension loop terminate."""
    heavy = [p for p in cur.bigraph.point_order
             if cur.point_weights.get(p, 1) > d]
    if not heavy:
        return cur
    kept = [p for p in cur.bigraph.point_order if p not in heavy]
    return _step(ctx, steps, cur, StepSpec("deletion", {"kept": kept}), ".w",
                 f"prune points beyond the dimension bound: {heavy}")


def seminested_loop(dit: Dit, d: int, ctx: dict) -> Tuple[List[PlanStep], Dit]:
    """Priority order: regularize whatever regularizes (shrinks the layer),
    absorb delta-closed loops, and only then edge-reduce the minimal solid
    arrow (which grows the quiver before later steps shrink it again)."""
    steps = _open_steps(ctx)
    cur = dit
    while True:
        cur = _prune_heavy_points(cur, d, ctx, steps)
        b = cur.bigraph
        if not b.solid_arrows():
            return _close_steps(ctx, steps), cur
        ordered = [b.arrow(n) for new in level_order(cur.levels[0]) for n in new]

        # 1. regularization pass
        did = False
        for arr in ordered:
            dv = cur.delta.of_arrow(arr.name)
            if dv.is_zero() or any(w.length() != 1 for w in dv.terms):
                continue
            try:
                cur = _step(ctx, steps, cur,
                            StepSpec("regularization", {"solid": [arr.name]}), ".r",
                            f"regularize {arr.name}")
                did = True
                break
            except ReductionError:
                loc = _localization_for_pivot(cur, arr.name, dv)
                if loc is None:
                    continue
                point, h = loc
                # invert h, keeping bounded-dimension coverage by adjoining
                # the torsion blocks of h^d
                cur = _torsion_step(ctx, steps, cur, [(point, h, d)],
                                    [(p, (h,) if p == point else ()) for p in b.point_order],
                                    f"localize {point} at {h}")
                did = True
                break
        if did:
            continue

        # 2. absorb a delta-closed loop at a trivial point
        for arr in ordered:
            if arr.source == arr.target and cur.delta.of_arrow(arr.name).is_zero() \
                    and b.factor(arr.source).is_trivial:
                cur = _step(ctx, steps, cur, StepSpec("absorption", {"loop": arr.name}),
                            ".a", f"absorb loop {arr.name}")
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
        cur = _edge_reduction(ctx, steps, cur, pick.name)


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
                e = key_to_locelt(ring, key)
                h = strip_h_factors(e.num, ring.h)
                if not h.is_constant():
                    return point, h.monic()
    return None


def _edge_reduction(ctx: dict, steps: List[PlanStep], dit: Dit, arrow: str) -> Dit:
    b = dit.bigraph
    arr = b.arrow(arrow)
    b_dit = _sub_bigraph_dit(dit, [arrow])
    s1 = simple_at(b_dit, arr.source)
    s2 = simple_at(b_dit, arr.target)
    p1 = Rep(b_dit, {p: (1 if p in (arr.source, arr.target) else 0)
                     for p in b.point_order})
    p1.arrow_ops[arrow] = Mat(b.field, 1, 1, [[b.field.one]])
    findim = [(_fresh(ctx, "s"), rep_spec(s1)), (_fresh(ctx, "s"), rep_spec(s2)),
              (_fresh(ctx, "e"), rep_spec(p1))]
    regulars = [(_fresh(ctx, f"r_{p}_"), p, ()) for p in b.point_order
                if p not in (arr.source, arr.target)]
    spec = StepSpec("admissible", {"b_arrows": [arrow], "findim": findim,
                                   "regular": regulars, "check": False})
    return _step(ctx, steps, dit, spec, ".X", f"edge reduction at {arrow}")


# -- the main driver -------------------------------------------------------------------


def reduce_to_minimal(dit: Dit, d: int, budget: int = 200):
    """Theorem-driver: source detachment recursion, stellar phase, seminested
    loop.  Returns (ReductionPlan, minimal Dit) or an Obstruction."""
    ctx = {"budget": budget, "counter": 0}
    try:
        steps, final = _reduce_rec(dit, d, ctx)
    except _BudgetExhausted:
        return Obstruction("budget exhausted", *_stopped_at(ctx, dit))
    except PipelineError as exc:
        return Obstruction(str(exc), *_stopped_at(ctx, dit))
    plan = ReductionPlan(source=dit, steps=steps, final=final, dimension_bound=d,
                         budget_used=budget - ctx["budget"])
    return plan, final


def _reduce_rec(dit: Dit, d: int, ctx: dict) -> Tuple[List[PlanStep], Dit]:
    steps = _open_steps(ctx, start=dit)
    certify(dit)
    # ideal idempotents die first
    cur = _delete_dead_points(ctx, steps, dit)

    if is_minimal(cur):
        return _close_steps(ctx, steps), cur
    if not cur.bigraph.solid_arrows():
        # armless presentation with an ideal: case 1 of the stellar phase
        st_steps, cur = stellar_to_seminested(cur, d, ctx)
        steps.extend(st_steps)
        loop_steps, cur = seminested_loop(cur, d, ctx)
        steps.extend(loop_steps)
        return _close_steps(ctx, steps), cur

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
            cur = _step(ctx, steps, cur, sub.spec.lifted_over_source(source), ".l",
                        f"lifted {sub.note}")

    # now every solid arrow starts at the source: the stellar phase
    if cur.bigraph.solid_arrows():
        center = stellar_center(cur)
        if center != source:
            raise PipelineError("reassembled presentation is not stellar at the source")
    st_steps, cur = stellar_to_seminested(cur, d, ctx)
    steps.extend(st_steps)
    loop_steps, cur = seminested_loop(cur, d, ctx)
    steps.extend(loop_steps)
    return _close_steps(ctx, steps), cur


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
    index = IsoClassIndex(dit)
    shown = [img for img in images if index.add(img)]
    family_members: List[Rep] = []
    for fam in families:
        fam.sample_images = [(key, img) for key, img in fam.sample_images if index.add(img)]
        family_members += [img for _, img in fam.sample_images]

    # sporadics outside every family are the report's exceptional modules;
    # without any one-parameter family the notion is empty.  A family member
    # was kept only when isomorphic to no shown module, so every shown module
    # lies outside every family.
    exceptional = list(shown) if families else []

    report = ClassificationReport(plan=plan, minimal=minimal,
                                  indecomposables=shown + family_members,
                                  families=families, exceptional=exceptional)

    if brute_force_residue and F.char and _brute_feasible(dit, d):
        residue = [cls for cls in brute_force_indecomposables(dit, d)
                   if index.find(cls) is None]
        report.brute_residue = residue
        if residue:
            report.notes.append(
                f"{len(residue)} indecomposable class(es) outside the functor image "
                "(not exceptional: the families are specialized only at Jordan "
                "blocks of the sampled eigenvalues)")
    return report


def _shapes(dit: Dit, d: int):
    """Each dimension vector of total dimension 1..d, with one
    (at_point, name, rows, cols) slot per solid arrow's matrix and per
    rational point's operator."""
    b = dit.bigraph
    pts = b.point_order
    arrows = b.solid_arrows()
    rational = [p for p in pts if not b.factor(p).is_trivial]
    for dims in itertools.product(range(d + 1), repeat=len(pts)):
        if not 0 < sum(dims) <= d:
            continue
        dimmap = dict(zip(pts, dims))
        yield dimmap, ([(False, a.name, dimmap[a.target], dimmap[a.source]) for a in arrows]
                       + [(True, p, dimmap[p], dimmap[p]) for p in rational])


def _brute_feasible(dit: Dit, d: int) -> bool:
    worst = max((sum(r * c for _, _, r, c in slots) for _, slots in _shapes(dit, d)),
                default=0)
    return dit.field.char ** worst <= 10 ** 6


def brute_force_indecomposables(dit: Dit, d: int) -> List[Rep]:
    """Exhaustive enumeration of indecomposables with total dimension <= d
    over a finite field, up to isomorphism."""
    F = dit.field
    index = IsoClassIndex(dit)
    for dimmap, slots in _shapes(dit, d):
        total = sum(r * c for _, _, r, c in slots)
        if F.char ** total > 10 ** 6:
            raise PipelineError("brute force space too large")
        for vals in itertools.product(range(F.char), repeat=total):
            rep = Rep(dit, dict(dimmap))
            off = 0
            for at_point, name, r, c in slots:
                (rep.point_ops if at_point else rep.arrow_ops)[name] = Mat(
                    F, r, c, [[F.from_int(vals[off + i * c + j]) for j in range(c)]
                              for i in range(r)])
                off += r * c
            if rep.validate() is not None:
                continue
            try:
                index.add(rep)
            except DecomposableError:
                pass          # not a class: classes are indecomposable
    return index.classes
