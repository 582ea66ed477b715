"""Bounded-dimension reduction driver: source recursion with detachment
lifting, the stellar phase, the generic seminested loop, classification of
indecomposables up to a dimension bound, and emission of the parametrizing
bimodules.

Every plan step is a `StepSpec`, applied in one place (`_Run.step`), the
same path as the source lift and `ditalg reduce --plan`.  One `_Run` holds
the step budget, the counter behind fresh names and the step list of each
open recursion level; every phase appends to its level's list."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .admissible import AdmissibleError
from .bigraph import Bigraph, BigraphError
from .bimodule import generic_regular, specialize_jordan
from .interlace import CertificationError, Dit, certify, level_order
from .modcat import (DecomposableError, IsoClassIndex, ModcatError, Rep, simple_at,
                     splits_in_coordinates)
from .reduce import (
    ReductionError, ReductionFunctor, RepData, StepSpec, compose_functors,
    delete_idempotents,
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
    spec: StepSpec
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


def companion_block(modulus: Poly) -> Mat:
    """The x-action on k[x]/(modulus) in the basis 1, x, ..., x^(n-1)."""
    F = modulus.field
    n = modulus.degree
    X = Mat(F, n, n)
    for i in range(1, n):
        X.data[i][i - 1] = F.one
    for i in range(n):
        X.data[i][n - 1] = F.neg(modulus.coeff(i))
    return X


def _b_module(b: Bigraph, b_arrows: Sequence[str], dims: Dict[str, int],
              arrow_ops: Optional[Dict[str, Mat]] = None,
              point_ops: Optional[Dict[str, Mat]] = None) -> RepData:
    """A module over B = T_R(span b_arrows) on the points of `b`, as the
    RepData that `build_admissible` hosts on B's own presentation: the given
    matrices, and zero on every other B-arrow and rational point."""
    F = b.field
    dims = {p: dims.get(p, 0) for p in b.point_order}
    arrow_ops, point_ops = arrow_ops or {}, point_ops or {}
    return RepData(
        dims,
        {n: arrow_ops[n] if n in arrow_ops else
         Mat(F, dims[b.arrow(n).target], dims[b.arrow(n).source]) for n in b_arrows},
        {p: point_ops[p] if p in point_ops else Mat(F, dims[p], dims[p])
         for p in b.point_order if not b.factor(p).is_trivial})


# -- one reduction run -----------------------------------------------------------


class _Run:
    """One reduction run: the step budget, the counter behind fresh names, and
    one (input, steps) entry per open level of the source recursion.  A level
    that raises stays open, so the innermost one says where the run stopped."""

    def __init__(self, budget: int):
        self.budget = budget
        self.counter = 0
        self.levels: List[Tuple[Dit, List[PlanStep]]] = []

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def step(self, cur: Dit, spec: StepSpec, suffix: str, note: str) -> Dit:
        """Apply `spec` to `cur` as the next step of the innermost level,
        named `cur.name + suffix` and a fresh number; raises what
        `StepSpec.apply` raises before spending, except that a certification,
        admissible-data, module-category or bigraph failure becomes a
        PipelineError naming the step, so the run ends in an Obstruction."""
        try:
            nd, f = spec.apply(cur, name=self.fresh(cur.name + suffix))
        except (CertificationError, AdmissibleError, ModcatError, BigraphError) as exc:
            raise PipelineError(f"{spec.kind} step ({note}) failed on {cur.name}: "
                                f"{type(exc).__name__}: {exc}") from exc
        self.budget -= 1
        if self.budget < 0:
            raise PipelineError("budget exhausted")
        self.levels[-1][1].append(PlanStep(spec, f, note))
        return nd

    def stopped_at(self) -> Tuple[Dit, List[PlanStep]]:
        """The presentation the innermost open level stopped at and its steps."""
        start, steps = self.levels[-1]
        return (steps[-1].functor.target if steps else start), steps


def _delete_dead_points(run: _Run, cur: Dit) -> Dit:
    """Delete the points whose idempotent lies in I until none does."""
    while True:
        dead = [p for p in cur.bigraph.point_order if point_in_ideal(cur, p)]
        if not dead:
            return cur
        kept = [p for p in cur.bigraph.point_order if p not in dead]
        cur = run.step(cur, StepSpec("deletion", {"kept": kept}), ".d",
                       f"delete ideal idempotents {dead}")


def _torsion_step(run: _Run, cur: Dit, blocks, regular, note: str,
                  center: Optional[str] = None) -> Dit:
    """One admissible step with no B-arrows: the companion blocks of the
    torsion modules of h^bound at each (point, h, bound) of `blocks`, a
    regular summand at each (point, inverted) of `regular` with the extra
    inverted polynomials, and the untouched `center`."""
    b = cur.bigraph
    findim = [(run.fresh("z"), _b_module(b, [], {p: modulus.degree},
                                         point_ops={p: companion_block(modulus)}))
              for p, h, bound in blocks
              for modulus in torsion_blocks(h, b.factor_ring(p), bound)]
    regulars = [(run.fresh(f"r_{p}_"), p, inverted) for p, inverted in regular]
    if center is not None:
        regulars.append((center, center, ()))
    spec = StepSpec("admissible", {"b_arrows": [], "findim": findim, "regular": regulars,
                                   "check": False})
    return run.step(cur, spec, ".X", note)


# -- the stellar phase -------------------------------------------------------------


def stellar_center(dit: Dit) -> Optional[str]:
    solids = dit.bigraph.solid_arrows()
    if not solids:
        return None
    sources = {a.source for a in solids}
    if len(sources) != 1:
        return None
    return next(iter(sources))


def _stellar_phase(run: _Run, cur: Dit, d: int) -> Dit:
    """The stellar induction: delete ideal idempotents; case 1 reduces the
    rational points meeting the ideal with the finite-representation-type
    module; case 2 localizes the arms, base-changes the ideal into a direct
    summand of W0, and factors it out.  Every pass takes a step or returns."""
    while True:
        # idempotents inside I die first
        cur = _delete_dead_points(run, cur)
        if cur.ideal.is_zero():
            return cur
        b = cur.bigraph
        # case 1: I meets a rational factor (no star structure required)
        case1 = {}
        for p in b.point_order:
            h0 = ideal_point_polynomial(cur, p)
            if h0 is not None and not h0.is_one():
                case1[p] = h0
        if case1:
            cur = _torsion_step(run, cur, [(p, h0, 1) for p, h0 in case1.items()],
                                [(p, ()) for p in b.point_order if p not in case1],
                                f"case-1 torsion split at {sorted(case1)}")
            continue

        center = stellar_center(cur)
        if center is None:
            if not cur.bigraph.solid_arrows():
                return cur
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
                arm_data[p] = (arm, res.layer_bases)
        if needs_localization:
            cur = _torsion_step(
                run, cur, [(p, h, d) for p, h in needs_localization],
                [(p, tuple(h for q, h in needs_localization if q == p))
                 for p in b.point_order if p != center],
                f"case-2 localization h = {[str(h) for _, h in needs_localization]}",
                center=center)
            continue
        # base-change every arm so the ideal part is an arrow subset, then factor out
        ideal_arrows: List[str] = []
        for p, (arm, bases) in arm_data.items():
            sel, cur = _arm_base_change(run, cur, center, p, arm, bases)
            ideal_arrows.extend(sel)
        if not ideal_arrows:
            return cur
        cur = run.step(cur, StepSpec("factor_out", {"solid": ideal_arrows}), ".q",
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


def _arm_base_change(run: _Run, cur: Dit, center: str, p: str, arm: List[str],
                     bases) -> Tuple[List[str], Dit]:
    """Base-change one arm so the ideal part becomes a leading arrow subset,
    given the localized bases (ideal part, whole arm) of the arm's ideal
    columns.  Returns (ideal_arrow_names, new_dit)."""
    basis_i, basis_full = bases
    # if the ideal part is already spanned by plain arrows, skip the base change
    support = [[i for i, c in enumerate(vec) if not c.is_zero()] for vec in basis_i]
    if all(len(nz) == 1 and vec[nz[0]].is_constant() for nz, vec in zip(support, basis_i)):
        return [arm[nz[0]] for nz in support], cur
    names = [run.fresh(f"{p}w") for _ in basis_full]
    spec = StepSpec("basechange", {"source": center, "target": p,
                                   "arrows": list(zip(names, basis_full))})
    return names[:len(basis_i)], run.step(cur, spec, ".b", f"arm base change at {p}")


# -- the generic seminested loop ------------------------------------------------------


def _prune_heavy_points(run: _Run, cur: Dit, d: int) -> Dit:
    """Points whose simple already pulls back to dimension > d cannot support
    any module of bounded dimension: delete them.  This is what makes the
    bounded-dimension loop terminate."""
    heavy = [p for p in cur.bigraph.point_order
             if cur.point_weights.get(p, 1) > d]
    if not heavy:
        return cur
    kept = [p for p in cur.bigraph.point_order if p not in heavy]
    return run.step(cur, StepSpec("deletion", {"kept": kept}), ".w",
                    f"prune points beyond the dimension bound: {heavy}")


def _seminested_loop(run: _Run, cur: Dit, d: int) -> Dit:
    """Priority order: regularize whatever regularizes (shrinks the layer),
    in one step when the whole batch does, absorb delta-closed loops, and only then edge-reduce the minimal solid
    arrow (which grows the quiver before later steps shrink it again)."""
    while True:
        cur = _prune_heavy_points(run, cur, d)
        b = cur.bigraph
        if not b.solid_arrows():
            return cur
        ordered = [b.arrow(n) for new in level_order(cur.levels[0]) for n in new]

        # 1. regularization: every arrow whose delta lies in W1 as one batch
        # first, then one arrow at a time when the batch has no triangular
        # pivot system
        regular = [arr.name for arr in ordered
                   if not (dv := cur.delta.of_arrow(arr.name)).is_zero()
                   and all(w.length() == 1 for w in dv.terms)]
        if len(regular) > 1:
            try:
                cur = run.step(cur, StepSpec("regularization", {"solid": regular}), ".r",
                               f"regularize {regular}")
                continue
            except ReductionError:
                pass
        did = False
        for name in regular:
            try:
                cur = run.step(cur, StepSpec("regularization", {"solid": [name]}), ".r",
                               f"regularize {name}")
                did = True
                break
            except ReductionError:
                loc = _localization_for_pivot(cur, name, cur.delta.of_arrow(name))
                if loc is None:
                    continue
                point, h = loc
                # invert h, keeping bounded-dimension coverage by adjoining
                # the torsion blocks of h^d
                cur = _torsion_step(run, cur, [(point, h, d)],
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
                cur = run.step(cur, StepSpec("absorption", {"loop": arr.name}), ".a",
                               f"absorb loop {arr.name}")
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
        cur = _edge_reduction(run, cur, pick.name)


def _localization_for_pivot(dit: Dit, arrow: str, dv: Elem):
    """Find (point, h) whose inversion turns some delta-term coefficient into
    a unit, where the ring at the point does not invert h yet."""
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
            x = Poly.x(b.field)
            if j == 0 and a > 0 and not x.divides(ring.h):
                return point, x
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


def _edge_reduction(run: _Run, dit: Dit, arrow: str) -> Dit:
    b = dit.bigraph
    arr = b.arrow(arrow)
    s1 = _b_module(b, [arrow], {arr.source: 1})
    s2 = _b_module(b, [arrow], {arr.target: 1})
    p1 = _b_module(b, [arrow], {arr.source: 1, arr.target: 1},
                   arrow_ops={arrow: Mat(b.field, 1, 1, [[b.field.one]])})
    findim = [(run.fresh("s"), s1), (run.fresh("s"), s2), (run.fresh("e"), p1)]
    regulars = [(run.fresh(f"r_{p}_"), p, ()) for p in b.point_order
                if p not in (arr.source, arr.target)]
    spec = StepSpec("admissible", {"b_arrows": [arrow], "findim": findim,
                                   "regular": regulars, "check": False})
    return run.step(dit, spec, ".X", f"edge reduction at {arrow}")


# -- the main driver -------------------------------------------------------------------


def reduce_to_minimal(dit: Dit, d: int, budget: int = 200):
    """Theorem-driver: source detachment recursion, stellar phase, seminested
    loop.  Returns (ReductionPlan, minimal Dit) or an Obstruction."""
    run = _Run(budget)
    try:
        steps, final = _reduce_rec(run, dit, d)
    except PipelineError as exc:
        return Obstruction(str(exc), *run.stopped_at())
    plan = ReductionPlan(source=dit, steps=steps, final=final, dimension_bound=d,
                         budget_used=budget - run.budget)
    return plan, final


def _reduce_rec(run: _Run, dit: Dit, d: int) -> Tuple[List[PlanStep], Dit]:
    """One recursion level: delete ideal idempotents, reduce the presentation
    without a source point and lift that plan over it, then run the stellar
    phase and the seminested loop.  Returns the level's steps and result."""
    steps: List[PlanStep] = []
    run.levels.append((dit, steps))
    certify(dit)
    cur = _delete_dead_points(run, dit)
    if not is_minimal(cur):
        if cur.bigraph.solid_arrows():
            cur = _lift_source_plan(run, cur, d)
        cur = _seminested_loop(run, _stellar_phase(run, cur, d), d)
    run.levels.pop()
    return steps, cur


def _lift_source_plan(run: _Run, cur: Dit, d: int) -> Dit:
    """Reduce `cur` with a source point deleted and lift that plan back over
    the source (section 8 commutations); after it every solid arrow starts
    at the source."""
    order = cur.bigraph.topological_order()
    if order is None:
        raise PipelineError("driver requires a directed presentation")
    source = next((p for p in order if cur.bigraph.factor(p).is_trivial
                   and not cur.bigraph.arrows_into(p)), None)
    if source is None:
        raise PipelineError("no source point available")
    if len(cur.bigraph.point_order) > 1:
        deleted, _ = delete_idempotents(
            cur, [p for p in cur.bigraph.point_order if p != source],
            name=run.fresh(f"{cur.name}.rec"))
        sub_steps, _ = _reduce_rec(run, deleted, d)
        for sub in sub_steps:
            cur = run.step(cur, sub.spec.lifted_over_source(source), ".l",
                           f"lifted {sub.note}")
    if cur.bigraph.solid_arrows() and stellar_center(cur) != source:
        raise PipelineError("reassembled presentation is not stellar at the source")
    return cur


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


def classify(dit: Dit, d: int, budget: int = 200, lambda_sample: Sequence = ()):
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
            Z = push(generic_regular(minimal, p))
            fam = Family(point=p, inverted=tuple(fac.inverted or ()), bimodule=Z)
            rank = Z.total_dim()
            for lam in lambda_sample:
                if not rank or F.is_zero(ring.h.eval(lam)):
                    continue
                # a Jordan block of size t has total dimension t * rank
                for t in range(1, d // rank + 1):
                    fam.sample_images.append(((lam, t), specialize_jordan(Z, lam, t)))
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

    if F.char and _brute_feasible(dit, d):
        # the referee has decided each class's End algebra local: match those
        referee = IsoClassIndex(dit)
        brute_force_indecomposables(dit, d, referee)
        residue = [E.M for E in referee.ends if index.match(E) is None]
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


def brute_force_indecomposables(dit: Dit, d: int,
                                index: Optional[IsoClassIndex] = None) -> List[Rep]:
    """Exhaustive enumeration of indecomposables with total dimension <= d
    over a finite field, up to isomorphism.  The classes are collected in
    `index`, an empty IsoClassIndex over `dit` (a fresh one by default), so
    a caller that passes one can read their End algebras off `index.ends`.

    The candidates are those of `_referee_candidates`.  One that
    `splits_in_coordinates` is a direct sum of the classes of basis vectors
    that its matrices link, so it is skipped before `Rep.validate` and
    without an End algebra: the coordinate projection onto a class is a
    nontrivial idempotent of End(M), exactly.  Every other candidate passes
    `Rep.validate` and `IsoClassIndex.add`."""
    if index is None:
        index = IsoClassIndex(dit)
    for rep in _referee_candidates(dit, d):
        if splits_in_coordinates(rep) or rep.validate() is not None:
            continue
        try:
            index.add(rep)
        except DecomposableError:
            pass          # not a class: classes are indecomposable
    return index.classes


def _referee_candidates(dit: Dit, d: int) -> Iterator[Rep]:
    """Every module of total dimension 1..d that the referee tries, valid
    or not, in a fixed order.

    In each dimension vector the matrix of the pivot, the first solid arrow
    whose source differs from its target, runs only over the rank normal
    forms [I_r 0; 0 0], r = 0..min(rows, cols); every other slot runs over
    all of F_p.  This loses no class.  For g_t, g_s invertible at the
    pivot's target and source, transport along (f0, 0) with f0 = (g_t, g_s)
    and the identity elsewhere conjugates every matrix of M; with f1 = 0
    there is no delta correction, so the transported module is isomorphic
    to M, and it puts g_t M(pivot) g_s^-1 = E_r at the pivot.  The ideal
    generators act through solid arrows and x-actions, so the conjugated
    module is still annihilated by them, and an inverted polynomial stays
    invertible under conjugation.  The size guard counts every slot, the
    pivot's too."""
    F = dit.field
    pivot = next((a.name for a in dit.bigraph.solid_arrows() if a.source != a.target), None)
    for dimmap, slots in _shapes(dit, d):
        total = sum(r * c for _, _, r, c in slots)
        if F.char ** total > 10 ** 6:
            raise PipelineError("brute force space too large")
        free = [s for s in slots if s[0] or s[1] != pivot]
        rows, cols = next(((r, c) for at_point, name, r, c in slots
                           if not at_point and name == pivot), (0, 0))
        for rank in range(min(rows, cols) + 1):
            normal = [[F.one if i == j < rank else F.zero for j in range(cols)]
                      for i in range(rows)]
            for vals in itertools.product(range(F.char), repeat=total - rows * cols):
                rep = Rep(dit, dict(dimmap))
                if pivot is not None:
                    rep.arrow_ops[pivot] = Mat(F, rows, cols, normal)
                off = 0
                for at_point, name, r, c in free:
                    (rep.point_ops if at_point else rep.arrow_ops)[name] = Mat(
                        F, r, c, [[F.from_int(vals[off + i * c + j]) for j in range(c)]
                                  for i in range(r)])
                    off += r * c
                yield rep
