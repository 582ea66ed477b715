"""Interlaced weak ditalgebras: the pair (A, I) with certification of the
balanced / triangular / interlaced conditions, graded ideal generation,
quotient presentations, and lifting of a differential given on a quotient.

Every graded-window question is asked component by component:
`Elem.components` splits an element by (source, target) and
`_window_residue` reduces each component against a window span with
`linalg.residue`, so ideal membership is "the residue is zero" and the
quotient normal form is the residue itself.  The check functions return a
bool and write no flag: `certify` records every flag in `Dit.certificates`,
and `inherit_certificates` carries them through a construction.
The triangular filtrations are derived from delta, not stored.  `Dit.levels`
is the least one of the layer, the longest-path levels of the same-kind
delta-dependency graph (`_dependency_levels`), computed once per
presentation and kept as the names each level adds; when there is none,
`dependency_cycle` names one cycle of that graph.  Both run the levelling
pass and the cycle walk of `bigraph`, which decide `directed` on the point
graph too.  `ideal_levels` is the least one of the ideal components, each
placed as soon as its delta lies in the window around the levels below.  Filtration keys in an input file are
accepted but not read, and emitted layer ones are the least levels as
ascending unions (`ascending_levels`)."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .bigraph import Bigraph, BigraphError, longest_path_levels, unlevelled_cycle
from .scalars import LocalizedRing, Poly, linalg, strip_h_factors
from .tensor import (
    UNIT, Differential, Elem, Layer, Word, elem_coordinates, graded_component_basis,
    key_to_locelt,
)

# the levels of one arrow kind, lowest first, each as the sorted names it adds
Levels = Tuple[Tuple[str, ...], ...]


class UnsupportedShapeError(ValueError):
    """Ideal membership with bivariate coefficients outside the stellar shape."""


class CertificationError(ValueError):
    pass


@dataclass
class IdealData:
    """Degree-0 generators of I.  Its triangular filtration is derived from
    delta (`ideal_levels`), not stored."""

    generators: List[Elem] = field(default_factory=list)

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.generators)


class Dit:
    """An interlaced weak ditalgebra presentation (A, I)."""

    def __init__(self, layer: Layer, delta: Differential, ideal: Optional[IdealData] = None,
                 name: str = ""):
        if delta.layer is not layer:
            delta = Differential(layer, delta.values)
        self.layer = layer
        self.delta = delta
        self.ideal = ideal or IdealData()
        self.name = name
        self.certificates: Dict[str, Optional[bool]] = {}
        # dimension of each point-simple pulled back to the original source
        # through whatever functor chain produced this presentation
        self.point_weights: Dict[str, int] = {p: 1 for p in self.bigraph.point_order}
        for g in self.ideal.generators:
            for w in g.terms:
                if w.degree(self.bigraph) != 0:
                    raise ValueError("ideal generators must have degree 0")

    @property
    def bigraph(self) -> Bigraph:
        return self.layer.bigraph

    @property
    def field(self):
        return self.bigraph.field

    @functools.cached_property
    def ideal_parts(self) -> List[Tuple[Tuple[str, str], Elem]]:
        """Each ideal generator split by (source, target) once, as pairs
        ((source, target), component); the ideal is never changed after
        construction."""
        return [part for g in self.ideal.generators for part in g.components().items()]

    def ideal_components(self) -> List[Elem]:
        """Ideal generators split by (source, target); components stay in I."""
        return [c for _, c in self.ideal_parts]

    @functools.cached_property
    def levels(self) -> Tuple[Levels, Levels]:
        """The least triangular filtrations (W0 levels, W1 levels) of the
        layer, each level as the sorted names it adds
        (`_dependency_levels`); raises CertificationError when the
        delta-dependencies contain a cycle, that is when no triangular
        filtration exists."""
        levels = _dependency_levels(self)
        if levels is None:
            raise CertificationError("delta dependencies contain a cycle")
        return levels

    def max_word_length(self) -> int:
        n = max((v.max_length() for v in self.delta.values.values()), default=0)
        m = max((g.max_length() for g in self.ideal.generators), default=0)
        return max(n, m, 1)

    def __repr__(self):
        return f"Dit({self.name or 'unnamed'}: {len(self.bigraph.points)} points)"


# -- graded windows -------------------------------------------------------


def _window_residue(dit: Dit, elem: Elem,
                    span_of: Callable[[str, str, Elem], List[Elem]]) -> Elem:
    """elem reduced, component by component, against span_of(i, j, piece):
    the row-reduction normal form, so zero exactly when every component lies
    in its span and canonical modulo the spans."""
    b = dit.bigraph
    F = b.field
    out = Elem.zero(b)
    for (i, j), piece in elem.components().items():
        span = span_of(i, j, piece)
        if not span:
            out = out + piece
            continue
        support, rows = elem_coordinates(span + [piece])
        v = linalg.residue(F, *linalg.rref(F, rows[:-1]), rows[-1])
        out = out + Elem(b, dict(zip(support, v)))
    return out


def _shape_guard(dit: Dit):
    """The stellar support envelope: graded membership is trusted only when
    every arrow-carrying ideal component has a trivial factor on at least one
    side.  Components concentrated at a single rational point are univariate
    and stay supported."""
    b = dit.bigraph
    for g in dit.ideal.generators:
        for i, j in g.components():
            if i != j and not (b.factor(i).is_trivial or b.factor(j).is_trivial):
                raise UnsupportedShapeError(
                    f"ideal component {i}->{j} has rational factors on both sides")


def _exp_cap(*elems: Elem) -> int:
    cap = 0
    for e in elems:
        for w in e.terms:
            for a, j in w.coeffs:
                cap = max(cap, a, j)
    return cap + 1


def ideal_window_span(dit: Dit, degree: int, source: str, target: str,
                      length_cap: int, exp_cap: int,
                      middle: Optional[Sequence[Elem]] = None,
                      windows: Optional[Dict[tuple, Dict[int, List[Elem]]]] = None
                      ) -> List[Elem]:
    """Spanning elements of sum_{dl + dr = degree} [T]_dl * g * [T]_dr between the
    given points, with g running over `middle` (default: ideal components).

    Each window e_j [T]_deg e_i is enumerated once, at the largest word
    length any generator leaves room for, and grouped by word length; the
    enumeration keeps words of one length in the order a shorter cap would
    give, so the products come out in the same order.  `windows` keeps the
    enumerated windows, keyed by (i, j, deg, cap, exp_cap), for a caller
    that spans many point pairs of one dit; by default they last one call."""
    b = dit.bigraph
    gens = list(middle) if middle is not None else dit.ideal_components()
    pieces = [(gi, gj, piece, piece.max_length())
              for gc in gens for (gi, gj), piece in gc.components().items()]
    cap = max([0] + [length_cap - glen for *_, glen in pieces])
    if windows is None:
        windows = {}

    def window(i: str, j: str, deg: int) -> Dict[int, List[Elem]]:
        key = (i, j, deg, cap, exp_cap)
        if key not in windows:
            by_length = windows[key] = {}
            for wd in graded_component_basis(b, i, j, deg, cap, exp_cap, allow_cycles=True):
                by_length.setdefault(wd.length(), []).append(Elem.from_word(b, wd))
        return windows[key]

    out: List[Elem] = []
    for gi, gj, piece, glen in pieces:
        for dl in range(degree + 1):
            us, vs = window(gj, target, dl), window(source, gi, degree - dl)
            for lu in range(0, max(0, length_cap - glen) + 1):
                for lv in range(0, max(0, length_cap - glen - lu) + 1):
                    for ue in us.get(lu, ()):
                        for ve in vs.get(lv, ()):
                            prod = ue * piece * ve
                            if not prod.is_zero():
                                out.append(prod)
    return out


def membership_in_ideal_window(dit: Dit, target_elem: Elem, degree: int,
                               middle: Optional[Sequence[Elem]] = None) -> bool:
    """Is target_elem (homogeneous of the given degree) in the window span?"""
    if target_elem.is_zero():
        return True
    _shape_guard(dit)
    length_cap = target_elem.max_length()
    exp_cap = _exp_cap(target_elem, *dit.ideal.generators, *dit.delta.values.values())
    return _window_residue(dit, target_elem, lambda i, j, piece: ideal_window_span(
        dit, degree, i, j, length_cap, exp_cap, middle=middle)).is_zero()


# -- the ideal at one point -------------------------------------------------


def ideal_point_polynomial(dit: Dit, p: str) -> Optional[Poly]:
    """Monic generator of the (p, p) ring part of I, inverted factors
    stripped; None when that part vanishes.  A trivial point's factor k is
    read inside k[x], so there the answer is None or 1.  The generator is
    the gcd of the numerators of the (p, p) parts of the ideal generators,
    each part summed in the ring first: word lengths add, so when every
    (p, p) word has length zero these parts generate the ring part of I.  A
    longer (p, p) word (a loop or a cycle through p) raises
    UnsupportedShapeError naming p."""
    ring = dit.bigraph.factor_ring(p) or LocalizedRing(dit.field, ())
    acc = Poly.zero(dit.field)
    for g in dit.ideal.generators:
        part = ring.zero
        for w, c in g.component(p, p).terms.items():
            if w.length() != 0:
                raise UnsupportedShapeError(
                    f"ideal component at point {p} has a word of positive length")
            part = ring.add(part, ring.mul(ring.embed(c), key_to_locelt(ring, w.coeffs[0])))
        if not ring.is_zero(part):
            acc = acc.gcd(part.num)
    if acc.is_zero():
        return None
    acc = strip_h_factors(acc, ring.h)
    return Poly.one(dit.field) if acc.is_constant() else acc.monic()


def point_in_ideal(dit: Dit, p: str) -> bool:
    """e_p lies in I iff the (p, p) ring part of I is the unit ideal, that
    is `ideal_point_polynomial` is 1; exact where that function answers."""
    h0 = ideal_point_polynomial(dit, p)
    return h0 is not None and h0.is_one()


# -- certification ops ----------------------------------------------------


def unbalanced_generator(dit: Dit) -> Optional[Elem]:
    """The first ideal generator g whose delta(g) lies outside I*V + V*I,
    or None."""
    return next((g for g in dit.ideal.generators
                 if not membership_in_ideal_window(dit, dit.delta.apply(g), 1)), None)


def check_balanced(dit: Dit) -> bool:
    """delta(I) inside I*V + V*I, checked generator by generator."""
    return unbalanced_generator(dit) is None


def ideal_levels(dit: Dit) -> Tuple[List[List[Elem]], List[Elem]]:
    """The least triangular filtration of the ideal components, and the
    components it leaves without a level.  Level 1 holds the components
    that delta kills; level k those not yet levelled whose delta lies in the
    degree-1 window around the components of the levels below k.  Window
    membership only grows with the middle, so each component sits at the
    lowest level it can, as the arrows do in `_dependency_levels`.  The
    ideal is triangular exactly when no component is left over."""
    rest = [(c, dit.delta.apply(c)) for c in dit.ideal_components()]
    levels: List[List[Elem]] = []
    below: List[Elem] = []
    while rest:
        fits = [ds.is_zero() or (bool(below) and membership_in_ideal_window(
            dit, ds, 1, middle=below)) for _, ds in rest]
        if not any(fits):
            break
        levels.append([c for (c, _), ok in zip(rest, fits) if ok])
        below += levels[-1]
        rest = [cd for cd, ok in zip(rest, fits) if not ok]
    return levels, [c for c, _ in rest]


def check_triangular_ideal(dit: Dit) -> bool:
    """Ideal triangularity: `ideal_levels` gives every ideal component a
    level.  A triangular ideal is balanced, since then delta of each
    component lies in the window around the components below it."""
    return not ideal_levels(dit)[1]


def _dependency_graph(dit: Dit) -> Tuple[Dict[str, bool], Dict[str, FrozenSet[str]]]:
    """(dashed, deps): each arrow's kind and the same-kind arrows in its
    delta: the union of the letters of its words, cut down to the names of
    its kind."""
    b = dit.bigraph
    dashed = {n: a.dashed for n, a in b.arrows.items()}
    of_kind = {False: frozenset(a.name for a in b.solid_arrows()),
               True: frozenset(a.name for a in b.dashed_arrows())}
    return dashed, {n: of_kind[kind].intersection(
        {a for w in dit.delta.of_arrow(n).terms for a in w.arrows})
        for n, kind in dashed.items()}


def _dependency_levels(dit: Dit) -> Optional[Tuple[Levels, Levels]]:
    """The least triangular filtrations (solid, dashed) of the layer: an
    arrow sits one level above the highest same-kind arrow in its delta (the
    longest-path levels of the delta-dependency graph, `longest_path_levels`),
    each returned as the sorted names of each level, lowest first; None when
    the dependencies contain a cycle, that is when no triangular filtration
    exists."""
    dashed, deps = _dependency_graph(dit)
    level = longest_path_levels(deps)
    if len(level) < len(deps):
        return None

    def by_level(kind: bool) -> Levels:
        of_kind: Dict[int, List[str]] = {}
        for n, lv in level.items():
            if dashed[n] == kind:
                of_kind.setdefault(lv, []).append(n)
        return tuple(tuple(sorted(of_kind[t])) for t in range(1, len(of_kind) + 1))

    return by_level(False), by_level(True)


def dependency_cycle(dit: Dit) -> Optional[List[str]]:
    """One cycle of the delta-dependency graph as arrow names [n1, ..., nk],
    where the delta of each uses the next and that of nk uses n1
    (`unlevelled_cycle`); None when `_dependency_levels` levels every
    arrow."""
    return unlevelled_cycle(_dependency_graph(dit)[1])


def ascending_levels(levels: Levels) -> Tuple[FrozenSet[str], ...]:
    """The ascending unions of the levels of one kind: the filtration
    W_1 <= W_2 <= ... that a presentation file records."""
    out: List[FrozenSet[str]] = []
    for names in levels:
        out.append((out[-1] if out else frozenset()) | frozenset(names))
    return tuple(out)


def check_triangular_layer(dit: Dit) -> bool:
    """Layer triangularity: the levels `Dit.levels` exist, so delta of each
    arrow uses only same-kind arrows of strictly lower level; term-by-term,
    exact because normal-form words are a basis."""
    try:
        dit.levels
    except CertificationError:
        return False
    return True


def uninterlaced_arrow(dit: Dit) -> Optional[str]:
    """The first arrow whose delta^2 lies outside its window, or None: the
    degree-2 window of J for a solid arrow and the degree-3 window for a
    dashed one, the solid arrows first; a zero square passes at once."""
    b = dit.bigraph
    for arr in b.solid_arrows() + b.dashed_arrows():
        sq = dit.delta.apply(dit.delta.of_arrow(arr.name))
        if not membership_in_ideal_window(dit, sq, 3 if arr.dashed else 2):
            return arr.name
    return None


def check_interlaced(dit: Dit) -> bool:
    """Both interlacing inclusions, arrow by arrow (`uninterlaced_arrow`)."""
    return uninterlaced_arrow(dit) is None


def _unless_unsupported(check: Callable[[Dit], bool], dit: Dit) -> Optional[bool]:
    """check(dit), or None when the ideal is outside the supported shape."""
    try:
        return check(dit)
    except UnsupportedShapeError:
        return None


def certify(dit: Dit) -> Dict[str, Optional[bool]]:
    """Run every certificate and record its flag in `dit.certificates`: the
    one writer of flags besides `inherit_certificates`.  A flag is None
    where its check raises UnsupportedShapeError.  Roiter follows from
    triangular + interlaced for these arrow-presented (hence additive)
    layers.  Returns a copy of all the dit's flags."""
    flags = {"directed": dit.bigraph.is_directed(),
             "triangular_layer": check_triangular_layer(dit),
             "balanced": _unless_unsupported(check_balanced, dit),
             "triangular_ideal": _unless_unsupported(check_triangular_ideal, dit),
             "interlaced": _unless_unsupported(check_interlaced, dit)}
    flags["roiter"] = bool(flags["triangular_layer"] and flags["triangular_ideal"]
                           and flags["interlaced"])
    dit.certificates.update(flags)
    return dict(dit.certificates)


def is_roiter(dit: Dit) -> bool:
    if "roiter" not in dit.certificates:
        certify(dit)
    return bool(dit.certificates.get("roiter"))


def inherit_certificates(src_dit: Dit, new_dit: Dit):
    """Reductions of triangular interlaced presentations stay triangular
    interlaced (context-of-reduction lemma items 2-3 and its relatives), so
    constructions transfer the certificates instead of re-deriving them.
    Reading the new presentation's levels raises CertificationError when its
    delta-dependencies contain a cycle."""
    new_dit.levels
    flags = src_dit.certificates
    new_dit.certificates["directed"] = new_dit.bigraph.is_directed()
    for key in ("triangular_layer", "triangular_ideal", "balanced", "interlaced", "roiter"):
        if flags.get(key):
            new_dit.certificates[key] = True
    for p in new_dit.bigraph.point_order:
        if p in src_dit.point_weights:
            new_dit.point_weights[p] = src_dit.point_weights[p]


# -- generated ideal ------------------------------------------------------


@dataclass
class GradedIdeal:
    """Spanning data for the ideal J of the weak ditalgebra generated by I:
    its degree-0 part is I and its degree-1 part is I*V + delta(I) + V*I."""

    dit: Dit
    degree0_span: Dict[Tuple[str, str], List[Elem]]
    degree1_span: Dict[Tuple[str, str], List[Elem]]

    def degree_span(self, degree: int, source: str, target: str,
                    length_cap: int, exp_cap: int) -> List[Elem]:
        """Window span of J in any degree (products around I and I_V)."""
        dit = self.dit
        span = ideal_window_span(dit, degree, source, target, length_cap, exp_cap)
        iv = [e for pieces in self.degree1_span.values() for e in pieces]
        if degree >= 1 and iv:
            span += ideal_window_span(dit, degree - 1, source, target, length_cap,
                                      exp_cap, middle=iv)
        return span


def _certified(dit: Dit, key: str, check: Callable[[Dit], bool]) -> bool:
    """The dit's certified flag `key`, or check(dit) when it has none."""
    flag = dit.certificates.get(key)
    return check(dit) if flag is None else flag


def generated_ideal(dit: Dit) -> GradedIdeal:
    """Lemma hypothesis: the dit is interlaced with I, or I is balanced,
    read off the certified flags where present; otherwise raises naming
    the failed inclusion."""
    if not (_certified(dit, "balanced", check_balanced)
            or _certified(dit, "interlaced", check_interlaced)):
        raise CertificationError(
            "neither `balanced` (delta(I) in IV+VI) nor `interlaced` certifies")
    b = dit.bigraph
    length_cap = dit.max_word_length() + len(b.point_order)
    exp_cap = _exp_cap(*dit.ideal.generators, *dit.delta.values.values())
    deg0: Dict[Tuple[str, str], List[Elem]] = {}
    deg1: Dict[Tuple[str, str], List[Elem]] = {}
    dgs = [dit.delta.apply(g).components() for g in dit.ideal.generators]
    windows: Dict[tuple, Dict[int, List[Elem]]] = {}
    for i in b.point_order:
        for j in b.point_order:
            s0 = ideal_window_span(dit, 0, i, j, length_cap, exp_cap, windows=windows)
            if s0:
                deg0[(i, j)] = s0
            s1 = ideal_window_span(dit, 1, i, j, length_cap, exp_cap, windows=windows)
            s1 += [dg[(i, j)] for dg in dgs if (i, j) in dg]
            if s1:
                deg1[(i, j)] = s1
    return GradedIdeal(dit, deg0, deg1)


# -- quotient presentation -------------------------------------------------


@dataclass
class QuotientPresentation:
    """A/I with word normal forms plus the induced differential data.

    `reduce0` rewrites degree-0 elements to their residue modulo I, read off
    the generated ideal `ideal` built once with the quotient;
    `dashed_kernel` lists W1-supported elements of IV + delta(I) + VI (the
    identifications defining V-bar), each once, in order of first occurrence."""

    dit: Dit
    reduced_delta: Dict[str, Elem]
    dashed_kernel: List[Elem]
    ideal: GradedIdeal

    def reduce0(self, elem: Elem) -> Elem:
        return _reduce_mod_J(self.ideal, elem, 0)


def _reduce_mod_J(gi: GradedIdeal, elem: Elem, degree: int) -> Elem:
    """Residue of a homogeneous element of the given degree modulo the span
    of the generated ideal J = `gi` in that degree, within the word window
    that covers the element, the ideal generators and the differential: a
    row-reduction normal form, hence canonical.  The caller builds J once
    (`generated_ideal`) and reduces any number of elements against it."""
    dit = gi.dit
    length_cap = max(elem.max_length(), dit.max_word_length())
    exp_cap = _exp_cap(elem, *dit.ideal.generators, *dit.delta.values.values())
    return _window_residue(dit, elem, lambda i, j, piece: gi.degree_span(
        degree, i, j, length_cap, exp_cap))


def quotient(dit: Dit) -> QuotientPresentation:
    """Quotient ditalgebra presentation; requires the interlacing certificate
    and verifies that the induced differential squares to zero."""
    if not _certified(dit, "interlaced", check_interlaced):
        raise CertificationError("quotient requires the interlaced certificate")
    b = dit.bigraph
    gi = generated_ideal(dit)
    reduced_delta = {}
    for name in b.arrows:
        val = dit.delta.of_arrow(name)
        deg = 2 if b.arrow(name).dashed else 1
        reduced_delta[name] = _reduce_mod_J(gi, val, deg)
    # delta-bar squared must vanish on generators
    for name in b.arrows:
        sq = dit.delta.square(Elem.arrow(b, name))
        deg = (2 if b.arrow(name).dashed else 1) + 1
        if not _reduce_mod_J(gi, sq, deg).is_zero():
            raise CertificationError(f"induced differential does not square to zero on {name}")
    # W1-supported part of IV + delta(I) + VI
    F = b.field
    dashed_kernel: List[Elem] = []
    for (i, j), span in gi.degree1_span.items():
        if not span:
            continue
        support, rows = elem_coordinates(span)
        long_idx = [k for k, w in enumerate(support) if w.length() > 1]
        mat = [[row[k] for k in long_idx] for row in rows]
        combos = linalg.kernel_basis(F, linalg.transpose(mat), len(rows)) if long_idx else [
            [F.one if t == s else F.zero for t in range(len(rows))] for s in range(len(rows))]
        for combo in combos:
            e = Elem.zero(b)
            for c, sp in zip(combo, span):
                if not F.is_zero(c):
                    e = e + sp.scale(c)
            if not e.is_zero():
                dashed_kernel.append(e)
    # the windows overlap, so one element may come from several: list it once
    return QuotientPresentation(dit, reduced_delta, list(dict.fromkeys(dashed_kernel)), gi)


# -- lifting a differential -------------------------------------------------


def lift_differential(bigraph: Bigraph, ideal_gens: List[Elem],
                      dotted_delta: Dict[str, Elem]) -> Dit:
    """Lift a ditalgebra-with-relations differential to an interlaced weak
    ditalgebra (A, I); requires trivial point factors and a directed bigraph.

    The lift is the canonical normal-form coset representative, so it is
    deterministic; the commuting square pi . delta = delta-dot . pi then holds
    by construction and is re-verified.
    """
    b = bigraph
    for p in b.point_order:
        if not b.factor(p).is_trivial:
            raise CertificationError("lifting requires a semisimple base (trivial factors)")
    if not b.is_directed():
        raise BigraphError("lifting requires a directed bigraph")
    layer = Layer(b)
    probe = Dit(layer, Differential(layer, {}), IdealData(list(ideal_gens)))

    def reduce_mod_IVVI(elem: Elem, degree: int) -> Elem:
        """Normal form modulo the pre-lift kernel window I*[T] + [T]*I."""
        return _window_residue(probe, elem, lambda i, j, piece: ideal_window_span(
            probe, degree, i, j, piece.max_length(), _exp_cap(piece, *ideal_gens)))

    lifted_values = {}
    for name, arr in b.arrows.items():
        val = dotted_delta.get(name, Elem.zero(b))
        deg = 2 if arr.dashed else 1
        lifted_values[name] = reduce_mod_IVVI(val, deg)
    delta = Differential(layer, lifted_values)
    dit = Dit(layer, delta, IdealData(list(ideal_gens)), name="lifted")
    flags = certify(dit)

    # consistency: delta(I) must die under pi, i.e. lie in I*V + V*I
    if not flags["balanced"]:
        raise CertificationError(
            "input differential does not vanish on the ideal (not liftable)")
    # the input had to be a ditalgebra: delta^2 lands in J
    if not flags["interlaced"]:
        raise CertificationError("lifted differential does not interlace; "
                                 "the quotient input was not a ditalgebra")
    # commuting square on generators: delta(a) == dotted(a) modulo ker pi
    for name, arr in b.arrows.items():
        deg = 2 if arr.dashed else 1
        diff = delta.of_arrow(name) - reduce_mod_IVVI(dotted_delta.get(name, Elem.zero(b)), deg)
        if not diff.is_zero():
            raise CertificationError(f"commuting square fails on {name}")
    return dit


# -- quotient-side hom solving (for the category isomorphism test) ----------


def _split_degree_one_word(b: Bigraph, w: Word) -> Tuple[Word, Word, Word]:
    """Write a degree-1 word as suffix * (decorated dashed arrow) * prefix."""
    j = next(k for k, nm in enumerate(w.arrows) if b.arrow(nm).dashed)
    prefix = Word(w.start, w.arrows[:j], w.coeffs[:j] + (UNIT,))
    path = w.path(b)
    mid = Word(path[j], (w.arrows[j],), (w.coeffs[j], w.coeffs[j + 1]))
    suffix = Word(path[j + 1], w.arrows[j + 1:], (UNIT,) + w.coeffs[j + 2:])
    return suffix, mid, prefix


def kernel_lemma_dimension_check(dit: Dit, source: str, target: str,
                                 length_cap: int = 4,
                                 gi: Optional[GradedIdeal] = None) -> bool:
    """Exact dimension count on a graded window of V = A (x) W1 (x) A:
    the kernel of pi (x) 1 (x) pi equals I*W1*A + A*W1*I.  Needs a directed
    bigraph: the window is enumerated exactly (`graded_component_basis`), which
    raises BigraphError on a bigraph with oriented cycles.  Pass the dit's
    generated ideal J to share it between point pairs; otherwise it is built
    here when the window is not empty."""
    b = dit.bigraph
    F = b.field
    exp_cap = _exp_cap(*dit.ideal.generators, *dit.delta.values.values())
    words = [w for w in graded_component_basis(b, source, target, 1, length_cap, exp_cap)]
    if not words:
        return True
    if gi is None:
        gi = generated_ideal(dit)
    images = []
    for w in words:
        suffix, mid, prefix = _split_degree_one_word(b, w)
        red_s = _reduce_mod_J(gi, Elem.from_word(b, suffix), 0)
        red_p = _reduce_mod_J(gi, Elem.from_word(b, prefix), 0)
        images.append(red_s * Elem.from_word(b, mid) * red_p)
    support, rows = elem_coordinates(images)
    image_rank = linalg.rank(F, rows)
    kernel_dim = len(words) - image_rank
    direct = ideal_window_span(dit, 1, source, target, length_cap, exp_cap)
    direct_in = [e for e in direct
                 if not e.is_zero() and all(w in words for w in e.terms)]
    direct_rank = 0
    if direct_in:
        _, r2 = elem_coordinates(direct_in)
        direct_rank = linalg.rank(F, r2)
    return kernel_dim == direct_rank
