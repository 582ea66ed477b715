"""Interlaced weak ditalgebras: the pair (A, I) with certification of the
balanced / triangular / interlaced conditions, graded ideal generation,
quotient presentations, and lifting of a differential given on a quotient.

Every graded-window question is asked component by component: `_by_pair`
splits an element by (source, target) and `_window_residue` reduces each
component against a window span with `linalg.residue`, so ideal membership
is "the residue is zero" and the quotient normal form is the residue itself.
The triangular layer filtrations are derived from delta, not stored: `Dit.levels`
is the least one, the longest-path levels of the same-kind delta-dependency
graph (`_dependency_levels`), computed once per presentation.  Filtration keys
in an input file are accepted but not read, and emitted ones are these least
levels."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .bigraph import Bigraph, BigraphError, height_maps
from .scalars import linalg
from .tensor import (
    UNIT, Differential, Elem, Layer, Word, elem_coordinates, graded_component_basis, in_span,
)


class UnsupportedShapeError(ValueError):
    """Ideal membership with bivariate coefficients outside the stellar shape."""


class CertificationError(ValueError):
    pass


@dataclass
class IdealData:
    """Degree-0 generators of I, with an optional triangularity filtration
    (ascending spanning sets H_1 <= ... <= H_t = I)."""

    generators: List[Elem] = field(default_factory=list)
    filtration: Optional[List[List[Elem]]] = None

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

    def ideal_components(self) -> List[Elem]:
        """Ideal generators split by (source, target); components stay in I."""
        return [c for g in self.ideal.generators for c in _by_pair(self.bigraph, g).values()]

    @functools.cached_property
    def levels(self) -> Tuple[Tuple[FrozenSet[str], ...], Tuple[FrozenSet[str], ...]]:
        """The least triangular filtrations (W0 levels, W1 levels) of the
        layer, as ascending unions (`_dependency_levels`); raises
        CertificationError when the delta-dependencies contain a cycle, that
        is when no triangular filtration exists."""
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


def _by_pair(b: Bigraph, elem: Elem) -> Dict[Tuple[str, str], Elem]:
    """The nonzero (source, target) components of elem, in point order."""
    parts: Dict[Tuple[str, str], Dict[Word, object]] = {}
    for w, c in elem.terms.items():
        parts.setdefault((w.start, w.end(b)), {})[w] = c
    pos = {p: k for k, p in enumerate(b.point_order)}
    return {key: Elem(b, parts[key])
            for key in sorted(parts, key=lambda k: (pos[k[0]], pos[k[1]]))}


def _window_residue(dit: Dit, elem: Elem,
                    span_of: Callable[[str, str, Elem], List[Elem]]) -> Elem:
    """elem reduced, component by component, against span_of(i, j, piece):
    the row-reduction normal form, so zero exactly when every component lies
    in its span and canonical modulo the spans."""
    b = dit.bigraph
    F = b.field
    out = Elem.zero(b)
    for (i, j), piece in _by_pair(b, elem).items():
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
    for gc in dit.ideal_components():
        w = next(iter(gc.terms))
        i, j = w.start, w.end(b)
        if i == j:
            continue
        if not (b.factor(i).is_trivial or b.factor(j).is_trivial):
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
                      splits: Optional[Sequence[Tuple[int, int]]] = None,
                      windows: Optional[Dict[tuple, Dict[int, List[Elem]]]] = None
                      ) -> List[Elem]:
    """Spanning elements of sum_{(dl,dr)} [T]_dl * g * [T]_dr between the
    given points, with g running over `middle` (default: ideal components).

    Each window e_j [T]_deg e_i is enumerated once, at the largest word
    length any generator leaves room for, and grouped by word length; the
    enumeration keeps words of one length in the order a shorter cap would
    give, so the products come out in the same order.  `windows` keeps the
    enumerated windows, keyed by (i, j, deg, cap, exp_cap), for a caller
    that spans many point pairs of one dit; by default they last one call."""
    b = dit.bigraph
    gens = list(middle) if middle is not None else dit.ideal_components()
    if splits is None:
        splits = [(dl, degree - dl) for dl in range(degree + 1)]
    pieces = [(gi, gj, piece, piece.max_length())
              for gc in gens for (gi, gj), piece in _by_pair(b, gc).items()]
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
        for dl, dr in splits:
            us, vs = window(gj, target, dl), window(source, gi, dr)
            for lu in range(0, max(0, length_cap - glen) + 1):
                for lv in range(0, max(0, length_cap - glen - lu) + 1):
                    for ue in us.get(lu, ()):
                        for ve in vs.get(lv, ()):
                            prod = ue * piece * ve
                            if not prod.is_zero():
                                out.append(prod)
    return out


def membership_in_ideal_window(dit: Dit, target_elem: Elem, degree: int,
                               middle: Optional[Sequence[Elem]] = None,
                               splits: Optional[Sequence[Tuple[int, int]]] = None) -> bool:
    """Is target_elem (homogeneous of the given degree) in the window span?"""
    if target_elem.is_zero():
        return True
    _shape_guard(dit)
    length_cap = target_elem.max_length()
    exp_cap = _exp_cap(target_elem, *dit.ideal.generators, *dit.delta.values.values())
    return _window_residue(dit, target_elem, lambda i, j, piece: ideal_window_span(
        dit, degree, i, j, length_cap, exp_cap, middle=middle, splits=splits)).is_zero()


# -- certification ops ----------------------------------------------------


def check_balanced(dit: Dit) -> bool:
    """delta(I) inside I*V + V*I, checked generator by generator."""
    for g in dit.ideal.generators:
        dg = dit.delta.apply(g)
        if dg.is_zero():
            continue
        if not membership_in_ideal_window(dit, dg, 1, splits=[(1, 0), (0, 1)]):
            dit.certificates["balanced"] = False
            return False
    dit.certificates["balanced"] = True
    return True


def pair_height_filtration(dit: Dit) -> List[List[Elem]]:
    """The constructive ideal filtration H_t = sum of e_j I e_i over pairs of
    pair-height <= t, built from the directed bigraph's height maps."""
    b = dit.bigraph
    hm = height_maps(b)
    comps = dit.ideal_components()
    if not comps:
        return []
    # degree-0 spanning set of each e_j I e_i within the reachable window
    length_cap = len(b.point_order) + dit.max_word_length()
    exp_cap = _exp_cap(*dit.ideal.generators, *dit.delta.values.values())
    piece_span: Dict[Tuple[str, str], List[Elem]] = {}
    windows: Dict[tuple, Dict[int, List[Elem]]] = {}
    for i in b.point_order:
        for j in b.point_order:
            span = ideal_window_span(dit, 0, i, j, length_cap, exp_cap, windows=windows)
            if span:
                piece_span[(i, j)] = span
    if not piece_span:
        return []
    maxh = max(hm.pair_height[(i, j)] for (i, j) in piece_span)
    filtration = []
    for t in range(maxh + 1):
        level = []
        for (i, j), span in piece_span.items():
            if hm.pair_height[(i, j)] <= t:
                level.extend(span)
        filtration.append(level)
    return filtration


def check_triangular_ideal(dit: Dit) -> bool:
    """Certify the ideal filtration.  When none is supplied it constructs
    one: the pair-height filtration in the directed, balanced case, and the
    one level of the ideal components otherwise, which passes exactly when
    delta kills every component."""
    if dit.ideal.is_zero():
        dit.certificates["triangular_ideal"] = True
        return True
    filtration = dit.ideal.filtration
    if filtration is None and not dit.bigraph.is_directed():
        filtration = [dit.ideal_components()]
    elif filtration is None:
        if not check_balanced(dit):
            dit.certificates["triangular_ideal"] = False
            return False
        filtration = pair_height_filtration(dit)
    prev: List[Elem] = []
    for level in filtration:
        for s in level:
            ds = dit.delta.apply(s)
            if ds.is_zero():
                continue
            ok = membership_in_ideal_window(dit, ds, 1, middle=prev,
                                            splits=[(1, 0), (0, 1)]) if prev else False
            if not ok:
                dit.certificates["triangular_ideal"] = False
                return False
        prev = list(level)
    # the top level must span I (generators in span)
    for g in dit.ideal_components():
        if not in_span(prev, g):
            dit.certificates["triangular_ideal"] = False
            return False
    dit.ideal.filtration = filtration
    dit.certificates["triangular_ideal"] = True
    return True


def _dependency_levels(dit: Dit) -> Optional[Tuple[Tuple[FrozenSet[str], ...], ...]]:
    """The least triangular filtrations (solid, dashed) of the layer: an
    arrow sits one level above the highest same-kind arrow in its delta (the
    longest-path levels of the delta-dependency graph), each returned as the
    ascending unions of levels; None when the dependencies contain a cycle,
    that is when no triangular filtration exists.  One scan of delta builds
    the graph of both kinds, and one worklist pass (Kahn) levels an arrow as
    soon as its last dependency is levelled."""
    dashed = {n: a.dashed for n, a in dit.bigraph.arrows.items()}
    deps: Dict[str, Set[str]] = {}
    users: Dict[str, List[str]] = {n: [] for n in dashed}
    for n, kind in dashed.items():
        deps[n] = {m for w in dit.delta.of_arrow(n).terms for m in w.arrows
                   if dashed[m] == kind}
        for m in deps[n]:
            users[m].append(n)
    waiting = {n: len(ds) for n, ds in deps.items()}
    ready = [n for n, k in waiting.items() if not k]
    level: Dict[str, int] = {}
    while ready:
        n = ready.pop()
        level[n] = 1 + max((level[m] for m in deps[n]), default=0)
        for u in users[n]:
            waiting[u] -= 1
            if not waiting[u]:
                ready.append(u)
    if len(level) < len(deps):
        return None

    def ascending(kind: bool) -> Tuple[FrozenSet[str], ...]:
        of_kind = {n: lv for n, lv in level.items() if dashed[n] == kind}
        return tuple(frozenset(n for n, lv in of_kind.items() if lv <= t)
                     for t in range(1, max(of_kind.values(), default=0) + 1))

    return ascending(False), ascending(True)


def level_order(levels: Sequence[FrozenSet[str]]) -> List[List[str]]:
    """The names each ascending level adds, sorted: the order in which the
    triangular constructions visit the arrows of one kind."""
    return [sorted(lv - prev) for prev, lv in zip((frozenset(),) + tuple(levels), levels)]


def check_triangular_layer(dit: Dit) -> bool:
    """Layer triangularity: the levels `Dit.levels` exist, so delta of each
    arrow uses only same-kind arrows of strictly lower level; term-by-term,
    exact because normal-form words are a basis."""
    try:
        ok = dit.levels is not None
    except CertificationError:
        ok = False
    dit.certificates["triangular_layer"] = ok
    return ok


def check_interlaced(dit: Dit) -> bool:
    """Both interlacing inclusions, generator by generator; delta^2 = 0 is an
    immediate pass."""
    b = dit.bigraph
    squares = {name: dit.delta.apply(dit.delta.of_arrow(name)) for name in b.arrows}
    if all(v.is_zero() for v in squares.values()):
        dit.certificates["interlaced"] = True
        return True
    for arr in b.solid_arrows():
        sq = squares[arr.name]
        if sq.is_zero():
            continue
        if not membership_in_ideal_window(dit, sq, 2, splits=[(2, 0), (1, 1), (0, 2)]):
            dit.certificates["interlaced"] = False
            return False
    for arr in b.dashed_arrows():
        sq = squares[arr.name]
        if sq.is_zero():
            continue
        if not membership_in_ideal_window(dit, sq, 3,
                                          splits=[(3, 0), (2, 1), (1, 2), (0, 3)]):
            dit.certificates["interlaced"] = False
            return False
    dit.certificates["interlaced"] = True
    return True


def check_directed(dit: Dit) -> bool:
    ok = dit.bigraph.is_directed()
    dit.certificates["directed"] = ok
    return ok


def certify(dit: Dit) -> Dict[str, bool]:
    """Run every certificate; Roiter follows from triangular + interlaced for
    these arrow-presented (hence additive) layers."""
    directed = check_directed(dit)
    tl = check_triangular_layer(dit)
    try:
        bal = check_balanced(dit)
    except UnsupportedShapeError:
        bal = False
        dit.certificates["balanced"] = None
    try:
        ti = check_triangular_ideal(dit)
    except UnsupportedShapeError:
        ti = False
        dit.certificates["triangular_ideal"] = None
    try:
        inter = check_interlaced(dit)
    except UnsupportedShapeError:
        inter = False
        dit.certificates["interlaced"] = None
    dit.certificates["roiter"] = bool(tl and ti and inter)
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


def generated_ideal(dit: Dit) -> GradedIdeal:
    """Lemma hypothesis: the dit is interlaced with I, or I is balanced;
    otherwise raises naming the failed inclusion."""
    bal = check_balanced(dit)
    inter = None
    if not bal:
        inter = check_interlaced(dit)
        if not inter:
            raise CertificationError(
                "neither `balanced` (delta(I) in IV+VI) nor `interlaced` certifies")
    b = dit.bigraph
    length_cap = dit.max_word_length() + len(b.point_order)
    exp_cap = _exp_cap(*dit.ideal.generators, *dit.delta.values.values())
    deg0: Dict[Tuple[str, str], List[Elem]] = {}
    deg1: Dict[Tuple[str, str], List[Elem]] = {}
    dgs = [_by_pair(b, dit.delta.apply(g)) for g in dit.ideal.generators]
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
    identifications defining V-bar)."""

    dit: Dit
    reduced_delta: Dict[str, Elem]
    dashed_kernel: List[Elem]
    ideal: GradedIdeal

    def reduce0(self, elem: Elem) -> Elem:
        return _reduce_mod_J(self.ideal, elem, 0)


def _reduce_mod_J(gi: GradedIdeal, elem: Elem, degree: int) -> Elem:
    """`reduce_mod_ideal_window` against a generated ideal J built once by
    the caller."""
    dit = gi.dit
    length_cap = max(elem.max_length(), dit.max_word_length())
    exp_cap = _exp_cap(elem, *dit.ideal.generators, *dit.delta.values.values())
    return _window_residue(dit, elem, lambda i, j, piece: gi.degree_span(
        degree, i, j, length_cap, exp_cap))


def reduce_mod_ideal_window(dit: Dit, elem: Elem, degree: int) -> Elem:
    """Residue of a homogeneous element modulo the window span of J in its
    degree (row-reduction normal form, hence canonical)."""
    if elem.is_zero():
        return elem
    return _reduce_mod_J(generated_ideal(dit), elem, degree)


def quotient(dit: Dit) -> QuotientPresentation:
    """Quotient ditalgebra presentation; requires the interlacing certificate
    and verifies that the induced differential squares to zero."""
    if dit.certificates.get("interlaced") is None:
        check_interlaced(dit)
    if not dit.certificates.get("interlaced"):
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
    return QuotientPresentation(dit, reduced_delta, dashed_kernel, gi)


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

    # consistency: delta(I) must die under pi, i.e. lie in I*V + V*I
    for g in ideal_gens:
        dg = delta.apply(g)
        if not dg.is_zero():
            if not membership_in_ideal_window(dit, dg, 1, splits=[(1, 0), (0, 1)]):
                raise CertificationError(
                    "input differential does not vanish on the ideal (not liftable)")
    # the input had to be a ditalgebra: delta^2 lands in J
    if not check_interlaced(dit):
        raise CertificationError("lifted differential does not interlace; "
                                 "the quotient input was not a ditalgebra")
    # commuting square on generators: delta(a) == dotted(a) modulo ker pi
    for name, arr in b.arrows.items():
        deg = 2 if arr.dashed else 1
        diff = delta.of_arrow(name) - reduce_mod_IVVI(dotted_delta.get(name, Elem.zero(b)), deg)
        if not diff.is_zero():
            raise CertificationError(f"commuting square fails on {name}")
    certify(dit)
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
                                 length_cap: int = 4) -> bool:
    """Exact dimension count on a graded window of V = A (x) W1 (x) A:
    the kernel of pi (x) 1 (x) pi equals I*W1*A + A*W1*I.  Needs a directed
    bigraph: the window is enumerated exactly (`graded_component_basis`), which
    raises BigraphError on a bigraph with oriented cycles."""
    b = dit.bigraph
    F = b.field
    exp_cap = _exp_cap(*dit.ideal.generators, *dit.delta.values.values())
    words = [w for w in graded_component_basis(b, source, target, 1, length_cap, exp_cap)]
    if not words:
        return True
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
    direct = ideal_window_span(dit, 1, source, target, length_cap, exp_cap,
                               splits=[(1, 0), (0, 1)])
    direct_in = [e for e in direct
                 if not e.is_zero() and all(w in words for w in e.terms)]
    direct_rank = 0
    if direct_in:
        _, r2 = elem_coordinates(direct_in)
        direct_rank = linalg.rank(F, r2)
    return kernel_dim == direct_rank
