"""The finite-dimensional module category of an interlaced weak ditalgebra.

Objects are point-graded spaces with solid-arrow actions (plus an x-action at
rational points) annihilated by the ideal; morphisms are pairs (f0, f1).
Everything reduces to exact linear algebra: hom spaces are kernels of the
U-condition system, and isomorphism testing and idempotent splitting run
through the Roiter property.  `splits_in_coordinates` recognizes a module
that is a direct sum in its own basis, with no End(M) built: the coordinate
projection onto a class of linked basis vectors is an idempotent
endomorphism.  One function, `_locality`, decides whether End(M) is local
and, for a decomposable M, supplies a witness: an endomorphism f that is
neither a unit nor nilpotent, read off a basis element by its Fitting rank
or lifted from End(M)/rad.  Krull-Schmidt
decomposition splits off the Fitting idempotent of f, a polynomial in f
built from its minimal polynomial x^k q by xgcd(x^k, q).  `iso_test`
rejects first on the four hom dimensions, which are isomorphism
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from .interlace import Dit, is_roiter, level_order, quotient
from .scalars import Field, Poly, PrimeField, factor as poly_factor, linalg
from .scalars.linalg import Mat, block_matrix
from .tensor import UNIT, Elem, Word


class ModcatError(ValueError):
    pass


@dataclass
class Rep:
    """A representation: dims per point, solid-arrow matrices (target x
    source), and the x-action at rational points.  The entries lie in `ring`:
    the ground field by default, or Gamma = k[x]_h for a one-parameter family
    (a Gamma-free bimodule Z, specialized by `bimodule.specialize_jordan`)."""

    dit: Dit
    dims: Dict[str, int]
    arrow_ops: Dict[str, Mat] = field(default_factory=dict)
    point_ops: Dict[str, Mat] = field(default_factory=dict)
    ring: object = None

    def __post_init__(self):
        b = self.dit.bigraph
        if self.ring is None:
            self.ring = b.field
        R = self.ring
        for p in b.point_order:
            self.dims.setdefault(p, 0)
        for a in b.solid_arrows():
            m = self.arrow_ops.get(a.name)
            if m is None:
                self.arrow_ops[a.name] = Mat(R, self.dims[a.target], self.dims[a.source])
            elif (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ModcatError(f"arrow {a.name}: matrix shape mismatch")
        for p in b.point_order:
            if not b.factor(p).is_trivial:
                m = self.point_ops.get(p)
                if m is None:
                    self.point_ops[p] = Mat(R, self.dims[p], self.dims[p])
                elif (m.rows, m.cols) != (self.dims[p], self.dims[p]):
                    raise ModcatError(f"point {p}: x-action shape mismatch")

    @property
    def field(self) -> Field:
        return self.dit.field

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def dim_vector(self) -> Tuple[int, ...]:
        return tuple(self.dims[p] for p in self.dit.bigraph.point_order)

    def poly_action(self, point: str, p: Poly) -> Mat:
        X = self.point_ops[point]
        R = self.ring
        out = Mat(R, X.rows, X.cols)
        power = Mat.identity_of(R, X.rows)
        for c in p.coeffs:
            if not self.field.is_zero(c):
                out = out + power.scale(R.embed(c))
            power = power * X
        return out

    def decoration_action(self, point: str, key: Tuple[int, int]) -> Mat:
        """Action of the decoration basis element x^a / h^j at a point."""
        a, j = key
        n = self.dims[point]
        if self.dit.bigraph.factor(point).is_trivial:
            if key != (0, 0):
                raise ModcatError("nontrivial decoration at a trivial point")
            return Mat.identity_of(self.ring, n)
        X = self.point_ops[point]
        out = X.power(a)
        if j:
            ring = self.dit.bigraph.factor_ring(point)
            hX = self.poly_action(point, ring.h)
            hinv = hX.inverse()
            if hinv is None:
                raise ModcatError(f"inverted polynomial not invertible at {point}")
            out = out * hinv.power(j)
        return out

    def word_action(self, w: Word) -> Mat:
        """Action of a degree-0 decorated word (a matrix M_source -> M_target):
        the product of its arrow matrices and decoration actions.  A unit
        decoration acts as the identity and is not multiplied in; a word of
        one plain arrow returns a copy of its matrix, never the matrix the
        Rep holds."""
        b = self.dit.bigraph
        pts = w.path(b)
        cur = None  # the identity on M_start until a factor acts
        for i, key in enumerate(w.coeffs):
            if i:
                name = w.arrows[i - 1]
                if b.arrow(name).dashed:
                    raise ModcatError("word_action needs a degree-0 word")
                op = self.arrow_ops[name]
                cur = op.copy() if cur is None else op * cur
            if key != UNIT:
                dec = self.decoration_action(pts[i], key)
                cur = dec if cur is None else dec * cur
        return Mat.identity_of(self.ring, self.dims[w.start]) if cur is None else cur

    def elem_action(self, elem: Elem, source: str, target: str) -> Mat:
        R = self.ring
        one = self.field.one
        out = Mat(R, self.dims[target], self.dims[source])
        b = self.dit.bigraph
        for w, c in elem.terms.items():
            if w.start == source and w.end(b) == target:
                act = self.word_action(w)
                out = out + (act if c == one else act.scale(R.embed(c)))
        return out

    def validate(self) -> Optional[str]:
        """None if valid, else a diagnostic: ideal annihilation and
        invertibility of the inverted polynomials."""
        b = self.dit.bigraph
        for p in b.point_order:
            fac = b.factor(p)
            if not fac.is_trivial:
                for h in fac.inverted or ():
                    m = self.poly_action(p, h)
                    if m.rows and not self.ring.is_unit(m.det()):
                        return f"inverted polynomial {h} is singular at point {p}"
        for g in self.dit.ideal.generators:
            for i in b.point_order:
                for j in b.point_order:
                    comp = g.component(i, j)
                    if not comp.is_zero():
                        if not self.elem_action(comp, i, j).is_zero():
                            return f"ideal generator acts nontrivially ({i}->{j})"
        return None


@dataclass
class MorphismPair:
    """(f0, f1): point maps plus dashed-generator maps."""

    f0: Dict[str, Mat]
    f1: Dict[str, Mat]

    def __eq__(self, other):
        return (isinstance(other, MorphismPair)
                and self.f0 == other.f0 and self.f1 == other.f1)

    def is_zero(self) -> bool:
        return (all(m.is_zero() for m in self.f0.values())
                and all(m.is_zero() for m in self.f1.values()))

    def f1_is_zero(self) -> bool:
        return all(m.is_zero() for m in self.f1.values())


def zero_morphism(M: Rep, N: Rep) -> MorphismPair:
    b = M.dit.bigraph
    F = M.field
    f0 = {p: Mat(F, N.dims[p], M.dims[p]) for p in b.point_order}
    f1 = {a.name: Mat(F, N.dims[a.target], M.dims[a.source]) for a in b.dashed_arrows()}
    return MorphismPair(f0, f1)


def identity_morphism(M: Rep) -> MorphismPair:
    out = zero_morphism(M, M)
    for p in M.dit.bigraph.point_order:
        out.f0[p] = Mat.identity_of(M.field, M.dims[p])
    return out


def _mixed_word_action(word: Word, reps: Sequence[Rep], dashed_maps: Sequence[Dict[str, Mat]]) -> Mat:
    """Action of a degree-k word through k dashed-generator map families:
    levels switch at each dashed arrow (M --f1--> N --g1--> L ...)."""
    b = reps[0].dit.bigraph
    pts = word.path(b)
    level = 0
    cur = reps[0].decoration_action(pts[0], word.coeffs[0])
    for i, name in enumerate(word.arrows):
        arr = b.arrow(name)
        if arr.dashed:
            cur = dashed_maps[level][name] * cur
            level += 1
        else:
            cur = reps[level].arrow_ops[name] * cur
        cur = reps[level].decoration_action(pts[i + 1], word.coeffs[i + 1]) * cur
    return cur


def evaluate_f1(dit: Dit, M: Rep, N: Rep, f1: Dict[str, Mat], elem: Elem,
                source: str, target: str) -> Mat:
    """Bimodule extension of f1 evaluated on a degree-1 element."""
    F = M.field
    out = Mat(F, N.dims[target], M.dims[source])
    b = dit.bigraph
    for w, c in elem.terms.items():
        if w.start != source or w.end(b) != target:
            continue
        out = out + _mixed_word_action(w, [M, N], [f1]).scale(c)
    return out


# -- hom ---------------------------------------------------------------------


def _unknown_layout(dit: Dit, M: Rep, N: Rep):
    b = dit.bigraph
    blocks = []
    offset = 0
    for p in b.point_order:
        size = N.dims[p] * M.dims[p]
        blocks.append(("f0", p, N.dims[p], M.dims[p], offset))
        offset += size
    for a in b.dashed_arrows():
        size = N.dims[a.target] * M.dims[a.source]
        blocks.append(("f1", a.name, N.dims[a.target], M.dims[a.source], offset))
        offset += size
    return blocks, offset


def _block(F: Field, vec, r: int, c: int, off: int) -> Mat:
    """The r x c block of an unknown vector stored row by row from `off`."""
    return Mat._owning(F, r, c, [vec[off + i * c:off + (i + 1) * c] for i in range(r)])


def _vector_to_pair(dit: Dit, M: Rep, N: Rep, vec) -> MorphismPair:
    F = M.field
    blocks, total = _unknown_layout(dit, M, N)
    f0: Dict[str, Mat] = {}
    f1: Dict[str, Mat] = {}
    for kind, name, r, c, off in blocks:
        (f0 if kind == "f0" else f1)[name] = _block(F, vec, r, c, off)
    return MorphismPair(f0, f1)


def pair_to_vector(dit: Dit, M: Rep, N: Rep, f: MorphismPair):
    blocks, total = _unknown_layout(dit, M, N)
    F = M.field
    vec = [F.zero] * total
    for kind, name, r, c, off in blocks:
        m = f.f0[name] if kind == "f0" else f.f1[name]
        for i in range(r):
            for j in range(c):
                vec[off + i * c + j] = m.data[i][j]
    return vec


class _RowBuilder:
    """Accumulates linear constraints over the unknown vector."""

    def __init__(self, F: Field, total: int):
        self.F = F
        self.total = total
        self.rows: List[List] = []

    def new_rows(self, count: int) -> List[List]:
        out = [[self.F.zero] * self.total for _ in range(count)]
        self.rows.extend(out)
        return out

    def add_left_right(self, rows: List[List], left, off: int, right, sign=None):
        """Add  sign * left * U * right  to the (rows-of-left, cols-of-right)
        constraint block, with U the unknown at the given offset.  An int n
        for `left` or `right` stands for the n x n identity, which is never
        built.  Only pairs of a nonzero left entry and a nonzero right entry
        are visited; a product with a unit factor multiplies nothing, and an
        entry that is still zero is set, not added to."""
        F = self.F
        add, mul, one = F.add, F.mul, F.one
        s = one if sign is None else sign
        if isinstance(left, int):
            left_nz = [[(r, s)] for r in range(left)]
        else:
            left_nz = [[(p, lv if s == one else mul(s, lv))
                        for p, lv in enumerate(lrow) if lv] for lrow in left.data]
        if isinstance(right, int):
            width = u_cols = right
            right_nz = [[(c, one)] for c in range(right)]
        else:
            width, u_cols = right.cols, right.rows
            right_nz = [[(q, rv) for q, rv in enumerate(col) if rv]
                        for col in zip(*right.data)]
        for r, lnz in enumerate(left_nz):
            for p, lv in lnz:
                base = off + p * u_cols
                for c, rnz in enumerate(right_nz):
                    row = rows[r * width + c]
                    for q, rv in rnz:
                        v = lv if rv == one else rv if lv == one else mul(lv, rv)
                        k = base + q
                        row[k] = add(row[k], v) if row[k] else v


def _u_condition_rows(dit: Dit, M: Rep, N: Rep, delta, dashed_kernel=()):
    """Rows of the linear system cutting out U(M, N) in a presentation:
    `delta(name)` is the delta-value of the solid arrow `name`, and f1 must
    vanish on each W1-supported element of `dashed_kernel` (the V-bar
    identifications of a quotient presentation).  A factor that acts as an
    identity is passed to the row builder as its size."""
    b = dit.bigraph
    F = M.field
    blocks, total = _unknown_layout(dit, M, N)
    offs = {(kind, name): off for kind, name, _, _, off in blocks}
    builder = _RowBuilder(F, total)
    minus_one = F.neg(F.one)

    def decoration(R: Rep, point: str, key):
        return R.dims[point] if key == UNIT else R.decoration_action(point, key)

    def action(R: Rep, w: Word):
        return R.word_action(w) if w.arrows else decoration(R, w.start, w.coeffs[0])

    # R-linearity at rational points: X_N f0 - f0 X_M = 0
    for p in b.point_order:
        if b.factor(p).is_trivial:
            continue
        off = offs[("f0", p)]
        rows = builder.new_rows(N.dims[p] * M.dims[p])
        builder.add_left_right(rows, N.point_ops[p], off, M.dims[p])
        builder.add_left_right(rows, N.dims[p], off, M.point_ops[p], sign=minus_one)

    # U-condition per solid arrow: N(a) f0_s - f0_t M(a) - f1(delta(a)) = 0
    for arr in b.solid_arrows():
        rows = builder.new_rows(N.dims[arr.target] * M.dims[arr.source])
        builder.add_left_right(rows, N.arrow_ops[arr.name], offs[("f0", arr.source)],
                               M.dims[arr.source])
        builder.add_left_right(rows, N.dims[arr.target], offs[("f0", arr.target)],
                               M.arrow_ops[arr.name], sign=minus_one)
        for w, coeff in delta(arr.name).terms.items():
            # split at the dashed arrow: suffix acts on N, prefix on M
            j = next(k for k, nm in enumerate(w.arrows) if b.arrow(nm).dashed)
            pts = w.path(b)
            prefix = Word(w.start, w.arrows[:j], w.coeffs[:j + 1])
            suffix = Word(pts[j + 1], w.arrows[j + 1:], w.coeffs[j + 1:])
            builder.add_left_right(rows, action(N, suffix), offs[("f1", w.arrows[j])],
                                   action(M, prefix), sign=F.neg(coeff))

    # V-bar identifications: f1 kills each element of dashed_kernel
    for e in dashed_kernel:
        groups = {}
        for w, c in e.terms.items():
            groups.setdefault((w.start, w.end(b)), []).append((w, c))
        for (i, jp), terms in groups.items():
            rows = builder.new_rows(N.dims[jp] * M.dims[i])
            for w, c in terms:
                builder.add_left_right(rows, decoration(N, jp, w.coeffs[1]),
                                       offs[("f1", w.arrows[0])],
                                       decoration(M, i, w.coeffs[0]), sign=c)
    return builder.rows, total


def _hom_space(dit: Dit, M: Rep, N: Rep):
    """Kernel of the U-condition system as (vectors, free columns): vector k
    is 1 at free[k] and 0 at the other free columns."""
    rows, total = _u_condition_rows(dit, M, N, dit.delta.of_arrow)
    if total == 0:
        return [], []
    return linalg.kernel_with_free(M.field, rows, total)


def hom(dit: Dit, M: Rep, N: Rep) -> List[MorphismPair]:
    """Exact basis of U(M, N)."""
    vecs, _ = _hom_space(dit, M, N)
    return [_vector_to_pair(dit, M, N, v) for v in vecs]


def hom_dim(dit: Dit, M: Rep, N: Rep) -> int:
    """dim U(M, N): the unknowns less the rank of the U-condition rows."""
    rows, total = _u_condition_rows(dit, M, N, dit.delta.of_arrow)
    return total - linalg.rank(M.field, rows)


def in_hom(dit: Dit, M: Rep, N: Rep, f: MorphismPair) -> bool:
    """Independent membership check of the U-conditions (no solving)."""
    b = dit.bigraph
    for p in b.point_order:
        if not b.factor(p).is_trivial:
            if not (N.point_ops[p] * f.f0[p] - f.f0[p] * M.point_ops[p]).is_zero():
                return False
    for arr in b.solid_arrows():
        lhs = N.arrow_ops[arr.name] * f.f0[arr.source]
        rhs = f.f0[arr.target] * M.arrow_ops[arr.name]
        corr = evaluate_f1(dit, M, N, f.f1, dit.delta.of_arrow(arr.name),
                           arr.source, arr.target)
        if not (lhs - rhs - corr).is_zero():
            return False
    return True


# -- composition --------------------------------------------------------------


def compose(dit: Dit, g: MorphismPair, f: MorphismPair, M: Rep, N: Rep, L: Rep) -> MorphismPair:
    """(g f)^0 = g0 f0 and
    (g f)^1(v) = g0 f1(v) + g1(v) f0 + (g1 * f1)(delta(v))."""
    b = dit.bigraph
    out = zero_morphism(M, L)
    for p in b.point_order:
        out.f0[p] = g.f0[p] * f.f0[p]
    for arr in b.dashed_arrows():
        acc = g.f0[arr.target] * f.f1[arr.name]
        acc = acc + g.f1[arr.name] * f.f0[arr.source]
        dv = dit.delta.of_arrow(arr.name)
        for w, coeff in dv.terms.items():
            acc = acc + _mixed_word_action(w, [M, N, L], [f.f1, g.f1]).scale(coeff)
        out.f1[arr.name] = acc
    return out


# -- Roiter transport and isomorphisms ----------------------------------------


def transport_structure(dit: Dit, N: Rep, f0: Dict[str, Mat], f1: Dict[str, Mat]) -> Rep:
    """Given bijective R-linear f0: M -> N (M's spaces implied by shapes) and
    any f1, build the A-structure on M making (f0, f1) a morphism into N.

    The construction follows the least triangular filtration of the solid
    arrows (`Dit.levels`, which raises CertificationError when none exists),
    so prefixes of delta-values only use already-transported actions.
    """
    b = dit.bigraph
    dims = {p: f0[p].cols for p in b.point_order}
    M = Rep(dit, dims)
    f0_inv = {}
    for p in b.point_order:
        if f0[p].rows != f0[p].cols:
            raise ModcatError("transport needs bijective f0")
        inv = f0[p].inverse()
        if inv is None:
            raise ModcatError("transport needs bijective f0")
        f0_inv[p] = inv
    for p in b.point_order:
        if not b.factor(p).is_trivial:
            M.point_ops[p] = f0_inv[p] * N.point_ops[p] * f0[p]
    for name in (n for new in level_order(dit.levels[0]) for n in new):
        arr = b.arrow(name)
        corr = evaluate_f1(dit, M, N, f1, dit.delta.of_arrow(name), arr.source, arr.target)
        M.arrow_ops[name] = f0_inv[arr.target] * (
            N.arrow_ops[name] * f0[arr.source] - corr)
    return M


def is_isomorphism(dit: Dit, f: MorphismPair, M: Rep, N: Rep):
    """Roiter criterion: iso iff every f0 block is bijective.  Returns the
    inverse pair when true, None otherwise; refuses non-Roiter dits."""
    if not is_roiter(dit):
        raise ModcatError("isomorphism criterion requires a Roiter certificate")
    b = dit.bigraph
    F = dit.field
    g0 = {}
    for p in b.point_order:
        m = f.f0[p]
        if m.rows != m.cols:
            return None
        inv = m.inverse()
        if inv is None:
            return None
        g0[p] = inv
    g = zero_morphism(N, M)
    g.f0 = g0
    # solve (g f)^1(v) = g0 f1(v) + g1(v) f0 + (g1*f1)(delta v) = 0 along the
    # dashed filtration: delta(v) only involves lower-level dashed arrows
    for name in (n for new in level_order(dit.levels[1]) for n in new):
        arr = b.arrow(name)
        acc = g.f0[arr.target] * f.f1[name]
        dv = dit.delta.of_arrow(name)
        for w, coeff in dv.terms.items():
            acc = acc + _mixed_word_action(w, [M, N, M], [f.f1, g.f1]).scale(coeff)
        g.f1[name] = acc.scale(F.neg(F.one)) * g0[arr.source]
    gf = compose(dit, g, f, M, N, M)
    fg = compose(dit, f, g, N, M, N)
    if gf == identity_morphism(M) and fg == identity_morphism(N):
        return g
    return None


def morphism_sum(f: MorphismPair, g: MorphismPair) -> MorphismPair:
    return MorphismPair({p: f.f0[p] + g.f0[p] for p in f.f0},
                        {v: f.f1[v] + g.f1[v] for v in f.f1})


def morphism_scale(f: MorphismPair, c) -> MorphismPair:
    return MorphismPair({p: f.f0[p].scale(c) for p in f.f0},
                        {v: f.f1[v].scale(c) for v in f.f1})


# -- direct sums ---------------------------------------------------------------


def direct_sum(reps: Sequence[Rep]) -> Rep:
    dit = reps[0].dit
    b = dit.bigraph
    F = dit.field
    dims = {p: sum(r.dims[p] for r in reps) for p in b.point_order}
    out = Rep(dit, dims)
    for a in b.solid_arrows():
        out.arrow_ops[a.name] = block_matrix(
            F, [[r.arrow_ops[a.name] if i == j else None for j, _ in enumerate(reps)]
                for i, r in enumerate(reps)],
            [r.dims[a.target] for r in reps], [r.dims[a.source] for r in reps])
    for p in b.point_order:
        if not b.factor(p).is_trivial:
            out.point_ops[p] = block_matrix(
                F, [[r.point_ops[p] if i == j else None for j, _ in enumerate(reps)]
                    for i, r in enumerate(reps)],
                [r.dims[p] for r in reps], [r.dims[p] for r in reps])
    return out


def simple_at(dit: Dit, point: str) -> Rep:
    dims = {p: (1 if p == point else 0) for p in dit.bigraph.point_order}
    r = Rep(dit, dims)
    if not dit.bigraph.factor(point).is_trivial:
        raise ModcatError("simple_at needs a trivial point; rational points carry Jordan blocks")
    return r


def jordan_at(dit: Dit, point: str, eigen, size: int) -> Rep:
    """Indecomposable at a rational point: the size-t Jordan block at a field
    eigenvalue (must avoid the roots of the inverted polynomials)."""
    b = dit.bigraph
    F = dit.field
    if b.factor(point).is_trivial:
        raise ModcatError("jordan_at needs a rational point")
    dims = {p: (size if p == point else 0) for p in b.point_order}
    r = Rep(dit, dims)
    X = Mat(F, size, size)
    for i in range(size):
        X.data[i][i] = eigen
        if i + 1 < size:
            X.data[i][i + 1] = F.one
    r.point_ops[point] = X
    err = r.validate()
    if err:
        raise ModcatError(err)
    return r


# -- endomorphism algebras, radicals, Krull-Schmidt -----------------------------


class EndAlgebra:
    """End(M) with a fixed basis, its multiplication table `table`
    (table[i][j] = coordinates of basis[i] . basis[j]) and its radical `rad`.
    The kernel vectors `_vecs` of the basis are found at once; the basis as
    morphism pairs, the table and the radical on first use, so a module that
    the Fitting-rank scan of `_locality` decides never gets them.

    The basis is the kernel basis of the U-condition system, which is 1 at
    its own free column and 0 at the other free columns, so the coordinates
    of an endomorphism are its entries at the free columns.  `coordinates`
    checks that they reproduce every entry, which is membership in End(M).
    """

    def __init__(self, dit: Dit, M: Rep):
        self.dit = dit
        self.M = M
        self.F = dit.field
        self._vecs, self._free = _hom_space(dit, M, M)
        self.dim = len(self._vecs)

    @cached_property
    def basis(self) -> List[MorphismPair]:
        return [_vector_to_pair(self.dit, self.M, self.M, v) for v in self._vecs]

    @cached_property
    def table(self) -> List[List[List]]:
        dit, M = self.dit, self.M
        return [[self.coordinates(compose(dit, a, b, M, M, M)) for b in self.basis]
                for a in self.basis]

    @cached_property
    def rad(self) -> List[List]:
        return algebra_radical(self.F, self.table, self.dim)

    @cached_property
    def _rad_rref(self) -> Tuple[List[List], List[int]]:
        return linalg.rref(self.F, self.rad) if self.rad else ([], [])

    def coordinates(self, f: MorphismPair) -> List:
        vec = pair_to_vector(self.dit, self.M, self.M, f)
        coords = [vec[c] for c in self._free]
        if linalg.mul(self.F, [coords], self._vecs) != [vec]:
            raise ModcatError("morphism not in End(M)")
        return coords

    def from_coordinates(self, coords) -> MorphismPair:
        F = self.F
        out = zero_morphism(self.M, self.M)
        for c, b in zip(coords, self.basis):
            if not F.is_zero(c):
                out = morphism_sum(out, morphism_scale(b, c))
        return out

    def identity_coords(self) -> List:
        return self.coordinates(identity_morphism(self.M))

    def mod_rad(self, coords) -> List:
        """coords reduced modulo the radical: zero iff coords lie in it."""
        return linalg.residue(self.F, *self._rad_rref, coords)


def charpoly(F: Field, m: Mat) -> Poly:
    """Characteristic polynomial det(tI - m) via the Hessenberg recurrence."""
    n = m.rows
    if n == 0:
        return Poly.one(F)
    a = [list(r) for r in m.data]
    # reduce to upper Hessenberg form by exact similarity transforms
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if not F.is_zero(a[r][c]):
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            a[c + 1], a[piv] = a[piv], a[c + 1]
            for r in range(n):
                a[r][c + 1], a[r][piv] = a[r][piv], a[r][c + 1]
        inv = F.inv(a[c + 1][c])
        for r in range(c + 2, n):
            if not F.is_zero(a[r][c]):
                f = F.mul(a[r][c], inv)
                # row c+1 changes with every column update below: collect anew
                F.sub_scaled(a[r], f, [(j, w) for j, w in enumerate(a[c + 1])
                                       if not F.is_zero(w)])
                for rr in range(n):
                    a[rr][c + 1] = F.add(a[rr][c + 1], F.mul(f, a[rr][r]))
    # recurrence: p_0 = 1, p_k = (t - a_kk) p_{k-1} - sum over subdiagonal runs
    t = Poly.x(F)
    polys = [Poly.one(F)]
    for k in range(1, n + 1):
        cur = (t - Poly.const(F, a[k - 1][k - 1])) * polys[k - 1]
        prod = F.one
        for i in range(k - 1, 0, -1):
            prod = F.mul(prod, a[i][i - 1])
            if F.is_zero(prod):
                break
            coeff = F.mul(prod, a[i - 1][k - 1])
            if not F.is_zero(coeff):
                cur = cur - polys[i - 1].scale(coeff)
        polys.append(cur)
    return polys[n]


def algebra_radical(F: Field, table: List[List[List]], dim: int) -> List[List]:
    """Radical of an associative algebra given by structure constants.

    Char 0: kernel of the trace form of the regular representation (Dickson).
    Char p: the Friedl-Ronyai chain using characteristic-polynomial
    coefficients c_{p^i} of the regular representation; over a prime field the
    maps x -> c_{p^i}(rho(x y)) are linear on each step's subspace, so every
    step is a kernel computation.  The first step, k = 1, is the whole char-0
    case: c_1(rho(z)) = -tr L_z = -sum_i z_i tau_i with tau_i the trace of
    left multiplication by the i-th basis element, read off the table with no
    characteristic polynomial.  The result is verified to be a nilpotent
    ideal before returning.
    """
    if dim == 0:
        return []
    unit = linalg.identity(F, dim)

    tau = [_sum_nonzero(F, (table[i][j][j] for j in range(dim))) for i in range(dim)]
    tau_nz = [(i, t) for i, t in enumerate(tau) if not F.is_zero(t)]

    def cp_coefficient(z, k: int):
        # coefficient of t^{n-k} in the charpoly of L_z (sign folded)
        if k == 1:
            return F.neg(_sum_nonzero(F, (t if z[i] == F.one else F.mul(z[i], t)
                                          for i, t in tau_nz if z[i])))
        # L_z has the column z e_j at j
        lz = linalg.transpose([_convolve(F, table, z, ej, dim) for ej in unit])
        return charpoly(F, Mat(F, dim, dim, lz)).coeff(dim - k)

    def step(space: List[List], k: int) -> List[List]:
        if not space:
            return []
        rows = []
        for y in space:
            row = []
            for x in space:
                prod = _convolve(F, table, x, y, dim)
                row.append(cp_coefficient(prod, k))
            rows.append(row)
        return linalg.mul(F, linalg.kernel_basis(F, rows, len(space)), space)

    if F.char == 0:
        rad = step(unit, 1)
    else:
        p = F.char
        power = 1
        rad = unit
        while power <= dim:
            rad = step(rad, power)
            if not rad:
                break
            power *= p

    # verification: rad is an ideal and nilpotent
    if rad:
        rad_red, rad_piv = linalg.rref(F, rad)
        for x in rad:
            for ej in unit:
                for prod in (_convolve(F, table, x, ej, dim), _convolve(F, table, ej, x, dim)):
                    if not all(F.is_zero(c) for c in linalg.residue(F, rad_red, rad_piv, prod)):
                        raise ModcatError("radical computation produced a non-ideal")
        layer = [list(v) for v in rad]
        for _ in range(dim + 1):
            nxt = []
            for x in layer:
                for y in rad:
                    nxt.append(_convolve(F, table, x, y, dim))
            red, piv = linalg.rref(F, nxt)
            layer = [red[i] for i in range(len(piv))]
            if not layer:
                break
        else:
            raise ModcatError("radical computation produced a non-nilpotent ideal")
    return rad


def _sum_nonzero(F: Field, terms) -> object:
    """The sum of `terms`, adding nothing to or from a zero."""
    out = F.zero
    for t in terms:
        if not F.is_zero(t):
            out = t if F.is_zero(out) else F.add(out, t)
    return out


def _convolve(F, table, x, y, dim):
    add, mul = F.add, F.mul
    out = [F.zero] * dim
    for i in range(dim):
        xi = x[i]
        if not xi:
            continue
        for j in range(dim):
            yj = y[j]
            if not yj:
                continue
            c = mul(xi, yj)
            for k, t in enumerate(table[i][j]):
                if t:  # a zero structure constant adds c*0
                    out[k] = add(out[k], mul(c, t))
    return out


def _powers(F, table, dim, x, one):
    """The coordinates of 1, x, x^2, ... in an algebra given by its table."""
    cur = one
    while True:
        yield cur
        cur = _convolve(F, table, cur, x, dim)


def _min_poly(F: Field, powers) -> Poly:
    """Minimal polynomial of an algebra element x from the coordinates of
    1, x, x^2, ... (an endless iterator, read up to the first linear
    dependence)."""
    found: List[List] = []
    for cur in powers:
        if found:
            sol = linalg.solve(F, linalg.transpose(found), cur)
            if sol is not None:
                return Poly.make(F, [F.neg(c) for c in sol] + [F.one])
        found.append(cur)


def split_idempotent(dit: Dit, M: Rep, e: MorphismPair):
    """Split an idempotent endomorphism: returns (M1, M2, h) with h an
    isomorphism M1 (+) M2 -> M satisfying h^-1 e h = [[1,0],[0,0]] exactly."""
    b = dit.bigraph
    F = dit.field
    if not in_hom(dit, M, M, e):
        raise ModcatError("e is not an endomorphism (U-condition fails)")
    ee = compose(dit, e, e, M, M, M)
    if ee != e:
        raise ModcatError("split_idempotent requires an idempotent")
    if not is_roiter(dit):
        raise ModcatError("idempotent splitting requires a Roiter certificate")

    # Step 1: base change making e0 = diag(1, 0)
    h0: Dict[str, Mat] = {}
    rank1: Dict[str, int] = {}
    for p in b.point_order:
        m = e.f0[p]
        im_basis = m.column_space_basis()
        ker_basis = m.kernel()
        cols = im_basis + ker_basis
        if len(cols) != M.dims[p]:
            raise ModcatError("e0 is not idempotent at a point")
        h0[p] = Mat(F, M.dims[p], M.dims[p],
                    [[cols[j][i] for j in range(len(cols))] for i in range(M.dims[p])])
        if h0[p].inverse() is None:
            raise ModcatError("im/ker do not split the space (not idempotent)")
        rank1[p] = len(im_basis)
    zero_f1 = {a.name: Mat(F, M.dims[a.target], M.dims[a.source])
               for a in b.dashed_arrows()}
    Mt = transport_structure(dit, M, h0, zero_f1)
    H = zero_morphism(Mt, M)
    H.f0 = h0
    Hinv = zero_morphism(M, Mt)
    Hinv.f0 = {p: h0[p].inverse() for p in b.point_order}
    cur = compose(dit, Hinv, compose(dit, e, H, Mt, M, M), Mt, M, Mt)
    curM = Mt

    # Step 2: kill e1 along the dashed filtration; each conjugator (1, u1) is
    # a morphism from the transported structure, so the module changes too.
    iso_chain: List[Tuple[MorphismPair, Rep, Rep]] = [(H, Mt, M)]
    for new_names in level_order(dit.levels[1]):
        u1map: Dict[str, Mat] = {}
        nontrivial = False
        for name in new_names:
            arr = b.arrow(name)
            blk = cur.f1[name]
            r1t, r1s = rank1[arr.target], rank1[arr.source]
            a_blk = blk.submatrix(0, r1t, 0, r1s)
            d_blk = blk.submatrix(r1t, blk.rows, r1s, blk.cols)
            if not a_blk.is_zero() or not d_blk.is_zero():
                raise ModcatError("diagonal obstruction: e is not idempotent")
            bq = blk.submatrix(0, r1t, r1s, blk.cols)
            cq = blk.submatrix(r1t, blk.rows, 0, r1s)
            if bq.is_zero() and cq.is_zero():
                continue
            nontrivial = True
            u1 = Mat(F, blk.rows, blk.cols)
            for i in range(r1t):
                for j in range(bq.cols):
                    u1.data[i][r1s + j] = F.neg(bq.data[i][j])
            for i in range(cq.rows):
                for j in range(r1s):
                    u1.data[r1t + i][j] = cq.data[i][j]
            u1map[name] = u1
        if not nontrivial:
            continue
        ident0 = {p: Mat.identity_of(F, curM.dims[p]) for p in b.point_order}
        full_u1 = {a.name: u1map.get(a.name, Mat(F, curM.dims[a.target], curM.dims[a.source]))
                   for a in b.dashed_arrows()}
        nextM = transport_structure(dit, curM, ident0, full_u1)
        u = MorphismPair(dict(ident0), dict(full_u1))
        uinv = is_isomorphism(dit, u, nextM, curM)
        if uinv is None:
            raise ModcatError("conjugator failed to invert")
        cur = compose(dit, uinv, compose(dit, cur, u, nextM, curM, curM), nextM, curM, nextM)
        iso_chain.append((u, nextM, curM))
        curM = nextM
    if not cur.f1_is_zero():
        raise ModcatError("idempotent normalization failed to kill f1")

    # Step 3: block restrictions
    def restrict(which: int) -> Rep:
        dims = {p: (rank1[p] if which == 0 else curM.dims[p] - rank1[p]) for p in b.point_order}
        out = Rep(dit, dims)
        for a in b.solid_arrows():
            m = curM.arrow_ops[a.name]
            rt, rs = rank1[a.target], rank1[a.source]
            if which == 0:
                out.arrow_ops[a.name] = m.submatrix(0, rt, 0, rs)
            else:
                out.arrow_ops[a.name] = m.submatrix(rt, m.rows, rs, m.cols)
        for p in b.point_order:
            if not b.factor(p).is_trivial:
                X = curM.point_ops[p]
                r = rank1[p]
                out.point_ops[p] = X.submatrix(0, r, 0, r) if which == 0 else \
                    X.submatrix(r, X.rows, r, X.cols)
        return out

    M1, M2 = restrict(0), restrict(1)
    # verify block structure is exact (e1 = 0 makes arrows commute with eps0)
    for a in b.solid_arrows():
        m = curM.arrow_ops[a.name]
        rt, rs = rank1[a.target], rank1[a.source]
        if not m.submatrix(rt, m.rows, 0, rs).is_zero() or not m.submatrix(0, rt, rs, m.cols).is_zero():
            raise ModcatError("block structure violated after normalization")

    # h = H . u_1 . u_2 . ... (u_k applied first): iso_chain entries map
    # (source rep) -> (target rep) left to right down the chain
    h = None
    h_source = None
    for iso, src, tgt in iso_chain:
        if h is None:
            h, h_source = iso, src
        else:
            h = compose(dit, h, iso, src, h_source, M)
            h_source = src
    return M1, M2, h


def _quotient_algebra(E: EndAlgebra):
    """Quotient E/rad with structure constants: returns (proj, lift, qtable,
    qdim) where proj/lift move between E-coordinates and quotient coords."""
    F, dim = E.F, E.dim
    pivot_set = set(E._rad_rref[1])
    free = [j for j in range(dim) if j not in pivot_set]

    def proj(vec):
        v = E.mod_rad(vec)
        return [v[j] for j in free]

    def lift(q):
        v = [F.zero] * dim
        for val, j in zip(q, free):
            v[j] = val
        return v

    qdim = len(free)
    qtable = []
    for i in range(qdim):
        row = []
        for j in range(qdim):
            prod = _convolve(F, E.table, lift([F.one if t == i else F.zero for t in range(qdim)]),
                             lift([F.one if t == j else F.zero for t in range(qdim)]), dim)
            row.append(proj(prod))
        qtable.append(row)
    return proj, lift, qtable, qdim


def _split_candidates(F: Field, qdim: int):
    """Basis elements, sums of two, then the moment curve sum_i t^i b_i for
    t = 0 .. (qdim - 1) C(qdim, 2), and t < p over F_p."""
    unit = [[F.one if k == i else F.zero for k in range(qdim)] for i in range(qdim)]
    yield from unit
    for i in range(qdim):
        for j in range(i + 1, qdim):
            yield [F.add(a, b) for a, b in zip(unit[i], unit[j])]
    count = (qdim - 1) * qdim * (qdim - 1) // 2 + 1
    for t in range(min(count, F.char) if F.char else count):
        yield [F.from_int(t ** i) for i in range(qdim)]


def _is_commutative(qtable, qdim) -> bool:
    return all(qtable[i][j] == qtable[j][i] for i in range(qdim)
               for j in range(i + 1, qdim))


def _frobenius_fixed(F: PrimeField, qtable, qdim, qident) -> List[List]:
    """Fixed space of z -> z^p on a commutative semisimple S over F_p.  The
    map z -> z^p - z is linear there, and S is a product of r finite fields
    with fixed space F_p^r, so S is a field iff the space has dimension 1."""
    cols = []
    for j in range(qdim):
        z = [F.one if t == j else F.zero for t in range(qdim)]
        # z^p by square-and-multiply in the quotient algebra
        zp, base, n = qident, z, F.p
        while n:
            if n & 1:
                zp = _convolve(F, qtable, zp, base, qdim)
            base = _convolve(F, qtable, base, base, qdim)
            n >>= 1
        cols.append([F.sub(a, b) for a, b in zip(zp, z)])
    rows = [[cols[j][i] for j in range(qdim)] for i in range(qdim)]
    return linalg.kernel_basis(F, rows, qdim)


def _fitting_rank(m: Mat) -> int:
    """rank(m^k) for k >= size: the dimension of m's invertible Fitting part."""
    k = 1
    while k < m.rows:
        m, k = m * m, 2 * k
    return m.rank()


def _locality(E: EndAlgebra, witness: bool = False
              ) -> Tuple[bool, Optional[MorphismPair]]:
    """(True, None) when E = End(M), M nonzero, is local.  Otherwise
    (False, f), where f is a witness: an element of End(M) that is neither
    a unit nor nilpotent, which `_decompose` splits off by its Fitting
    idempotent.  Without `witness` a nonlocal E may give (False, None), and
    over F_p the decision then factors no polynomial.  Exact and seed-free.

    * The basis scan first.  A unit f has bijective f0, as g0 f0 = (g f)0 =
      1; a nilpotent f has f0^n = (f^n)0 = 0.  So a basis element whose
      block-diagonal f0 has Fitting rank rank(f0^n) strictly between 0 and
      dim M is a witness, found before the table or the radical is built
      and read off the kernel vectors, with no basis of morphism pairs.
    * Else S = End(M)/rad, semisimple; E is local iff S is a division ring.
      Over F_p a noncommutative S is not (Wedderburn's little theorem), and
      a commutative S is a field iff its Frobenius fixed space has
      dimension <= 1 (`_frobenius_fixed`).  Any fixed z off the scalars has
      a split squarefree minimal polynomial of degree >= 2.
    * Over Q, and for a witness in a noncommutative S over F_p, the
      candidates of `_split_candidates` in order.  In a commutative S the
      first candidate of degree dim S is primitive, and if its minimal
      polynomial is irreducible S is a field.  The moment curve meets each of
      the <= C(m, 2) hyperplanes of non-primitive elements in <= m - 1
      points, so the list always reaches a primitive element.
    * A reducible minimal polynomial g^m h of z, g irreducible and coprime
      to h, gives the witness: in k[z] = k[x]/(g^m) x k[x]/(h) the element
      g(z)^m is (0, unit), neither a unit nor nilpotent in S, so no lift of
      it to End(M) is either.
    """
    dit, M, F = E.dit, E.M, E.F
    n = M.total_dim()
    blocks = [(d, off) for kind, _, d, _, off in _unknown_layout(dit, M, M)[0] if kind == "f0"]
    for v in E._vecs:
        # the basis element's f0 blocks, read off its kernel vector
        if 0 < sum(_fitting_rank(_block(F, v, d, d, off)) for d, off in blocks) < n:
            return False, _vector_to_pair(dit, M, M, v)
    if E.dim - len(E.rad) <= 1:
        return True, None
    proj, lift, qtable, qdim = _quotient_algebra(E)
    qident = proj(E.identity_coords())
    commutative = _is_commutative(qtable, qdim)
    candidates = _split_candidates(F, qdim)
    if isinstance(F, PrimeField):
        if commutative:
            fixed = _frobenius_fixed(F, qtable, qdim, qident)
            if len(fixed) <= 1:
                return True, None
            candidates = (z for z in fixed
                          if not linalg.row_space_contains(F, [qident], z))
        if not witness:
            return False, None
    for z in candidates:
        mp = _min_poly(F, _powers(F, qtable, qdim, z, qident))
        facs = poly_factor(mp)
        if len(facs) > 1:
            g, m = facs[0]
            cs = (g ** m).coeffs
            zks = list(islice(_powers(F, qtable, qdim, z, qident), len(cs)))
            return False, E.from_coordinates(lift(linalg.mul(F, [cs], zks)[0]))
        if commutative and mp.degree == qdim:
            return True, None
    raise ModcatError("no candidate splits End(M)/rad")


def splits_in_coordinates(M: Rep) -> bool:
    """True when M is a direct sum in its own coordinates, a sufficient test
    for decomposability that builds no End(M).  A union-find over M's basis
    vectors (point, i) links the two ends of every nonzero entry of a
    solid-arrow matrix and of every off-diagonal nonzero entry of an
    x-action; two or more classes mean M splits.  Each class spans an
    A-submodule, since no arrow or x-action leaves it, so the coordinate
    projection e onto it commutes with every arrow and x-action: with
    f1 = 0 the U-condition has no delta term, (e, 0) lies in End(M), and it
    is an idempotent other than 0 and 1.  A local End(M) has no such
    idempotent.  False says nothing: M may still be decomposable."""
    b = M.dit.bigraph
    start, n = {}, 0
    for p in b.point_order:
        start[p] = n
        n += M.dims[p]
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    blocks = [(M.arrow_ops[a.name], start[a.target], start[a.source]) for a in b.solid_arrows()]
    blocks += [(X, start[p], start[p]) for p, X in M.point_ops.items()]
    is_zero = M.ring.is_zero
    classes = n
    for m, row0, col0 in blocks:
        for i, row in enumerate(m.data):
            for j, v in enumerate(row):
                if not is_zero(v):
                    x, y = root(row0 + i), root(col0 + j)
                    if x != y:
                        parent[x] = y
                        classes -= 1
                        if classes == 1:
                            return False
    return classes > 1


def is_indecomposable(dit: Dit, M: Rep) -> bool:
    if M.is_zero():
        return False
    return _locality(EndAlgebra(dit, M))[0]


def _fitting_idempotent(E: EndAlgebra, f: MorphismPair) -> MorphismPair:
    """The idempotent of Fitting's lemma for a witness f of `_locality`:
    f's minimal polynomial is x^k q with k >= 1 (f is no unit), q(0) != 0
    and q nonconstant (f is not nilpotent).  With s x^k + t q = 1 from
    xgcd, e = (s x^k)(f) is 0 mod x^k and 1 mod q, so e^2 = e, e != 0, 1,
    exactly in End(M): the projection onto the part where f is invertible."""
    dit, M, F = E.dit, E.M, E.F
    powers = [identity_morphism(M)]

    def coords():
        while True:
            yield E.coordinates(powers[-1])
            powers.append(compose(dit, powers[-1], f, M, M, M))

    mp = _min_poly(F, coords())
    k = next(i for i, c in enumerate(mp.coeffs) if not F.is_zero(c))
    xk = Poly.make(F, [F.zero] * k + [F.one])
    q = mp // xk
    if k == 0 or q.is_constant():
        raise ModcatError("a Fitting idempotent needs a non-unit, non-nilpotent f")
    _, s, _ = xk.xgcd(q)
    e = zero_morphism(M, M)
    for c, fk in zip((s * xk).coeffs, powers):
        if not F.is_zero(c):
            e = morphism_sum(e, morphism_scale(fk, c))
    return e


def _decompose(E: EndAlgebra) -> List[EndAlgebra]:
    """The End algebras of the indecomposable summands (with multiplicity)
    of the nonzero module E.M, starting from its End algebra E."""
    local, f = _locality(E, witness=True)
    if local:
        return [E]
    dit = E.dit
    M1, M2, _ = split_idempotent(dit, E.M, _fitting_idempotent(E, f))
    return _decompose(EndAlgebra(dit, M1)) + _decompose(EndAlgebra(dit, M2))


def decompose(dit: Dit, M: Rep) -> List[Rep]:
    """Krull-Schmidt list of indecomposable summands (with multiplicity)."""
    if M.is_zero():
        return []
    return [E.M for E in _decompose(EndAlgebra(dit, M))]


def _indec_iso(E: EndAlgebra, N: Rep, hom_vecs=None) -> Optional[MorphismPair]:
    """An isomorphism M -> N for M = E.M indecomposable (E local), or None;
    `hom_vecs` is the kernel basis of the (M, N) U-condition system when the
    caller has one.

    Isomorphic M and N have dim Hom(M,N) = dim End(M), which is tested
    first, on the kernel vectors.  Then a basis scan is exact: if phi: M -> N
    is an isomorphism, Hom(M,N) = phi.End(M), and its non-isomorphisms
    phi.rad End(M) form a proper subspace, since End(M) is local.  A basis of
    Hom(M,N) does not lie in a proper subspace, so some basis element is an
    isomorphism, which the Roiter test `is_isomorphism` recognizes (and
    verifies by its inverse).  Each vector becomes a morphism pair only when
    the scan reaches it, and the scan stops at the first isomorphism."""
    dit, M = E.dit, E.M
    if M.dim_vector() != N.dim_vector():
        return None
    if hom_vecs is None:
        hom_vecs, _ = _hom_space(dit, M, N)
    if len(hom_vecs) != E.dim:
        return None
    for v in hom_vecs:
        f = _vector_to_pair(dit, M, N, v)
        if is_isomorphism(dit, f, M, N) is not None:
            return f
    return None


def iso_test(dit: Dit, M: Rep, N: Rep) -> bool:
    """Exact isomorphism decision.  Isomorphic M and N have equal dim
    Hom(M,N), dim Hom(N,M), dim End M and dim End N, so unequal ones reject:
    dim End M by the End algebra that the decomposition of M starts from, the
    other two by ranks and dim Hom(M,N) by the kernel whose basis
    `_indec_iso` scans when M is indecomposable.  Any other M is decided by
    Krull-Schmidt matching of the summands."""
    if M.dim_vector() != N.dim_vector():
        return False
    if M.is_zero():
        return True
    hom_vecs, _ = _hom_space(dit, M, N)
    d = len(hom_vecs)
    if any(hom_dim(dit, X, Y) != d for X, Y in ((N, M), (N, N))):
        return False
    E = EndAlgebra(dit, M)
    if E.dim != d:
        return False
    parts_m = _decompose(E)
    if len(parts_m) == 1:
        return _indec_iso(parts_m[0], N, hom_vecs) is not None
    parts_n = decompose(dit, N)
    if len(parts_m) != len(parts_n):
        return False
    used = [False] * len(parts_n)
    for em in parts_m:
        found = False
        for i, pn in enumerate(parts_n):
            if used[i]:
                continue
            if _indec_iso(em, pn) is not None:
                used[i] = True
                found = True
                break
        if not found:
            return False
    return True


class DecomposableError(ModcatError):
    """An IsoClassIndex was handed a zero or decomposable module."""


class IsoClassIndex:
    """Indecomposables up to isomorphism, bucketed by dimension vector.

    `find` and `add` raise DecomposableError at once for an M that
    `splits_in_coordinates`, a direct sum visible in M's own matrices.  Any
    other M gets End(M) built once: its locality (`_locality`) decides that M
    is indecomposable (DecomposableError otherwise), and the same End data
    matches M against the classes of its bucket by `_indec_iso`.  `ends`
    keeps the End algebra of each stored representative, in the order they
    were added, so another index can `match` them with no second locality
    decision; `classes` lists the representatives themselves.
    """

    def __init__(self, dit: Dit):
        self.dit = dit
        self.ends: List[EndAlgebra] = []
        self._buckets: Dict[Tuple[int, ...], List[Rep]] = {}

    @property
    def classes(self) -> List[Rep]:
        return [E.M for E in self.ends]

    def _local_end(self, M: Rep) -> EndAlgebra:
        if M.is_zero():
            raise DecomposableError("the zero module is not indecomposable")
        if splits_in_coordinates(M):
            raise DecomposableError("module is a direct sum in its coordinates")
        E = EndAlgebra(self.dit, M)
        if not _locality(E)[0]:
            raise DecomposableError("module is decomposable")
        return E

    def match(self, E: EndAlgebra) -> Optional[Rep]:
        """The stored class isomorphic to M = E.M, or None, for an End
        algebra E over this index's presentation already known to be local
        (as the `ends` of any IsoClassIndex are)."""
        for N in self._buckets.get(E.M.dim_vector(), ()):
            if _indec_iso(E, N) is not None:
                return N
        return None

    def find(self, M: Rep) -> Optional[Rep]:
        """The stored class isomorphic to the indecomposable M, or None."""
        return self.match(self._local_end(M))

    def add(self, M: Rep) -> bool:
        """Store the indecomposable M unless its class is present; True when
        M is new."""
        E = self._local_end(M)
        if self.match(E) is not None:
            return False
        self._buckets.setdefault(M.dim_vector(), []).append(M)
        self.ends.append(E)
        return True


def hom_via_quotient(dit: Dit, M: Rep, N: Rep, qp=None) -> List[MorphismPair]:
    """Hom space computed through the quotient-ditalgebra presentation: the
    reduced differential replaces delta and the W1-supported part of the
    generated ideal imposes the V-bar identifications.  Independent of the
    plain interlaced presentation that `hom` solves.  Pass a precomputed
    QuotientPresentation to amortize the normal-form setup."""
    if qp is None:
        qp = quotient(dit)
    rows, total = _u_condition_rows(dit, M, N, qp.reduced_delta.__getitem__,
                                    qp.dashed_kernel)
    return [_vector_to_pair(dit, M, N, v)
            for v in linalg.kernel_basis(M.field, rows, total)]
