"""The finite-dimensional module category of an interlaced weak ditalgebra.

Objects are point-graded spaces with solid-arrow actions (plus an x-action at
rational points) annihilated by the ideal; morphisms are pairs (f0, f1).
Everything reduces to exact linear algebra: hom spaces are kernels of the
U-condition system, isomorphism testing and idempotent splitting run through
the Roiter property, and Krull-Schmidt decomposition goes through the radical
of the endomorphism algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .interlace import Dit, is_roiter
from .scalars import Field, Poly, PrimeField, RationalField, factor as poly_factor
from .scalars.linalg import Mat, block_matrix
from .tensor import Elem, Word


class ModcatError(ValueError):
    pass


# seed for the randomized part of idempotent searches (CLI: --seed/DITALG_SEED)
SEARCH_SEED = 20240601


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
        """Action of a degree-0 decorated word (a matrix M_source -> M_target)."""
        b = self.dit.bigraph
        pts = w.path(b)
        cur = self.decoration_action(pts[0], w.coeffs[0])
        for i, name in enumerate(w.arrows):
            arr = b.arrow(name)
            if arr.dashed:
                raise ModcatError("word_action needs a degree-0 word")
            cur = self.arrow_ops[name] * cur
            cur = self.decoration_action(pts[i + 1], w.coeffs[i + 1]) * cur
        return cur

    def elem_action(self, elem: Elem, source: str, target: str) -> Mat:
        R = self.ring
        out = Mat(R, self.dims[target], self.dims[source])
        b = self.dit.bigraph
        for w, c in elem.terms.items():
            if w.start == source and w.end(b) == target:
                out = out + self.word_action(w).scale(R.embed(c))
        return out

    def validate(self) -> Optional[str]:
        """None if valid, else a diagnostic: ideal annihilation and
        invertibility of the inverted polynomials."""
        b = self.dit.bigraph
        F = self.field
        for p in b.point_order:
            fac = b.factor(p)
            if not fac.is_trivial:
                for h in fac.inverted or ():
                    m = self.poly_action(p, h)
                    if m.rows and F.is_zero(m.det()):
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


def _vector_to_pair(dit: Dit, M: Rep, N: Rep, vec) -> MorphismPair:
    F = M.field
    blocks, total = _unknown_layout(dit, M, N)
    f0: Dict[str, Mat] = {}
    f1: Dict[str, Mat] = {}
    for kind, name, r, c, off in blocks:
        m = Mat(F, r, c, [[vec[off + i * c + j] for j in range(c)] for i in range(r)])
        (f0 if kind == "f0" else f1)[name] = m
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

    def add_left_right(self, rows: List[List], left: Mat, off: int, u_rows: int,
                       u_cols: int, right: Mat, sign=None):
        """Add  left * U * right  to the (u_rows-of-left, cols-of-right)
        constraint block, with U the unknown at the given offset."""
        F = self.F
        s = F.one if sign is None else sign
        for r in range(left.rows):
            for c in range(right.cols):
                row = rows[r * right.cols + c]
                for p in range(u_rows):
                    lv = left.data[r][p] if left.cols else F.zero
                    if F.is_zero(lv):
                        continue
                    for q in range(u_cols):
                        rv = right.data[q][c]
                        if F.is_zero(rv):
                            continue
                        row[off + p * u_cols + q] = F.add(
                            row[off + p * u_cols + q], F.mul(s, F.mul(lv, rv)))


def _u_condition_rows(dit: Dit, M: Rep, N: Rep):
    """Rows of the linear system cutting out U(M, N)."""
    b = dit.bigraph
    F = M.field
    blocks, total = _unknown_layout(dit, M, N)
    offs = {(kind, name): (off, r, c) for kind, name, r, c, off in blocks}
    builder = _RowBuilder(F, total)

    # R-linearity at rational points: X_N f0 - f0 X_M = 0
    for p in b.point_order:
        if b.factor(p).is_trivial:
            continue
        off, r, c = offs[("f0", p)]
        rows = builder.new_rows(N.dims[p] * M.dims[p])
        XN, XM = N.point_ops[p], M.point_ops[p]
        builder.add_left_right(rows, XN, off, r, c, Mat.identity_of(F, M.dims[p]))
        builder.add_left_right(rows, Mat.identity_of(F, N.dims[p]), off, r, c, XM,
                               sign=F.neg(F.one))

    # U-condition per solid arrow: N(a) f0_s - f0_t M(a) - f1(delta(a)) = 0
    for arr in b.solid_arrows():
        rows = builder.new_rows(N.dims[arr.target] * M.dims[arr.source])
        off_s, rs, cs = offs[("f0", arr.source)]
        off_t, rt, ct = offs[("f0", arr.target)]
        builder.add_left_right(rows, N.arrow_ops[arr.name], off_s, rs, cs,
                               Mat.identity_of(F, M.dims[arr.source]))
        builder.add_left_right(rows, Mat.identity_of(F, N.dims[arr.target]),
                               off_t, rt, ct, M.arrow_ops[arr.name], sign=F.neg(F.one))
        dv = dit.delta.of_arrow(arr.name)
        for w, coeff in dv.terms.items():
            # split at the dashed arrow: suffix acts on N, prefix on M
            j = next(k for k, nm in enumerate(w.arrows) if b.arrow(nm).dashed)
            pts = w.path(b)
            vname = w.arrows[j]
            off_v, rv, cv = offs[("f1", vname)]
            prefix = Word(w.start, w.arrows[:j], w.coeffs[:j + 1])
            suffix = Word(pts[j + 1], w.arrows[j + 1:], w.coeffs[j + 1:])
            pm = M.word_action(prefix)
            sn = N.word_action(suffix)
            builder.add_left_right(rows, sn, off_v, rv, cv, pm, sign=F.neg(coeff))
    return builder.rows, total


def hom(dit: Dit, M: Rep, N: Rep) -> List[MorphismPair]:
    """Exact basis of U(M, N)."""
    from .scalars import linalg

    rows, total = _u_condition_rows(dit, M, N)
    if total == 0:
        return []
    F = M.field
    if not rows:
        basis_vecs = [[F.one if i == j else F.zero for i in range(total)] for j in range(total)]
    else:
        basis_vecs = linalg.kernel_basis(F, rows, total)
    return [_vector_to_pair(dit, M, N, v) for v in basis_vecs]


def hom_dim(dit: Dit, M: Rep, N: Rep) -> int:
    return len(hom(dit, M, N))


def in_hom(dit: Dit, M: Rep, N: Rep, f: MorphismPair) -> bool:
    """Independent membership check of the U-conditions (no solving)."""
    b = dit.bigraph
    F = M.field
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
    F = M.field
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
    any f1, build the A-structure on M making (f0, f1) a морphism into N.

    The construction follows the triangular filtration of the solid arrows, so
    prefixes of delta-values only use already-transported actions.
    """
    b = dit.bigraph
    F = dit.field
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
    # solid arrows in filtration order
    order: List[str] = []
    for level in dit.layer.w0_levels:
        for name in sorted(level):
            if name not in order:
                order.append(name)
    for name in order:
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
    done = set()
    for level in dit.layer.w1_levels:
        for name in sorted(level):
            if name in done:
                continue
            done.add(name)
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
    """End(M) with a fixed basis and structure constants via composition."""

    def __init__(self, dit: Dit, M: Rep):
        self.dit = dit
        self.M = M
        self.F = dit.field
        self.basis = hom(dit, M, M)
        self.dim = len(self.basis)
        self._vecs = [pair_to_vector(dit, M, M, f) for f in self.basis]
        from .scalars import linalg

        self._solve_rows = linalg.transpose(self._vecs) if self._vecs else []

    def coordinates(self, f: MorphismPair) -> List:
        from .scalars import linalg

        vec = pair_to_vector(self.dit, self.M, self.M, f)
        sol = linalg.solve(self.F, self._solve_rows, vec)
        if sol is None:
            raise ModcatError("morphism not in End(M)")
        return sol

    def from_coordinates(self, coords) -> MorphismPair:
        F = self.F
        out = zero_morphism(self.M, self.M)
        for c, b in zip(coords, self.basis):
            if not F.is_zero(c):
                out = morphism_sum(out, morphism_scale(b, c))
        return out

    def multiply(self, a: List, b: List) -> List:
        fa = self.from_coordinates(a)
        fb = self.from_coordinates(b)
        return self.coordinates(compose(self.dit, fa, fb, self.M, self.M, self.M))

    def identity_coords(self) -> List:
        return self.coordinates(identity_morphism(self.M))

    def mult_table(self) -> List[List[List]]:
        table = []
        for i in range(self.dim):
            row = []
            ei = [self.F.one if k == i else self.F.zero for k in range(self.dim)]
            for j in range(self.dim):
                ej = [self.F.one if k == j else self.F.zero for k in range(self.dim)]
                row.append(self.multiply(ei, ej))
            table.append(row)
        return table


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
                a[r] = [F.sub(v, F.mul(f, w)) for v, w in zip(a[r], a[c + 1])]
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
    step is a kernel computation.  The result is verified to be a nilpotent
    ideal before returning.
    """
    from .scalars import linalg

    if dim == 0:
        return []

    def left_mult_matrix(coords) -> Mat:
        cols = []
        for j in range(dim):
            col = [F.zero] * dim
            for i in range(dim):
                if F.is_zero(coords[i]):
                    continue
                prod = table[i][j]
                for k in range(dim):
                    col[k] = F.add(col[k], F.mul(coords[i], prod[k]))
            cols.append(col)
        return Mat(F, dim, dim, [[cols[j][i] for j in range(dim)] for i in range(dim)])

    def cp_coefficient(m: Mat, k: int):
        # coefficient c_k with charpoly = t^n - c_1 t^{n-1} + ... (sign folded)
        chi = charpoly(F, m)
        return chi.coeff(dim - k)

    current: List[List] = [[F.one if i == j else F.zero for i in range(dim)] for j in range(dim)]

    def step(space: List[List], k: int) -> List[List]:
        if not space:
            return []
        rows = []
        for y in space:
            row = []
            for x in space:
                prod = _convolve(F, table, x, y, dim)
                row.append(cp_coefficient(left_mult_matrix(prod), k))
            rows.append(row)
        ker = linalg.kernel_basis(F, rows, len(space))
        out = []
        for combo in ker:
            vec = [F.zero] * dim
            for c, base in zip(combo, space):
                for t in range(dim):
                    vec[t] = F.add(vec[t], F.mul(c, base[t]))
            out.append(vec)
        return out

    if F.char == 0:
        rad = step(current, 1)
    else:
        p = F.char
        power = 1
        rad = current
        while power <= dim:
            rad = step(rad, power)
            if not rad:
                break
            power *= p

    # verification: rad is an ideal and nilpotent
    if rad:
        span_rows = rad

        def in_span(vec):
            return linalg.row_space_contains(F, span_rows, vec)

        for x in rad:
            for j in range(dim):
                ej = [F.one if t == j else F.zero for t in range(dim)]
                if not in_span(_convolve(F, table, x, ej, dim)):
                    raise ModcatError("radical computation produced a non-ideal")
                if not in_span(_convolve(F, table, ej, x, dim)):
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


def _convolve(F, table, x, y, dim):
    out = [F.zero] * dim
    for i in range(dim):
        if F.is_zero(x[i]):
            continue
        for j in range(dim):
            if F.is_zero(y[j]):
                continue
            prod = table[i][j]
            c = F.mul(x[i], y[j])
            for k in range(dim):
                out[k] = F.add(out[k], F.mul(c, prod[k]))
    return out


def _min_poly(F, table, dim, x, identity_coords) -> Poly:
    from .scalars import linalg

    powers = [list(identity_coords)]
    cur = list(identity_coords)
    while True:
        cur = _convolve(F, table, cur, x, dim)
        rows = linalg.transpose(powers)
        sol = linalg.solve(F, rows, cur)
        if sol is not None:
            coeffs = [F.neg(c) for c in sol] + [F.one]
            return Poly.make(F, coeffs)
        powers.append(list(cur))


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
    from .scalars import linalg as la

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
    done_levels = set()
    for level in dit.layer.w1_levels:
        new_names = sorted(n for n in level if n not in done_levels)
        done_levels |= set(level)
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


def _quotient_algebra(F, table, dim, rad):
    """Quotient E/rad with structure constants: returns (proj, lift, qtable,
    qdim) where proj/lift move between E-coordinates and quotient coords."""
    from .scalars import linalg

    red, pivots = linalg.rref(F, rad) if rad else ([], [])
    pivot_set = set(pivots)
    free = [j for j in range(dim) if j not in pivot_set]

    def reduce_mod_rad(vec):
        v = list(vec)
        for r, c in enumerate(pivots):
            if not F.is_zero(v[c]):
                f = v[c]
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, red[r])]
        return v

    def proj(vec):
        v = reduce_mod_rad(vec)
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
            prod = _convolve(F, table, lift([F.one if t == i else F.zero for t in range(qdim)]),
                             lift([F.one if t == j else F.zero for t in range(qdim)]), dim)
            row.append(proj(prod))
        qtable.append(row)
    return proj, lift, qtable, qdim


def _newton_lift_idempotent(F, table, dim, e):
    """e idempotent mod rad -> exact idempotent of E via e <- 3e^2 - 2e^3."""
    for _ in range(dim + 4):
        e2 = _convolve(F, table, e, e, dim)
        if e2 == e:
            return e
        e3 = _convolve(F, table, e2, e, dim)
        e = [F.sub(F.mul(F.from_int(3), a), F.mul(F.from_int(2), b))
             for a, b in zip(e2, e3)]
    e2 = _convolve(F, table, e, e, dim)
    return e if e2 == e else None


def _crt_idempotent(F, qtable, qdim, qident, z, mp) -> Optional[List]:
    """Given z with reducible squarefree-split min poly, the CRT idempotent
    (1 mod first factor power, 0 mod the rest) evaluated at z."""
    facs = poly_factor(mp)
    if len(facs) < 2:
        return None
    f1, m1 = facs[0]
    lead = f1 ** m1
    rest = Poly.one(F)
    for g, m in facs[1:]:
        rest = rest * g ** m
    gcd, s, t = lead.xgcd(rest)
    if not gcd.is_one():
        return None
    q = t * rest
    coords = [F.zero] * qdim
    acc = list(qident)
    for c in q.coeffs:
        if not F.is_zero(c):
            for k in range(qdim):
                coords[k] = F.add(coords[k], F.mul(c, acc[k]))
        acc = _convolve(F, qtable, acc, z, qdim)
    return coords


def _end_is_local(dit: Dit, M: Rep) -> Tuple[bool, Optional[MorphismPair]]:
    """(True, None) when End(M) is local; else (False, e) with a nontrivial
    exact idempotent endomorphism.

    Over a prime field the decision is deterministic: E/rad is semisimple, and
    it is a division ring iff the Frobenius-fixed subspace {z : z^p = z} is
    one-dimensional; a fixed element outside the scalars has a squarefree
    split minimal polynomial and yields an idempotent by CRT.  Over Q the
    commutative case factors a primitive element; indecomposability then means
    an irreducible minimal polynomial.
    """
    E = EndAlgebra(dit, M)
    if E.dim == 1:
        return True, None
    F = E.F
    table = E.mult_table()
    rad = algebra_radical(F, table, E.dim)
    ss_dim = E.dim - len(rad)
    if ss_dim <= 1:
        return True, None
    ident = E.identity_coords()
    proj, lift, qtable, qdim = _quotient_algebra(F, table, E.dim, rad)
    qident = proj(ident)
    from .scalars import linalg

    def finish(q_idem) -> Tuple[bool, Optional[MorphismPair]]:
        e = _newton_lift_idempotent(F, table, E.dim, lift(q_idem))
        if e is None:
            raise ModcatError("idempotent failed to lift")
        if all(F.is_zero(c) for c in e) or e == ident:
            raise ModcatError("degenerate idempotent after lifting")
        return False, E.from_coordinates(e)

    if isinstance(F, PrimeField):
        p = F.p
        cols = []
        for j in range(qdim):
            z = [F.one if t == j else F.zero for t in range(qdim)]
            zp = list(qident)
            # z^p by square-and-multiply in the quotient algebra
            acc = None
            base = z
            n = p
            while n:
                if n & 1:
                    acc = base if acc is None else _convolve(F, qtable, acc, base, qdim)
                base = _convolve(F, qtable, base, base, qdim)
                n >>= 1
            zp = acc
            cols.append([F.sub(a, b) for a, b in zip(zp, z)])
        rows = [[cols[j][i] for j in range(qdim)] for i in range(qdim)]
        fixed = linalg.kernel_basis(F, rows, qdim)
        if len(fixed) <= 1:
            return True, None
        # pick a fixed element outside the scalar line
        for z in fixed:
            if not linalg.row_space_contains(F, [qident], z):
                mp = _min_poly(F, qtable, qdim, z, qident)
                q_idem = _crt_idempotent(F, qtable, qdim, qident, z, mp)
                if q_idem is not None:
                    return finish(q_idem)
        base = fixed[0]
        z = [F.add(a, b) for a, b in zip(fixed[0], fixed[1])]
        mp = _min_poly(F, qtable, qdim, z, qident)
        q_idem = _crt_idempotent(F, qtable, qdim, qident, z, mp)
        if q_idem is not None:
            return finish(q_idem)
        raise ModcatError("Frobenius-fixed element failed to split")

    # characteristic zero: commutative case via a primitive element
    commutative = all(qtable[i][j] == qtable[j][i] for i in range(qdim)
                      for j in range(i + 1, qdim))
    candidates: List[List] = []
    for i in range(qdim):
        candidates.append([F.one if k == i else F.zero for k in range(qdim)])
    for i in range(qdim):
        for j in range(i + 1, qdim):
            candidates.append([F.one if k in (i, j) else F.zero for k in range(qdim)])
    rng = random.Random(SEARCH_SEED)
    for _ in range(300):
        candidates.append([F.random(rng) for _ in range(qdim)])
    best_primitive = None
    for z in candidates:
        mp = _min_poly(F, qtable, qdim, z, qident)
        q_idem = _crt_idempotent(F, qtable, qdim, qident, z, mp)
        if q_idem is not None:
            return finish(q_idem)
        if mp.degree == qdim:
            best_primitive = mp
    if commutative and best_primitive is not None:
        # etale algebra with an irreducible primitive polynomial: a field
        return True, None
    if commutative:
        raise ModcatError("no primitive element found in a commutative quotient")
    raise ModcatError("noncommutative division quotient over Q is out of scope")


def is_indecomposable(dit: Dit, M: Rep) -> bool:
    if M.is_zero():
        return False
    local, _ = _end_is_local(dit, M)
    return local


def decompose(dit: Dit, M: Rep) -> List[Rep]:
    """Krull-Schmidt list of indecomposable summands (with multiplicity)."""
    if M.is_zero():
        return []
    local, e = _end_is_local(dit, M)
    if local:
        return [M]
    M1, M2, _ = split_idempotent(dit, M, e)
    return decompose(dit, M1) + decompose(dit, M2)


def _indec_iso(dit: Dit, M: Rep, N: Rep) -> Optional[MorphismPair]:
    """Indecomposables are isomorphic iff some composite g.f with
    f in Hom(M,N), g in Hom(N,M) misses the radical of End(M): the composite
    is then a unit of the local algebra End(M), forcing f0 bijective."""
    if M.dim_vector() != N.dim_vector():
        return None
    homMN = hom(dit, M, N)
    homNM = hom(dit, N, M)
    if not homMN or not homNM:
        return None
    E = EndAlgebra(dit, M)
    table = E.mult_table()
    rad = algebra_radical(E.F, table, E.dim)
    from .scalars import linalg

    for f in homMN:
        for g in homNM:
            gf = compose(dit, g, f, M, N, M)
            coords = E.coordinates(gf)
            if rad:
                in_rad = linalg.row_space_contains(E.F, rad, coords)
            else:
                in_rad = all(E.F.is_zero(c) for c in coords)
            if not in_rad:
                if is_isomorphism(dit, f, M, N) is not None:
                    return f
    return None


def iso_test(dit: Dit, M: Rep, N: Rep) -> bool:
    """Exact isomorphism decision via Krull-Schmidt matching."""
    if M.dim_vector() != N.dim_vector():
        return False
    if M.is_zero():
        return True
    # quick witness attempts
    basis = hom(dit, M, N)
    for f in basis[:12]:
        if is_isomorphism(dit, f, M, N) is not None:
            return True
    parts_m = decompose(dit, M)
    parts_n = decompose(dit, N)
    if len(parts_m) != len(parts_n):
        return False
    used = [False] * len(parts_n)
    for pm in parts_m:
        found = False
        for i, pn in enumerate(parts_n):
            if used[i]:
                continue
            if _indec_iso(dit, pm, pn) is not None:
                used[i] = True
                found = True
                break
        if not found:
            return False
    return True


def hom_via_quotient(dit: Dit, M: Rep, N: Rep, qp=None) -> List[MorphismPair]:
    """Hom space computed through the quotient-ditalgebra presentation: the
    reduced differential replaces delta and the W1-supported part of the
    generated ideal imposes the V-bar identifications.  Independent of the
    plain interlaced-presentation solver.  Pass a precomputed
    QuotientPresentation to amortize the normal-form setup."""
    from .interlace import quotient
    from .scalars import linalg

    if qp is None:
        qp = quotient(dit)
    b = dit.bigraph
    F = M.field
    blocks, total = _unknown_layout(dit, M, N)
    offs = {(kind, name): (off, r, c) for kind, name, r, c, off in blocks}
    builder = _RowBuilder(F, total)

    for p in b.point_order:
        if b.factor(p).is_trivial:
            continue
        off, r, c = offs[("f0", p)]
        rows = builder.new_rows(N.dims[p] * M.dims[p])
        builder.add_left_right(rows, N.point_ops[p], off, r, c,
                               Mat.identity_of(F, M.dims[p]))
        builder.add_left_right(rows, Mat.identity_of(F, N.dims[p]), off, r, c,
                               M.point_ops[p], sign=F.neg(F.one))

    for arr in b.solid_arrows():
        rows = builder.new_rows(N.dims[arr.target] * M.dims[arr.source])
        off_s, rs, cs = offs[("f0", arr.source)]
        off_t, rt, ct = offs[("f0", arr.target)]
        builder.add_left_right(rows, N.arrow_ops[arr.name], off_s, rs, cs,
                               Mat.identity_of(F, M.dims[arr.source]))
        builder.add_left_right(rows, Mat.identity_of(F, N.dims[arr.target]),
                               off_t, rt, ct, M.arrow_ops[arr.name], sign=F.neg(F.one))
        for w, coeff in qp.reduced_delta[arr.name].terms.items():
            j = next(k for k, nm in enumerate(w.arrows) if b.arrow(nm).dashed)
            pts = w.path(b)
            vname = w.arrows[j]
            off_v, rv, cv = offs[("f1", vname)]
            prefix = Word(w.start, w.arrows[:j], w.coeffs[:j + 1])
            suffix = Word(pts[j + 1], w.arrows[j + 1:], w.coeffs[j + 1:])
            builder.add_left_right(rows, N.word_action(suffix), off_v, rv, cv,
                                   M.word_action(prefix), sign=F.neg(coeff))

    # V-bar identifications: f1 kills the W1-supported part of J cap V
    for e in qp.dashed_kernel:
        groups = {}
        for w, c in e.terms.items():
            key = (w.start, w.end(b))
            groups.setdefault(key, []).append((w, c))
        for (i, jp), terms in groups.items():
            rows = builder.new_rows(N.dims[jp] * M.dims[i])
            for w, c in terms:
                vname = w.arrows[0]
                off_v, rv, cv = offs[("f1", vname)]
                left = N.decoration_action(jp, w.coeffs[1])
                right = M.decoration_action(i, w.coeffs[0])
                builder.add_left_right(rows, left, off_v, rv, cv, right, sign=c)

    if total == 0:
        return []
    if not builder.rows:
        vecs = [[F.one if i == j else F.zero for i in range(total)] for j in range(total)]
    else:
        vecs = linalg.kernel_basis(F, builder.rows, total)
    return [_vector_to_pair(dit, M, N, v) for v in vecs]
