"""Exact linear algebra: the one matrix kernel for every coefficient ring.

Matrices are lists of row lists holding raw ring values; every routine takes
the ring context explicitly.  A ring context has `zero`, `one`, `add`, `sub`,
`mul`, `neg`, `is_zero`, `is_unit` and `inv`; there are three: a ground
`Field` (F_p or Q), `LocalizedRing` (k[x]_h, entries `LocElt`) and
`PolyRing` (k[x], entries `Poly`).  Every ring value is falsy exactly when
it is zero (F_p values and integral Q values are ints, any other Q value a
`Fraction`; `Poly` and `LocElt` define `__bool__`), so
`bool(a) == (not R.is_zero(a))` and this module tests an entry by its truth
value, with no call.  `zeros`, `identity`, `add`, `sub`,
`mul`, `transpose`, `cofactor_det` and `adjugate_inverse` work over any of
them.  The eliminations (`rref`, `kernel_basis`, `solve`, `det`, `inverse`)
divide by pivots and need a field.  Every "is v in this span" and
"v modulo this span" question is one `rref` of the span and `residue` of v
against it.  `Mat.det` and `Mat.inverse` use elimination over a field and
cofactors over a ring, where a pivot may be a non-unit.

Rows are stored dense but eliminated sparse: a pivot row's nonzero entries
are collected once as nz = [(j, w), ...], and every row it clears is
updated at those positions only, by the field context's
`sub_scaled(row, f, nz)` (row[j] -= f*w in place).  A field context must
provide it; `Field` spells it with `sub` and `mul`, and a subclass may
inline its arithmetic.  Skipping w = 0 only skips v - f*0 = v, so every
result equals the dense elimination's, value for value.

`Mat(F, rows, cols, data)` and `Mat.copy` copy the rows they are given.
The results of `+`, `-`, negation, `scale`, `*`, `inverse`, `transpose`,
`submatrix` and `identity_of` are built from fresh rows, which the new
`Mat` takes over uncopied (`Mat._owning`, which still checks the shape); no
result shares a row list with an operand.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .fields import Field


Matrix = List[List]  # row-major raw field values


def zeros(F: Field, rows: int, cols: int) -> Matrix:
    return [[F.zero] * cols for _ in range(rows)]


def identity(F: Field, n: int) -> Matrix:
    out = zeros(F, n, n)
    for i in range(n):
        out[i][i] = F.one
    return out


def copy(m: Matrix) -> Matrix:
    return [list(r) for r in m]


def add(F: Field, a: Matrix, b: Matrix) -> Matrix:
    return [[F.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(F: Field, a: Matrix, b: Matrix) -> Matrix:
    return [[F.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def neg(F: Field, a: Matrix) -> Matrix:
    return [[F.neg(x) for x in r] for r in a]


def scale(F: Field, c, a: Matrix) -> Matrix:
    return [[F.mul(c, x) for x in r] for r in a]


def mul(F: Field, a: Matrix, b: Matrix) -> Matrix:
    # b's zeros are skipped as met: collecting each row's nonzero entries
    # once per call, as the eliminations do for a pivot row, measured slower,
    # since most products here have so few rows that a row of b is used once
    m = len(b[0]) if b else 0
    add, fmul = F.add, F.mul
    out = []
    for ai in a:
        oi = [F.zero] * m
        for c, bt in zip(ai, b):
            if c:
                for j, w in enumerate(bt):
                    if w:
                        oi[j] = add(oi[j], fmul(c, w))
        out.append(oi)
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def rref(F: Field, m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = copy(m)
    rows = len(a)
    cols = len(a[0]) if a else 0
    mul, sub_scaled = F.mul, F.sub_scaled
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row = a[r]
        inv = F.inv(row[c])
        # the pivot row is zero left of c: scale and collect the rest once
        nz = []
        for j in range(c, cols):
            if row[j]:
                row[j] = w = mul(inv, row[j])
                nz.append((j, w))
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                sub_scaled(a[i], f, nz)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(F: Field, m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    return len(rref(F, m)[1])


def kernel_with_free(F: Field, m: Matrix, cols: Optional[int] = None) -> Tuple[List[List], List[int]]:
    """Nullspace basis of m (solutions of m*v = 0) and its free columns:
    basis vector k is 1 at free[k] and 0 at every other free column, so a
    kernel vector's coordinates are its entries at the free columns."""
    if cols is None:
        cols = len(m[0]) if m else 0
    if not m:
        return identity(F, cols), list(range(cols))
    a, pivots = rref(F, m)
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    free = [c for c in range(cols) if c not in pivot_of_col]
    basis = []
    for f in free:
        v = [F.zero] * cols
        v[f] = F.one
        for c, r in pivot_of_col.items():
            v[c] = F.neg(a[r][f])
        basis.append(v)
    return basis, free


def kernel_basis(F: Field, m: Matrix, cols: Optional[int] = None) -> List[List]:
    """Nullspace basis of m (solutions of m*v = 0) as a list of vectors."""
    return kernel_with_free(F, m, cols)[0]


def solve(F: Field, a: Matrix, b: Sequence) -> Optional[List]:
    """One solution of a*x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    aug = [list(r) + [bv] for r, bv in zip(a, b)]
    red, pivots = rref(F, aug)
    for r in range(len(pivots), rows):
        if red[r][cols]:
            return None
    if any(p == cols for p in pivots):
        return None
    x = [F.zero] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def det(F: Field, m: Matrix):
    n = len(m)
    a = copy(m)
    d = F.one
    for c in range(n):
        piv = None
        for i in range(c, n):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            return F.zero
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = F.neg(d)
        row = a[c]
        d = F.mul(d, row[c])
        inv = F.inv(row[c])
        nz = [(j, row[j]) for j in range(c, n) if row[j]]
        for i in range(c + 1, n):
            if a[i][c]:
                F.sub_scaled(a[i], F.mul(inv, a[i][c]), nz)
    return d


def inverse(F: Field, m: Matrix) -> Optional[Matrix]:
    n = len(m)
    aug = [list(r) + row for r, row in zip(m, identity(F, n))]
    red, pivots = rref(F, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def cofactor_det(R, m: Matrix):
    """Determinant by cofactor expansion along the first row.  It divides by
    nothing, so it also works over a ring whose pivots may be non-units,
    such as k[x]_h."""
    n = len(m)
    if n == 0:
        return R.one
    acc = R.zero
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = R.mul(m[0][j], cofactor_det(R, minor))
            acc = R.add(acc, term if j % 2 == 0 else R.neg(term))
    return acc


def adjugate_inverse(R, m: Matrix) -> Optional[Matrix]:
    """adj(m) / det(m), or None when det(m) is not a unit of the ring R."""
    n = len(m)
    d = cofactor_det(R, m)
    if not R.is_unit(d):
        return None
    dinv = R.inv(d)
    out = zeros(R, n, n)
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1:] for r, row in enumerate(m) if r != j]
            cof = R.mul(dinv, cofactor_det(R, minor))
            out[i][j] = cof if (i + j) % 2 == 0 else R.neg(cof)
    return out


def residue(F: Field, red: Matrix, pivots: Sequence[int], vec: Sequence) -> List:
    """vec reduced by the rows of a reduced row echelon form (red, pivots =
    `rref(F, span)`): zero exactly when vec lies in the span, and equal for
    two vectors exactly when their difference does."""
    v = list(vec)
    for row, c in zip(red, pivots):
        f = v[c]
        if f:
            F.sub_scaled(v, f, [(j, row[j]) for j in range(c, len(row)) if row[j]])
    return v


def row_space_contains(F: Field, span_rows: Matrix, vec: Sequence) -> bool:
    """Is vec in the row space of span_rows?"""
    if not any(vec):
        return True
    if not span_rows:
        return False
    return not any(residue(F, *rref(F, span_rows), vec))


def _checked(data: Matrix, rows: int, cols: int) -> Matrix:
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError(f"shape mismatch: want {rows}x{cols}")
    return data


class Mat:
    """Shape-aware exact matrix (zero-dimensional shapes are routine for
    representations, so shapes are explicit rather than inferred).

    `Mat(F, rows, cols, data)` copies `data`; `Mat._owning` keeps the row
    lists it is given, for rows built fresh by the caller."""

    __slots__ = ("F", "rows", "cols", "data")

    def __init__(self, F: Field, rows: int, cols: int, data=None):
        self.F = F
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[F.zero] * cols for _ in range(rows)]
        else:
            self.data = _checked([list(r) for r in data], rows, cols)

    @staticmethod
    def _owning(F: Field, rows: int, cols: int, data: Matrix) -> "Mat":
        """The matrix whose rows are the lists of `data` themselves, with
        no copy: the caller hands over rows that nothing else holds."""
        out = Mat.__new__(Mat)
        out.F, out.rows, out.cols = F, rows, cols
        out.data = _checked(data, rows, cols)
        return out

    @staticmethod
    def identity_of(F: Field, n: int) -> "Mat":
        return Mat._owning(F, n, n, identity(F, n))

    def copy(self) -> "Mat":
        return Mat(self.F, self.rows, self.cols, self.data)

    def __add__(self, o: "Mat") -> "Mat":
        return Mat._owning(self.F, self.rows, self.cols, add(self.F, self.data, o.data))

    def __sub__(self, o: "Mat") -> "Mat":
        return Mat._owning(self.F, self.rows, self.cols, sub(self.F, self.data, o.data))

    def __neg__(self) -> "Mat":
        return Mat._owning(self.F, self.rows, self.cols, neg(self.F, self.data))

    def scale(self, c) -> "Mat":
        return Mat._owning(self.F, self.rows, self.cols, scale(self.F, c, self.data))

    def __mul__(self, o: "Mat") -> "Mat":
        if self.cols != o.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {o.rows}x{o.cols}")
        if self.rows == 0 or o.cols == 0 or self.cols == 0:
            return Mat(self.F, self.rows, o.cols)
        return Mat._owning(self.F, self.rows, o.cols, mul(self.F, self.data, o.data))

    def __eq__(self, o) -> bool:
        return (isinstance(o, Mat) and o.rows == self.rows and o.cols == self.cols
                and all(x == y for ra, rb in zip(self.data, o.data) for x, y in zip(ra, rb)))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def inverse(self) -> Optional["Mat"]:
        if self.rows != self.cols:
            return None
        if self.rows == 0:
            return Mat(self.F, 0, 0)
        if isinstance(self.F, Field):
            inv = inverse(self.F, self.data)
        else:
            inv = adjugate_inverse(self.F, self.data)
        return None if inv is None else Mat._owning(self.F, self.rows, self.cols, inv)

    def det(self):
        if self.rows == 0:
            return self.F.one
        if isinstance(self.F, Field):
            return det(self.F, self.data)
        return cofactor_det(self.F, self.data)

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        return rank(self.F, self.data)

    def transpose(self) -> "Mat":
        if not (self.rows and self.cols):
            return Mat(self.F, self.cols, self.rows)
        return Mat._owning(self.F, self.cols, self.rows, transpose(self.data))

    def power(self, n: int) -> "Mat":
        out = Mat.identity_of(self.F, self.rows)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        return Mat._owning(self.F, r1 - r0, c1 - c0,
                          [row[c0:c1] for row in self.data[r0:r1]])

    def column_space_basis(self) -> List[List]:
        if self.rows == 0 or self.cols == 0:
            return []
        _, piv = rref(self.F, self.data)
        cols = transpose(self.data)
        return [cols[c] for c in piv]

    def kernel(self) -> List[List]:
        if self.cols == 0:
            return []
        if self.rows == 0:
            return [[self.F.one if i == j else self.F.zero for i in range(self.cols)]
                    for j in range(self.cols)]
        return kernel_basis(self.F, self.data, self.cols)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}: {self.data})"


def block_matrix(F: Field, blocks: List[List[Optional["Mat"]]],
                 row_dims: List[int], col_dims: List[int]) -> "Mat":
    """Assemble a block matrix; None blocks are zero."""
    out = Mat(F, sum(row_dims), sum(col_dims))
    r0 = 0
    for bi, rdim in enumerate(row_dims):
        c0 = 0
        for bj, cdim in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is not None:
                for i in range(rdim):
                    for j in range(cdim):
                        out.data[r0 + i][c0 + j] = blk.data[i][j]
            c0 += cdim
        r0 += rdim
    return out
