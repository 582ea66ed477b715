"""Exact dense linear algebra over a ground field.

Matrices are lists of row lists holding raw field values; every routine takes
the field context explicitly.  Everything here is plain Gaussian elimination,
which is all the artifact needs at desk scale.  `Mat` also holds entries in a
ring such as k[x]_h (any context with the field's add/mul/neg/is_zero); over a
ring, where a pivot may be a non-unit, `det` and `inverse` use cofactors.
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

def shape(m: Matrix) -> Tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def add(F: Field, a: Matrix, b: Matrix) -> Matrix:
    return [[F.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(F: Field, a: Matrix, b: Matrix) -> Matrix:
    return [[F.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def neg(F: Field, a: Matrix) -> Matrix:
    return [[F.neg(x) for x in r] for r in a]


def scale(F: Field, c, a: Matrix) -> Matrix:
    return [[F.mul(c, x) for x in r] for r in a]


def mul(F: Field, a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(F, n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if F.is_zero(c):
                continue
            bt = b[t]
            for j in range(m):
                if not F.is_zero(bt[j]):
                    oi[j] = F.add(oi[j], F.mul(c, bt[j]))
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def equal(F: Field, a: Matrix, b: Matrix) -> bool:
    if shape(a) != shape(b):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rref(F: Field, m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = copy(m)
    rows = len(a)
    cols = len(a[0]) if a else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if not F.is_zero(a[i][c]):
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = F.inv(a[r][c])
        a[r] = [F.mul(inv, v) for v in a[r]]
        for i in range(rows):
            if i != r and not F.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(F: Field, m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    return len(rref(F, m)[1])


def kernel_basis(F: Field, m: Matrix, cols: Optional[int] = None) -> List[List]:
    """Nullspace basis of m (solutions of m*v = 0) as a list of vectors."""
    if cols is None:
        cols = len(m[0]) if m else 0
    if not m:
        return [ [F.one if i == j else F.zero for i in range(cols)] for j in range(cols) ]
    a, pivots = rref(F, m)
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    basis = []
    for free in range(cols):
        if free in pivot_of_col:
            continue
        v = [F.zero] * cols
        v[free] = F.one
        for c, r in pivot_of_col.items():
            v[c] = F.neg(a[r][free])
        basis.append(v)
    return basis


def solve(F: Field, a: Matrix, b: Sequence) -> Optional[List]:
    """One solution of a*x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if a else 0
    aug = [list(r) + [bv] for r, bv in zip(a, b)]
    red, pivots = rref(F, aug)
    for r in range(len(pivots), rows):
        if not F.is_zero(red[r][cols]):
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
            if not F.is_zero(a[i][c]):
                piv = i
                break
        if piv is None:
            return F.zero
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = F.neg(d)
        d = F.mul(d, a[c][c])
        inv = F.inv(a[c][c])
        for i in range(c + 1, n):
            if not F.is_zero(a[i][c]):
                f = F.mul(inv, a[i][c])
                a[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(a[i], a[c])]
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
        if not R.is_zero(m[0][j]):
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


def row_space_contains(F: Field, span_rows: Matrix, vec: Sequence) -> bool:
    """Is vec in the row space of span_rows?"""
    if all(F.is_zero(v) for v in vec):
        return True
    if not span_rows:
        return False
    base = rank(F, span_rows)
    return rank(F, span_rows + [list(vec)]) == base


def solve_linear(F: Field, system: Matrix, rhs: Sequence):
    """Exact affine solution space of system*x = rhs.

    Returns (particular, kernel_basis) or None when inconsistent; the
    distinguished no-solution value is None rather than an exception.
    """
    part = solve(F, system, rhs)
    if part is None:
        return None
    cols = len(system[0]) if system else len(part)
    return part, kernel_basis(F, system, cols)


class Mat:
    """Shape-aware exact matrix (zero-dimensional shapes are routine for
    representations, so shapes are explicit rather than inferred)."""

    __slots__ = ("F", "rows", "cols", "data")

    def __init__(self, F: Field, rows: int, cols: int, data=None):
        self.F = F
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[F.zero] * cols for _ in range(rows)]
        else:
            self.data = [list(r) for r in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise ValueError(f"shape mismatch: want {rows}x{cols}")

    @staticmethod
    def identity_of(F: Field, n: int) -> "Mat":
        return Mat(F, n, n, identity(F, n))

    def copy(self) -> "Mat":
        return Mat(self.F, self.rows, self.cols, self.data)

    def __add__(self, o: "Mat") -> "Mat":
        return Mat(self.F, self.rows, self.cols, add(self.F, self.data, o.data))

    def __sub__(self, o: "Mat") -> "Mat":
        return Mat(self.F, self.rows, self.cols, sub(self.F, self.data, o.data))

    def __neg__(self) -> "Mat":
        return Mat(self.F, self.rows, self.cols, neg(self.F, self.data))

    def scale(self, c) -> "Mat":
        return Mat(self.F, self.rows, self.cols, scale(self.F, c, self.data))

    def __mul__(self, o: "Mat") -> "Mat":
        if self.cols != o.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {o.rows}x{o.cols}")
        if self.rows == 0 or o.cols == 0 or self.cols == 0:
            return Mat(self.F, self.rows, o.cols)
        return Mat(self.F, self.rows, o.cols, mul(self.F, self.data, o.data))

    def __eq__(self, o) -> bool:
        return (isinstance(o, Mat) and o.rows == self.rows and o.cols == self.cols
                and all(x == y for ra, rb in zip(self.data, o.data) for x, y in zip(ra, rb)))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def is_zero(self) -> bool:
        return all(self.F.is_zero(x) for r in self.data for x in r)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return self == Mat.identity_of(self.F, self.rows)

    def inverse(self) -> Optional["Mat"]:
        if self.rows != self.cols:
            return None
        if self.rows == 0:
            return Mat(self.F, 0, 0)
        if isinstance(self.F, Field):
            inv = inverse(self.F, self.data)
        else:
            inv = adjugate_inverse(self.F, self.data)
        return None if inv is None else Mat(self.F, self.rows, self.cols, inv)

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
        return Mat(self.F, self.cols, self.rows,
                   transpose(self.data) if self.rows and self.cols else None)

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
        return Mat(self.F, r1 - r0, c1 - c0,
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
