"""Smith normal form of matrices over k[x], and k[x] as a `linalg` ring.

P*M*Q = D with D diagonal, d_i | d_{i+1}, and P, Q products of elementary
row/column operations (so det(P), det(Q) are nonzero field constants).
Pivoting picks a minimal-degree nonzero entry, ties broken row-major, which
makes the output deterministic.  Products, determinants and inverses of
polynomial matrices are `linalg`'s, over the ring context `PolyRing(F)`.
"""

from __future__ import annotations

from typing import List, Tuple

from . import linalg
from .fields import Field
from .poly import Poly

PolyMatrix = List[List[Poly]]


class PolyRing:
    """k[x] as a ring context for `linalg`: entries are plain `Poly`s, and
    the units are the nonzero constants."""

    __slots__ = ("field", "zero", "one")

    def __init__(self, field: Field):
        self.field = field
        self.zero = Poly.zero(field)
        self.one = Poly.one(field)

    def add(self, a: Poly, b: Poly) -> Poly:
        return a + b

    def sub(self, a: Poly, b: Poly) -> Poly:
        return a - b

    def mul(self, a: Poly, b: Poly) -> Poly:
        return a * b

    def neg(self, a: Poly) -> Poly:
        return -a

    def is_zero(self, a: Poly) -> bool:
        return a.is_zero()

    def is_unit(self, a: Poly) -> bool:
        return a.is_constant() and not a.is_zero()

    def inv(self, a: Poly) -> Poly:
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit of k[x]")
        return Poly.const(self.field, self.field.inv(a.coeff(0)))


def smith_normal_form(F: Field, m: PolyMatrix) -> Tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Return (P, D, Q) with P*m*Q = D in Smith form over k[x]."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[e for e in row] for row in m]
    R = PolyRing(F)
    P = linalg.identity(R, rows)
    Q = linalg.identity(R, cols)

    def row_op_sub(i, j, q):
        # row_i -= q * row_j   (on a and P)
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        P[i] = [x - q * y for x, y in zip(P[i], P[j])]

    def col_op_sub(i, j, q):
        # col_i -= q * col_j   (on a and Q)
        for r in range(rows):
            a[r][i] = a[r][i] - q * a[r][j]
        for r in range(cols):
            Q[r][i] = Q[r][i] - q * Q[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        P[i], P[j] = P[j], P[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            Q[r][i], Q[r][j] = Q[r][j], Q[r][i]

    def row_scale(i, c):
        a[i] = [x.scale(c) for x in a[i]]
        P[i] = [x.scale(c) for x in P[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if not a[i][j].is_zero():
                    if best is None or a[i][j].degree < a[best[0]][best[1]].degree:
                        best = (i, j)
        return best

    t = 0
    while True:
        pos = find_pivot(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        # eliminate below / right; restart if a remainder got smaller
        while True:
            dirty = False
            for r in range(t + 1, rows):
                if not a[r][t].is_zero():
                    q, rem = a[r][t].divmod(a[t][t])
                    row_op_sub(r, t, q)
                    if not rem.is_zero():
                        row_swap(r, t)
                        dirty = True
            for c in range(t + 1, cols):
                if not a[t][c].is_zero():
                    q, rem = a[t][c].divmod(a[t][t])
                    col_op_sub(c, t, q)
                    if not rem.is_zero():
                        col_swap(c, t)
                        dirty = True
            if not dirty:
                break
        # make sure the pivot divides every remaining entry
        fixed = True
        for r in range(t + 1, rows):
            for c in range(t + 1, cols):
                if not a[r][c].is_zero() and not a[t][t].divides(a[r][c]):
                    # fold that row into the pivot row and redo this step
                    a[t] = [x + y for x, y in zip(a[t], a[r])]
                    P[t] = [x + y for x, y in zip(P[t], P[r])]
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            row_scale(t, F.inv(a[t][t].leading()))
            t += 1
            if t >= min(rows, cols):
                break
        # else: loop again at same t

    return P, a, Q


def poly_kernel_basis(F: Field, m: PolyMatrix) -> List[List[Poly]]:
    """Basis of the k[x]-module of column vectors v with m*v = 0."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    P, D, Q = smith_normal_form(F, m)
    r = 0
    for i in range(min(rows, cols)):
        if not D[i][i].is_zero():
            r += 1
    basis = []
    for j in range(r, cols):
        basis.append([Q[i][j] for i in range(cols)])
    return basis
