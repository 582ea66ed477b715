"""Smith normal form of matrices over k[x].

P*M*Q = D with D diagonal, d_i | d_{i+1}, and P, Q products of elementary
row/column operations (so det(P), det(Q) are nonzero field constants).
Pivoting picks a minimal-degree nonzero entry, ties broken row-major, which
makes the output deterministic.
"""

from __future__ import annotations

from typing import List, Tuple

from .fields import Field
from .poly import Poly

PolyMatrix = List[List[Poly]]


def poly_zeros(F: Field, rows: int, cols: int) -> PolyMatrix:
    z = Poly.zero(F)
    return [[z] * cols for _ in range(rows)]


def poly_identity(F: Field, n: int) -> PolyMatrix:
    out = poly_zeros(F, n, n)
    one = Poly.one(F)
    for i in range(n):
        out[i][i] = one
    return out


def poly_mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if not a or not b:
        return []
    F = None
    for row in a:
        for e in row:
            F = e.field
            break
        if F:
            break
    n, k, m = len(a), len(b), len(b[0])
    out = poly_zeros(F, n, m)
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c.is_zero():
                continue
            for j in range(m):
                if not b[t][j].is_zero():
                    out[i][j] = out[i][j] + c * b[t][j]
    return out


def poly_det(F: Field, m: PolyMatrix) -> Poly:
    """Determinant by fraction-free expansion (small matrices only)."""
    n = len(m)
    if n == 0:
        return Poly.one(F)
    if n == 1:
        return m[0][0]
    acc = Poly.zero(F)
    sign = F.one
    for j in range(n):
        if not m[0][j].is_zero():
            minor = [[m[i][c] for c in range(n) if c != j] for i in range(1, n)]
            acc = acc + (m[0][j] * poly_det(F, minor)).scale(sign)
        sign = F.neg(sign)
    return acc


def smith_normal_form(F: Field, m: PolyMatrix) -> Tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Return (P, D, Q) with P*m*Q = D in Smith form over k[x]."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[e for e in row] for row in m]
    P = poly_identity(F, rows)
    Q = poly_identity(F, cols)

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
