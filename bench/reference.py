"""Answer references that do not use the package under test.

Everything here is plain exact arithmetic on nested lists: F_p as ints
reduced mod p, Q as `fractions.Fraction`. A module is given by its
dimension map and its solid-arrow matrices (target x source rows).

Two fixtures are covered:

* `exk`, the Kronecker quiver a, b: 1 -> 2 with zero differential. Every
  indecomposable is preprojective (n, n+1), preinjective (n+1, n), or
  regular (n, n) attached to a closed point f of P^1 with multiplicity t,
  where det(A - yB) = c * f^t. `kronecker_key` returns that class name after
  checking indecomposability through the dimension of End.
* `exl`, the chain g: 1 -> 2, h: 2 -> 3 with hg = 0 and an isolated point 4
  (its dashed arrows carry zero differential, so isomorphism and
  indecomposability are those of the underlying quiver representation).
  The indecomposables of dimension <= 4 are thin interval modules;
  `thin_key` names one after checking it is connected.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Arith:
    """Exact scalar arithmetic for F_p (p > 0) or Q (p == 0)."""

    def __init__(self, p: int):
        self.p = p

    def norm(self, x):
        return x % self.p if self.p else Fraction(x)

    def parse(self, s: str):
        return self.norm(int(s)) if self.p else Fraction(s)

    def inv(self, x):
        return pow(x, self.p - 2, self.p) if self.p else 1 / x


def rank(ar: Arith, rows) -> int:
    """Rank by Gaussian elimination on a copy of `rows`."""
    m = [[ar.norm(v) for v in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = ar.inv(m[r][c])
        m[r] = [ar.norm(v * inv) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [ar.norm(a - f * b) for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def end_dim(ar: Arith, dims: dict, arrows: dict, quiver) -> int:
    """dim of quiver endomorphisms: families (X_p) with X_t A = A X_s for
    every arrow (name, s, t) in `quiver`."""
    offs, total = {}, 0
    for p in sorted(dims):
        offs[p] = total
        total += dims[p] * dims[p]
    if total == 0:
        return 0
    eqs = []
    for name, s, t in quiver:
        A = arrows.get(name)
        ns, nt = dims[s], dims[t]
        if not ns or not nt:
            continue
        # entry (i, j) of X_t A - A X_s, linear in the unknowns
        for i in range(nt):
            for j in range(ns):
                row = [0] * total
                for k in range(nt):   # (X_t)_{ik} A_{kj}
                    row[offs[t] + i * nt + k] += A[k][j]
                for k in range(ns):   # A_{ik} (X_s)_{kj}
                    row[offs[s] + k * ns + j] -= A[i][k]
                eqs.append(row)
    return total - rank(ar, eqs)


# -- polynomials in y, coefficient lists from the constant term up ------------


def _ptrim(ar, f):
    f = [ar.norm(c) for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(ar, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _ptrim(ar, out)


def _pow(ar, f, n):
    out = [ar.norm(1)]
    for _ in range(n):
        out = _pmul(ar, out, f)
    return out


def _det_pencil(ar, A, B):
    """det(A - y B) for square A, B, by the Leibniz formula (n is small)."""
    n = len(A)
    total = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = [ar.norm(sign)]
        for i in range(n):
            term = _pmul(ar, term, [A[i][perm[i]], -B[i][perm[i]]])
        width = max(len(total), len(term))
        total = [(total[k] if k < len(total) else 0) + (term[k] if k < len(term) else 0)
                 for k in range(width)]
    return _ptrim(ar, total)


def _roots(p, f):
    """Roots in F_p of the polynomial f."""
    return [r for r in range(p) if sum(c * pow(r, k, p) for k, c in enumerate(f)) % p == 0]


def _closed_point(ar, D, n):
    """(point, t) with D = c * f^t, or None when D has two distinct points.
    The point at infinity shows as a degree drop of D."""
    e = len(D) - 1
    if e < 0:
        return None           # singular pencil: not regular
    if e == 0:
        return ("inf",), n
    if e < n:
        return None           # a finite and an infinite point
    lead_inv = ar.inv(D[-1])
    monic = [ar.norm(c * lead_inv) for c in D]
    if ar.p:
        roots = _roots(ar.p, monic)
    else:
        roots = [-monic[n - 1] / n]   # D = c (y - r)^n forces this r
    for r in roots:
        if _pow(ar, [ar.norm(-r), ar.norm(1)], n) == monic:
            return ("root", r), n
    if ar.p and not roots and n <= 3:
        return ("irr", tuple(monic)), 1
    return None


KRONECKER = (("a", "1", "2"), ("b", "1", "2"))


def kronecker_key(ar: Arith, dims: dict, arrows: dict):
    """Isomorphism class of an indecomposable Kronecker module, or None if
    the module is decomposable or outside what this reference decides."""
    n1, n2 = dims.get("1", 0), dims.get("2", 0)
    e = end_dim(ar, {"1": n1, "2": n2}, arrows, KRONECKER)
    if n2 == n1 + 1:
        return ("P", n1) if e == 1 else None
    if n1 == n2 + 1:
        return ("I", n2) if e == 1 else None
    if n1 != n2 or n1 == 0:
        return None
    D = _det_pencil(ar, arrows["a"], arrows["b"])
    found = _closed_point(ar, D, n1)
    if found is None or e != n1:
        return None
    point, t = found
    return ("R", point, t)


def thin_key(dims: dict, arrows: dict):
    """Class of an indecomposable `exl` module, or None if it is not a
    connected thin module satisfying hg = 0."""
    dv = tuple(dims.get(p, 0) for p in ("1", "2", "3", "4"))
    if any(v > 1 for v in dv) or sum(dv) == 0:
        return None
    g = bool(dv[0] and dv[1] and arrows["g"][0][0] != 0)
    h = bool(dv[1] and dv[2] and arrows["h"][0][0] != 0)
    if g and h:
        return None           # violates hg = 0
    support = sum(dv)
    if support - (g + h) != 1:
        return None           # disconnected support
    return (dv, g, h)


# -- expected class sets ------------------------------------------------------


def kronecker_classes_fq(p: int, d: int):
    """All indecomposable Kronecker classes of total dimension <= d over F_p
    (closed points of degree <= 3 only; enough for d < 8)."""
    out = set()
    for n in range(d):
        if 2 * n + 1 <= d:
            out.add(("P", n))
            out.add(("I", n))
    points = [(("inf",), 1)] + [(("root", r), 1) for r in range(p)]
    for deg in (2, 3):
        for tail in itertools.product(range(p), repeat=deg):
            monic = tail + (1,)
            if not _roots(p, monic):           # no root: irreducible in degree <= 3
                points.append((("irr", monic), deg))
    for point, deg in points:
        for t in range(1, d + 1):
            if 2 * deg * t <= d:
                out.add(("R", point, t))
    return out


def check_kronecker_q(keys, d: int, points: int):
    """Over Q with `points` sampled closed points of degree 1: every
    preprojective/preinjective class up to d, and `points` distinct points
    each with every multiplicity t, 2t <= d. Returns a reason or None."""
    want_pi = {("P", n) for n in range(d) if 2 * n + 1 <= d}
    want_pi |= {("I", n) for n in range(d) if 2 * n + 1 <= d}
    got_pi = {k for k in keys if k[0] in "PI"}
    if got_pi != want_pi:
        return f"preprojective/preinjective classes {sorted(got_pi)} != {sorted(want_pi)}"
    regular = [k for k in keys if k[0] == "R"]
    by_point = {}
    for _, point, t in regular:
        by_point.setdefault(point, set()).add(t)
    want_t = set(range(1, d // 2 + 1))
    if len(by_point) != points or any(ts != want_t for ts in by_point.values()):
        return f"regular classes by point {by_point} (want {points} points x t in {want_t})"
    return None


EXL_CLASSES = {
    ((1, 0, 0, 0), False, False), ((0, 1, 0, 0), False, False),
    ((0, 0, 1, 0), False, False), ((0, 0, 0, 1), False, False),
    ((1, 1, 0, 0), True, False), ((0, 1, 1, 0), False, True),
}
