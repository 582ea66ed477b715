"""Dense univariate polynomials over an exact field, with factorization.

Coefficients ascend by degree and the leading coefficient is nonzero unless
the polynomial is zero (empty coefficient tuple).  Factorization is Berlekamp
for prime fields and Zassenhaus over Q; both are exact and deterministic.
Over Q each squarefree part is made a primitive f in Z[x] of degree n and
factored by Berlekamp modulo the first odd prime p that keeps it squarefree
of degree n.  Those factors are lifted by linear Hensel lifting
(`_hensel_lift`) to the least power q of p above 2B, with
B = |lc(f)| 2^n (floor(sqrt(sum of the squared coefficients)) + 1), which
by Mignotte's bound bounds the coefficients of lc(f) times any factor of f.
Subsets of the lifted factors are then tried by trial division in Q[x].
All of this arithmetic is `Poly`'s, over F_p or over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import List, Tuple

from . import linalg
from .fields import Field, PrimeField, RationalField, is_prime


@dataclass(frozen=True)
class Poly:
    field: Field
    coeffs: Tuple  # ascending degree, trailing entry nonzero

    # -- construction -------------------------------------------------

    @staticmethod
    def make(field: Field, coeffs) -> "Poly":
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly(field, (field.one,))

    @staticmethod
    def const(field: Field, c) -> "Poly":
        return Poly.make(field, [c])

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly(field, (field.zero, field.one))

    @staticmethod
    def from_ints(field: Field, ints) -> "Poly":
        return Poly.make(field, [field.from_int(n) for n in ints])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        # falsy exactly at zero, as a ring context's values must be
        return bool(self.coeffs)

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly.make(F, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, tuple(F.neg(c) for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if F.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(ca, cb))
        return Poly.make(F, out)

    def scale(self, c) -> "Poly":
        F = self.field
        if F.is_zero(c):
            return Poly.zero(F)
        return Poly(F, tuple(F.mul(c, a) for a in self.coeffs))

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        d = other.degree
        lc_inv = F.inv(other.leading())
        q = [F.zero] * max(0, len(r) - d)
        while len(r) - 1 >= d and r:
            k = len(r) - 1 - d
            c = F.mul(r[-1], lc_inv)
            if not F.is_zero(c):
                q[k] = c
                for i, oc in enumerate(other.coeffs):
                    r[k + i] = F.sub(r[k + i], F.mul(c, oc))
            r.pop()
        return Poly.make(F, q), Poly.make(F, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def __pow__(self, n: int) -> "Poly":
        result = Poly.one(self.field)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def pow_mod(self, n: int, modulus: "Poly") -> "Poly":
        result = Poly.one(self.field) % modulus
        base = self % modulus
        while n > 0:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "Poly") -> Tuple["Poly", "Poly", "Poly"]:
        """Return (g, s, t) with s*self + t*other = g, g monic."""
        F = self.field
        a, b = self, other
        sa, sb = Poly.one(F), Poly.zero(F)
        ta, tb = Poly.zero(F), Poly.one(F)
        while not b.is_zero():
            q, r = a.divmod(b)
            a, b = b, r
            sa, sb = sb, sa - q * sb
            ta, tb = tb, ta - q * tb
        if a.is_zero():
            return a, sa, ta
        c = F.inv(a.leading())
        return a.scale(c), sa.scale(c), ta.scale(c)

    def derivative(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(F.from_int(i), self.coeffs[i]))
        return Poly.make(F, out)

    def eval(self, v):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, v), c)
        return acc

    def compose(self, other: "Poly") -> "Poly":
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * other + Poly.const(self.field, c)
        return acc

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        F = self.field
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if F.is_zero(c):
                continue
            if i == 0:
                parts.append(F.format(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == F.one:
                    parts.append(xs)
                else:
                    parts.append(f"{F.format(c)}*{xs}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self})"


# -- factorization ------------------------------------------------------


def squarefree_decomposition(f: Poly) -> List[Tuple[Poly, int]]:
    """Yun/Musser decomposition into (squarefree factor, multiplicity)."""
    F = f.field
    out: List[Tuple[Poly, int]] = []
    f = f.monic()
    if f.degree < 1:
        return out
    p = F.char

    def _sqf(g: Poly, mult: int):
        if g.degree < 1:
            return
        d = g.derivative()
        if d.is_zero():
            # g = h(x^p); take p-th root (Frobenius fixed on F_p coefficients)
            assert p > 0
            root = Poly.make(F, [g.coeff(i * p) for i in range(g.degree // p + 1)])
            _sqf(root, mult * p)
            return
        c = g.gcd(d)
        w = g // c
        i = 1
        while w.degree >= 1:
            y = w.gcd(c)
            z = w // y
            if z.degree >= 1:
                out.append((z.monic(), mult * i))
            w = y
            c = c // y
            i += 1
        if c.degree >= 1:
            # leftover is a p-th power d(x^p); the derivative-zero branch
            # applies the factor p when taking the root
            _sqf(c, mult)

    _sqf(f, 1)
    return out


def min_poly(F: Field, powers) -> Poly:
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


def _split_values(v: Poly, g: Poly) -> List[int]:
    """The c in F_p, ascending, with gcd(g, v - c) nontrivial, for g
    squarefree and v^p = v mod g: the roots of the minimal polynomial of v
    in F_p[x]/(g), found by evaluating it at every c."""
    F = g.field
    n = g.degree
    vg = v % g

    def powers():
        cur = Poly.one(F)
        while True:
            yield [cur.coeff(j) for j in range(n)]
            cur = (cur * vg) % g

    mp = min_poly(F, powers())
    return [c for c in range(F.p) if F.is_zero(mp.eval(c))]


def _berlekamp_splitting(f: Poly) -> List[Poly]:
    """Split a monic squarefree f over a prime field into irreducibles
    (Berlekamp, Factoring polynomials over large finite fields, Math. Comp.
    24, 1970).  Each kernel vector v of the Berlekamp matrix, v^p = v mod f,
    splits every factor g found so far by gcd(g, v - c).  By the Chinese
    remainder theorem F_p[x]/(g) is the product of the fields
    F_p[x]/(g_i) over g's irreducible factors g_i, in which v is fixed by
    Frobenius, so v = s_i mod g_i with s_i in F_p.  gcd(g, v - c) is then
    the product of the g_i with s_i = c: nontrivial exactly when c is a root
    of v's minimal polynomial prod (x - s_i) in F_p[x]/(g), of degree at
    most the number of g_i, and g is the product of these gcds.  So the gcds
    run only at the roots, in increasing order, and give the factors that
    trying every c in F_p in turn gives, in the same order."""
    F = f.field
    assert isinstance(F, PrimeField)
    p = F.p
    n = f.degree
    if n <= 1:
        return [f]
    # Berlekamp matrix: x^(p*i) mod f for i in [0, n)
    rows = []
    xp = Poly.x(F).pow_mod(p, f)
    cur = Poly.one(F)
    for i in range(n):
        rows.append([cur.coeff(j) for j in range(n)])
        cur = (cur * xp) % f
    # Kernel of (B - I)^T acting on coefficient columns: v(x)^p = v(x) mod f.
    mat = [[F.sub(rows[i][j], F.one if i == j else F.zero) for i in range(n)] for j in range(n)]
    kernel = linalg.kernel_basis(F, mat, n)
    r = len(kernel)
    if r == 1:
        return [f]
    factors = [f]
    for vec in kernel:
        v = Poly.make(F, vec)
        if v.is_constant():
            continue
        next_factors = []
        for g in factors:
            if g.degree <= 1:
                next_factors.append(g)
                continue
            roots = _split_values(v, g)
            next_factors.extend([g.gcd(v - Poly.const(F, c)) for c in roots]
                                if len(roots) > 1 else [g])
        factors = next_factors
        if len(factors) == r:
            break
    return [g.monic() for g in factors]


def _factor_prime_field(f: Poly) -> List[Tuple[Poly, int]]:
    out = []
    for g, mult in squarefree_decomposition(f):
        for irr in _berlekamp_splitting(g):
            if irr.degree >= 1:
                out.append((irr, mult))
    return out


# -- Zassenhaus over Q ---------------------------------------------------


def _primitive_int(f: Poly) -> Poly:
    """The primitive integer polynomial with f's roots: denominators
    cleared, content divided out and the leading coefficient positive."""
    den = lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return Poly.from_ints(f.field, [c // content for c in ints])


def _hensel_lift(ints: Poly, factors: List[Poly], q: int) -> List[Poly]:
    """Lift monic pairwise coprime factors g_i in F_p[x] of ints mod p, a
    primitive polynomial in Z[x] with p not dividing its leading coefficient
    lc, to monic integer polynomials with coefficients in [0, q) whose
    product is f = ints/lc mod q, for q a power of p (linear multifactor
    Hensel lifting).  sigma_i is the inverse of prod_{j != i} g_j modulo
    g_i.  When the g_i multiply to f mod p^k, e = (f - prod g_i)/p^k mod p,
    and g_i += p^k (sigma_i e mod g_i): the sum over i of
    (sigma_i e mod g_i) prod_{j != i} g_j agrees with e modulo every g_i, and
    both have degree < deg f, so they are equal, and the lifted g_i multiply
    to f mod p^(k+1) and stay monic."""
    Fp, QF = factors[0].field, ints.field
    p = Fp.p
    inv_lc = pow(int(ints.leading()), -1, q)
    f = Poly.from_ints(QF, [int(c) * inv_lc % q for c in ints.coeffs])
    sigmas = []
    for i, g in enumerate(factors):
        rest = Poly.one(Fp)
        for h in factors[:i] + factors[i + 1:]:
            rest = rest * h
        sigmas.append((rest % g).xgcd(g)[1])
    lifted = [Poly.from_ints(QF, g.coeffs) for g in factors]
    pk = p
    while pk < q:
        prod = Poly.one(QF)
        for g in lifted:
            prod = prod * g
        e = Poly.from_ints(Fp, [int(c) // pk for c in (f - prod).coeffs])
        lifted = [g + Poly.from_ints(QF, ((s * e) % gp).coeffs).scale(pk)
                  for g, s, gp in zip(lifted, sigmas, factors)]
        pk *= p
    return lifted


def _factor_rationals(f: Poly) -> List[Tuple[Poly, int]]:
    QF = f.field
    out: List[Tuple[Poly, int]] = []
    for g, mult in squarefree_decomposition(f):
        ints = _primitive_int(g)
        n = ints.degree
        if n <= 0:
            continue
        if n == 1:
            out.append((g.monic(), mult))
            continue
        lc = int(ints.leading())
        # choose a prime where g stays squarefree with same degree
        p = 3
        while True:
            while lc % p == 0 or not is_prime(p):
                p += 2 if p > 2 else 1
            Fp = PrimeField(p)
            gp = Poly.from_ints(Fp, [int(c) for c in ints.coeffs])
            if gp.degree == n and gp.gcd(gp.derivative()).is_one():
                break
            p += 2
        modp = _berlekamp_splitting(gp.monic())
        if len(modp) == 1:
            out.append((g.monic(), mult))
            continue
        # Mignotte: lc times any factor of ints in Z[x] has coefficients of
        # absolute value at most B, so the least power of p above 2B tells
        # them apart from their residues centered at 0
        bound = 2 * lc * 2 ** n * (isqrt(sum(int(c) ** 2 for c in ints.coeffs)) + 1)
        q = p
        while q <= bound:
            q *= p
        lifted = _hensel_lift(ints, modp, q)
        # recombination: subsets in combinations order, smallest first, the
        # size restarting after each hit; a primitive candidate divides
        # current in Q[x] exactly when it does in Z[x] (Gauss's lemma)
        remaining = list(range(len(lifted)))
        current = ints
        found: List[Poly] = []
        size = 1
        while 2 * size <= len(remaining):
            hit = True
            while hit:
                hit = False
                for combo in combinations(remaining, size):
                    cand = Poly.const(QF, current.leading())
                    for idx in combo:
                        cand = cand * lifted[idx]
                    cand = _primitive_int(Poly.from_ints(
                        QF, [(int(c) + q // 2) % q - q // 2 for c in cand.coeffs]))
                    quo, rem = current.divmod(cand)
                    if rem.is_zero():
                        found.append(cand)
                        remaining = [i for i in remaining if i not in combo]
                        current = quo
                        hit = True
                        break
            size += 1
        if current.degree >= 1:
            found.append(current)
        out.extend((cand.monic(), mult) for cand in found)
    return out


def factor(f: Poly) -> List[Tuple[Poly, int]]:
    """Factor into monic irreducibles with multiplicities (constant dropped)."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if isinstance(f.field, PrimeField):
        return _factor_prime_field(f)
    if isinstance(f.field, RationalField):
        return _factor_rationals(f)
    raise TypeError(f"unsupported field {f.field!r}")
