"""Dense univariate polynomials over an exact field, with factorization.

Coefficients ascend by degree and the leading coefficient is nonzero unless
the polynomial is zero (empty coefficient tuple).  Factorization is Berlekamp
for prime fields and Zassenhaus (Hensel lifting plus subset recombination)
over Q; both are exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _berlekamp_splitting(f: Poly) -> List[Poly]:
    """Split a monic squarefree f over a prime field into irreducibles."""
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
            pieces = []
            rest = g
            for c in range(p):
                if rest.degree < 1:
                    break
                d = rest.gcd(v - Poly.const(F, F.from_int(c)))
                if 0 < d.degree < rest.degree:
                    pieces.append(d)
                    rest = rest // d
                elif d.degree == rest.degree:
                    pieces.append(rest)
                    rest = Poly.one(F)
            if rest.degree >= 1:
                pieces.append(rest)
            next_factors.extend(pieces if pieces else [g])
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


def _to_int_primitive(f: Poly) -> List[int]:
    """Clear denominators, divide by content; positive leading coefficient."""
    from math import gcd, lcm

    den = 1
    for c in f.coeffs:
        den = lcm(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in f.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    g = g or 1
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _int_poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _hensel_lift_pair(g: List[int], h: List[int], s: List[int], t: List[int],
                      f: List[int], p: int, target: int):
    """Lift f = g*h (mod p) with s*g + t*h = 1 (mod p) to modulus >= target."""

    def trunc(poly, m):
        return [c % m for c in poly]

    def pm_mul(a, b, m):
        return [c % m for c in _int_poly_mul(a, b)] if a and b else [0]

    def pm_sub(a, b, m):
        n = max(len(a), len(b))
        return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m for i in range(n)]

    def pm_add(a, b, m):
        n = max(len(a), len(b))
        return [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)]

    def pm_divmod(a, b, m):
        # b monic required
        a = list(a)
        db = len(b) - 1
        while len(b) > 1 and b[-1] % m == 0:
            b = b[:-1]
            db -= 1
        q = [0] * max(1, len(a) - db)
        while len(a) - 1 >= db and any(c % m for c in a):
            if a[-1] % m == 0:
                a.pop()
                continue
            k = len(a) - 1 - db
            c = a[-1] % m
            q[k] = (q[k] + c) % m
            for i in range(len(b)):
                a[k + i] = (a[k + i] - c * b[i]) % m
            a.pop()
        return q, a

    q = p
    while q < target:
        q2 = q * q
        # e = f - g*h  (mod q2)
        e = pm_sub(f, _int_poly_mul(g, h), q2)
        # correction: g' = g + t*e mod g-ish  (standard: q_, r_ = divmod(s*e, h))
        se = pm_mul(s, e, q2)
        qq, rr = pm_divmod(se, h, q2)
        g_new = pm_add(g, pm_add(pm_mul(t, e, q2), pm_mul(qq, g, q2), q2), q2)
        h_new = pm_add(h, rr, q2)
        # lift Bezout: b = s*g_new + t*h_new - 1
        b = pm_sub(pm_add(pm_mul(s, g_new, q2), pm_mul(t, h_new, q2), q2), [1], q2)
        sb = pm_mul(s, b, q2)
        qq2, rr2 = pm_divmod(sb, h_new, q2)
        s_new = pm_sub(s, rr2, q2)
        t_new = pm_sub(pm_sub(t, pm_mul(t, b, q2), q2), pm_mul(qq2, g_new, q2), q2)
        g, h, s, t = g_new, h_new, s_new, t_new
        q = q2
    return trunc(g, q), trunc(h, q), q


def _lift_factorization(f: List[int], facs: List[List[int]], p: int, target: int):
    """Hensel-lift a list of pairwise coprime monic factors of f mod p.

    `f` arrives already reduced modulo the working modulus, so a singleton
    branch just returns it.
    """
    if len(facs) == 1:
        q = p
        while q < target:
            q *= q
        return [[c % q for c in f]], q
    k = len(facs) // 2
    Fp = PrimeField(p)
    g = facs[0]
    for extra in facs[1:k]:
        g = _int_poly_mul(g, extra)
    h = facs[k]
    for extra in facs[k + 1:]:
        h = _int_poly_mul(h, extra)
    gp = Poly.from_ints(Fp, g)
    hp = Poly.from_ints(Fp, h)
    one, s, t = gp.xgcd(hp)
    assert one.is_one()
    g2, h2, q = _hensel_lift_pair(
        [c % p for c in g], [c % p for c in h],
        [int(c) for c in s.coeffs] or [0], [int(c) for c in t.coeffs] or [0],
        f, p, target)
    left, ql = _lift_factorization(g2, facs[:k], p, target)
    right, qr = _lift_factorization(h2, facs[k:], p, target)
    # All the same modulus by construction of target
    return left + right, q


def _centered(c: int, q: int) -> int:
    c %= q
    if c > q // 2:
        c -= q
    return c


def _factor_rationals(f: Poly) -> List[Tuple[Poly, int]]:
    QF = f.field
    out: List[Tuple[Poly, int]] = []
    for g, mult in squarefree_decomposition(f):
        ints = _to_int_primitive(g)
        n = len(ints) - 1
        if n <= 0:
            continue
        if n == 1:
            out.append((g.monic(), mult))
            continue
        # choose a prime where g stays squarefree with same degree
        p = 3
        while True:
            while ints[-1] % p == 0 or not is_prime(p):
                p += 2 if p > 2 else 1
            Fp = PrimeField(p)
            gp = Poly.from_ints(Fp, ints)
            if gp.degree == n and gp.gcd(gp.derivative()).is_one():
                break
            p += 2
        modp = [irr for irr in _berlekamp_splitting(Poly.from_ints(Fp, ints).monic())]
        if len(modp) == 1:
            out.append((g.monic(), mult))
            continue
        # Mignotte-style bound on factor coefficients
        height = max(abs(c) for c in ints)
        bound = 2 ** n * height * abs(ints[-1]) * 2 + 1
        fac_ints = [[int(c) for c in irr.coeffs] for irr in modp]
        lc = ints[-1]
        # lift the factorization of the monic image of lc*appropriate scaling:
        # work with monic f mod p^k; recombine with primitive-part test.
        lifted, q = _lift_factorization([c % _target(p, bound) for c in _monic_int(ints, _target(p, bound))],
                                        fac_ints, p, _target(p, bound))
        remaining = list(range(len(lifted)))
        current = ints
        found: List[List[int]] = []
        size = 1
        while 2 * size <= len(remaining):
            hit = True
            while hit:
                hit = False
                from itertools import combinations
                for combo in combinations(remaining, size):
                    cand = [lc % q]
                    for idx in combo:
                        cand = [c % q for c in _int_poly_mul(cand, lifted[idx])]
                    cand = [_centered(c, q) for c in cand]
                    while len(cand) > 1 and cand[-1] == 0:
                        cand.pop()
                    cand = _primitive_int(cand)
                    quo = _int_poly_exact_div(current, cand)
                    if quo is not None:
                        found.append(cand)
                        remaining = [i for i in remaining if i not in combo]
                        current = quo
                        lc = current[-1]
                        hit = True
                        break
            size += 1
        if len(current) > 1:
            found.append(_primitive_int(current))
        for cand in found:
            out.append((Poly.make(QF, [Fraction(c) for c in cand]).monic(), mult))
    return out


def _target(p: int, bound: int) -> int:
    q = p
    while q < bound:
        q *= q
    return q


def _monic_int(ints: List[int], q: int) -> List[int]:
    inv = pow(ints[-1], -1, q)
    return [(c * inv) % q for c in ints]


def _primitive_int(ints: List[int]) -> List[int]:
    from math import gcd

    g = 0
    for v in ints:
        g = gcd(g, v)
    g = g or 1
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _int_poly_exact_div(a: List[int], b: List[int]):
    """Exact division of integer polynomials, or None."""
    if len(b) > len(a):
        return None
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        if a[k + len(b) - 1] % b[-1] != 0:
            return None
        c = a[k + len(b) - 1] // b[-1]
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
    if any(a):
        return None
    return q


def factor(f: Poly) -> List[Tuple[Poly, int]]:
    """Factor into monic irreducibles with multiplicities (constant dropped)."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if isinstance(f.field, PrimeField):
        return _factor_prime_field(f)
    if isinstance(f.field, RationalField):
        return _factor_rationals(f)
    raise TypeError(f"unsupported field {f.field!r}")
