import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ditalg.scalars import (
    PrimeField, QQ, FieldError, Poly, factor, linalg,
    smith_normal_form, PolyRing,
    LocalizedRing, LocElt, ModulePresentation, localize_to_free,
    independent_over_localization, squarefree_decomposition,
)
from ditalg.presentation import parse_poly_fraction
from ditalg.scalars import poly as poly_module

F5 = PrimeField(5)
F101 = PrimeField(101)


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_field_ring_axioms_f101(a, b, c):
    F = F101
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if a != 0:
        assert F.mul(a, F.inv(a)) == F.one


@settings(max_examples=60)
@given(st.lists(st.integers(-9, 9), max_size=5),
       st.lists(st.integers(-9, 9), max_size=5),
       st.lists(st.integers(-9, 9), max_size=4))
def test_poly_ring_axioms(a, b, c):
    pa, pb, pc = (Poly.from_ints(F101, v) for v in (a, b, c))
    assert pa * (pb * pc) == (pa * pb) * pc
    assert pa * (pb + pc) == pa * pb + pa * pc
    if not pb.is_zero():
        q, r = pa.divmod(pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree


def _canonical(q):
    return q.numerator if q.denominator == 1 else q


def _assert_canonical(got, want):
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


_RATIONALS = st.fractions(max_denominator=12).map(_canonical)


@given(_RATIONALS, _RATIONALS)
def test_rational_operations_are_fraction_arithmetic_in_canonical_form(a, b):
    # a Q value is an int exactly when it is integral, through every operation
    fa, fb = Fraction(a), Fraction(b)
    _assert_canonical(QQ.add(a, b), fa + fb)
    _assert_canonical(QQ.sub(a, b), fa - fb)
    _assert_canonical(QQ.mul(a, b), fa * fb)
    _assert_canonical(QQ.neg(a), -fa)
    row = [a, b]
    QQ.sub_scaled(row, b, [(0, a), (1, b)])
    _assert_canonical(row[0], fa - fb * fa)
    _assert_canonical(row[1], fb - fb * fb)
    if b:
        _assert_canonical(QQ.div(a, b), fa / fb)
        _assert_canonical(QQ.inv(b), 1 / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    assert hash(a) == hash(fa) and str(a) == str(fa) and QQ.format(a) == str(fa)


def test_rational_constants_and_literals_are_canonical():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-3)) is int
    for text, want in (("4", Fraction(4)), ("4/2", Fraction(2)), ("-6/4", Fraction(-3, 2)),
                       ("0/5", Fraction(0))):
        _assert_canonical(QQ.parse(text), want)
    rng = random.Random(0)
    for _ in range(50):
        q = QQ.random(rng)
        _assert_canonical(q, Fraction(q))
    num, den = parse_poly_fraction(QQ, "4/2")
    assert type(num.coeff(0)) is int and num.coeff(0) == 2 and den == Poly.one(QQ)


_F3 = PrimeField(3)
_CONTEXTS = {"F2": PrimeField(2), "F3": _F3, "F101": F101, "Q": QQ,
             "k[x]": PolyRing(_F3), "k[x]_x": LocalizedRing(_F3, [Poly.x(_F3)])}


def _ring_value(R, ints, e):
    if isinstance(R, PolyRing):
        return Poly.from_ints(R.field, ints)
    if isinstance(R, LocalizedRing):
        return LocElt(R, Poly.from_ints(R.field, ints), e)
    return R.from_int(ints[0]) if R.char else R.div(ints[0], e + 1)


@settings(max_examples=150)
@given(st.sampled_from(sorted(_CONTEXTS)), st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.integers(0, 2))
def test_ring_values_are_falsy_exactly_at_zero(name, ints, e):
    # the kernel tests entries by truth value, so bool must agree with is_zero
    R = _CONTEXTS[name]
    a = _ring_value(R, ints, e)
    for v in (a, R.zero, R.one, R.sub(a, a), R.mul(a, R.zero), R.add(a, R.one), R.neg(a)):
        assert bool(v) == (not R.is_zero(v))


def test_poly_gcd_and_factor():
    p = Poly.from_ints(F5, [1, 2, 1])  # (x+1)^2
    q = Poly.from_ints(F5, [1, 1])
    assert p.gcd(q) == q.monic()
    fs = dict(factor(p))
    assert fs == {Poly.from_ints(F5, [1, 1]): 2}


def test_factor_f2_and_q():
    F2 = PrimeField(2)
    f = Poly.from_ints(F2, [1, 1, 1]) * Poly.from_ints(F2, [1, 1]) ** 2
    fs = sorted(factor(f), key=lambda t: (t[0].degree, str(t[0])))
    assert fs == [(Poly.from_ints(F2, [1, 1]), 2), (Poly.from_ints(F2, [1, 1, 1]), 1)]
    g = Poly.from_ints(QQ, [-1, 0, 0, 0, 0, 0, 1])
    rebuilt = Poly.one(QQ)
    for h, m in factor(g):
        rebuilt = rebuilt * h ** m
    assert rebuilt == g.monic()


def _p_gcd_splitting(f):
    """Berlekamp's splitting as it tries gcd(g, v - c) at every c in F_p:
    the oracle for the splitting that takes gcds only at the roots of v's
    minimal polynomial modulo g."""
    F = f.field
    p, n = F.p, f.degree
    if n <= 1:
        return [f]
    rows, xp, cur = [], Poly.x(F).pow_mod(p, f), Poly.one(F)
    for _ in range(n):
        rows.append([cur.coeff(j) for j in range(n)])
        cur = (cur * xp) % f
    mat = [[F.sub(rows[i][j], F.one if i == j else F.zero) for i in range(n)]
           for j in range(n)]
    kernel = linalg.kernel_basis(F, mat, n)
    if len(kernel) == 1:
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
            pieces, rest = [], g
            for c in range(p):
                if rest.degree < 1:
                    break
                d = rest.gcd(v - Poly.const(F, c))
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
        if len(factors) == len(kernel):
            break
    return [g.monic() for g in factors]


def _monic_polys(F, degree):
    for cs in itertools.product(range(F.p), repeat=degree):
        yield Poly.make(F, list(cs) + [1])


def _is_irreducible(g):
    """Trial division by every monic polynomial of degree <= deg g / 2 over
    a small field; over F101, where that list is too long past degree 3,
    Rabin's test: x^(p^n) = x mod g and gcd(x^(p^(n/q)) - x, g) = 1 for
    every prime q dividing n = deg g."""
    F, n = g.field, g.degree
    if F.p < 101:
        return all(not h.divides(g) for d in range(1, n // 2 + 1)
                   for h in _monic_polys(F, d))
    x = Poly.x(F)

    def frobenius(k):
        return x.pow_mod(F.p ** k, g)

    if frobenius(n) != x % g:
        return False
    return all((frobenius(n // q) - x).gcd(g).is_one()
               for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q)))


def _factor_cases():
    """Every monic polynomial over F2 up to degree 8, over F3 up to degree 5
    and over F5 up to degree 4, then seeded random ones over F101, half of
    them products of linear factors so that they split far."""
    for p, top in ((2, 8), (3, 5), (5, 4)):
        for degree in range(1, top + 1):
            yield from _monic_polys(PrimeField(p), degree)
    rng = random.Random(101)
    for k in range(200):
        degree = rng.randint(1, 8)
        if k % 2:
            f = Poly.one(F101)
            for _ in range(degree):
                f = f * Poly.from_ints(F101, [rng.randrange(101), 1])
            yield f
        else:
            yield Poly.make(F101, [rng.randrange(101) for _ in range(degree)] + [1])


def test_factor_equals_the_p_gcd_oracle():
    count = 0
    for f in _factor_cases():
        got = factor(f)
        want = [(irr, m) for g, m in squarefree_decomposition(f)
                for irr in _p_gcd_splitting(g) if irr.degree >= 1]
        assert got == want, f
        rebuilt = Poly.one(f.field)
        for g, m in got:
            assert g.leading() == f.field.one and _is_irreducible(g), (f, g)
            rebuilt = rebuilt * g ** m
        assert rebuilt == f
        count += 1
    assert count == 510 + 363 + 780 + 200


def _divisors(n):
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


def _has_rational_root(g):
    """The rational-root test on g in Z[x]: a root r/s in lowest terms has
    r dividing the constant term and s dividing the leading coefficient."""
    a0, an = int(g.coeff(0)), int(g.leading())
    return a0 == 0 or any(g.eval(Fraction(sign * r, s)) == 0 for r in _divisors(a0)
                          for s in _divisors(an) for sign in (1, -1))


def _rational_corpus(count=132, seed=28):
    """Seeded (f, pieces) with f the product of the pieces, each of degree
    <= 3 with small integer coefficients and no rational root, so
    irreducible over Q.  One to five pieces, total degree up to 14, leading
    coefficients in +-1, +-2, +-3, a piece repeated in about a quarter of
    the draws, and every third f scaled by a rational such as -5/9."""
    rng = random.Random(seed)
    for k in range(count):
        pieces = []
        for _ in range(rng.randint(1, 5)):
            if pieces and rng.random() < 0.25:
                piece = rng.choice(pieces)
            else:
                while True:
                    d = rng.randint(1, 3)
                    piece = Poly.from_ints(QQ, [rng.randint(-5, 5) for _ in range(d)]
                                           + [rng.choice([-3, -2, -1, 1, 2, 3])])
                    if d == 1 or not _has_rational_root(piece):
                        break
            if sum(p.degree for p in pieces) + piece.degree > 14:
                break
            pieces.append(piece)
        f = Poly.one(QQ)
        for piece in pieces:
            f = f * piece
        if k % 3 == 0:
            f = f.scale(Fraction(rng.choice([-5, -2, 1, 3, 7]), rng.choice([2, 3, 9])))
        yield f, pieces


def test_factor_over_q_recovers_the_pieces():
    cases = list(_rational_corpus())
    assert max(f.degree for f, _ in cases) >= 10
    for f, pieces in cases:
        got = factor(f)
        rebuilt = Poly.one(QQ)
        for g, m in got:
            assert g.leading() == 1
            rebuilt = rebuilt * g ** m
        assert rebuilt == f.monic()
        assert (collections.Counter(g.coeffs for g, m in got for _ in range(m))
                == collections.Counter(p.monic().coeffs for p in pieces)), f


def _q(*cs):
    return Poly.make(QQ, [Fraction(c) for c in cs])


# factor's output lists over Q, order included, as the earlier Zassenhaus
# code on integer coefficient lists returned them: each factor's
# coefficients, ascending, and its multiplicity
PINNED_RATIONAL_FACTORS = {
    "x^6-1": (_q(-1, 0, 0, 0, 0, 0, 1), [
        (("-1", "1"), 1), (("1", "1", "1"), 1), (("1", "1"), 1), (("1", "-1", "1"), 1)]),
    "x^4+1": (_q(1, 0, 0, 0, 1), [(("1", "0", "0", "0", "1"), 1)]),
    "x^4-10x^2+1": (_q(1, 0, -10, 0, 1), [(("1", "0", "-10", "0", "1"), 1)]),
    "x^8-1": (_q(-1, 0, 0, 0, 0, 0, 0, 0, 1), [
        (("1", "0", "1"), 1), (("1", "1"), 1), (("-1", "1"), 1),
        (("1", "0", "0", "0", "1"), 1)]),
    "(2x^2-1)(3x+5)": (_q(-1, 0, 2) * _q(5, 3), [
        (("5/3", "1"), 1), (("-1/2", "0", "1"), 1)]),
    "(x^3-x^2-4x+3)(2x+5)": (_q(3, -4, -1, 1) * _q(5, 2), [
        (("5/2", "1"), 1), (("3", "-4", "-1", "1"), 1)]),
    "(x^2+x+1)^2(x-2)/3": ((_q(1, 1, 1) ** 2 * _q(-2, 1)).scale(Fraction(1, 3)), [
        (("-2", "1"), 1), (("1", "1", "1"), 2)]),
    "(x^2+1)(x^2-2)(x^2+3)": (_q(1, 0, 1) * _q(-2, 0, 1) * _q(3, 0, 1), [
        (("1", "0", "1"), 1), (("-2", "0", "1"), 1), (("3", "0", "1"), 1)]),
    "(3x^3+x+1)(2x^2-3)(x+1)": (_q(1, 1, 0, 3) * _q(-3, 0, 2) * _q(1, 1), [
        (("-3/2", "0", "1"), 1), (("1", "1"), 1), (("1/3", "1/3", "0", "1"), 1)]),
    "5/4(x^4+1)(x^2-x-1)": ((_q(1, 0, 0, 0, 1) * _q(-1, -1, 1)).scale(Fraction(5, 4)), [
        (("-1", "-1", "1"), 1), (("1", "0", "0", "0", "1"), 1)]),
    "(x^2-3)^3": (_q(-3, 0, 1) ** 3, [(("-3", "0", "1"), 3)]),
}


@pytest.mark.parametrize("name", sorted(PINNED_RATIONAL_FACTORS))
def test_factor_over_q_keeps_its_order(name):
    f, want = PINNED_RATIONAL_FACTORS[name]
    assert [(tuple(str(c) for c in g.coeffs), m) for g, m in factor(f)] == want


def test_berlekamp_takes_gcds_only_at_the_roots(monkeypatch):
    # four distinct linear factors over F101: a kernel of dimension 4, and
    # at most one gcd per distinct root of each kernel vector's values
    f = Poly.one(F101)
    for c in (3, 17, 40, 99):
        f = f * Poly.from_ints(F101, [c, 1])
    calls = []
    real = Poly.gcd

    def counting(self, other):
        calls.append(self)
        return real(self, other)

    monkeypatch.setattr(Poly, "gcd", counting)
    got = poly_module._berlekamp_splitting(f)
    assert sorted(g.coeffs for g in got) == sorted(
        Poly.from_ints(F101, [c, 1]).coeffs for c in (3, 17, 40, 99))
    assert len(calls) <= 4 * 4


# -- linear algebra ------------------------------------------------------

def test_solve_identity_trivial():
    a = linalg.identity(F5, 3)
    part = linalg.solve(F5, a, [0, 0, 0])
    assert part is not None
    ker = linalg.kernel_basis(F5, a, 3)
    assert part == [0, 0, 0] and ker == []


def test_zero_map_kernel():
    a = [[0, 0]]
    part = linalg.solve(F5, a, [0])
    assert part is not None
    ker = linalg.kernel_basis(F5, a, 2)
    assert len(ker) == 2


def test_inconsistent_returns_none():
    assert linalg.solve(F5, [[0, 0]], [1]) is None


@pytest.mark.parametrize("F", [F5, QQ], ids=["F5", "Q"])
def test_residue_decides_span_membership(F):
    rng = random.Random(11)

    def combo(rows):
        out = [F.zero] * 5
        for r in rows:
            c = F.random(rng)
            out = [F.add(x, F.mul(c, y)) for x, y in zip(out, r)]
        return out

    for trial in range(40):
        span = [[F.random(rng) for _ in range(5)] for _ in range(rng.randrange(1, 5))]
        v = combo(span) if trial % 2 else [F.random(rng) for _ in range(5)]
        red, pivots = linalg.rref(F, span)
        res = linalg.residue(F, red, pivots, v)
        in_span = linalg.rank(F, span + [v]) == linalg.rank(F, span)
        assert all(F.is_zero(x) for x in res) == in_span
        assert linalg.row_space_contains(F, span, v) == in_span
        assert linalg.residue(F, red, pivots, [F.add(x, y) for x, y in zip(v, combo(span))]) == res


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(10):
        a = [[F101.random(rng) for _ in range(7)] for _ in range(5)]
        r = linalg.rank(F101, a)
        n = len(linalg.kernel_basis(F101, a))
        assert r + n == 7


def test_inverse_roundtrip():
    rng = random.Random(3)
    while True:
        a = [[F5.random(rng) for _ in range(4)] for _ in range(4)]
        inv = linalg.inverse(F5, a)
        if inv is not None:
            break
    assert linalg.mul(F5, a, inv) == linalg.identity(F5, 4)


def test_mat_results_own_their_rows():
    # each result is built from fresh rows: it shares no row list with an
    # operand, and writing into it leaves the operands as they were
    Mat = linalg.Mat
    a = Mat(F5, 2, 3, [[1, 2, 0], [3, 4, 1]])
    b = Mat(F5, 2, 3, [[0, 1, 4], [1, 1, 2]])
    sq = Mat(F5, 2, 2, [[1, 2], [3, 4]])
    R = LocalizedRing(F5, [Poly.x(F5)])
    ring_sq = Mat(R, 2, 2, [[R.from_poly(Poly.x(F5)), R.one], [R.one, R.zero]])
    results = {
        "+": (a + b, [a, b]), "-": (a - b, [a, b]), "neg": (-a, [a]),
        "scale": (a.scale(2), [a]), "*": (sq * a, [sq, a]),
        "inverse": (sq.inverse(), [sq]), "ring inverse": (ring_sq.inverse(), [ring_sq]),
        "transpose": (a.transpose(), [a]), "submatrix": (a.submatrix(0, 2, 1, 3), [a]),
        "identity_of": (Mat.identity_of(F5, 2), [Mat.identity_of(F5, 2)]),
        "copy": (a.copy(), [a]),
    }
    for name, (out, inputs) in results.items():
        held = {id(row) for m in inputs for row in m.data}
        assert not held & {id(row) for row in out.data}, name
        before = [m.copy() for m in inputs]
        out.data[0][0] = out.F.add(out.data[0][0], out.F.one)
        assert inputs == before, name
    rows = [[1, 2], [3, 4]]
    m = Mat(F5, 2, 2, rows)
    m.data[0][0] = 0
    assert rows == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        a + Mat(F5, 1, 3)


# -- the sparse elimination against the dense one ------------------------
# The dense kernel as it was before elimination went over the nonzero
# entries of the pivot row only: every row update runs over the whole row.

def _dense_rref(F, m):
    a = [list(r) for r in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not F.is_zero(a[i][c])), None)
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


def _dense_det(F, m):
    n = len(m)
    a = [list(r) for r in m]
    d = F.one
    for c in range(n):
        piv = next((i for i in range(c, n) if not F.is_zero(a[i][c])), None)
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


def _dense_residue(F, red, pivots, vec):
    v = list(vec)
    for row, c in zip(red, pivots):
        if not F.is_zero(v[c]):
            f = v[c]
            v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
    return v


def _dense_mul(R, a, b):
    m = len(b[0]) if b else 0
    out = [[R.zero] * m for _ in a]
    for ai, oi in zip(a, out):
        for t, c in enumerate(ai):
            if R.is_zero(c):
                continue
            for j in range(m):
                if not R.is_zero(b[t][j]):
                    oi[j] = R.add(oi[j], R.mul(c, b[t][j]))
    return out


def _same(x, y):
    # equal values of the same types: Fraction(0) and 0 would compare equal
    assert x == y and repr(x) == repr(y)


def _sparse_matrix(F, rng, rows, cols, density):
    m = [[F.random(rng) if rng.random() < density else F.zero for _ in range(cols)]
         for _ in range(rows)]
    for i in range(rows):
        if rng.random() < 0.15:
            m[i] = [F.zero] * cols
    return m


def _shapes(rng):
    yield from [(0, 4), (4, 0), (0, 0), (1, 1)]
    for _ in range(12):
        yield rng.randrange(1, 9), rng.randrange(1, 9)


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), F101, QQ],
                         ids=["F2", "F3", "F101", "Q"])
@pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
def test_sparse_elimination_equals_the_dense_one(F, density, monkeypatch):
    rng = random.Random(int(density * 10) + F.char)
    for rows, cols in _shapes(rng):
        m = _sparse_matrix(F, rng, rows, cols, density)
        red, pivots = linalg.rref(F, m)
        _same((red, pivots), _dense_rref(F, m))
        for _ in range(3):
            v = [F.random(rng) if rng.random() < density else F.zero for _ in range(cols)]
            _same(linalg.residue(F, red, pivots, v), _dense_residue(F, red, pivots, v))
        b = [F.random(rng) for _ in range(rows)]
        square = _sparse_matrix(F, rng, rows, rows, density)
        other = _sparse_matrix(F, rng, cols, rng.randrange(0, 6), density)
        _same(linalg.det(F, square), _dense_det(F, square))
        _same(linalg.mul(F, m, other), _dense_mul(F, m, other))
        got = (linalg.kernel_with_free(F, m, cols), linalg.solve(F, m, b),
               linalg.inverse(F, square))
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "rref", _dense_rref)
            want = (linalg.kernel_with_free(F, m, cols), linalg.solve(F, m, b),
                    linalg.inverse(F, square))
        _same(got, want)


@pytest.mark.parametrize("kind", ["poly", "localized"])
def test_mul_over_rings_equals_the_dense_one(kind):
    F3 = PrimeField(3)
    rng = random.Random(5)
    x = Poly.x(F3)
    R = PolyRing(F3) if kind == "poly" else LocalizedRing(F3, [x])

    def entry():
        if rng.random() < 0.5:
            return R.zero
        p = Poly.from_ints(F3, [rng.randrange(3) for _ in range(rng.randrange(4))])
        return p if kind == "poly" else LocElt(R, p, rng.randrange(3))

    for rows, inner, cols in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (4, 5, 3), (5, 2, 6)]:
        a = [[entry() for _ in range(inner)] for _ in range(rows)]
        b = [[entry() for _ in range(cols)] for _ in range(inner)]
        assert linalg.mul(R, a, b) == _dense_mul(R, a, b)


# -- Smith normal form ---------------------------------------------------

def x_poly(F, *ints):
    return Poly.from_ints(F, ints)


def check_snf(F, m):
    R = PolyRing(F)
    P, D, Q = smith_normal_form(F, m)
    assert R.is_unit(linalg.cofactor_det(R, P))
    assert R.is_unit(linalg.cofactor_det(R, Q))
    assert linalg.mul(R, linalg.mul(R, P, m), Q) == D
    n = min(len(D), len(D[0]) if D else 0)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert D[i][j].is_zero()
    prev = None
    for i in range(n):
        d = D[i][i]
        if prev is not None and not d.is_zero():
            assert prev.divides(d)
        if not d.is_zero():
            prev = d
    return D


def test_snf_1x1():
    D = check_snf(F5, [[x_poly(F5, 0, 1)]])
    assert D[0][0] == x_poly(F5, 0, 1)


def test_snf_diagonal_preserved():
    m = [[x_poly(F5, 0, 1), Poly.zero(F5)], [Poly.zero(F5), x_poly(F5, 0, 0, 1)]]
    D = check_snf(F5, m)
    assert D[0][0] == x_poly(F5, 0, 1) and D[1][1] == x_poly(F5, 0, 0, 1)


def test_snf_shear():
    # [[x,1],[0,x]] has invariant factors 1, x^2
    m = [[x_poly(F5, 0, 1), Poly.one(F5)], [Poly.zero(F5), x_poly(F5, 0, 1)]]
    D = check_snf(F5, m)
    assert D[0][0].is_one()
    assert D[1][1] == x_poly(F5, 0, 0, 1)


def test_snf_random():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[Poly.from_ints(F5, [rng.randrange(5) for _ in range(rng.randrange(4))])
              for _ in range(cols)] for _ in range(rows)]
        check_snf(F5, m)


# -- localization --------------------------------------------------------

def test_locelt_normalization():
    R = LocalizedRing(F5, [Poly.from_ints(F5, [0, 1])])  # invert x
    e = LocElt(R, Poly.from_ints(F5, [0, 0, 1]), 1)  # x^2 / x
    assert e.den_exp == 0 and e.num == Poly.from_ints(F5, [0, 1])
    u = LocElt(R, Poly.from_ints(F5, [0, 1]), 0)
    inv = R.inv(u)
    assert R.mul(u, inv) == R.one


def test_det_and_inverse_over_localized_ring():
    # the pivot x - 1 is not a unit of F3[x]_x, so elimination cannot be used
    F3 = PrimeField(3)
    R = LocalizedRing(F3, [Poly.x(F3)])
    x_minus_1 = LocElt(R, Poly.from_ints(F3, [-1, 1]), 0)
    M = linalg.Mat(R, 2, 2, [[x_minus_1, R.one], [R.one, R.zero]])
    assert M.det() == R.from_int(-1)
    assert M * M.inverse() == linalg.Mat.identity_of(R, 2)
    assert linalg.Mat(R, 1, 1, [[x_minus_1]]).inverse() is None

    # k[x] itself goes through the same kernel
    K = PolyRing(F3)
    x, one, zero = Poly.x(F3), K.one, K.zero
    lower = [[one, zero, zero], [x + one, one, zero], [x * x, x, one]]
    upper = [[one.scale(2), x, x * x], [zero, one, x], [zero, zero, one]]
    P = linalg.mul(K, lower, upper)
    Pinv = linalg.adjugate_inverse(K, P)
    assert linalg.mul(K, P, Pinv) == linalg.identity(K, 3)
    assert linalg.mul(K, Pinv, P) == linalg.identity(K, 3)
    assert linalg.adjugate_inverse(K, [[x, zero], [zero, one]]) is None
    # det m is a unit times the product of the Smith invariants of m
    m = [[x, x + one, zero], [x * x, one.scale(2), x], [one, x, x * x + one]]
    _, D, _ = smith_normal_form(F3, m)
    d, prod = linalg.cofactor_det(K, m), D[0][0] * D[1][1] * D[2][2]
    assert not d.is_zero()
    q, r = d.divmod(prod)
    assert r.is_zero() and K.is_unit(q)


def test_localize_free_trivial():
    R = LocalizedRing(F5)
    pres = ModulePresentation.make(R, 2, [])
    res = localize_to_free(pres, [])
    assert res.h.is_one()
    assert res.layer_ranks == [2]
    # in the zero module every column is a syzygy, with or without entries
    F3 = PrimeField(3)
    assert not independent_over_localization(F3, [[]], [], 0)
    assert not independent_over_localization(F3, [[Poly.zero(F3)]], [], 1)


def test_localize_torsion_dies():
    R = LocalizedRing(F5)
    x = Poly.from_ints(F5, [0, 1])
    pres = ModulePresentation.make(R, 1, [[x]])
    res = localize_to_free(pres, [])
    assert res.h == x.monic()
    assert res.layer_ranks == [0]


def test_localize_mixed_with_filtration():
    # U = k[x] (+) k[x]/(x-1), filtration 0 <= torsion <= U
    F = F5
    R = LocalizedRing(F)
    xm1 = Poly.from_ints(F, [-1, 1])
    pres = ModulePresentation.make(R, 2, [[Poly.zero(F), xm1]])
    torsion_gens = [[Poly.zero(F), Poly.one(F)]]
    res = localize_to_free(pres, [torsion_gens])
    assert res.h == xm1.monic()
    assert res.layer_ranks == [0, 1]


def test_localize_random_certified():
    rng = random.Random(23)
    F = F101
    R = LocalizedRing(F)
    for _ in range(20):
        rank = rng.randrange(1, 4)
        nrel = rng.randrange(0, 3)
        rel_cols = [[Poly.from_ints(F, [rng.randrange(-3, 4) for _ in range(rng.randrange(4))])
                     for _ in range(rank)] for _ in range(nrel)]
        gens = [[Poly.from_ints(F, [rng.randrange(-3, 4) for _ in range(rng.randrange(3))])
                 for _ in range(rank)] for _ in range(rng.randrange(0, 3))]
        pres = ModulePresentation.make(R, rank, rel_cols) if nrel else ModulePresentation.make(R, rank, [])
        res = localize_to_free(pres, [gens] if gens else [])
        for basis in res.layer_bases:
            assert independent_over_localization(F, basis, rel_cols, rank)
        # nested: every vector of a layer basis is a vector of the next
        for lo, hi in zip(res.layer_bases, res.layer_bases[1:]):
            for vec in lo:
                assert vec in hi
