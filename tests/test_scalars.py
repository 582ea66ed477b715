import random

import pytest
from hypothesis import given, settings, strategies as st

from ditalg.scalars import (
    PrimeField, QQ, FieldError, Poly, factor, linalg,
    smith_normal_form, poly_mat_mul, poly_det, poly_identity,
    LocalizedRing, LocElt, ModulePresentation, localize_to_free,
    independent_over_localization, in_localized_span,
)

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


# -- linear algebra ------------------------------------------------------

def test_solve_identity_trivial():
    a = linalg.identity(F5, 3)
    out = linalg.solve_linear(F5, a, [0, 0, 0])
    assert out is not None
    part, ker = out
    assert part == [0, 0, 0] and ker == []


def test_zero_map_kernel():
    a = [[0, 0]]
    out = linalg.solve_linear(F5, a, [0])
    part, ker = out
    assert len(ker) == 2


def test_inconsistent_returns_none():
    assert linalg.solve_linear(F5, [[0, 0]], [1]) is None


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
    assert linalg.equal(F5, linalg.mul(F5, a, inv), linalg.identity(F5, 4))


# -- Smith normal form ---------------------------------------------------

def x_poly(F, *ints):
    return Poly.from_ints(F, ints)


def check_snf(F, m):
    P, D, Q = smith_normal_form(F, m)
    assert poly_det(F, P).is_constant() and not poly_det(F, P).is_zero()
    assert poly_det(F, Q).is_constant() and not poly_det(F, Q).is_zero()
    lhs = poly_mat_mul(poly_mat_mul(P, m), Q)
    assert lhs == D
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
    assert (M * M.inverse()).is_identity()
    assert linalg.Mat(R, 1, 1, [[x_minus_1]]).inverse() is None


def test_localize_free_trivial():
    R = LocalizedRing(F5)
    pres = ModulePresentation.make(R, 2, [])
    res = localize_to_free(pres, [])
    assert res.h.is_one()
    assert res.layer_ranks == [2]


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
        h = res.h
        for basis in res.layer_bases:
            assert independent_over_localization(F, basis, rel_cols, rank)
        # nested and spanning: every layer basis is contained in the span of the next
        for lo, hi in zip(res.layer_bases, res.layer_bases[1:]):
            for vec in lo:
                assert vec in hi or in_localized_span(F, hi + rel_cols, rank, vec, h)
