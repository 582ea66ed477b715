import itertools
import random

import pytest

from ditalg.bigraph import Bigraph, Factor
from ditalg.fixtures import ex1, ex2, exi, exk, exa, exl
from ditalg.interlace import certify
from ditalg import modcat
from ditalg.modcat import (
    DecomposableError, EndAlgebra, IsoClassIndex, ModcatError, MorphismPair, Rep,
    algebra_radical, charpoly, compose, decompose, direct_sum, hom, hom_dim,
    identity_morphism, in_hom, is_indecomposable, is_isomorphism, iso_test, jordan_at,
    pair_to_vector, simple_at, split_idempotent, transport_structure, zero_morphism,
)
from ditalg.scalars import PrimeField, Poly, QQ, linalg
from ditalg.scalars.linalg import Mat

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F101 = PrimeField(101)


def p1_rep(dit):
    """k -> k identity module over EX1-like fixtures."""
    F = dit.field
    r = Rep(dit, {"1": 1, "2": 1})
    r.arrow_ops["a"] = Mat(F, 1, 1, [[F.one]])
    return r


def kron_rep(dit, a, b):
    F = dit.field
    r = Rep(dit, {"1": 1, "2": 1})
    r.arrow_ops["a"] = Mat(F, 1, 1, [[F.from_int(a)]])
    r.arrow_ops["b"] = Mat(F, 1, 1, [[F.from_int(b)]])
    return r


# -- hom dimensions ----------------------------------------------------------

def test_hom_ex1_simples():
    d = ex1(F5)
    certify(d)
    s1, s2 = simple_at(d, "1"), simple_at(d, "2")
    assert hom_dim(d, s1, s1) == 1
    assert hom_dim(d, s1, s2) == 0
    assert hom_dim(d, s2, s1) == 0


def test_hom_ex2_simples():
    # The U-condition a f0 = f0 a + f1(delta a) with a acting as zero on both
    # sides forces f1(v) = 0, so hom(S1, S2) vanishes: consistent with the
    # regularization equivalence EX2-Mod ~ (k x k)-Mod.
    d = ex2(F5)
    certify(d)
    s1, s2 = simple_at(d, "1"), simple_at(d, "2")
    assert hom_dim(d, s1, s2) == 0
    assert hom_dim(d, s2, s1) == 0
    assert hom_dim(d, s1, s1) == 1
    # f1 is not free on a-killed sums either: End(S1 + S2) is 2-dimensional
    M = direct_sum([s1, s2])
    assert hom_dim(d, M, M) == 2


def test_hom_validates_membership():
    d = ex2(F5)
    s1, s2 = simple_at(d, "1"), simple_at(d, "2")
    for f in hom(d, s1, s2):
        assert in_hom(d, s1, s2, f)


# -- composition --------------------------------------------------------------

def test_identity_neutral():
    d = ex2(F5)
    certify(d)
    M = p1_rep(d)
    N = direct_sum([simple_at(d, "1"), simple_at(d, "2")])
    for f in hom(d, M, N):
        idm = identity_morphism(M)
        idn = identity_morphism(N)
        assert compose(d, f, idm, M, M, N) == f
        assert compose(d, idn, f, M, N, N) == f


def test_compose_associative_random():
    d = ex2(F101)
    certify(d)
    rng = random.Random(5)
    M = direct_sum([simple_at(d, "1"), simple_at(d, "2")])
    E = EndAlgebra(d, M)

    def rand_endo():
        return E.from_coordinates([F101.random(rng) for _ in range(E.dim)])

    for _ in range(50):
        f, g, h = rand_endo(), rand_endo(), rand_endo()
        lhs = compose(d, h, compose(d, g, f, M, M, M), M, M, M)
        rhs = compose(d, compose(d, h, g, M, M, M), f, M, M, M)
        assert lhs == rhs
        assert in_hom(d, M, M, compose(d, g, f, M, M, M))


# -- isomorphisms -------------------------------------------------------------

def test_identity_is_isomorphism():
    d = ex1(F5)
    certify(d)
    M = p1_rep(d)
    inv = is_isomorphism(d, identity_morphism(M), M, M)
    assert inv == identity_morphism(M)


def test_zero_f0_not_iso():
    d = ex2(F5)
    certify(d)
    s1, s2 = simple_at(d, "1"), simple_at(d, "2")
    M = direct_sum([s1, s2])
    f = zero_morphism(M, M)
    f.f1["v"] = Mat(F5, 1, 1, [[F5.one]])
    assert is_isomorphism(d, f, M, M) is None


def test_phantom_iso_from_transport():
    # The regularization phantom: (1, f1) is an isomorphism from the
    # transported structure onto M; over EX2 it identifies the a = 1 module
    # with S1 (+) S2.
    d = ex2(F5)
    certify(d)
    M = p1_rep(d)  # a acts as 1
    f0 = {p: Mat.identity_of(F5, M.dims[p]) for p in d.bigraph.point_order}
    f1 = {"v": Mat(F5, 1, 1, [[F5.one]])}
    Mt = transport_structure(d, M, f0, f1)
    assert Mt.arrow_ops["a"].is_zero()  # a = 1 - f1(v) = 0
    f = MorphismPair(f0, f1)
    assert in_hom(d, Mt, M, f)
    g = is_isomorphism(d, f, Mt, M)
    assert g is not None
    assert compose(d, g, f, Mt, M, Mt) == identity_morphism(Mt)
    assert compose(d, f, g, M, Mt, M) == identity_morphism(M)
    # consequence: over EX2 the a = 1 module is decomposable
    assert iso_test(d, direct_sum([simple_at(d, "1"), simple_at(d, "2")]), M)


def test_random_triangular_isos_invert(subtests=None):
    d = ex2(F101)
    certify(d)
    M = direct_sum([simple_at(d, "1"), simple_at(d, "2"), simple_at(d, "1")])
    rng = random.Random(9)
    for _ in range(30):
        f = identity_morphism(M)
        for p in f.f0:
            n = M.dims[p]
            m = Mat(F101, n, n, [[F101.random(rng) for _ in range(n)] for _ in range(n)])
            if not F101.is_zero(m.det()):
                f.f0[p] = m
        f.f1["v"] = Mat(F101, M.dims["2"], M.dims["1"],
                        [[F101.random(rng) for _ in range(M.dims["1"])]
                         for _ in range(M.dims["2"])])
        g = is_isomorphism(d, f, M, M)
        assert g is not None
        assert compose(d, g, f, M, M, M) == identity_morphism(M)


# -- transport ---------------------------------------------------------------

def test_roiter_transport_yields_valid_module():
    d = ex2(F5)
    certify(d)
    N = direct_sum([simple_at(d, "1"), simple_at(d, "2")])
    rng = random.Random(3)
    f0 = {p: Mat.identity_of(F5, N.dims[p]) for p in d.bigraph.point_order}
    f1 = {"v": Mat(F5, 1, 1, [[F5.from_int(2)]])}
    M = transport_structure(d, N, f0, f1)
    assert M.validate() is None
    f = MorphismPair(f0, f1)
    assert in_hom(d, M, N, f)


def test_transport_annihilates_ideal():
    d = exi(F5)
    certify(d)
    N = Rep(d, {"1": 1, "2": 1, "3": 1})
    N.arrow_ops["a"] = Mat(F5, 1, 1, [[F5.one]])
    N.arrow_ops["b"] = Mat(F5, 1, 1, [[F5.zero]])
    assert N.validate() is None
    f0 = {p: Mat(F5, N.dims[p], N.dims[p], [[F5.from_int(2)]]) for p in d.bigraph.point_order}
    f1 = {"u": Mat(F5, 1, 1, [[F5.one]])}
    M = transport_structure(d, N, f0, f1)
    assert M.validate() is None


def test_transport_follows_delta_levels_without_certify():
    # solid a, b: 1 -> 2 and c: 2 -> 1, dashed v: 1 -> 2, delta(a) = v c b:
    # a must be transported after b and c, although no certificate was run
    from ditalg.tensor import Differential, Elem, Layer
    from ditalg.interlace import Dit, IdealData

    bg = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.trivial())],
                 solid=[("a", "1", "2"), ("b", "1", "2"), ("c", "2", "1")],
                 dashed=[("v", "1", "2")])
    layer = Layer(bg)
    da = Elem.arrow(bg, "v") * Elem.arrow(bg, "c") * Elem.arrow(bg, "b")
    d = Dit(layer, Differential(layer, {"a": da}), IdealData())
    one = Mat(F5, 1, 1, [[F5.one]])
    N = Rep(d, {"1": 1, "2": 1}, {name: one for name in "abc"})
    f = MorphismPair({"1": one, "2": one}, {"v": one})
    M = transport_structure(d, N, f.f0, f.f1)
    assert in_hom(d, M, N, f)


# -- idempotent splitting and decomposition ------------------------------------

def test_split_identity_idempotent():
    d = ex1(F5)
    certify(d)
    M = p1_rep(d)
    e = identity_morphism(M)
    M1, M2, h = split_idempotent(d, M, e)
    assert M1.total_dim() == M.total_dim() and M2.total_dim() == 0


def test_split_zero_idempotent():
    d = ex1(F5)
    certify(d)
    M = p1_rep(d)
    e = zero_morphism(M, M)
    M1, M2, h = split_idempotent(d, M, e)
    assert M1.total_dim() == 0 and M2.total_dim() == M.total_dim()


def test_split_projection_with_phantom():
    # Over EX2 the a = 1 module carries the idempotent (diag(1,0), f1 = 1):
    # membership in U forces the phantom part.  Splitting recovers the simples.
    d = ex2(F5)
    certify(d)
    M = p1_rep(d)
    e = zero_morphism(M, M)
    e.f0["1"] = Mat.identity_of(F5, 1)
    e.f1["v"] = Mat(F5, 1, 1, [[F5.one]])
    assert in_hom(d, M, M, e)
    assert compose(d, e, e, M, M, M) == e
    M1, M2, h = split_idempotent(d, M, e)
    assert {M1.dim_vector(), M2.dim_vector()} == {(1, 0), (0, 1)}
    S = direct_sum([M1, M2])
    hinv = is_isomorphism(d, h, S, M)
    assert hinv is not None
    # h^-1 e h is the block identity
    blk = compose(d, hinv, compose(d, e, h, S, M, M), S, M, S)
    expect = zero_morphism(S, S)
    for p in d.bigraph.point_order:
        n1 = M1.dims[p]
        m = Mat(F5, S.dims[p], S.dims[p])
        for i in range(n1):
            m.data[i][i] = F5.one
        expect.f0[p] = m
    assert blk == expect


def test_split_plain_projection_ex1():
    d = ex1(F5)
    certify(d)
    s1 = simple_at(d, "1")
    M = direct_sum([s1, s1])
    e = zero_morphism(M, M)
    e.f0["1"] = Mat(F5, 2, 2, [[1, 1], [0, 0]])  # idempotent, nontrivial
    assert compose(d, e, e, M, M, M) == e
    M1, M2, _ = split_idempotent(d, M, e)
    assert M1.dim_vector() == (1, 0) and M2.dim_vector() == (1, 0)


def test_decompose_simple():
    d = ex1(F5)
    certify(d)
    s1 = simple_at(d, "1")
    parts = decompose(d, s1)
    assert len(parts) == 1 and parts[0].dim_vector() == (1, 0)


def test_decompose_p1_plus_s2():
    d = ex1(F2)
    certify(d)
    M = direct_sum([p1_rep(d), simple_at(d, "2")])
    parts = decompose(d, M)
    assert sorted(p.dim_vector() for p in parts) == [(0, 1), (1, 1)]
    for p in parts:
        assert is_indecomposable(d, p)


def test_kronecker_11_indecomposable():
    d = exk(F3)
    certify(d)
    M = kron_rep(d, 1, 0)
    assert is_indecomposable(d, M)
    parts = decompose(d, M)
    assert len(parts) == 1


def test_decompose_seed_stability():
    d = ex1(F2)
    certify(d)
    M = direct_sum([p1_rep(d), p1_rep(d), simple_at(d, "1")])
    parts1 = decompose(d, M)
    parts2 = decompose(d, M)
    assert sorted(p.dim_vector() for p in parts1) == sorted(p.dim_vector() for p in parts2)
    assert sorted(p.dim_vector() for p in parts1) == [(1, 0), (1, 1), (1, 1)]


def _p1_p1_r(d, lam=5):
    """The summands P1, P1 and R = (a, b) = (1, lam) on the Kronecker quiver."""
    F = d.field
    p1 = Rep(d, {"1": 1, "2": 2}, {"a": Mat(F, 2, 1, [[1], [0]]),
                                   "b": Mat(F, 2, 1, [[0], [1]])})
    r = Rep(d, {"1": 1, "2": 1}, {"a": Mat(F, 1, 1, [[1]]), "b": Mat(F, 1, 1, [[lam]])})
    return [p1, p1, r]


def _p1_plus_p1_plus_r1(d):
    return direct_sum(_p1_p1_r(d))


def _twisted(d, S, seed):
    """S carried along random invertible f0 at the two Kronecker points."""
    rng = random.Random(seed)
    f0 = {}
    for p in ("1", "2"):
        n = S.dims[p]
        while p not in f0 or f0[p].inverse() is None:
            f0[p] = Mat(F101, n, n, [[F101.random(rng) for _ in range(n)] for _ in range(n)])
    return transport_structure(d, S, f0, {})


def _twisted_p1_p1_r1(seed):
    d = exk(F101)
    certify(d)
    return d, _twisted(d, _p1_plus_p1_plus_r1(d), seed)


def _kronecker_qi():
    d = exk(QQ)
    certify(d)
    return d, Rep(d, {"1": 2, "2": 2}, {"a": Mat(QQ, 2, 2, [[1, 0], [0, 1]]),
                                       "b": Mat(QQ, 2, 2, [[0, -1], [1, 0]])})


@pytest.mark.parametrize("seed", [0, 1, 13])
def test_decompose_twisted_repeated_summand(seed):
    # End/rad of P1 + P1 + R1 is M_2(k) x k, not commutative: the twists
    # must still split into three summands (seed 13 once came out as two)
    d, T = _twisted_p1_p1_r1(seed)
    parts = decompose(d, T)
    assert sorted(p.dim_vector() for p in parts) == [(1, 1), (1, 2), (1, 2)]
    # against sums in coordinates, on either side: R1 = (1, 5) is not
    # R6 = (1, 6), and the order of the summands does not matter
    S = _p1_plus_p1_plus_r1(d)
    p1, _, r1 = _p1_p1_r(d)
    assert iso_test(d, T, S) and iso_test(d, S, T)
    assert iso_test(d, T, direct_sum([r1, p1, p1]))
    assert not iso_test(d, T, direct_sum(_p1_p1_r(d, 6)))
    assert not iso_test(d, direct_sum(_p1_p1_r(d, 6)), T)


def test_kronecker_over_q_with_field_endomorphisms():
    # a = I, b = companion(x^2 + 1): End = Q(i) is a field, so M is
    # indecomposable; End(M + M) = M_2(Q(i)) splits into two summands
    d, M = _kronecker_qi()
    assert is_indecomposable(d, M)
    parts = decompose(d, direct_sum([M, M]))
    assert len(parts) == 2
    assert all(iso_test(d, p, M) for p in parts)


# -- iso tests ----------------------------------------------------------------

def test_iso_self():
    d = exk(F3)
    certify(d)
    M = kron_rep(d, 1, 2)
    assert iso_test(d, M, M)


def test_simples_not_iso():
    d = ex1(F5)
    certify(d)
    assert not iso_test(d, simple_at(d, "1"), simple_at(d, "2"))


def test_kronecker_family_pairwise_noniso():
    d = exk(F3)
    certify(d)
    reps = [kron_rep(d, 1, lam) for lam in range(3)] + [kron_rep(d, 0, 1)]
    for i in range(len(reps)):
        for j in range(len(reps)):
            assert iso_test(d, reps[i], reps[j]) == (i == j)


def test_iso_invariant_under_conjugation():
    d = exk(F5)
    certify(d)
    F = F5
    M = Rep(d, {"1": 2, "2": 2})
    M.arrow_ops["a"] = Mat(F, 2, 2, [[1, 0], [0, 1]])
    M.arrow_ops["b"] = Mat(F, 2, 2, [[0, 1], [0, 0]])
    g1 = Mat(F, 2, 2, [[1, 2], [0, 1]])
    g2 = Mat(F, 2, 2, [[3, 1], [1, 4]])
    assert not F.is_zero(g2.det())
    N = Rep(d, {"1": 2, "2": 2})
    N.arrow_ops["a"] = g2 * M.arrow_ops["a"] * g1.inverse()
    N.arrow_ops["b"] = g2 * M.arrow_ops["b"] * g1.inverse()
    assert iso_test(d, M, N)


def test_iso_test_solves_hom_m_n_once(monkeypatch):
    # the basis of Hom(M, N) that sizes the hom-dimension reject is the one
    # `_indec_iso` scans, so the (M, N) system is built and solved once
    d = exk(F5)
    certify(d)
    M, N = kron_rep(d, 1, 2), kron_rep(d, 3, 1)              # N = 3 M
    assert is_indecomposable(d, M)
    real, calls = modcat._u_condition_rows, []

    def counting(dit, A, B, *args):
        calls.append((A, B))
        return real(dit, A, B, *args)

    monkeypatch.setattr(modcat, "_u_condition_rows", counting)
    assert iso_test(d, M, N)
    assert sum(A is M and B is N for A, B in calls) == 1


def test_iso_test_solves_end_n_once_when_m_splits(monkeypatch):
    # the End(N) algebra sizes the End-dimension reject alone: N is a sum in
    # its coordinates, so its summands come from its coordinate pieces, and
    # the (N, N) system is built once
    d = exk(F5)
    certify(d)
    M = direct_sum([kron_rep(d, 1, 2), kron_rep(d, 1, 3)])
    N = direct_sum([kron_rep(d, 1, 3), kron_rep(d, 1, 2)])
    assert len(decompose(d, M)) == 2
    real, calls = modcat._u_condition_rows, []

    def counting(dit, A, B, *args):
        calls.append((A, B))
        return real(dit, A, B, *args)

    monkeypatch.setattr(modcat, "_u_condition_rows", counting)
    assert iso_test(d, M, N)
    assert sum(A is N and B is N for A, B in calls) == 1
    assert not iso_test(d, M, direct_sum([kron_rep(d, 1, 3), kron_rep(d, 1, 4)]))


def _coordinate_sums():
    """(dit, parts): indecomposables in the order of their first basis
    vectors in their direct sum, on ex1, exk, exl and ex2 (dashed arrows;
    delta(a) = v, so its indecomposables are the simples)."""
    d1 = ex1(F2)
    certify(d1)
    yield d1, [p1_rep(d1), simple_at(d1, "1"), p1_rep(d1), simple_at(d1, "2")]
    dk = exk(F5)
    certify(dk)
    p1, _, r = _p1_p1_r(dk, 3)
    yield dk, [kron_rep(dk, 1, 2), p1, r, kron_rep(dk, 0, 1), simple_at(dk, "2")]
    dl = exl(F3)
    certify(dl)
    g = Rep(dl, {"1": 1, "2": 1}, {"g": Mat(F3, 1, 1, [[1]])})
    h = Rep(dl, {"2": 1, "3": 1}, {"h": Mat(F3, 1, 1, [[2]])})
    yield dl, [g, g, h, simple_at(dl, "3"), simple_at(dl, "4")]
    d2 = ex2(F5)
    certify(d2)
    yield d2, [simple_at(d2, "1"), simple_at(d2, "2"), simple_at(d2, "2")]


def test_decompose_returns_the_summands_of_a_coordinate_sum(monkeypatch):
    # a sum in coordinates is cut into its summands, in order, with no End
    # algebra of the sum and no idempotent split
    cases = list(_coordinate_sums())
    for d, parts in cases:
        assert all(is_indecomposable(d, P) for P in parts)
    real, calls, splits = modcat._u_condition_rows, [], []

    def counting(dit, A, B, *args):
        calls.append((A, B))
        return real(dit, A, B, *args)

    monkeypatch.setattr(modcat, "_u_condition_rows", counting)
    monkeypatch.setattr(modcat, "split_idempotent", lambda *args: splits.append(args))
    for d, parts in cases:
        S = direct_sum(parts)
        got = decompose(d, S)
        assert got == parts
        assert sum(A is S or B is S for A, B in calls) == 0
        assert len(calls) == len(parts)
        calls.clear()
    assert not splits


# -- rational points -----------------------------------------------------------

def test_jordan_blocks_at_rational_point():
    F = F5
    b = Bigraph(F, [("1", Factor.rational([Poly.from_ints(F, [0, 1])]))])
    from ditalg.tensor import Differential, Layer
    from ditalg.interlace import Dit, IdealData
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData(), name="loop-point")
    certify(d)
    j1 = jordan_at(d, "1", F.from_int(1), 2)
    assert j1.validate() is None
    with pytest.raises(Exception):
        jordan_at(d, "1", F.zero, 1)  # x inverted: eigenvalue 0 is forbidden
    j2 = jordan_at(d, "1", F.from_int(2), 2)
    assert not iso_test(d, j1, j2)
    assert iso_test(d, j1, j1)
    assert is_indecomposable(d, j1)
    M = direct_sum([j1, jordan_at(d, "1", F.from_int(1), 1)])
    parts = decompose(d, M)
    assert sorted(p.total_dim() for p in parts) == [1, 2]


def test_an_off_diagonal_x_action_entry_alone_links_two_basis_vectors(monkeypatch):
    # one rational point, no arrows: only the x-action can link (1, 0) and
    # (1, 1), so the Jordan block stays whole and diag(1, 1) splits
    from ditalg.interlace import Dit, IdealData
    from ditalg.modcat import _locality, splits_in_coordinates
    from ditalg.tensor import Differential, Layer

    F = F5
    b = Bigraph(F, [("1", Factor.rational([Poly.from_ints(F, [0, 1])]))])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData(), name="loop-point")
    certify(d)
    block = jordan_at(d, "1", F.one, 2)
    assert not splits_in_coordinates(block)
    assert _locality(EndAlgebra(d, block))[0]
    diagonal = direct_sum([jordan_at(d, "1", F.one, 1)] * 2)
    assert splits_in_coordinates(diagonal)
    assert not _locality(EndAlgebra(d, diagonal))[0]
    # decompose keeps the Jordan block whole and cuts a block-diagonal
    # x-action into its blocks
    assert [P is block for P in decompose(d, block)] == [True]
    blocks = [jordan_at(d, "1", F.one, 2), jordan_at(d, "1", F.from_int(2), 1)]
    parts = decompose(d, direct_sum(blocks))
    assert parts == blocks
    # IsoClassIndex and is_indecomposable reject the split module before
    # they build End(M)
    built = []
    monkeypatch.setattr(modcat, "EndAlgebra", lambda *args: built.append(args))
    with pytest.raises(DecomposableError):
        IsoClassIndex(d).add(diagonal)
    assert not is_indecomposable(d, diagonal)
    assert not built


def test_restricted_takes_the_named_basis_vectors_in_order():
    from ditalg.interlace import Dit, IdealData
    from ditalg.modcat import _restricted
    from ditalg.tensor import Differential, Layer

    F = F5
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.rational([]))],
                solid=[("a", "1", "2")])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData(), name="arrow-to-rational")

    def mat(rows):
        return Mat(F, len(rows), len(rows[0]), [[F.from_int(v) for v in r] for r in rows])

    A = mat([[1, 2], [3, 4], [0, 1]])
    X = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    M = Rep(d, {"1": 2, "2": 3}, {"a": A}, {"2": X})
    P = _restricted(M, {"1": [1, 0], "2": [1, 0]})
    assert P.dit is d and P.dims == {"1": 2, "2": 2}
    assert P.arrow_ops["a"] == mat([[4, 3], [2, 1]])
    assert P.point_ops["2"] == mat([[1, 0], [1, 1]])
    # a permutation of the whole basis is an isomorphic module
    assert iso_test(d, _restricted(M, {"1": [1, 0], "2": [2, 1, 0]}), M)
    Z = _restricted(M, {"1": [], "2": []})
    assert Z.is_zero() and Z.validate() is None
    assert (Z.arrow_ops["a"].rows, Z.arrow_ops["a"].cols, Z.point_ops["2"].rows) == (0, 0, 0)
    assert _restricted(M, {}) == Z


def test_validate_reports_singular_inverted_polynomial_over_gamma():
    # x-action 0 at a point inverting x: singular over F3 and over F3[x]_x
    from ditalg.scalars import LocalizedRing, LocElt
    from ditalg.tensor import Differential, Layer
    from ditalg.interlace import Dit, IdealData

    F = F3
    x = Poly.x(F)
    b = Bigraph(F, [("g", Factor.rational([x]))])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData(), name="loop-point")
    gamma = LocalizedRing(F, [x])
    want = "inverted polynomial x is singular at point g"
    assert Rep(d, {"g": 1}, point_ops={"g": Mat(F, 1, 1)}).validate() == want
    zero = Rep(d, {"g": 1}, point_ops={"g": Mat(gamma, 1, 1)}, ring=gamma)
    assert zero.validate() == want
    generic = Rep(d, {"g": 1}, point_ops={"g": Mat(gamma, 1, 1, [[LocElt(gamma, x, 0)]])},
                  ring=gamma)
    assert generic.validate() is None


def _rational_chain_rep():
    """A module over 1 -> 2 -> 3 -> 4 over Q (with a second arrow 1 -> 2):
    x is inverted at 1 and x^2 + 1 at 2, so every h-adic decoration acts."""
    from ditalg.tensor import Differential, Layer
    from ditalg.interlace import Dit, IdealData

    F = QQ
    b = Bigraph(F, [("1", Factor.rational([Poly.x(F)])),
                    ("2", Factor.rational([Poly.from_ints(F, [1, 0, 1])])),
                    ("3", Factor.trivial()), ("4", Factor.trivial())],
                solid=[("a", "1", "2"), ("a2", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData(), name="rational-chain")

    def q(rows):
        return Mat(F, len(rows), len(rows[0]), [[F.from_int(v) for v in r] for r in rows])

    M = Rep(d, {"1": 2, "2": 2, "3": 1, "4": 2},
            arrow_ops={"a": q([[1, 2], [0, 1]]), "a2": q([[0, 1], [3, -1]]),
                       "b": q([[2, -1]]), "c": q([[1], [4]])},
            point_ops={"1": q([[1, 1], [0, 2]]), "2": q([[1, 2], [0, 3]])})
    return d, M


def test_word_action_equals_the_product_with_explicit_identities():
    from ditalg.tensor import Elem, graded_component_basis

    d, M = _rational_chain_rep()
    b = d.bigraph
    F = d.field
    words = [w for s in b.point_order for t in b.point_order
             for w in graded_component_basis(b, s, t, 0, 3, 2)]
    assert max(w.length() for w in words) == 3
    for w in words:
        pts = w.path(b)
        # decoration_action is an identity matrix at a unit decoration
        want = M.decoration_action(pts[0], w.coeffs[0])
        for i, name in enumerate(w.arrows):
            want = M.decoration_action(pts[i + 1], w.coeffs[i + 1]) * (M.arrow_ops[name] * want)
        assert M.word_action(w) == want
        for c in (F.one, F.from_int(-2)):
            assert M.elem_action(Elem.from_word(b, w, c), w.start, pts[-1]) == want.scale(c)


def test_word_action_never_returns_a_held_matrix():
    from ditalg.tensor import UNIT, Word

    d, M = _rational_chain_rep()
    b = d.bigraph
    held = {name: m.copy() for name, m in M.arrow_ops.items()}
    for name, m in held.items():
        got = M.word_action(Word(b.arrow(name).source, (name,), (UNIT, UNIT)))
        assert got == m and got is not M.arrow_ops[name]
        got.data[0][0] = d.field.from_int(7)
    assert M.arrow_ops == held
    unit = M.word_action(Word("4", (), (UNIT,)))
    unit.data[0][0] = d.field.zero
    assert M.word_action(Word("4", (), (UNIT,))) == Mat.identity_of(M.ring, M.dims["4"])


def test_word_action_rejects_a_decoration_at_a_trivial_point():
    from ditalg.tensor import UNIT, Word

    _, M = _rational_chain_rep()
    for w in (Word("3", (), ((1, 0),)), Word("2", ("b",), (UNIT, (0, 1))),
              Word("1", ("a", "b"), (UNIT, UNIT, (2, 0)))):
        with pytest.raises(ModcatError, match="nontrivial decoration at a trivial point"):
            M.word_action(w)


def _rational_dashed_chain():
    """Modules M, N, L over 1 -> 2 -> 3 over Q, with solid a, b and dashed
    u, u2 along the chain and dashed v: 1 -> 3, delta(a) = x u and
    delta(v) = u2 x u + u2 u (1/x); x is inverted at 1 and x^2 + 1 at 2, so
    decorations act on every level.  Also f1, g1: M -> N -> L on the dashed
    arrows."""
    from ditalg.interlace import Dit, IdealData
    from ditalg.tensor import UNIT, Differential, Elem, Layer, Word

    F = QQ
    b = Bigraph(F, [("1", Factor.rational([Poly.x(F)])),
                    ("2", Factor.rational([Poly.from_ints(F, [1, 0, 1])])),
                    ("3", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "2", "3")],
                dashed=[("u", "1", "2"), ("u2", "2", "3"), ("v", "1", "3")])
    layer = Layer(b)
    x_u = Elem.from_word(b, Word("1", ("u",), (UNIT, (1, 0))))
    dv = (Elem.from_word(b, Word("1", ("u", "u2"), (UNIT, (1, 0), UNIT)))
          + Elem.from_word(b, Word("1", ("u", "u2"), ((0, 1), UNIT, UNIT)), F.from_int(3)))
    d = Dit(layer, Differential(layer, {"a": x_u, "v": dv}), IdealData(), name="rational-dashed")
    rng = random.Random(11)

    def mat(r, c, diag=None):
        m = Mat(F, r, c, [[F.random(rng) for _ in range(c)] for _ in range(r)])
        for i in range(min(r, c) if diag else 0):
            m.data[i][i] = F.from_int(diag + i)
            for j in range(i):
                m.data[i][j] = F.zero
        return m

    def rep(n1, n2, n3):
        dims = {"1": n1, "2": n2, "3": n3}
        return Rep(d, dims, {"a": mat(n2, n1), "b": mat(n3, n2)},
                   {"1": mat(n1, n1, diag=1), "2": mat(n2, n2, diag=2)})

    M, N, L = rep(2, 2, 1), rep(1, 2, 2), rep(2, 1, 2)

    def maps(X, Y):
        return {a.name: mat(Y.dims[a.target], X.dims[a.source]) for a in b.dashed_arrows()}
    return d, (M, N, L), (maps(M, N), maps(N, L))


def _explicit_word_action(w, reps, dashed_maps):
    """The product of a word's letters and decorations through the levels,
    with the identity matrix of every unit decoration multiplied in."""
    b = reps[0].dit.bigraph
    pts = w.path(b)
    level = 0
    want = reps[0].decoration_action(pts[0], w.coeffs[0])
    for i, name in enumerate(w.arrows):
        if b.arrow(name).dashed:
            want = dashed_maps[level][name] * want
            level += 1
        else:
            want = reps[level].arrow_ops[name] * want
        want = reps[level].decoration_action(pts[i + 1], w.coeffs[i + 1]) * want
    return want


def test_word_action_of_degrees_one_and_two_equals_the_explicit_product():
    from ditalg.tensor import Elem, graded_component_basis

    d, (M, N, L), (f1, g1) = _rational_dashed_chain()
    b = d.bigraph
    F = d.field
    for degree, reps, maps in ((1, (M, N), (f1,)), (2, (M, N, L), (f1, g1))):
        words = [w for s in b.point_order for t in b.point_order
                 for w in graded_component_basis(b, s, t, degree, 3, 2)]
        assert any(key != (0, 0) for w in words for key in w.coeffs)
        assert len(words) > 10
        for w in words:
            want = _explicit_word_action(w, reps, maps)
            assert modcat._word_action(w, reps, maps) == want
            elem = Elem.from_word(b, w, F.from_int(-2))
            got = modcat._elem_action(elem, w.start, w.end(b), reps, maps)
            assert got == want.scale(F.from_int(-2))
    # the differential's own values, summed over their terms
    for name, reps, maps in (("a", (M, N), (f1,)), ("v", (M, N, L), (f1, g1))):
        arr = b.arrow(name)
        want = Mat(F, reps[-1].dims[arr.target], M.dims[arr.source])
        for w, c in d.delta.of_arrow(name).terms.items():
            want = want + _explicit_word_action(w, reps, maps).scale(c)
        assert modcat._elem_action(d.delta.of_arrow(name), arr.source, arr.target,
                                   reps, maps) == want


def test_word_action_rejects_a_word_of_another_degree():
    from ditalg.tensor import UNIT, Word

    d, (M, N, L), (f1, g1) = _rational_dashed_chain()
    dashed = Word("1", ("u",), (UNIT, UNIT))
    with pytest.raises(ModcatError, match="degree"):
        M.word_action(dashed)
    with pytest.raises(ModcatError, match="degree"):
        M.word_action(Word("1", ("u", "b"), (UNIT, UNIT, UNIT)))
    with pytest.raises(ModcatError, match="degree"):
        modcat._word_action(Word("1", ("u", "u2"), (UNIT, UNIT, UNIT)), (M, N), (f1,))
    with pytest.raises(ModcatError, match="degree"):
        modcat._word_action(dashed, (M, N, L), (f1, g1))
    assert modcat._word_action(dashed, (M, N), (f1,)) == f1["u"]


# -- endomorphism algebra radical ------------------------------------------------

def test_algebra_radical_known_cases():
    # k[t]/(t^2) over F2: radical is (t)
    F = F2
    table = [[[F.one, F.zero], [F.zero, F.one]], [[F.zero, F.one], [F.zero, F.zero]]]
    rad = algebra_radical(F, table, 2)
    assert len(rad) == 1
    # k x k: radical 0
    table2 = [[[F.one, F.zero], [F.zero, F.zero]], [[F.zero, F.zero], [F.zero, F.one]]]
    # basis e1, e2 orthogonal idempotents
    table2 = [[[F.one, F.zero], [F.zero, F.zero]],
              [[F.zero, F.zero], [F.zero, F.one]]]
    assert algebra_radical(F, table2, 2) == []


def test_algebra_radical_group_algebra_f2c2():
    # F2[C2] = F2[t]/(t^2-1) = F2[t]/((t-1)^2): radical dim 1
    F = F2
    # basis 1, g with g^2 = 1
    table = [[[F.one, F.zero], [F.zero, F.one]],
             [[F.zero, F.one], [F.one, F.zero]]]
    rad = algebra_radical(F, table, 2)
    assert len(rad) == 1


def test_end_of_indecomposable_local():
    d = ex1(F2)
    certify(d)
    M = p1_rep(d)
    E = EndAlgebra(d, M)
    assert E.dim == 1


def _end_cases():
    d3 = exk(F3)
    certify(d3)
    M3 = Rep(d3, {"1": 2, "2": 2}, {"a": Mat(F3, 2, 2, [[1, 0], [0, 1]]),
                                    "b": Mat(F3, 2, 2, [[0, 1], [0, 0]])})
    yield d3, direct_sum([M3, kron_rep(d3, 1, 2), simple_at(d3, "2")])
    d2 = ex2(F3)
    certify(d2)
    yield d2, direct_sum([simple_at(d2, p) for p in d2.bigraph.point_order])
    yield _twisted_p1_p1_r1(1)
    dq, Mq = _kronecker_qi()
    yield dq, direct_sum([Mq, Mq, simple_at(dq, "1")])


def test_end_coordinates_reject_non_endomorphism():
    d = exk(F3)
    certify(d)
    M = kron_rep(d, 1, 2)
    E = EndAlgebra(d, M)
    assert E.coordinates(identity_morphism(M)) == E.identity_coords()
    f = zero_morphism(M, M)
    f.f0["1"] = Mat(F3, 1, 1, [[1]])   # a f0_1 - f0_2 a = 1: not a morphism
    assert not in_hom(d, M, M, f)
    with pytest.raises(ModcatError, match="not in End"):
        E.coordinates(f)


def test_mult_table_matches_solved_coordinates():
    for d, M in _end_cases():
        E = EndAlgebra(d, M)
        vecs = [pair_to_vector(d, M, M, f) for f in E.basis]
        cols = linalg.transpose(vecs)
        for i, a in enumerate(E.basis):
            for j, b in enumerate(E.basis):
                vec = pair_to_vector(d, M, M, compose(d, a, b, M, M, M))
                assert E.table[i][j] == linalg.solve(E.F, cols, vec)


def test_from_coordinates_inverts_coordinates():
    # a random endomorphism summed from the basis pairs matrix by matrix,
    # and each unit vector, come back from their coordinates
    rng = random.Random(3)
    for d, M in _end_cases():
        E = EndAlgebra(d, M)
        F = E.F
        for k, e in enumerate(linalg.identity(F, E.dim)):
            assert E.from_coordinates(e) == E.basis[k]
        for _ in range(5):
            f = zero_morphism(M, M)
            for h in E.basis:
                c = F.random(rng)
                f = MorphismPair({p: f.f0[p] + h.f0[p].scale(c) for p in f.f0},
                                 {v: f.f1[v] + h.f1[v].scale(c) for v in f.f1})
            assert E.from_coordinates(E.coordinates(f)) == f


def test_vector_to_pair_blocks_own_their_rows():
    # blocks are built from fresh rows: two pairs from one vector share no
    # row list, and writing into every block of one leaves the vector and
    # the other pair as they were
    for d, M in _end_cases():
        for v in EndAlgebra(d, M)._vecs:
            kept = list(v)
            f, g = (modcat._vector_to_pair(d, M, M, v) for _ in range(2))
            rows_f = [row for m in [*f.f0.values(), *f.f1.values()] for row in m.data]
            rows_g = [row for m in [*g.f0.values(), *g.f1.values()] for row in m.data]
            assert not {id(r) for r in rows_f} & {id(r) for r in rows_g}
            assert len({id(r) for r in rows_f}) == len(rows_f)
            for row in rows_f:
                if row:
                    row[0] = d.field.add(row[0], d.field.one)
            assert v == kept and pair_to_vector(d, M, M, g) == kept


def _charpoly_radical(F, table, dim):
    """The radical chain of `algebra_radical` with every coefficient c_k,
    c_1 included, read off a characteristic polynomial."""
    def left_mult(z):
        return Mat(F, dim, dim, [[_sum(F, [F.mul(z[i], table[i][j][r]) for i in range(dim)])
                                  for j in range(dim)] for r in range(dim)])

    def product(x, y):
        return [_sum(F, [F.mul(F.mul(x[i], y[j]), table[i][j][r])
                         for i in range(dim) for j in range(dim)]) for r in range(dim)]

    def step(space, k):
        rows = [[charpoly(F, left_mult(product(x, y))).coeff(dim - k) for x in space]
                for y in space]
        return [[_sum(F, [F.mul(c, base[t]) for c, base in zip(combo, space)])
                 for t in range(dim)]
                for combo in linalg.kernel_basis(F, rows, len(space))]

    rad = linalg.identity(F, dim)
    if F.char == 0:
        return step(rad, 1)
    power = 1
    while power <= dim and rad:
        rad = step(rad, power)
        power *= F.char
    return rad


def _sum(F, values):
    out = F.zero
    for v in values:
        out = F.add(out, v)
    return out


def test_trace_form_radical_matches_charpoly_chain():
    dq, Mq = _kronecker_qi()
    for d, M in (_twisted_p1_p1_r1(0), (dq, Mq), (dq, direct_sum([Mq, simple_at(dq, "2")]))):
        E = EndAlgebra(d, M)
        want = _charpoly_radical(E.F, E.table, E.dim)
        assert E.rad == want
        assert algebra_radical(E.F, E.table, E.dim) == want
    assert len(EndAlgebra(*_twisted_p1_p1_r1(0)).rad) > 0


def _candidates(d, bound):
    """Every valid module of total dimension 1..bound over the prime field
    of d (solid-arrow matrices only: no rational points)."""
    F, b = d.field, d.bigraph
    assert all(b.factor(p).is_trivial for p in b.point_order)
    arrows = b.solid_arrows()
    out = []
    for dims in itertools.product(range(bound + 1), repeat=len(b.point_order)):
        if not 0 < sum(dims) <= bound:
            continue
        dimmap = dict(zip(b.point_order, dims))
        shapes = [(dimmap[a.target], dimmap[a.source]) for a in arrows]
        for vals in itertools.product(range(F.char), repeat=sum(r * c for r, c in shapes)):
            it = iter(vals)
            M = Rep(d, dimmap, {a.name: Mat(F, r, c, [[next(it) for _ in range(c)]
                                                      for _ in range(r)])
                                for a, (r, c) in zip(arrows, shapes)})
            if M.validate() is None:
                out.append(M)
    return out


def test_iso_class_index_agrees_with_iso_test():
    d = exk(F2)
    certify(d)
    candidates = _candidates(d, 3)
    index = IsoClassIndex(d)
    indecs = []
    for M in candidates:
        if is_indecomposable(d, M):
            index.add(M)
            indecs.append(M)
        else:
            with pytest.raises(DecomposableError):
                index.add(M)
    assert len(indecs) > len(index.classes) > 0
    for M in indecs:
        found = index.find(M)
        assert found is not None
        for C in index.classes:
            assert iso_test(d, M, C) == (C is found)


# -- locality and isomorphism decided without construction ------------------------

def _locality_cases():
    """(dit, module) pairs: every valid exk/F2 and exl/F2 module of total
    dimension <= 3, twisted P1 + P1 + R1 over F_101, the Q(i) Kronecker module
    and its double, and S1 + S1 with End/rad = M_2(k) noncommutative."""
    for fixture in (exk, exl):
        d = fixture(F2)
        certify(d)
        for M in _candidates(d, 3):
            yield d, M
    for seed in (0, 1, 13):
        yield _twisted_p1_p1_r1(seed)
    dq, Mq = _kronecker_qi()
    yield dq, Mq
    yield dq, direct_sum([Mq, Mq])
    d3 = exk(F3)
    certify(d3)
    yield d3, direct_sum([simple_at(d3, "1"), simple_at(d3, "1")])


@pytest.mark.parametrize("witness", [True, False])
def test_is_local_agrees_with_idempotent_decision(monkeypatch, witness):
    # the oracle: M is indecomposable iff `decompose`, whose every split
    # passes the exact idempotence test of `split_idempotent`, returns one
    # summand.  With the basis witness switched off (no Fitting rank strictly
    # inside 0..dim M) the Wedderburn and Frobenius decisions must agree on
    # their own.
    cases = [(d, M, len(decompose(d, M)) == 1) for d, M in _locality_cases()]
    if not witness:
        monkeypatch.setattr(modcat, "_fitting_rank", lambda m: 0)
    seen = {True: 0, False: 0}
    for d, M, want in cases:
        assert modcat._locality(EndAlgebra(d, M))[0] == want
        seen[want] += 1
    assert seen[True] > 0 and seen[False] > 0


@pytest.mark.parametrize("witness", [True, False])
def test_fitting_idempotent_splits_every_nonlocal_case(monkeypatch, witness):
    if not witness:
        monkeypatch.setattr(modcat, "_fitting_rank", lambda m: 0)
    split = 0
    for d, M in _locality_cases():
        E = EndAlgebra(d, M)
        local, f = modcat._locality(E, witness=True)
        if local:
            continue
        e = modcat._fitting_idempotent(E, f)
        assert compose(d, e, e, M, M, M) == e
        assert not e.is_zero() and e != identity_morphism(M)
        M1, M2, _ = split_idempotent(d, M, e)
        assert not M1.is_zero() and not M2.is_zero()
        split += 1
    assert split > 0


def test_iso_test_rejects_unequal_hom_dims_without_decomposing(monkeypatch):
    d = exk(F2)
    certify(d)
    M = direct_sum([simple_at(d, "1"), simple_at(d, "2")])   # End M = k x k
    N = kron_rep(d, 1, 0)                                     # End N = k

    def forbidden(*args):
        raise AssertionError("iso_test decomposed a pair its hom dims reject")

    monkeypatch.setattr(modcat, "_decompose", forbidden)
    assert M.dim_vector() == N.dim_vector()
    assert hom_dim(d, M, M) != hom_dim(d, N, N)
    assert not iso_test(d, M, N)
    assert not iso_test(d, N, M)


def _f0_fitting_rank(f, n):
    return sum(m.power(n).rank() for m in f.f0.values())


def test_witness_never_fires_on_a_local_module():
    fired = 0
    for d, M in _locality_cases():
        E = EndAlgebra(d, M)
        n = M.total_dim()
        ranks = {_f0_fitting_rank(f, n) for f in E.basis}
        if len(decompose(d, M)) == 1:
            assert ranks <= {0, n}
        fired += not ranks <= {0, n}
    assert fired > 0


def _composite_iso(E, N):
    """The former criterion: M = E.M and N are isomorphic iff dim Hom(M,N) =
    dim Hom(N,M) = dim End(M) and some composite g.f, f in Hom(M,N), g in
    Hom(N,M), misses the radical of the local End(M)."""
    d, M = E.dit, E.M
    homMN, homNM = hom(d, M, N), hom(d, N, M)
    if not len(homMN) == len(homNM) == E.dim:
        return False
    return any(not linalg.row_space_contains(E.F, E.rad, E.coordinates(compose(d, g, f, M, N, M)))
               for f in homMN for g in homNM)


def test_indec_iso_scan_agrees_with_composite_criterion():
    # up to dimension 4: the regular (2, 2) modules have End(M) = k[t]/(t^2),
    # where a basis element of Hom(M, N) need not be an isomorphism
    d = exk(F2)
    certify(d)
    indecs = [M for M in _candidates(d, 4) if is_indecomposable(d, M)]
    pairs = isos = 0
    for M in indecs:
        E = EndAlgebra(d, M)
        for N in indecs:
            if M.dim_vector() != N.dim_vector():
                continue
            f = modcat._indec_iso(E, N)
            assert (f is not None) == _composite_iso(E, N)
            if f is not None:
                assert is_isomorphism(d, f, M, N) is not None
            pairs += 1
            isos += f is not None
    assert pairs > isos > len(indecs)


def test_indec_iso_rejects_on_the_hom_dimension_before_any_morphism(monkeypatch):
    # M is the regular (2, 2) module with End(M) = k[t]/(t^2); dim Hom(M, N)
    # is 1 for N = kr(1, 0) + kr(0, 1), so no kernel vector becomes a pair
    d = exk(F5)
    certify(d)
    M = Rep(d, {"1": 2, "2": 2}, {"a": Mat(F5, 2, 2, [[1, 0], [0, 1]]),
                                   "b": Mat(F5, 2, 2, [[0, 1], [0, 0]])})
    N = direct_sum([kron_rep(d, 1, 0), kron_rep(d, 0, 1)])
    E = EndAlgebra(d, M)
    assert E.dim == 2 and hom_dim(d, M, N) == 1
    first = next(i for i, f in enumerate(hom(d, M, M))
                 if is_isomorphism(d, f, M, M) is not None)
    real, pairs = modcat._vector_to_pair, []

    def counting(*args):
        pairs.append(args)
        return real(*args)

    monkeypatch.setattr(modcat, "_vector_to_pair", counting)
    assert modcat._indec_iso(E, N) is None
    assert not pairs
    # an isomorphic N: the scan converts vectors up to the first isomorphism
    assert modcat._indec_iso(E, M) is not None
    assert len(pairs) == first + 1


def test_elimination_updates_only_pivot_row_nonzeros(monkeypatch):
    # hom_dim and End of a twist of P1 + I1 + R2 over F_101 eliminate 2,074
    # rows; updating each along its whole pivot row took 67,460 entry updates
    d = exk(F101)
    certify(d)
    p1 = Rep(d, {"1": 1, "2": 2}, {"a": Mat(F101, 2, 1, [[1], [0]]),
                                   "b": Mat(F101, 2, 1, [[0], [1]])})
    i1 = Rep(d, {"1": 2, "2": 1}, {"a": Mat(F101, 1, 2, [[1, 0]]),
                                   "b": Mat(F101, 1, 2, [[0, 1]])})
    r2 = Rep(d, {"1": 2, "2": 2}, {"a": Mat(F101, 2, 2, [[1, 0], [0, 1]]),
                                   "b": Mat(F101, 2, 2, [[3, 1], [0, 3]])})
    S = direct_sum([p1, i1, r2])
    T = _twisted(d, S, 19)

    updated = []
    sub_scaled = PrimeField.sub_scaled

    def recording(self, row, f, nz):
        updated.append(len(nz))
        return sub_scaled(self, row, f, nz)

    monkeypatch.setattr(PrimeField, "sub_scaled", recording)
    assert hom_dim(d, T, S) == 10
    E = EndAlgebra(d, T)
    assert (E.dim, len(E.rad)) == (10, 7)
    assert sum(updated) <= 20_189
