import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ditalg.bigraph import (
    Bigraph, BigraphError, Factor, longest_path_levels, unlevelled_cycle,
)
from ditalg.fixtures import ALL_FIXTURES, ex1, ex2, exa, exi, exk, stellar_case1, stellar_case2
from ditalg.scalars import PrimeField, Poly, QQ, LocalizedRing, LocElt
from ditalg.tensor import (
    UNIT, Differential, Elem, Layer, Word, decompose_locelt, graded_component_basis,
    key_to_locelt, mul_keys,
)

F101 = PrimeField(101)
F5 = PrimeField(5)


# -- bigraph ---------------------------------------------------------------

def test_directed_single_point():
    b = Bigraph(F5, [("1", Factor.trivial())])
    assert b.is_directed()


def test_two_cycle_not_directed():
    b = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2")], dashed=[("v", "2", "1")])
    assert not b.is_directed()
    assert b.find_cycle()


def test_find_cycle_leaves_out_the_path_into_the_cycle():
    # c: z0 -> 1 leads into the loop ell at 1 but lies on no cycle
    assert exa(F5).bigraph.find_cycle() == ["ell"]


def _random_bigraph(rng, n, m):
    pts = [(str(i), Factor.trivial()) for i in range(n)]
    arrows = [(f"a{k}", str(rng.randrange(n)), str(rng.randrange(n))) for k in range(m)]
    cut = rng.randint(0, m)
    return Bigraph(F5, pts, solid=arrows[:cut], dashed=arrows[cut:])


def test_find_cycle_witness_is_a_cycle():
    rng = random.Random(7)
    witnesses = 0
    for _ in range(500):
        b = _random_bigraph(rng, rng.randint(1, 7), rng.randint(0, 9))
        cyc = b.find_cycle()
        assert (cyc is None) == b.is_directed()
        if cyc is None:
            continue
        witnesses += 1
        arrows = [b.arrow(name) for name in cyc]
        assert all(x.target == y.source for x, y in zip(arrows, arrows[1:] + arrows[:1]))
        assert len({a.source for a in arrows}) == len(arrows)
    assert witnesses > 100


def _recursive_levels(deps):
    """The longest-path level of each node by recursion on its
    dependencies, None for a node that reaches a cycle (one of its
    dependency chains comes back to a node still being levelled)."""
    level, open_ = {}, set()

    def lv(n):
        if n not in level:
            if n in open_:
                return None
            open_.add(n)
            below = [lv(m) for m in deps[n]]
            open_.discard(n)
            level[n] = None if None in below else 1 + max(below, default=0)
        return level[n]

    for n in deps:
        lv(n)
    return level


@st.composite
def _digraphs(draw):
    """deps of a random digraph on nodes "0".."n-1", with repeated
    dependencies; acyclic when each node depends on lower nodes only."""
    n = draw(st.integers(1, 12))
    acyclic = draw(st.booleans())
    deps = {}
    for i in range(n):
        pool = list(range(i)) if acyclic else list(range(n))
        picks = draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
        deps[str(i)] = [str(j) for j in picks]
    return deps


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_digraphs())
def test_round_levels_equal_the_recursive_longest_paths(deps):
    # the same levels, and the same nodes left unlevelled, as the recursion;
    # a cycle is named exactly when some node is unlevelled
    want = _recursive_levels(deps)
    got = longest_path_levels(deps)
    assert got == {n: lv for n, lv in want.items() if lv is not None}
    cyc = unlevelled_cycle(deps)
    assert (cyc is None) == (None not in want.values())
    if cyc is not None:
        assert all(m in deps[n] for n, m in zip(cyc, cyc[1:] + cyc[:1]))


def test_ex1_directed_and_heights():
    # the point levels put 1 below 2, and the one solid arrow is the one
    # level of the layer
    d = ex1(F5)
    assert d.bigraph.point_levels() == {"1": 1, "2": 2}
    assert d.levels == ((("a",),), ())


def test_rational_factor_inverts_each_polynomial_once():
    x = Poly.x(F5)
    assert Factor.rational([x, x, x + Poly.const(F5, 1)]) == \
        Factor.rational([x, x + Poly.const(F5, 1)])
    assert Factor.rational([x + Poly.const(F5, 1), x.scale(2), x]).inverted == \
        (x + Poly.const(F5, 1), x)


# -- decorations -----------------------------------------------------------

def test_locelt_basis_roundtrip():
    R = LocalizedRing(F5, [Poly.from_ints(F5, [0, 1])])
    rng = random.Random(4)
    for _ in range(40):
        num = Poly.from_ints(F5, [rng.randrange(5) for _ in range(4)])
        e = LocElt(R, num, rng.randrange(3))
        parts = decompose_locelt(R, e)
        acc = R.zero
        for key, c in parts:
            acc = acc + key_to_locelt(R, key).__mul__(LocElt(R, Poly.const(F5, c), 0))
        assert acc == e
        for (a, j), _ in parts:
            if j >= 1:
                assert a < R.h.degree


# -- tensor algebra ---------------------------------------------------------

def test_idempotent_unit_law():
    d = ex1(F5)
    b = d.bigraph
    a = Elem.arrow(b, "a")
    assert Elem.idempotent(b, "2") * a == a
    assert a * Elem.idempotent(b, "1") == a
    assert (Elem.idempotent(b, "1") * a).is_zero()


def test_noncomposable_is_zero():
    b = exi(F5).bigraph
    a, bb = Elem.arrow(b, "a"), Elem.arrow(b, "b")
    assert not (bb * a).is_zero()
    assert (a * bb).is_zero()


def test_decoration_folding():
    # (x e_2) * a * (x^2 e_1) folds into one decorated word
    F = F5
    b = Bigraph(F, [("1", Factor.rational()), ("2", Factor.rational())],
                solid=[("a", "1", "2")])
    r1, r2 = b.factor_ring("1"), b.factor_ring("2")
    x1 = Elem.decorated(b, "1", LocElt(r1, Poly.x(F) ** 2, 0))
    x2 = Elem.decorated(b, "2", LocElt(r2, Poly.x(F), 0))
    w = x2 * Elem.arrow(b, "a") * x1
    assert len(w.terms) == 1
    word = next(iter(w.terms))
    assert word.coeffs == ((2, 0), (1, 0))
    # equality against naive expansion (x+1)-decoration distributes
    y1 = Elem.decorated(b, "1", LocElt(r1, Poly.from_ints(F, [1, 1]), 0))
    lhs = Elem.arrow(b, "a") * y1
    rhs = Elem.arrow(b, "a") + Elem.arrow(b, "a") * Elem.decorated(b, "1", LocElt(r1, Poly.x(F), 0))
    assert lhs == rhs


def test_multiplication_associative_random():
    d = exi(F101)
    b = d.bigraph
    gens = [Elem.arrow(b, n) for n in b.arrows] + [Elem.idempotent(b, p) for p in b.point_order]
    rng = random.Random(0)
    for _ in range(60):
        def rand_elem():
            e = Elem.zero(b)
            for _ in range(rng.randrange(1, 4)):
                e = e + rng.choice(gens).scale(F101.from_int(rng.randrange(1, 101)))
            return e
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert (u * v) * w == u * (v * w)
        du, dv = u.degrees(), v.degrees()
        if len(du) == 1 and len(dv) == 1 and not (u * v).is_zero():
            assert (u * v).degrees() == [du[0] + dv[0]]


def _generators(b):
    """Arrows, idempotents and, at each rational point, x and 1/h decorations."""
    gens = [Elem.arrow(b, n) for n in b.arrows] + [Elem.idempotent(b, p) for p in b.point_order]
    for p in b.point_order:
        ring = b.factor_ring(p)
        if ring is not None:
            gens.append(Elem.decorated(b, p, LocElt(ring, Poly.x(b.field), 0)))
            gens.append(Elem.decorated(b, p, LocElt(ring, Poly.one(b.field), 1)))
    return gens


@pytest.mark.parametrize("fixture", sorted(ALL_FIXTURES.values(), key=lambda f: f.__name__)
                         + [stellar_case1, stellar_case2], ids=lambda f: f.__name__)
def test_components_split_by_endpoints_in_point_order(fixture):
    d = fixture(F101)
    b = d.bigraph
    elems = list(d.delta.values.values()) + list(d.ideal.generators)
    gens = _generators(b)
    rng = random.Random(5)
    for _ in range(40):
        e = Elem.zero(b)
        for _ in range(rng.randrange(1, 6)):
            prod = Elem.idempotent(b, rng.choice(b.point_order))
            for _ in range(rng.randrange(1, 4)):
                prod = rng.choice(gens) * prod
            e = e + prod.scale(F101.from_int(rng.randrange(1, 101)))
        elems.append(e)
    assert any(len(e.components()) > 1 for e in elems)
    for e in elems:
        comps = e.components()
        assert list(comps.items()) == [
            ((i, j), e.component(i, j)) for i in b.point_order for j in b.point_order
            if not e.component(i, j).is_zero()]
        total = Elem.zero(b)
        for c in comps.values():
            total = total + c
        assert total == e


def test_normal_form_uniqueness():
    b = exk(F5).bigraph
    a1 = Elem.arrow(b, "a") + Elem.arrow(b, "b")
    a2 = Elem.arrow(b, "b") + Elem.arrow(b, "a")
    assert a1 == a2 and a1.terms == a2.terms


# -- differential -----------------------------------------------------------

def test_delta_on_idempotents_is_zero():
    d = ex2(F5)
    for p in d.bigraph.point_order:
        assert d.delta.apply(Elem.idempotent(d.bigraph, p)).is_zero()


def test_leibniz_on_composite_ex2_like():
    # delta(b a) = delta(b) a + b delta(a) with delta(b) = 0
    F = F5
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "2", "3")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    delta = Differential(layer, {"a": Elem.arrow(b, "v")})
    ba = Elem.arrow(b, "b") * Elem.arrow(b, "a")
    assert delta.apply(ba) == Elem.arrow(b, "b") * Elem.arrow(b, "v")


def test_sign_rule_dashed_times_solid():
    # delta(v a) = delta(v) a - v delta(a); with delta(v) = 0 the sign shows
    F = F5
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("a", "1", "2")], dashed=[("v", "2", "3"), ("w", "1", "2")])
    layer = Layer(b)
    delta = Differential(layer, {"a": Elem.arrow(b, "w")})
    va = Elem.arrow(b, "v") * Elem.arrow(b, "a")
    expect = (Elem.arrow(b, "v") * Elem.arrow(b, "w")).scale(F.neg(F.one))
    assert delta.apply(va) == expect


def _random_homogeneous(b, rng, F, degree_pool):
    words = []
    for src in b.point_order:
        for tgt in b.point_order:
            for deg in degree_pool:
                words += graded_component_basis(b, src, tgt, deg, 3, 1)
    if not words:
        return Elem.zero(b)
    w = rng.choice(words)
    return Elem.from_word(b, w, F.from_int(rng.randrange(1, 101)))


@pytest.mark.parametrize("fixture", [ex1, ex2, exi, exk])
def test_leibniz_identity_random(fixture):
    d = fixture(F101)
    b = d.bigraph
    rng = random.Random(11)
    for _ in range(100):
        u = _random_homogeneous(b, rng, F101, [0, 1])
        v = _random_homogeneous(b, rng, F101, [0, 1])
        if u.is_zero() or v.is_zero():
            continue
        du = u.degrees()[0]
        sign = F101.one if du % 2 == 0 else F101.neg(F101.one)
        lhs = d.delta.apply(u * v)
        rhs = d.delta.apply(u) * v + (u * d.delta.apply(v)).scale(sign)
        assert lhs == rhs


def test_delta_raises_degree_by_one():
    d = ex2(F101)
    b = d.bigraph
    for name in b.arrows:
        val = d.delta.of_arrow(name)
        if not val.is_zero():
            assert val.degrees() == [Elem.arrow(b, name).degrees()[0] + 1]


# -- graded bases ------------------------------------------------------------

def test_graded_basis_ex1():
    b = ex1(F5).bigraph
    words = graded_component_basis(b, "1", "2", 0, 3)
    assert [w.arrows for w in words] == [("a",)]


def test_graded_basis_ex2_degree1():
    b = ex2(F5).bigraph
    words = graded_component_basis(b, "1", "2", 1, 3)
    assert [w.arrows for w in words] == [("v",)]


def test_graded_basis_chain_with_dashed():
    F = F5
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "2", "3")], dashed=[("u", "1", "3")])
    deg0 = graded_component_basis(b, "1", "3", 0, 3)
    deg1 = graded_component_basis(b, "1", "3", 1, 3)
    assert [w.arrows for w in deg0] == [("a", "b")]
    assert [w.arrows for w in deg1] == [("u",)]


def test_graded_basis_rejects_cycles():
    b = Bigraph(F5, [("1", Factor.trivial())], solid=[("l", "1", "1")])
    with pytest.raises(BigraphError):
        graded_component_basis(b, "1", "1", 0, 2)



@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_associative_and_degree_additive_hypothesis(data):
    d = exi(F101)
    b = d.bigraph
    words = []
    for src in b.point_order:
        for tgt in b.point_order:
            for deg in (0, 1):
                words += graded_component_basis(b, src, tgt, deg, 3)
    def elem(label):
        w = data.draw(st.sampled_from(words), label=label)
        c = data.draw(st.integers(1, 100), label=label + "_coeff")
        return Elem.from_word(b, w, F101.from_int(c))
    u, v, w = elem("u"), elem("v"), elem("w")
    assert (u * v) * w == u * (v * w)
    uv = u * v
    if not uv.is_zero():
        assert uv.degrees() == [u.degrees()[0] + v.degrees()[0]]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_leibniz_hypothesis(data):
    d = ex2(F101)
    b = d.bigraph
    words = []
    for src in b.point_order:
        for tgt in b.point_order:
            for deg in (0, 1):
                words += graded_component_basis(b, src, tgt, deg, 3)
    w1 = data.draw(st.sampled_from(words))
    w2 = data.draw(st.sampled_from(words))
    u = Elem.from_word(b, w1)
    v = Elem.from_word(b, w2)
    sign = F101.one if u.degrees()[0] % 2 == 0 else F101.neg(F101.one)
    assert d.delta.apply(u * v) == d.delta.apply(u) * v + (u * d.delta.apply(v)).scale(sign)


# -- Elem arithmetic against the naive accumulation ---------------------------------


def _naive_add(F, x, y):
    out = dict(x.terms)
    for w, c in y.terms.items():
        acc = F.add(out.get(w, F.zero), c)
        if F.is_zero(acc):
            out.pop(w, None)
        else:
            out[w] = acc
    return out


def _naive_mul(F, b, x, y):
    out = {}
    for w2, c2 in y.terms.items():
        end2 = w2.end(b)
        ring = b.factor_ring(end2)
        for w1, c1 in x.terms.items():
            if w1.start != end2:
                continue
            for key, kc in mul_keys(ring, w1.coeffs[0], w2.coeffs[-1]):
                word = Word(w2.start, w2.arrows + w1.arrows,
                            w2.coeffs[:-1] + (key,) + w1.coeffs[1:])
                s = F.mul(c1, c2) if kc is None else F.mul(F.mul(c1, c2), kc)
                acc = F.add(out.get(word, F.zero), s)
                if F.is_zero(acc):
                    out.pop(word, None)
                else:
                    out[word] = acc
    return out


def _hadic_chain(F):
    """1 -> 2 -> 3 with rational 1 (x inverted) and 2 (x^2 + x + 1 inverted),
    so decorations at 2 include the h-adic fractions x^b / h^j."""
    x = Poly.x(F)
    return Bigraph(F, [("1", Factor.rational([x])),
                       ("2", Factor.rational([Poly.from_ints(F, [1, 1, 1])])),
                       ("3", Factor.trivial())],
                   solid=[("a", "1", "2"), ("b", "2", "3")], dashed=[("v", "1", "3")])


_CHAINS = {F.char: (F, _hadic_chain(F)) for F in (PrimeField(2), PrimeField(3), QQ)}
_CHAIN_WORDS = {
    char: [w for s in b.point_order for t in b.point_order for deg in (0, 1)
           for w in graded_component_basis(b, s, t, deg, 2, 2)]
    for char, (_, b) in _CHAINS.items()
}


def _scalar(F, data):
    if F.char:
        return F.from_int(data.draw(st.integers(0, F.char - 1)))
    return F.div(F.from_int(data.draw(st.integers(-3, 3))), F.from_int(data.draw(st.integers(1, 3))))


def _drawn_elem(F, b, words, data):
    terms = {data.draw(st.sampled_from(words)): _scalar(F, data)
             for _ in range(data.draw(st.integers(0, 4)))}
    return Elem(b, terms)


def _assert_stored(e, want):
    F = e.bigraph.field
    assert list(e.terms.items()) == list(want.items())
    assert not any(F.is_zero(c) for c in e.terms.values())


@pytest.mark.parametrize("char", sorted(_CHAINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_elem_arithmetic_matches_naive_accumulation(char, data):
    F, b = _CHAINS[char]
    words = _CHAIN_WORDS[char]
    u = _drawn_elem(F, b, words, data)
    v = _drawn_elem(F, b, words, data)
    # w repeats part of u negated, so u + w cancels those words
    kept = [k for k in u.terms if data.draw(st.booleans())]
    w = Elem(b, {k: F.neg(u.terms[k]) for k in kept}) + v
    minus_one = F.neg(F.one)
    for x, y in ((u, v), (v, u), (u, w), (w, u), (u, u.scale(minus_one))):
        _assert_stored(x + y, _naive_add(F, x, y))
        _assert_stored(x * y, _naive_mul(F, b, x, y))
    for c in (F.zero, F.one, minus_one, _scalar(F, data)):
        want = {} if F.is_zero(c) else {k: F.mul(c, s) for k, s in u.terms.items()}
        _assert_stored(u.scale(c), want)
    assert (u + u.scale(minus_one)).is_zero()


def _mixed_chain(F):
    """1 -> 2 -> 3 -> 4 with rational 1 and 3 and trivial 2 and 4: solid a,
    b, c, dashed u: 2 -> 3 and v: 1 -> 4, so products meet at trivial
    points between two letters as well as at rational ones."""
    x = Poly.x(F)
    return Bigraph(F, [("1", Factor.rational([x])), ("2", Factor.trivial()),
                       ("3", Factor.rational([Poly.from_ints(F, [1, 1, 1])])),
                       ("4", Factor.trivial())],
                   solid=[("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
                   dashed=[("u", "2", "3"), ("v", "1", "4")])


_MIXED = {F.char: (F, _mixed_chain(F)) for F in (PrimeField(2), PrimeField(3), QQ)}
_MIXED_WORDS = {
    char: [w for s in b.point_order for t in b.point_order for deg in (0, 1)
           for w in graded_component_basis(b, s, t, deg, 2, 1)]
    for char, (_, b) in _MIXED.items()
}


@pytest.mark.parametrize("char", sorted(_MIXED))
def test_word_products_at_trivial_points_equal_the_mul_keys_route(char):
    # every product of two basis words, the composable ones at a trivial
    # point concatenated directly, is what mul_keys gives
    F, b = _MIXED[char]
    words = _MIXED_WORDS[char]
    trivial = 0
    for w1 in words:
        for w2 in words:
            x, y = Elem.from_word(b, w1), Elem.from_word(b, w2, F.neg(F.one))
            _assert_stored(x * y, _naive_mul(F, b, x, y))
            trivial += w1.start == w2.end(b) and b.factor(w1.start).is_trivial
    assert trivial > len(words)


@pytest.mark.parametrize("char", sorted(_MIXED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_over_trivial_and_rational_points_equal_the_mul_keys_route(char, data):
    F, b = _MIXED[char]
    words = _MIXED_WORDS[char]
    u = _drawn_elem(F, b, words, data)
    v = _drawn_elem(F, b, words, data)
    w = u + v
    for x, y in ((u, v), (v, u), (w, u), (u, w), (w, w)):
        _assert_stored(x * y, _naive_mul(F, b, x, y))


_DECORATION = st.sampled_from([UNIT, (1, 0), (0, 1)])
_WORD_FIELDS = st.tuples(
    st.sampled_from(["1", "2"]),
    st.lists(st.sampled_from(["a", "b"]), max_size=2).map(tuple),
).flatmap(lambda sa: st.tuples(
    st.just(sa[0]), st.just(sa[1]),
    st.lists(_DECORATION, min_size=len(sa[1]) + 1, max_size=len(sa[1]) + 1).map(tuple)))


@settings(max_examples=150, deadline=None)
@given(_WORD_FIELDS, _WORD_FIELDS)
def test_word_equality_and_hash_are_those_of_its_fields(s, t):
    # a Word compares and hashes as its (start, arrows, coeffs) tuple
    u, v = Word(*s), Word(*t)
    assert (u.start, u.arrows, u.coeffs) == s
    assert hash(u) == hash(s)
    assert (u == v) == (s == t) and (u != v) == (s != t)
    assert ({u: 1}.get(Word(*t)) == 1) == (s == t)
    assert u != s and repr(u) == f"Word(start={s[0]!r}, arrows={s[1]!r}, coeffs={s[2]!r})"


def test_word_rejects_a_wrong_decoration_count():
    with pytest.raises(ValueError, match="decoration count"):
        Word("1", ("a",), (UNIT,))
    with pytest.raises(ValueError, match="decoration count"):
        Word("1", (), (UNIT, UNIT))
    assert str(Word("1", ("a", "b"), (UNIT, (1, 0), UNIT))) == "b*[x^1/h^0]*a"
