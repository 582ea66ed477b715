"""The sigma expansion of the admissible reduction A^X against a naive
reference: dense matrices, letter by letter, multiplying by every
decoration including the unit ones, with no memo.  The letter map of
`admissible.sigma_map` keeps only nonzero entries, memoizes letters and word
prefixes, renames words between one-vector points and skips unit
decorations; on every expansion and push the two must agree entry by
entry."""

import pytest

from ditalg import admissible, fixtures
from ditalg.admissible import (
    AdmissibleError, _convert_decoration, build_admissible, reduce_admissible,
)
from ditalg.bigraph import Bigraph, Factor
from ditalg.interlace import Dit, IdealData, certify
from ditalg.modcat import Rep, simple_at
from ditalg.pipeline import Obstruction, classify, reduce_to_minimal
from ditalg.reduce import LetterMap
from ditalg.scalars import LocalizedRing, Poly, PrimeField, QQ
from ditalg.scalars.linalg import Mat
from ditalg.tensor import UNIT, Differential, Elem, Layer, Word

F2 = PrimeField(2)
F3 = PrimeField(3)


@pytest.mark.parametrize("a, j", [(0, 1), (1, 1), (0, 2), (1, 3)])
def test_an_h_adic_decoration_converts_into_the_finer_localization(a, j):
    # x^a / h_src^j re-expressed over k[x]_{h_tgt}, h_src dividing h_tgt, is
    # x^a times the inverse of h_src^j computed in the finer ring itself
    x = Poly.x(F3)
    h_src = x * x + Poly.one(F3)
    src, tgt = LocalizedRing(F3, (h_src,)), LocalizedRing(F3, (h_src, x))
    got = _convert_decoration(tgt, src, (a, j))
    want = tgt.mul(tgt.from_poly(x ** a), tgt.inv(tgt.from_poly(h_src ** j)))
    assert got == want
    with pytest.raises(AdmissibleError, match="does not refine"):
        _convert_decoration(LocalizedRing(F3, (x,)), src, (a, j))


def recorded_sigmas(monkeypatch):
    """{sigma map: the arguments of `sigma_map` that made it} for each sigma
    map made from here on."""
    made = {}
    real = admissible.sigma_map

    def recording(*args):
        sig = real(*args)
        made[sig] = args
        return sig

    monkeypatch.setattr(admissible, "sigma_map", recording)
    return made


def naive_expand(args, elem: Elem):
    """The dense sigma matrix of elem, for the `sigma_map` arguments args."""
    adm, tgt, names, x_at = args
    src = adm.dit.bigraph
    n = len(adm.x_basis)

    def zero():
        return [[None] * n for _ in range(n)]

    def decoration(point, key):
        out = zero()
        for v in x_at[point]:
            s = v.summand
            if s.kind == "regular":
                ring = tgt.factor_ring(s.label)
                if ring is None:
                    assert key == UNIT
                    out[v.index][v.index] = Elem.idempotent(tgt, s.label)
                else:
                    val = _convert_decoration(ring, src.factor_ring(point), key)
                    out[v.index][v.index] = Elem.decorated(tgt, s.label, val)
            else:
                act = s.rep.decoration_action(point, key)
                for u in x_at[point]:
                    if u.summand is s:
                        out[u.index][v.index] = Elem.idempotent(
                            tgt, s.label, act.data[u.coordinate][v.coordinate])
        return out

    def arrow(name):
        arr = src.arrow(name)
        out = zero()
        for v in x_at[arr.source]:
            for u in x_at[arr.target]:
                if name not in adm.b_arrows:
                    out[u.index][v.index] = Elem.arrow(tgt, names[name, u.index, v.index])
                elif u.summand is v.summand and v.summand.kind == "findim":
                    out[u.index][v.index] = Elem.idempotent(
                        tgt, u.summand.label,
                        v.summand.rep.arrow_ops[name].data[u.coordinate][v.coordinate])
        return out

    def mul(a, c):
        out = zero()
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    if a[i][k] is not None and c[k][j] is not None:
                        prod = a[i][k] * c[k][j]
                        out[i][j] = prod if out[i][j] is None else out[i][j] + prod
        return out

    total = zero()
    for w, coeff in elem.terms.items():
        pts = w.path(src)
        cur = decoration(pts[0], w.coeffs[0])
        for i, name in enumerate(w.arrows):
            cur = mul(decoration(pts[i + 1], w.coeffs[i + 1]), mul(arrow(name), cur))
        for u in range(n):
            for v in range(n):
                if cur[u][v] is not None:
                    piece = cur[u][v].scale(coeff)
                    total[u][v] = piece if total[u][v] is None else total[u][v] + piece
    return total


def assert_same_push(elem, dense):
    """elem is the one nonzero entry of dense, or zero when dense has none."""
    entries = [e for row in dense for e in row if e is not None and not e.is_zero()]
    assert len(entries) <= 1
    assert list(elem.terms.items()) == (list(entries[0].terms.items()) if entries else [])


def assert_same(sparse, dense):
    assert all(not e.is_zero() for row in sparse.values() for e in row.values())
    n = len(dense)
    assert set(sparse) <= set(range(n))
    for u in range(n):
        for v in range(n):
            got, want = sparse.get(u, {}).get(v), dense[u][v]
            # the same terms in the same order: the report bytes depend on it
            assert (list(got.terms.items()) if got else []) == \
                (list(want.terms.items()) if want and not want.is_zero() else []), (u, v)


def _exx_admissible(z0=Factor.trivial(), simples=("1", "2")):
    """The exx edge reduction at `a` (c: z0 -> 1, a: 1 -> 2) with the factor
    `z0` at the source: the simples at `simples`, the projective of the
    arrow, and a regular summand at z0.  With z0 rational and no simple at
    1, X has one dual basis vector at z0 and at 1, so sigma of c is a
    renamed letter when its decorations are units and a product when x
    decorates z0."""
    pts = [("z0", z0), ("1", Factor.trivial()), ("2", Factor.trivial())]
    layer = Layer(Bigraph(F3, pts, solid=[("c", "z0", "1"), ("a", "1", "2")]))
    d = Dit(layer, Differential(layer, {}), IdealData(), name="EXX")
    certify(d)
    sub = Layer(Bigraph(F3, pts, solid=[("a", "1", "2")]))
    b_dit = Dit(sub, Differential(sub, {}), IdealData(), name="EXX|B")
    certify(b_dit)
    p1 = Rep(b_dit, {"z0": 0, "1": 1, "2": 1})
    p1.arrow_ops["a"] = Mat(F3, 1, 1, [[F3.one]])
    adm = build_admissible(d, ["a"], findim=[(f"s{p}", simple_at(b_dit, p)) for p in simples]
                           + [("p1", p1)], regular=[("rz", "z0", ())])
    return reduce_admissible(d, adm)


CASES = {
    "exk-Q-6": lambda: classify(fixtures.exk(QQ), 6),
    "exk-F3-4": lambda: classify(fixtures.exk(F3), 4),
    "stellar_case1-F3-3": lambda: classify(fixtures.stellar_case1(F3), 3),
    "exx-functor": _exx_admissible,
    "exx-rational-source": lambda: _exx_admissible(Factor.rational([]), simples=("2",)),
    "exx-two-vectors-at-z0": lambda: _exx_admissible(simples=("z0", "1", "2")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_expand_equals_the_naive_reference(monkeypatch, case):
    made, decorated = recorded_sigmas(monkeypatch), [0]
    expand, push = LetterMap.expand, LetterMap.push

    def checked_expand(self, elem):
        out = expand(self, elem)
        if self in made:
            assert_same(out, naive_expand(made[self], elem))
            decorated[0] += sum(k != UNIT for w in elem.terms for k in w.coeffs)
        return out

    def checked_push(self, elem):
        out = push(self, elem)
        if self in made:
            assert_same_push(out, naive_expand(made[self], elem))
        return out

    monkeypatch.setattr(LetterMap, "expand", checked_expand)
    monkeypatch.setattr(LetterMap, "push", checked_push)
    out = CASES[case]()
    assert not isinstance(out, Obstruction)
    assert made
    if case == "stellar_case1-F3-3":
        assert decorated[0] > 0
    # every letter the functor F^X reads (each arrow, and x at each rational
    # point), each idempotent, and each arrow with x at its rational ends,
    # which crosses a decoration on either side of an arrow
    for sig, args in made.items():
        src = args[0].dit.bigraph
        x_at = {p: (1, 0) if src.factor_ring(p) else UNIT for p in src.point_order}
        for p, key in x_at.items():
            sig.expand(Elem.idempotent(src, p))
            if key != UNIT:
                sig.expand(Elem.from_word(src, Word(p, (), (key,))))
        for a in src.arrows.values():
            sig.expand(Elem.arrow(src, a.name))
            sig.expand(Elem.from_word(src, Word(a.source, (a.name,),
                                                (x_at[a.source], x_at[a.target]))))


def test_a_decoration_at_a_trivial_regular_summand_is_refused(monkeypatch):
    made = recorded_sigmas(monkeypatch)
    _exx_admissible()
    [sig] = made
    with pytest.raises(AdmissibleError, match="decorated trivial regular summand"):
        sig.decoration("z0", (1, 0))


def _entries(m):
    return [(u, v, list(e.terms.items())) for u, row in m.items() for v, e in row.items()]


@pytest.mark.parametrize("build, d", [
    (lambda: fixtures.exk(QQ), 6), (lambda: fixtures.parabolic(F2, 4), 4),
    (lambda: fixtures.stellar_case1(F3), 3)], ids=["exk-Q-6", "P4-F2-4", "stellar_case1-F3-3"])
def test_whole_renamed_delta_values_equal_the_expansion(monkeypatch, build, d):
    # on every admissible step of the plan, sigma pushes each delta value
    # between one-vector points to the expansion's one entry, term for term
    # and in the same order (the regularization picks the first unit pivot in
    # term order), and to the naive reference's; some of them are renamed
    # whole
    made, renamed = recorded_sigmas(monkeypatch), [0]
    real = LetterMap.push

    def checked(self, elem):
        out = real(self, elem)
        if self in made:
            entries = _entries(self.expand(elem))
            assert [terms for _, _, terms in entries] == \
                ([list(out.terms.items())] if out.terms else [])
            assert_same_push(out, naive_expand(made[self], elem))
            renamed[0] += self.renamed(elem) is not None and bool(elem.terms)
        return out

    monkeypatch.setattr(LetterMap, "push", checked)
    assert not isinstance(reduce_to_minimal(build(), d), Obstruction)
    assert made and renamed[0]


def _frozen(m):
    return frozenset((i, j, frozenset(e.terms.items()))
                     for i, row in m.items() for j, e in row.items())


def test_each_prefix_product_is_made_once(monkeypatch):
    # classify(exk, Q, 6) made 6,972 dense products of sigma matrices, 1,452
    # of them repeats of a word prefix already multiplied out; with each
    # prefix made once it made 1,612, and 556 once words that only rename
    # letters between one-vector points are built without a product (280
    # since a renamed letter after a multiplied prefix is appended)
    sigmas, made = recorded_sigmas(monkeypatch), []
    mat_mul = LetterMap._mat_mul

    def recording(self, a, c):
        if self in sigmas:
            made.append((id(self), _frozen(a), _frozen(c)))
        return mat_mul(self, a, c)

    monkeypatch.setattr(LetterMap, "_mat_mul", recording)
    classify(fixtures.exk(QQ), 6)
    assert len(made) == len(set(made))
    assert len(made) <= 556
