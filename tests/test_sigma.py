"""The sigma expansion of the admissible reduction A^X against a naive
reference: dense matrices, letter by letter, multiplying by every
decoration including the unit ones, with no memo.  `SigmaExpander` keeps
only nonzero entries, memoizes letters and word prefixes and skips unit
decorations; on every expansion the two must agree entry by entry."""

import pytest

from ditalg import fixtures
from ditalg.admissible import (
    SigmaExpander, _convert_decoration, build_admissible, reduce_admissible,
)
from ditalg.bigraph import Bigraph
from ditalg.interlace import Dit, IdealData, certify
from ditalg.modcat import Rep, simple_at
from ditalg.pipeline import Obstruction, classify
from ditalg.scalars import PrimeField, QQ
from ditalg.scalars.linalg import Mat
from ditalg.tensor import UNIT, Differential, Elem, Layer, Word

F3 = PrimeField(3)


def naive_expand(sig: SigmaExpander, elem: Elem):
    adm, tgt = sig.adm, sig.target
    src, F, x_at = adm.dit.bigraph, adm.dit.field, sig.x_at
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
                    out[u.index][v.index] = Elem.arrow(tgt, sig.names[name, u.index, v.index])
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


def _exx_admissible():
    """The exx edge reduction at `a`: the simples at 1 and 2, the
    projective of the arrow, and a regular summand at the source z0."""
    d = fixtures.exx(F3)
    certify(d)
    b = d.bigraph
    sub = Bigraph(F3, [(p, b.factor(p)) for p in b.point_order], solid=[("a", "1", "2")])
    layer = Layer(sub)
    b_dit = Dit(layer, Differential(layer, {}), IdealData(), name="EXX|B")
    certify(b_dit)
    p1 = Rep(b_dit, {"z0": 0, "1": 1, "2": 1})
    p1.arrow_ops["a"] = Mat(F3, 1, 1, [[F3.one]])
    adm = build_admissible(d, ["a"], findim=[("s1", simple_at(b_dit, "1")),
                                             ("s2", simple_at(b_dit, "2")), ("p1", p1)],
                           regular=[("rz", "z0", ())])
    return reduce_admissible(d, adm)


CASES = {
    "exk-Q-6": lambda: classify(fixtures.exk(QQ), 6),
    "exk-F3-4": lambda: classify(fixtures.exk(F3), 4),
    "stellar_case1-F3-3": lambda: classify(fixtures.stellar_case1(F3), 3),
    "exx-functor": _exx_admissible,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_expand_equals_the_naive_reference(monkeypatch, case):
    expanders, decorated = [], [0]
    init, expand = SigmaExpander.__init__, SigmaExpander.expand

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        expanders.append(self)

    def checked_expand(self, elem):
        out = expand(self, elem)
        assert_same(out, naive_expand(self, elem))
        decorated[0] += sum(k != UNIT for w in elem.terms for k in w.coeffs)
        return out

    monkeypatch.setattr(SigmaExpander, "__init__", recording_init)
    monkeypatch.setattr(SigmaExpander, "expand", checked_expand)
    out = CASES[case]()
    assert not isinstance(out, Obstruction)
    assert expanders
    if case == "stellar_case1-F3-3":
        assert decorated[0] > 0
    # every letter the functor F^X reads (each arrow, and x at each rational
    # point), and each arrow with x at its rational ends, which crosses a
    # decoration on either side of an arrow
    for sig in expanders:
        src = sig.adm.dit.bigraph
        x_at = {p: (1, 0) if src.factor_ring(p) else UNIT for p in src.point_order}
        for p, key in x_at.items():
            if key != UNIT:
                sig.expand(Elem.from_word(src, Word(p, (), (key,))))
        for a in src.arrows.values():
            sig.expand(Elem.arrow(src, a.name))
            sig.expand(Elem.from_word(src, Word(a.source, (a.name,),
                                                (x_at[a.source], x_at[a.target]))))


def _frozen(m):
    return frozenset((i, j, frozenset(e.terms.items()))
                     for i, row in m.items() for j, e in row.items())


def test_each_prefix_product_is_made_once(monkeypatch):
    # classify(exk, Q, 6) made 6,972 dense products of sigma matrices, 1,452
    # of them repeats of a word prefix already multiplied out
    made = []
    mat_mul = SigmaExpander._mat_mul

    def recording(self, a, c):
        made.append((id(self), _frozen(a), _frozen(c)))
        return mat_mul(self, a, c)

    monkeypatch.setattr(SigmaExpander, "_mat_mul", recording)
    classify(fixtures.exk(QQ), 6)
    assert len(made) == len(set(made))
    assert len(made) <= 2_034
