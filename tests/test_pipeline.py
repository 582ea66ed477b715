import pytest

from ditalg.bigraph import Bigraph, Factor
from ditalg.bimodule import (
    NCPoly, WildCertificate, generic_regular, push_generic, specialize_jordan,
    verify_wild_certificate,
)
from ditalg.fixtures import ex1, ex2, exi, exk, stellar_case1, stellar_case2
from ditalg.interlace import certify
from ditalg.modcat import Rep, hom_dim, is_indecomposable, iso_test, jordan_at, simple_at
from ditalg.pipeline import (
    Obstruction, brute_force_indecomposables, classify, is_minimal,
    reduce_to_minimal, stellar_to_seminested,
)
from ditalg.scalars import PrimeField, Poly
from ditalg.scalars.linalg import Mat

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_minimal_input_empty_plan():
    b = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.rational([]))])
    from ditalg.tensor import Differential, Layer
    from ditalg.interlace import Dit, IdealData

    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData(), name="min")
    certify(d)
    plan, final = reduce_to_minimal(d, 2, 10)
    assert not plan.steps and is_minimal(final)


def test_budget_zero_obstruction():
    d = exk(F3)
    certify(d)
    out = reduce_to_minimal(d, 2, 0)
    assert isinstance(out, Obstruction)


def test_ex1_plan_and_classification():
    d = ex1(F2)
    certify(d)
    plan, minimal = reduce_to_minimal(d, 3, 60)
    assert is_minimal(minimal)
    rep = classify(d, 3, 60)
    assert len(rep.indecomposables) == 3
    assert rep.brute_residue == []
    dims = sorted(r.dim_vector() for r in rep.indecomposables)
    assert dims == [(0, 1), (1, 0), (1, 1)]


def test_ex2_classification():
    d = ex2(F3)
    certify(d)
    rep = classify(d, 2, 60)
    assert sorted(r.dim_vector() for r in rep.indecomposables) == [(0, 1), (1, 0)]
    assert rep.brute_residue == []


def test_exi_classification_matches_oracle():
    d = exi(F2)
    certify(d)
    rep = classify(d, 3, 150, brute_force_residue=False)
    got = sorted(r.dim_vector() for r in rep.indecomposables)
    oracle = brute_force_indecomposables(d, 3)
    assert got == sorted(o.dim_vector() for o in oracle)
    for o in oracle:
        assert any(iso_test(d, o, c) for c in rep.indecomposables
                   if c.dim_vector() == o.dim_vector())


def test_exk_classification_full():
    d = exk(F3)
    certify(d)
    rep = classify(d, 2, 150)
    assert len(rep.families) == 1
    fam = rep.families[0]
    specs = [img for _, img in fam.sample_images]
    assert len(specs) == 3
    for i in range(3):
        assert is_indecomposable(d, specs[i])
        for j in range(i + 1, 3):
            assert not iso_test(d, specs[i], specs[j])
    assert rep.brute_residue == []
    excep = [r for r in rep.exceptional if r.dim_vector() == (1, 1)]
    assert len(excep) == 1
    simples = [r for r in rep.exceptional if r.total_dim() == 1]
    assert sorted(r.dim_vector() for r in simples) == [(0, 1), (1, 0)]


def test_exk_parametrization_square():
    # F(L(Gamma/(x-l)^t)) ~ L(Z (x) Gamma/(x-l)^t) for sample l and t <= 2
    d = exk(F3)
    certify(d)
    plan, minimal = reduce_to_minimal(d, 2, 150)
    comp = plan.composite()
    rational = [p for p in minimal.bigraph.point_order
                if not minimal.bigraph.factor(p).is_trivial]
    assert rational
    p = rational[0]
    Z = push_generic(comp, generic_regular(minimal, p))
    for lam_int in (0, 1, 2):
        lam = F3.from_int(lam_int)
        for t in (1, 2):
            via_bimodule = specialize_jordan(Z, lam, t)
            via_functor = comp.apply_rep(jordan_at(minimal, p, lam, t))
            assert via_bimodule.dim_vector() == via_functor.dim_vector()
            assert iso_test(d, via_bimodule, via_functor), (lam_int, t)


def test_dimension_bookkeeping():
    d = exk(F3)
    certify(d)
    plan, minimal = reduce_to_minimal(d, 2, 150)
    for step in plan.steps:
        f = step.functor
        if f.kind != "admissible":
            continue
        import random

        rng = random.Random(1)
        for _ in range(10):
            dims = {p: rng.randrange(0, 2) for p in f.target.bigraph.point_order}
            N = Rep(f.target, dims)
            if N.validate() is not None:
                continue
            assert f.apply_rep(N).total_dim() <= f.dim_scale * N.total_dim()


def test_stellar_case1_full_flow():
    d = stellar_case1(F3)
    flags = certify(d)
    assert flags["roiter"]
    rep = classify(d, 2, 150)
    assert not isinstance(rep, Obstruction)
    oracle = brute_force_indecomposables(d, 2)
    assert sorted(r.dim_vector() for r in rep.indecomposables) == \
        sorted(o.dim_vector() for o in oracle)
    assert rep.brute_residue == []


def test_stellar_case2_produces_summand_witness():
    d = stellar_case2(F3)
    flags = certify(d)
    assert flags["roiter"]
    ctx = {"budget": 100, "counter": 0}
    steps, final = stellar_to_seminested(d, 2, ctx)
    kinds = [s.functor.kind for s in steps]
    assert "admissible" in kinds      # the localization at h = x
    assert "basechange" in kinds      # the summand witness
    assert "factor_out" in kinds
    assert final.ideal.is_zero()
    loc_step = steps[kinds.index("admissible")]
    assert "h = ['x']" in loc_step.note
    # the full driver then stalls on a rational-endpoint arrow: documented gap
    out = reduce_to_minimal(d, 2, 150)
    assert isinstance(out, Obstruction)
    assert "rational endpoint" in out.reason


def test_wildness_transport_on_plan():
    # non-isomorphic indecomposables stay non-isomorphic through every functor
    d = exk(F3)
    certify(d)
    plan, minimal = reduce_to_minimal(d, 2, 150)
    comp = plan.composite()
    mods = [simple_at(minimal, p) for p in minimal.bigraph.point_order
            if minimal.bigraph.factor(p).is_trivial]
    imgs = [comp.apply_rep(m) for m in mods]
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            assert not iso_test(minimal, mods[i], mods[j])
            if imgs[i].dim_vector() == imgs[j].dim_vector():
                assert not iso_test(d, imgs[i], imgs[j])


def three_kronecker(F):
    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
    from ditalg.tensor import Differential, Layer
    from ditalg.interlace import Dit, IdealData

    layer = Layer(b)
    return Dit(layer, Differential(layer, {}), IdealData(), name="K3")


def test_wild_certificate_on_three_kronecker():
    F = F3
    d = three_kronecker(F)
    certify(d)
    cert = WildCertificate(d, ranks={"1": 1, "2": 1}, arrow_ops={
        "a": [[NCPoly.const(F, F.one)]],
        "b": [[NCPoly.gen(F, "x")]],
        "c": [[NCPoly.gen(F, "y")]],
    })
    samples = []
    for (x1, y1) in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
        samples.append((Mat(F, 1, 1, [[F.from_int(x1)]]), Mat(F, 1, 1, [[F.from_int(y1)]])))
    samples.append((Mat(F, 2, 2, [[0, 1], [0, 0]]), Mat(F, 2, 2, [[0, 0], [0, 0]])))
    report = verify_wild_certificate(d, cert, samples)
    assert report["ok"], report


def test_wild_certificate_detects_bad_witness():
    F = F3
    d = three_kronecker(F)
    certify(d)
    zero = WildCertificate(d, ranks={"1": 0, "2": 0}, arrow_ops={})
    assert not verify_wild_certificate(d, zero, [])["rank_ok"]
    # collapsing witness: ignores x and y entirely
    collapse = WildCertificate(d, ranks={"1": 1, "2": 1}, arrow_ops={
        "a": [[NCPoly.const(F, F.one)]],
        "b": [[NCPoly.const(F, F.zero)]],
        "c": [[NCPoly.const(F, F.zero)]],
    })
    samples = [(Mat(F, 1, 1, [[F.zero]]), Mat(F, 1, 1, [[F.zero]])),
               (Mat(F, 1, 1, [[F.one]]), Mat(F, 1, 1, [[F.zero]]))]
    report = verify_wild_certificate(d, collapse, samples)
    assert not report["ok"]
