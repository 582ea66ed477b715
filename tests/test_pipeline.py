import pytest

from ditalg.bigraph import Bigraph, Factor
from ditalg.bimodule import (
    NCPoly, WildCertificate, generic_regular, push_generic, specialize_jordan,
    verify_wild_certificate,
)
from ditalg.fixtures import ex1, ex2, exi, exk, exl, stellar_case1, stellar_case2
from ditalg.interlace import certify
from ditalg.modcat import Rep, hom_dim, is_indecomposable, iso_test, jordan_at, simple_at
from ditalg.pipeline import (
    Obstruction, brute_force_indecomposables, classify, is_minimal,
    reduce_to_minimal, stellar_to_seminested,
)
from ditalg.reduce import structural_equal
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


def test_point_ideal_sums_each_generator_before_the_gcd():
    # <(x+1) e_p> is a proper ideal of k[x] e_p: the gcd runs over the
    # generators' (p, p) parts, not over their separate terms x and 1
    from ditalg.interlace import Dit, IdealData
    from ditalg.pipeline import ideal_point_polynomial, point_in_ideal
    from ditalg.scalars import LocElt
    from ditalg.tensor import Differential, Elem, Layer

    b = Bigraph(F3, [("c", Factor.trivial()), ("p", Factor.rational([]))],
                solid=[("w", "c", "p")])
    layer = Layer(b)
    x_plus_1 = Poly.x(F3) + Poly.one(F3)
    gen = Elem.decorated(b, "p", LocElt(b.factor_ring("p"), x_plus_1, 0))
    d = Dit(layer, Differential(layer, {}), IdealData([gen]), name="arm")
    assert not point_in_ideal(d, "p")
    assert ideal_point_polynomial(d, "p") == x_plus_1


def test_plan_steps_replay_through_their_specs():
    # each recorded spec rebuilds its step's target from the step's source
    replays = 0
    for fixture, F, d in ((exk, F3, 4), (exl, F2, 4), (stellar_case1, F3, 3),
                          (stellar_case2, F3, 2)):
        out = reduce_to_minimal(fixture(F), d)
        assert isinstance(out, Obstruction) == (fixture is stellar_case2)
        steps = out.steps if isinstance(out, Obstruction) else out[0].steps
        for step in steps:
            if step.spec is not None:
                target, _ = step.spec.apply(step.functor.source)
                assert structural_equal(target, step.functor.target), step.note
                replays += 1
    assert replays > 60


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
    # the obstruction names where the reduction stopped and the steps there
    assert out.dit is not d and out.steps
    assert out.steps[0].functor.source is d
    for prev, nxt in zip(out.steps, out.steps[1:]):
        assert prev.functor.target is nxt.functor.source
    assert out.steps[-1].functor.target is out.dit
    b = out.dit.bigraph
    assert any(not (b.factor(a.source).is_trivial and b.factor(a.target).is_trivial)
               for a in b.solid_arrows())


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


@pytest.mark.parametrize("F", [F3, F5], ids=["F3", "F5"])
def test_wild_certificate_on_three_kronecker(F):
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
    # decomposable over k<x,y>: its image may decompose too
    samples.append((Mat(F, 3, 3), Mat(F, 3, 3)))
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


def test_referee_builds_each_end_algebra_once(monkeypatch):
    # one End(M) per valid candidate serves both its locality and its
    # isomorphism class; no candidate is decomposed
    from ditalg import modcat

    counts = {"valid": 0, "end": 0, "decompose": 0}
    validate, end_init = modcat.Rep.validate, modcat.EndAlgebra.__init__

    def counting_validate(self):
        out = validate(self)
        counts["valid"] += out is None
        return out

    def counting_init(self, *args):
        counts["end"] += 1
        end_init(self, *args)

    def no_decompose(*args):
        counts["decompose"] += 1
        raise AssertionError("the referee decomposed a candidate")

    monkeypatch.setattr(modcat.Rep, "validate", counting_validate)
    monkeypatch.setattr(modcat.EndAlgebra, "__init__", counting_init)
    monkeypatch.setattr(modcat, "decompose", no_decompose)
    monkeypatch.setattr(modcat, "_decompose", no_decompose)
    d = exk(F2)
    certify(d)
    classes = brute_force_indecomposables(d, 3)
    assert len(classes) > 0
    assert 0 < counts["end"] <= counts["valid"]
    assert counts["decompose"] == 0


def test_referee_decides_locality_without_idempotents(monkeypatch):
    # the referee only needs yes/no answers: no minimal polynomial is
    # factored, no idempotent is built or split, and a witness decides
    # most decomposable candidates before their radical is computed
    from ditalg import modcat

    counts = {"valid": 0, "radical": 0, "factor": 0, "fitting": 0, "split": 0}
    validate, radical = modcat.Rep.validate, modcat.algebra_radical

    def counting_validate(self):
        out = validate(self)
        counts["valid"] += out is None
        return out

    def counting_radical(*args):
        counts["radical"] += 1
        return radical(*args)

    def counted(key):
        def call(*args):
            counts[key] += 1
            raise AssertionError(f"the referee called {key}")
        return call

    monkeypatch.setattr(modcat.Rep, "validate", counting_validate)
    monkeypatch.setattr(modcat, "algebra_radical", counting_radical)
    monkeypatch.setattr(modcat, "poly_factor", counted("factor"))
    monkeypatch.setattr(modcat, "_fitting_idempotent", counted("fitting"))
    monkeypatch.setattr(modcat, "split_idempotent", counted("split"))
    d = exk(F2)
    certify(d)
    assert len(brute_force_indecomposables(d, 3)) > 0
    assert counts["factor"] == counts["fitting"] == counts["split"] == 0
    assert 0 < counts["radical"] < counts["valid"]


def test_residue_note_names_the_sampling_cause():
    d = exk(F3)
    certify(d)
    rep = classify(d, 4, 150)
    assert len(rep.brute_residue) == 3
    assert rep.notes == [
        "3 indecomposable class(es) outside the functor image (not exceptional: "
        "the families are specialized only at Jordan blocks of the sampled "
        "eigenvalues)"]


def test_layer_levels_derived_once_per_presentation(monkeypatch):
    # each presentation derives its levels once, one builder call per arrow
    # kind, however often the driver, the reductions and modcat read them
    from collections import Counter

    from ditalg import interlace

    built, derived = [], Counter()
    dit_init, levels = interlace.Dit.__init__, interlace._dependency_levels

    def counting_init(self, *args, **kwargs):
        built.append(self)
        dit_init(self, *args, **kwargs)

    def counting_levels(dit, dashed):
        derived[id(dit), dashed] += 1
        return levels(dit, dashed)

    monkeypatch.setattr(interlace.Dit, "__init__", counting_init)
    monkeypatch.setattr(interlace, "_dependency_levels", counting_levels)
    d = exk(F3)
    certify(d)
    plan, final = reduce_to_minimal(d, 4)
    assert plan.steps
    assert max(derived.values()) == 1
    assert len(derived) <= 2 * len(built)
