import pytest

from ditalg.bigraph import Bigraph, Factor
from ditalg.bimodule import (
    WildCertificate, free_algebra_kxy, generic_regular, specialize_jordan,
    verify_wild_certificate,
)
from ditalg.fixtures import (
    ex1, ex2, exa, exi, exk, exl, exl2, exq, exr, exx, parabolic, stellar_case1,
    stellar_case2,
)
from ditalg.interlace import UnsupportedShapeError, certify
from ditalg.modcat import Rep, hom_dim, is_indecomposable, iso_test, jordan_at, simple_at
from ditalg.pipeline import (
    Obstruction, brute_force_indecomposables, classify, is_minimal, reduce_to_minimal,
)
from ditalg.presentation import parse_presentation
from ditalg.reduce import structural_equal
from ditalg.scalars import PrimeField, Poly, QQ
from ditalg.scalars.linalg import Mat, block_matrix
from ditalg.tensor import Elem

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
    rep = classify(d, 3, 150)
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
    # F(L(Gamma/(x-l)^t)) = L(Z (x) Gamma/(x-l)^t) for sample l and t <= 2:
    # classify lists the family samples as specializations of Z
    d = exk(F3)
    certify(d)
    plan, minimal = reduce_to_minimal(d, 2, 150)
    comp = plan.composite()
    rational = [p for p in minimal.bigraph.point_order
                if not minimal.bigraph.factor(p).is_trivial]
    assert rational
    p = rational[0]
    Z = comp.apply_rep(generic_regular(minimal, p))
    for lam_int in (0, 1, 2):
        lam = F3.from_int(lam_int)
        for t in (1, 2):
            via_bimodule = specialize_jordan(Z, lam, t)
            via_functor = comp.apply_rep(jordan_at(minimal, p, lam, t))
            assert via_bimodule.dim_vector() == via_functor.dim_vector()
            assert via_bimodule == via_functor, (lam_int, t)


def _x_decorated_dit(inverted):
    # a: 1 -> 2 solid, v: 1 -> 2 dashed, delta(a) = x v at the rational point 2
    from ditalg.interlace import Dit, IdealData
    from ditalg.tensor import Differential, Elem, Layer

    b = Bigraph(F3, [("1", Factor.trivial()), ("2", Factor.rational(inverted))],
                solid=[("a", "1", "2")], dashed=[("v", "1", "2")])
    x = Elem.decorated(b, "2", b.factor_ring("2").from_poly(Poly.x(F3)))
    layer = Layer(b)
    return Dit(layer, Differential(layer, {"a": x * Elem.arrow(b, "v")}), IdealData())


def test_localization_never_inverts_x_twice():
    from ditalg.pipeline import _localization_for_pivot

    d = _x_decorated_dit([])
    assert _localization_for_pivot(d, "a", d.delta.of_arrow("a")) == ("2", Poly.x(F3))
    # where the ring at 2 already inverts x, localizing at x would change nothing
    d = _x_decorated_dit([Poly.x(F3)])
    assert _localization_for_pivot(d, "a", d.delta.of_arrow("a")) is None


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
    from ditalg.interlace import ideal_point_polynomial, point_in_ideal
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
    for fixture, F, d in ((exk, F3, 4), (exk, QQ, 6), (exl, F2, 4), (stellar_case1, F3, 3),
                          (stellar_case2, F3, 2)):
        out = reduce_to_minimal(fixture(F), d)
        assert isinstance(out, Obstruction) == (fixture is stellar_case2)
        steps = out.steps if isinstance(out, Obstruction) else out[0].steps
        for step in steps:
            target, _ = step.spec.apply(step.functor.source)
            assert structural_equal(target, step.functor.target), step.note
            replays += 1
    assert replays > 60


def _plan_steps(fixture, F, d):
    out = reduce_to_minimal(fixture(F), d)
    return out.steps if isinstance(out, Obstruction) else out[0].steps


@pytest.mark.parametrize("fixture, F, d", [
    (stellar_case2, F3, 3), (exi, F3, 3), (exi, QQ, 4), (exl, F2, 4), (exl, QQ, 4),
    (exl2, F2, 3), (exl2, QQ, 4), (stellar_case1, F3, 3),
], ids=["stellar_case2-F3-3", "exi-F3-3", "exi-Q-4", "exl-F2-4", "exl-Q-4",
        "exl2-F2-3", "exl2-Q-4", "stellar_case1-F3-3"])
def test_step_targets_recertify_their_inherited_triangular_ideal(fixture, F, d):
    # certify on each step target derives the flag that the step inherited
    steps = _plan_steps(fixture, F, d)
    assert steps
    for step in steps:
        target = step.functor.target
        inherited = target.certificates.get("triangular_ideal")
        assert certify(target)["triangular_ideal"] == inherited, step.note


def test_stellar_case2_localization_has_three_ideal_levels():
    # the case-2 localization's reduced ideal: w1[z4.p.1;e0] has its delta
    # around w1[z4.p.0;e0] and w1[z3.p.0;e0], so it sits two levels up
    from ditalg.interlace import ideal_levels

    step = _plan_steps(stellar_case2, F3, 3)[0]
    assert step.note == "case-2 localization h = ['x']"
    levels, left = ideal_levels(step.functor.target)
    assert [[str(e) for e in level] for level in levels] == [
        ["w1[z4.p.0;e0]", "[x^1/h^0]*w1[r_p_5;e0]"], ["w1[z3.p.0;e0]"], ["w1[z4.p.1;e0]"]]
    assert not left


def test_stellar_case2_produces_summand_witness():
    # the stellar phase localizes at h = x, base-changes the arm so the ideal
    # is a direct summand of W0 and factors it out; the seminested loop then
    # stalls on a rational-endpoint arrow: documented gap
    d = stellar_case2(F3)
    flags = certify(d)
    assert flags["roiter"]
    out = reduce_to_minimal(d, 2, 150)
    assert isinstance(out, Obstruction)
    assert "rational endpoint" in out.reason
    kinds = [s.functor.kind for s in out.steps]
    loc, base, fac = (kinds.index(k) for k in ("admissible", "basechange", "factor_out"))
    assert loc < base < fac
    assert "h = ['x']" in out.steps[loc].note
    assert out.steps[base].spec.kind == "basechange"   # the summand witness
    assert not out.steps[base].functor.target.ideal.is_zero()
    assert out.steps[fac].functor.target.ideal.is_zero()
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
    kxy = free_algebra_kxy(F).bigraph
    cert = WildCertificate(d, ranks={"1": 1, "2": 1}, arrow_ops={
        "a": [[Elem.idempotent(kxy, "0")]],
        "b": [[Elem.arrow(kxy, "x")]],
        "c": [[Elem.arrow(kxy, "y")]],
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
    kxy = free_algebra_kxy(F).bigraph
    collapse = WildCertificate(d, ranks={"1": 1, "2": 1}, arrow_ops={
        "a": [[Elem.idempotent(kxy, "0")]],
        "b": [[Elem.zero(kxy)]],
        "c": [[Elem.zero(kxy)]],
    })
    samples = [(Mat(F, 1, 1, [[F.zero]]), Mat(F, 1, 1, [[F.zero]])),
               (Mat(F, 1, 1, [[F.one]]), Mat(F, 1, 1, [[F.zero]]))]
    report = verify_wild_certificate(d, collapse, samples)
    assert not report["ok"]


def test_wild_certificate_tensor_acts_by_products():
    # entries are elements of k<x,y>; a product acts with its right factor
    # first, so x*y acts as X*Y
    F = F5
    d = three_kronecker(F)
    kxy = free_algebra_kxy(F).bigraph
    x, y = Elem.arrow(kxy, "x"), Elem.arrow(kxy, "y")
    one = Elem.idempotent(kxy, "0")
    cert = WildCertificate(d, ranks={"1": 1, "2": 2}, arrow_ops={
        "a": [[x * y - y * x], [x.scale(F.from_int(2)) + one]],
        "b": [[x * y], [y * x]],
    })
    samples = [(Mat(F, 2, 2, [[1, 2], [0, 3]]), Mat(F, 2, 2, [[0, 1], [4, 2]])),
               (Mat(F, 2, 2, [[0, 1], [0, 0]]), Mat(F, 2, 2, [[0, 0], [1, 0]]))]
    for X, Y in samples:
        M = cert.tensor(X, Y)
        I = Mat.identity_of(F, 2)
        assert M.dims == {"1": 2, "2": 4}
        assert M.arrow_ops["a"] == block_matrix(F, [[X * Y - Y * X], [X.scale(2) + I]],
                                                [2, 2], [2])
        assert M.arrow_ops["b"] == block_matrix(F, [[X * Y], [Y * X]], [2, 2], [2])
        assert M.arrow_ops["c"].is_zero() and M.arrow_ops["c"].rows == 4
        assert not (X * Y - Y * X).is_zero()


def _loop_class(d, q_dim):
    """The module with a = 1 at p and, when q_dim is 1, c = 1."""
    one = Mat(d.field, 1, 1, [[d.field.one]])
    return Rep(d, {"p": 1, "q": q_dim}, {"a": one, "c": Mat(d.field, q_dim, 1, [[1]] * q_dim)})


def test_loop_in_the_ideal_at_a_point_is_an_obstruction():
    # I = <e_p - a>, a a loop at p: e_p is not in I (a = 1 is a module), so
    # deleting p would lose every class supported at p
    from ditalg.interlace import Dit, IdealData, point_in_ideal
    from ditalg.tensor import Differential, Layer

    b = Bigraph(F3, [("p", Factor.trivial()), ("q", Factor.trivial())],
                solid=[("a", "p", "p"), ("c", "p", "q")])
    layer = Layer(b)
    gen = Elem.idempotent(b, "p") - Elem.arrow(b, "a")
    d = Dit(layer, Differential(layer, {}), IdealData([gen]), name="loop")
    with pytest.raises(UnsupportedShapeError, match="point p"):
        point_in_ideal(d, "p")
    assert not point_in_ideal(d, "q")
    out = classify(d, 2)
    assert isinstance(out, Obstruction) and "point p" in out.reason
    # the referee sees the classes that deleting p would have lost
    assert _loop_class(d, 0).validate() is None and _loop_class(d, 1).validate() is None
    assert sorted(M.dim_vector() for M in brute_force_indecomposables(d, 2)) == \
        sorted(M.dim_vector() for M in (simple_at(d, "q"), _loop_class(d, 0), _loop_class(d, 1)))


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
    # on exk/F2/3 every candidate the referee validates is local, so d = 4
    d = exk(F2)
    certify(d)
    assert len(brute_force_indecomposables(d, 4)) > 0
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
    # each presentation derives its levels once, one builder call for both
    # arrow kinds, however often the driver, the reductions and modcat read them
    from collections import Counter

    from ditalg import interlace

    built, derived = [], Counter()
    dit_init, levels = interlace.Dit.__init__, interlace._dependency_levels

    def counting_init(self, *args, **kwargs):
        built.append(self)
        dit_init(self, *args, **kwargs)

    def counting_levels(dit):
        derived[id(dit)] += 1
        return levels(dit)

    monkeypatch.setattr(interlace.Dit, "__init__", counting_init)
    monkeypatch.setattr(interlace, "_dependency_levels", counting_levels)
    d = exk(F3)
    certify(d)
    plan, final = reduce_to_minimal(d, 4)
    assert plan.steps
    assert max(derived.values()) == 1
    assert len(derived) <= len(built)


def test_a_delta_dependency_cycle_has_no_levels():
    # a cycle a -> b -> a among the solid loops has no levels
    from ditalg import interlace
    from ditalg.interlace import CertificationError, Dit, IdealData
    from ditalg.tensor import Differential, Layer

    b = Bigraph(F3, [("1", Factor.trivial())], solid=[("a", "1", "1"), ("b", "1", "1")],
                dashed=[("v", "1", "1")])
    layer = Layer(b)
    v = Elem.arrow(b, "v")
    cyc = Dit(layer, Differential(layer, {"a": v * Elem.arrow(b, "b"),
                                          "b": v * Elem.arrow(b, "a")}), IdealData())
    assert interlace._dependency_levels(cyc) is None
    assert interlace.dependency_cycle(cyc) in (["a", "b"], ["b", "a"])
    with pytest.raises(CertificationError, match="cycle"):
        cyc.levels


def _scanned_levels(dit):
    """The layer levels by a scan of every delta word, letter by letter: an
    arrow's level is one above the highest level of a same-kind letter in
    its delta (1 with none), computed by recursion, with each level listed
    as its sorted names.  The reference for `Dit.levels`."""
    b = dit.bigraph
    level = {}

    def lv(name):
        if name not in level:
            kind = b.arrow(name).dashed
            top = 0
            for w in dit.delta.of_arrow(name).terms:
                for m in w.arrows:
                    if b.arrow(m).dashed == kind:
                        top = max(top, lv(m))
            level[name] = top + 1
        return level[name]

    def of_kind(arrows):
        names = {}
        for a in arrows:
            names.setdefault(lv(a.name), []).append(a.name)
        return tuple(tuple(sorted(names[t])) for t in range(1, len(names) + 1))

    return of_kind(b.solid_arrows()), of_kind(b.dashed_arrows())


@pytest.mark.parametrize("build, d", [(lambda: exk(QQ), 6), (lambda: parabolic(F2, 4), 4)],
                         ids=["exk-Q-6", "P4-F2-4"])
def test_levels_equal_a_per_word_scan_on_every_plan_presentation(build, d):
    dit = build()
    plan, _ = reduce_to_minimal(dit, d)
    dits = [dit] + [s.functor.target for s in plan.steps]
    assert len(dits) > 40
    for each in dits:
        assert each.levels == _scanned_levels(each)


def test_parabolic_p3_classifies_with_an_empty_residue():
    # P3 over F2 up to dimension 4: finite type, so no family, and the
    # referee finds no class the listing misses
    d = parabolic(F2, 3)
    certify(d)
    rep = classify(d, 4)
    assert len(rep.plan.steps) == 11
    assert len(rep.indecomposables) == 7
    assert not rep.families
    assert rep.brute_residue == []


def _kronecker_counts(q: int, d: int):
    """Indecomposable classes of the Kronecker quiver over F_q per dimension
    vector of total dimension <= d, in closed form (Kac, Invent. Math. 1980):
    one class in each dimension (n, n+1) and (n+1, n), and sum_{e | n} N_e
    in dimension (n, n), with N_1 = q + 1 and N_e (e >= 2) the number of
    monic irreducible polynomials of degree e over F_q."""
    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    def closed_points(e):
        if e == 1:
            return q + 1
        return sum(mobius(e // k) * q ** k for k in range(1, e + 1) if e % k == 0) // e

    counts = {}
    for n in range(d + 1):
        if 0 < 2 * n <= d:
            counts[n, n] = sum(closed_points(e) for e in range(1, n + 1) if n % e == 0)
        if 2 * n + 1 <= d:
            counts[n, n + 1] = counts[n + 1, n] = 1
    return counts


@pytest.mark.parametrize("q, d, total", [(3, 4, 15), (5, 4, 26), (2, 6, 18)])
def test_referee_matches_closed_form_kronecker_counts(q, d, total):
    from collections import Counter

    oracle = _kronecker_counts(q, d)
    assert sum(oracle.values()) == total
    classes = brute_force_indecomposables(exk(PrimeField(q)), d)
    assert len(classes) == total
    assert Counter((M.dims["1"], M.dims["2"]) for M in classes) == oracle


def _full_enumeration(dit, d):
    """Every module of total dimension 1..d with every solid arrow's matrix
    and every x-action running over all of F_p, through one IsoClassIndex."""
    import itertools

    from ditalg.modcat import DecomposableError, IsoClassIndex

    F, b = dit.field, dit.bigraph
    pts = b.point_order
    index = IsoClassIndex(dit)
    for dims in itertools.product(range(d + 1), repeat=len(pts)):
        if not 0 < sum(dims) <= d:
            continue
        dm = dict(zip(pts, dims))
        slots = ([(False, a.name, dm[a.target], dm[a.source]) for a in b.solid_arrows()]
                 + [(True, p, dm[p], dm[p]) for p in pts if not b.factor(p).is_trivial])
        total = sum(r * c for _, _, r, c in slots)
        for vals in itertools.product(range(F.char), repeat=total):
            it = iter(vals)
            M = Rep(dit, dict(dm))
            for at_point, name, r, c in slots:
                (M.point_ops if at_point else M.arrow_ops)[name] = Mat(
                    F, r, c, [[F.from_int(next(it)) for _ in range(c)] for _ in range(r)])
            if M.validate() is None:
                try:
                    index.add(M)
                except DecomposableError:
                    pass
    return index


def _loop_first(F):
    """A loop ell at 1 listed before a: 1 -> 2, so the referee's pivot is a,
    with a dashed v: 1 -> 2 and delta(a) = v ell."""
    from ditalg.interlace import Dit, IdealData
    from ditalg.tensor import Differential, Elem, Layer

    b = Bigraph(F, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("ell", "1", "1"), ("a", "1", "2")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    delta = Differential(layer, {"a": Elem.arrow(b, "v") * Elem.arrow(b, "ell")})
    return Dit(layer, delta, IdealData(), name="LOOP")


@pytest.mark.parametrize("build, F, d", [
    (exk, F3, 3), (exl, F2, 3), (exr, F2, 3),
    (stellar_case2, F3, 2),     # x-actions at the rational point p link too
    (_loop_first, F2, 3),       # the first solid arrow is a loop
], ids=["exk-F3-3", "exl-F2-3", "exr-F2-3", "stellar_case2-F3-2", "loop-first-F2-3"])
def test_a_coordinate_split_candidate_is_never_local(build, F, d):
    # the referee skips these without End(M): each must be non-local when
    # `_locality` decides it from the End algebra
    from ditalg.modcat import EndAlgebra, _locality, splits_in_coordinates
    from ditalg.pipeline import _referee_candidates

    dit = build(F)
    certify(dit)
    valid = [M for M in _referee_candidates(dit, d) if M.validate() is None]
    split = [M for M in valid if splits_in_coordinates(M)]
    assert 0 < len(split) < len(valid)
    assert not any(_locality(EndAlgebra(dit, M))[0] for M in split)


@pytest.mark.parametrize("build, F, d, cap", [(exk, F3, 4, 174), (exl, F2, 4, 6)],
                         ids=["exk-F3-4", "exl-F2-4"])
def test_referee_builds_no_end_algebra_for_a_coordinate_split(monkeypatch, build, F, d, cap):
    # one End algebra per valid candidate made 401 on exk/F3/4 and 139 on
    # exl/F2/4; skipping the candidates that split left 247 and 15, and rank
    # normal forms up to the first nonzero arrow leave 174 and 6
    from ditalg import modcat

    calls = [0]
    real = modcat.EndAlgebra.__init__

    def counting(self, *args):
        calls[0] += 1
        real(self, *args)

    monkeypatch.setattr(modcat.EndAlgebra, "__init__", counting)
    dit = build(F)
    certify(dit)
    brute_force_indecomposables(dit, d)
    assert 0 < calls[0] <= cap


@pytest.mark.parametrize("build, F, d", [(exk, F3, 4), (exl, F2, 4)], ids=["exk-F3-4", "exl-F2-4"])
def test_referee_splits_each_candidate_once(monkeypatch, build, F, d):
    # the referee's own coordinate split before `IsoClassIndex.add` split
    # again made 432 splits for 258 candidates on exk/F3/4
    from ditalg import modcat
    from ditalg.pipeline import _referee_candidates

    calls = [0]
    real = modcat._coordinate_classes

    def counting(M):
        calls[0] += 1
        return real(M)

    dit = build(F)
    certify(dit)
    candidates = sum(1 for _ in _referee_candidates(dit, d))
    monkeypatch.setattr(modcat, "_coordinate_classes", counting)
    brute_force_indecomposables(dit, d)
    assert 0 < calls[0] <= candidates


@pytest.mark.parametrize("build, F, d, counts", [
    (exk, F3, 4, (258, 174, 174)), (exl, F2, 4, (110, 9, 6))], ids=["exk-F3-4", "exl-F2-4"])
def test_referee_validates_only_the_candidates_that_do_not_split(monkeypatch, build, F, d,
                                                                 counts):
    # (coordinate splits, validations, End algebras): every candidate is
    # split once, and only one that does not split is validated; validating
    # each candidate first made 258 and 110 validations
    from ditalg import modcat

    calls = {"split": 0, "validate": 0, "end": 0}

    def counting(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    dit = build(F)
    certify(dit)
    monkeypatch.setattr(modcat, "_coordinate_classes",
                        counting("split", modcat._coordinate_classes))
    monkeypatch.setattr(modcat.Rep, "validate", counting("validate", modcat.Rep.validate))
    monkeypatch.setattr(modcat.EndAlgebra, "__init__",
                        counting("end", modcat.EndAlgebra.__init__))
    brute_force_indecomposables(dit, d)
    assert (calls["split"], calls["validate"], calls["end"]) == counts


@pytest.mark.parametrize("build, F, d", [
    (exk, F2, 3), (exl, F2, 3), (exr, F2, 3),
    (exk, F3, 3),               # b, parallel to a, is ranked while a is zero
    (exi, F2, 3),               # b shares the point 2 with a
    (stellar_case2, F3, 2),     # the pivot w1 ends at the rational point p
    (_loop_first, F2, 3),       # the first solid arrow is a loop
], ids=["exk-F2-3", "exl-F2-3", "exr-F2-3", "exk-F3-3", "exi-F2-3", "stellar_case2-F3-2",
        "loop-first-F2-3"])
def test_rank_normal_form_loses_no_class(build, F, d):
    dit = build(F)
    certify(dit)
    classes = brute_force_indecomposables(dit, d)
    oracle = _full_enumeration(dit, d)
    assert len(classes) == len(oracle.classes)
    assert all(oracle.find(M) is not None for M in classes)


def test_referee_tries_one_candidate_per_pivot_rank():
    # the non-loop arrows up to the first nonzero one run over rank normal
    # forms only: 258 candidates on exk/F3/4, where the full product has
    # 8,198 and ranking the first arrow alone gave 401
    from ditalg.pipeline import _referee_candidates

    assert len(brute_force_indecomposables(exk(F3), 4)) == 15
    assert sum(1 for _ in _referee_candidates(exk(F3), 4)) <= 258


def test_iso_index_compares_only_modules_with_equal_end_invariants(monkeypatch):
    # an IsoClassIndex buckets by dimension vector, dim End and dim rad End:
    # bucketed by dimension vector alone, classify(exk(F3), 4) made 262
    # isomorphism tests, 96 of them between modules whose dim rad End differ
    from ditalg import modcat

    pairs = []
    real = modcat._indec_iso

    def recording(E, N, *args):
        pairs.append((E, N))
        return real(E, N, *args)

    monkeypatch.setattr(modcat, "_indec_iso", recording)
    dit = exk(F3)
    certify(dit)
    classify(dit, 4, 150)
    monkeypatch.undo()
    assert 0 < len(pairs) <= 165
    for E, N in pairs:
        E_n = modcat.EndAlgebra(dit, N)
        assert (E.dim, len(E.rad)) == (E_n.dim, len(E_n.rad))


def test_jordan_sizes_stop_at_the_bound(monkeypatch):
    # a family of rank z is specialized at t = 1..d // z only: every
    # specialization is kept
    from ditalg import pipeline

    built = []

    def counting_specialize(Z, lam, t):
        built.append(specialize_jordan(Z, lam, t))
        return built[-1]

    monkeypatch.setattr(pipeline, "specialize_jordan", counting_specialize)
    d = exk(F3)
    certify(d)
    rep = classify(d, 4)
    assert built and all(M.total_dim() <= 4 for M in built)
    assert len(built) == sum(len(fam.sample_images) for fam in rep.families) == 6


@pytest.mark.parametrize("F, d, admissible_steps", [(F3, 4, 7), (QQ, 6, 10)],
                         ids=["F3-4", "Q-6"])
def test_admissible_summands_need_no_throwaway_presentation(monkeypatch, F, d,
                                                            admissible_steps):
    # the driver hands its summands to build_admissible as RepData, so each
    # admissible step makes B's presentation exactly once (counted in the
    # driver's namespace too, should it ever import the builder again)
    from ditalg import admissible, pipeline

    made, built = [0], [0]
    sub_bigraph_dit, build_admissible = admissible._sub_bigraph_dit, admissible.build_admissible

    def counting_sub(*args):
        made[0] += 1
        return sub_bigraph_dit(*args)

    def counting_build(*args, **kwargs):
        built[0] += 1
        return build_admissible(*args, **kwargs)

    monkeypatch.setattr(admissible, "_sub_bigraph_dit", counting_sub)
    monkeypatch.setattr(pipeline, "_sub_bigraph_dit", counting_sub, raising=False)
    monkeypatch.setattr(admissible, "build_admissible", counting_build)
    plan, _ = reduce_to_minimal(exk(F), d)
    assert built[0] == admissible_steps
    assert made[0] == admissible_steps


def test_classify_exk_q6_product_count(monkeypatch):
    # the pushforward copies the all-fixed words verbatim: 123,452 products
    # of tensor elements when every word was multiplied out, 14,606 with the
    # verbatim copy, 4,998 now that the sigma expansion makes each product once
    from ditalg.tensor import Elem

    calls = [0]
    mul = Elem.__mul__

    def counting_mul(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Elem, "__mul__", counting_mul)
    classify(exk(QQ), 6)
    assert calls[0] <= 20_000


def test_classify_exk_q6_field_operation_count(monkeypatch):
    # 20,623 additions (20,519 with a zero operand) and 20,403 multiplications
    # (18,835 with a unit operand) when every tensor sum and product added to
    # an explicit zero, every word action multiplied by identity matrices and
    # every structure-constant product added c*0; 4,512 and 7,518 when the
    # radical's trace, the U-condition rows and the image terms of a
    # reduction still added zeros and multiplied by ones; 2,160 and 4,811
    # when the trace still multiplied by a coordinate one; 2,160 and 4,763
    # later; 1,305 and 3,224 before `RationalField.sub_scaled` multiplied
    # inline, out of this count's sight; 1,305 and 2,288 now
    from ditalg.scalars.fields import RationalField

    calls = {"add": 0, "mul": 0}

    def counted(op):
        method = getattr(RationalField, op)

        def counting(self, a, b):
            calls[op] += 1
            return method(self, a, b)
        return counting

    for op in calls:
        monkeypatch.setattr(RationalField, op, counted(op))
    classify(exk(QQ), 6)
    assert calls["add"] <= 2_375
    assert calls["mul"] <= 5_240


def _scalars(obj):
    """Every field scalar that obj holds: the coefficients of its tensor
    elements and polynomials and the entries of its matrices."""
    from fractions import Fraction

    from ditalg.scalars import LocElt

    if isinstance(obj, (int, Fraction)):
        yield obj
    elif isinstance(obj, Poly):
        yield from obj.coeffs
    elif isinstance(obj, LocElt):
        yield from _scalars(obj.num)
    elif isinstance(obj, Mat):
        for row in obj.data:
            for v in row:
                yield from _scalars(v)
    elif isinstance(obj, Elem):
        for c in obj.terms.values():
            yield from _scalars(c)
    elif isinstance(obj, Rep):
        for m in (*obj.arrow_ops.values(), *obj.point_ops.values()):
            yield from _scalars(m)
    else:
        raise TypeError(f"no scalars known in {type(obj).__name__}")


def test_classify_exk_q6_keeps_every_scalar_canonical():
    # over Q an integral value is an int and only a non-integral one a
    # Fraction, through every reduction step, listing and family
    from fractions import Fraction

    report = classify(exk(QQ), 6)
    held = [*report.minimal.delta.values.values(), *report.minimal.ideal.generators,
            *report.indecomposables, *report.exceptional]
    for fam in report.families:
        held += [*fam.inverted, fam.bimodule, *(r for _, r in fam.sample_images)]
    values = [c for obj in held for c in _scalars(obj)]
    assert report.families and len(values) > 100
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in values)


def test_classify_exk_q6_step_functor_and_validation_count(monkeypatch):
    # 2,630 module actions by tensor elements when every step functor acted
    # on every sigma entry and image, most of them on zero-dimensional
    # blocks, 132 now; 17,398 word degrees when every pushforward validated
    # every delta value, 8,761 now that a value copied whole is not validated
    # again
    from ditalg.tensor import Word

    calls = {"elem_action": 0, "degree": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def counting(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counting

    monkeypatch.setattr(Rep, "elem_action", counted(Rep, "elem_action"))
    monkeypatch.setattr(Word, "degree", counted(Word, "degree"))
    classify(exk(QQ), 6)
    assert calls["elem_action"] <= 150
    assert calls["degree"] <= 9_640


def test_referee_end_algebras_build_few_morphism_pairs(monkeypatch):
    # every End algebra turned each of its kernel vectors into a morphism
    # pair at once: 789 conversions; the Fitting-rank scan reads the f0
    # blocks off the vectors, which leaves 381
    from ditalg import modcat

    calls = [0]
    real = modcat._vector_to_pair

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(modcat, "_vector_to_pair", counting)
    dit = exk(F3)
    certify(dit)
    brute_force_indecomposables(dit, 4)
    assert 0 < calls[0] <= 420


def test_exk_f3_plan_composes_little_and_takes_no_charpoly(monkeypatch):
    # the radical P of each admissible step came from End of the direct sum
    # of its summands: 182 compositions and 28 characteristic polynomials;
    # built block by block from Hom spaces and each summand's own End
    # algebra, with no table for a one-dimensional one, 7 and 0
    from ditalg import admissible, modcat

    calls = {"compose": 0, "charpoly": 0}

    def counted(name):
        real = getattr(modcat, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)
        return counting

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(modcat, name, wrapper)
        if hasattr(admissible, name):
            monkeypatch.setattr(admissible, name, wrapper)
    dit = exk(F3)
    certify(dit)
    reduce_to_minimal(dit, 4)
    assert 0 < calls["compose"] <= 8
    assert calls["charpoly"] == 0


@pytest.mark.parametrize("F, d, residue", [(F3, 4, 3), (F5, 4, 14), (F2, 6, 3)],
                         ids=["F3-4", "F5-4", "F2-6"])
def test_brute_residue_matches_the_referee_classes_found_anew(F, d, residue):
    # classify matches the End algebras the referee has decided local; a
    # fresh `find` on each referee class, which rebuilds End(cls), agrees
    from ditalg.modcat import IsoClassIndex

    dit = exk(F)
    report = classify(dit, d)
    index = IsoClassIndex(dit)
    for img in report.indecomposables:
        index.add(img)
    expected = [c for c in brute_force_indecomposables(dit, d) if index.find(c) is None]
    assert len(report.brute_residue) == len(expected) == residue
    assert report.brute_residue == expected


@pytest.mark.parametrize("error", ["CertificationError", "AdmissibleError", "ModcatError",
                                   "BigraphError"])
def test_a_failed_step_ends_in_a_named_obstruction(monkeypatch, error):
    from ditalg import admissible, bigraph, interlace, modcat
    from ditalg.reduce import StepSpec

    home = {"CertificationError": interlace, "AdmissibleError": admissible,
            "ModcatError": modcat, "BigraphError": bigraph}[error]

    def failing(self, dit, name=""):
        raise getattr(home, error)("boom")

    monkeypatch.setattr(StepSpec, "apply", failing)
    out = classify(exk(F3), 4)
    assert isinstance(out, Obstruction) and not out.steps
    assert out.reason == (f"admissible step (edge reduction at a) failed on "
                          f"{out.dit.name}: {error}: boom")


def test_a_reduction_error_in_a_step_is_not_renamed(monkeypatch):
    # the seminested loop falls back to a localization on a ReductionError
    from ditalg.reduce import ReductionError, StepSpec

    def failing(self, dit, name=""):
        raise ReductionError("boom")

    monkeypatch.setattr(StepSpec, "apply", failing)
    with pytest.raises(ReductionError):
        classify(exk(F3), 4)


def test_a_batch_without_triangular_pivots_falls_back_to_one_arrow():
    # delta(a) = delta(b) = v1 + v2: the batch {a, b} has no triangular pivot
    # system, so the loop regularizes a alone, which kills delta(b)
    from ditalg.interlace import Dit, IdealData
    from ditalg.reduce import ReductionError, regularize
    from ditalg.tensor import Differential, Elem, Layer

    b = Bigraph(F3, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "1", "2")],
                dashed=[("v1", "1", "2"), ("v2", "1", "2")])
    layer = Layer(b)
    v = Elem.arrow(b, "v1") + Elem.arrow(b, "v2")
    d = Dit(layer, Differential(layer, {"a": v, "b": v}), IdealData(), name="V")
    certify(d)
    with pytest.raises(ReductionError):
        regularize(d, ["a", "b"])
    plan, final = reduce_to_minimal(d, 2)
    assert is_minimal(final)
    regs = [s.spec.data["solid"] for s in plan.steps if s.spec.kind == "regularization"]
    assert regs == [["a"]]


def test_exk_q6_regularizes_in_batches():
    # every arrow whose delta lies in W1 is regularized in one step: 85 steps
    # when the loop took one arrow per step, 48 with batches, 46 once no
    # edge reduction builds a summand beyond the bound (and none is pruned)
    plan, _ = reduce_to_minimal(exk(QQ), 6)
    assert len(plan.steps) <= 46
    assert any(len(s.spec.data["solid"]) > 1 for s in plan.steps
               if s.spec.kind == "regularization")


def _steps_of(result):
    return result.steps if isinstance(result, Obstruction) else result[0].steps


def _gamma_renaming(full, bounded):
    """The gammas g[k] of one admissible step that survive in `full`, in
    arrow order, paired with those of `bounded`: the radical basis of the
    smaller X is the larger one's with the blocks of the left-out summands
    removed, in the same order."""
    import re

    def gammas(dit):
        return [a for a in dit.bigraph.dashed_arrows() if re.fullmatch(r"g\[\d+\]", a.name)]

    pairs = list(zip(gammas(full), gammas(bounded)))
    assert len(pairs) == len(gammas(full)) == len(gammas(bounded))
    assert all((a.source, a.target) == (c.source, c.target) for a, c in pairs)
    return {a.name: c.name for a, c in pairs}


def _renamed(elem, bigraph, renaming):
    from ditalg.tensor import Elem, Word

    return Elem(bigraph, {Word(w.start, tuple(renaming.get(a, a) for a in w.arrows), w.coeffs): c
                          for w, c in elem.terms.items()})


def _arm(*h):
    """One arm w: c -> p over F3 with p rational and I = <h e_p>, for h the
    product of the coefficient lists `h` (lowest degree first)."""
    from ditalg.interlace import Dit, IdealData
    from ditalg.scalars import LocElt
    from ditalg.tensor import Differential, Elem, Layer

    b = Bigraph(F3, [("c", Factor.trivial()), ("p", Factor.rational([]))],
                solid=[("w", "c", "p")])
    layer = Layer(b)
    poly = Poly.one(F3)
    for coeffs in h:
        poly = poly * Poly.from_ints(F3, coeffs)
    gen = Elem.decorated(b, "p", LocElt(b.factor_ring("p"), poly, 0))
    return Dit(layer, Differential(layer, {}), IdealData([gen]), name="arm")


@pytest.mark.parametrize("h", [[[1, 1], [1, 0, 1]], [[1, 1]] * 3], ids=["two-primes", "cube"])
def test_torsion_split_leaves_out_the_blocks_beyond_the_bound(h):
    # at d = 1 only the block k[x]/(x+1) is kept; for (x+1)^3 the blocks
    # k[x]/(x+1)^2 and k[x]/(x+1)^3 it leaves out would make the reduced
    # layer cyclic, so building them stopped the run at an obstruction
    report = classify(_arm(*h), 1)
    assert [s.functor.kind for s in report.plan.steps] == ["admissible", "admissible"]
    assert sorted(r.dim_vector() for r in report.indecomposables) == [(0, 1), (1, 0)]
    assert report.brute_residue == []


def test_bounded_admissible_steps_equal_the_full_step_then_deletion(monkeypatch):
    # the plans that keep every summand in X and prune the heavy points
    # afterwards, as plans were built before they left them out: on each
    # admissible step that builds a heavy point (edge reductions, and the
    # torsion split of I = <(x+1)(x^2+1) e_p> with its degree-2 block at
    # d = 1), the step with the heavy summands left out equals the full step
    # followed by deleting those points, term by term and in order, up to
    # renumbering the gammas, and so do the composite functors on the simple
    # or generic module at each point
    from ditalg import pipeline
    from ditalg.admissible import summand_weight
    from ditalg.bimodule import generic_regular
    from ditalg.reduce import StepSpec, delete_idempotents

    full_plans = []
    with monkeypatch.context() as m:
        m.setattr(pipeline, "summand_weight", lambda dit, dims: 0)
        for dit, d in ((exk(QQ), 6), (exk(F3), 4), (stellar_case1(F3), 3),
                       (stellar_case2(F3), 2), (_arm([1, 1], [1, 0, 1]), 1)):
            steps = _steps_of(reduce_to_minimal(dit, d))
            assert any("beyond the dimension bound" in s.note for s in steps)
            full_plans.append((steps, d))
    compared, edges, renumbered = 0, 0, 0
    for steps, d in full_plans:
        for step in steps:
            src, full = step.functor.source, step.functor.target
            heavy = [p for p in full.bigraph.point_order if full.point_weights[p] > d]
            if step.spec.kind != "admissible" or not heavy:
                continue
            data = dict(step.spec.data)
            data["findim"] = [(label, rep) for label, rep in data["findim"]
                              if summand_weight(src, rep.dims) <= d]
            bounded, f_bounded = StepSpec("admissible", data).apply(src)
            deleted, f_deleted = delete_idempotents(
                full, [p for p in full.bigraph.point_order if p not in heavy])
            b, bd = bounded.bigraph, deleted.bigraph
            assert bd.point_order == b.point_order
            assert all(bd.factor(p) == b.factor(p) for p in b.point_order)
            ren = _gamma_renaming(deleted, bounded)
            renumbered += any(k != v for k, v in ren.items())
            for arrows_of in (type(b).solid_arrows, type(b).dashed_arrows):
                assert [(ren.get(a.name, a.name), a.source, a.target) for a in arrows_of(bd)] \
                    == [(a.name, a.source, a.target) for a in arrows_of(b)]
            for name in bd.arrows:
                assert list(_renamed(deleted.delta.of_arrow(name), b, ren).terms.items()) \
                    == list(bounded.delta.of_arrow(ren.get(name, name)).terms.items())
            assert [list(_renamed(g, b, ren).terms.items()) for g in deleted.ideal.generators] \
                == [list(g.terms.items()) for g in bounded.ideal.generators]
            assert deleted.point_weights == bounded.point_weights
            for p in b.point_order:
                make = simple_at if b.factor(p).is_trivial else generic_regular
                M = f_bounded.apply_rep(make(bounded, p))
                R = step.functor.apply_rep(f_deleted.apply_rep(make(deleted, p)))
                assert M.dims == R.dims
                assert list(M.arrow_ops.items()) == list(R.arrow_ops.items())
                assert list(M.point_ops.items()) == list(R.point_ops.items())
            compared += 1
            edges += bool(data["b_arrows"])
    assert compared > edges > 0


_SNAPSHOT_CASES = [
    (exk, F2, 4), (exk, F3, 4), (exk, F5, 3), (exk, QQ, 6), (exl, F2, 4), (exl, QQ, 4),
    (exi, F3, 3), (exi, QQ, 4), (ex1, F2, 3), (ex2, F3, 3), (ex2, QQ, 4), (exr, F2, 3),
    (exr, QQ, 4), (exq, F3, 3), (exl2, F2, 3), (exl2, QQ, 4), (stellar_case1, F3, 3),
    (stellar_case2, F3, 2), (exa, F3, 3), (exx, F3, 3),
]


@pytest.mark.parametrize("fixture, F, d", _SNAPSHOT_CASES, ids=[
    f"{fixture.__name__}-{f'F{F.char}' if F.char else 'Q'}-{d}" for fixture, F, d in _SNAPSHOT_CASES])
def test_no_step_builds_a_point_beyond_the_bound(fixture, F, d):
    # every step target keeps each point weight within the bound, so no plan
    # prunes a point (exa stops at an obstruction before its first step)
    for step in _steps_of(reduce_to_minimal(fixture(F), d)):
        assert max(step.functor.target.point_weights.values(), default=0) <= d, step.note
        assert "beyond the dimension bound" not in step.note


def test_bound_zero_prunes_every_point_once():
    for F in (F3, QQ):
        report = classify(exk(F), 0)
        assert report.plan.log() == [
            "0: deletion (prune points beyond the dimension bound: ['1', '2'])"]
        assert report.indecomposables == [] and not report.brute_residue


def test_a_point_whose_idempotent_lies_in_the_ideal_is_deleted():
    # I = <x e_p, (x-1) e_p> holds e_p, so p is dead before any reduction
    d = parse_presentation({
        "field": "F3",
        "points": [{"name": "q", "factor": "trivial"},
                   {"name": "p", "factor": "rational", "inverted": []}],
        "solid_arrows": [{"name": "a", "source": "q", "target": "p"}],
        "dashed_arrows": [{"name": "v", "source": "q", "target": "p"}],
        "differential": {"a": [["1", "v", "1"]]},
        "ideal": [[["x*e_p"]], [["(x-1)*e_p"]]]})
    certify(d)
    report = classify(d, 2)
    assert report.plan.log() == ["0: deletion (delete ideal idempotents ['p'])"]
    assert [M.dims for M in report.indecomposables] == [{"q": 1, "p": 0}]
    assert not report.families and report.brute_residue == []
