import pytest

from ditalg.bigraph import Bigraph, Factor
from ditalg.bimodule import (
    NCPoly, WildCertificate, generic_regular, specialize_jordan, verify_wild_certificate,
)
from ditalg.fixtures import ex1, ex2, exi, exk, exl, exr, stellar_case1, stellar_case2
from ditalg.interlace import certify
from ditalg.modcat import Rep, hom_dim, is_indecomposable, iso_test, jordan_at, simple_at
from ditalg.pipeline import (
    Obstruction, brute_force_indecomposables, classify, is_minimal, reduce_to_minimal,
)
from ditalg.reduce import rep_equal, structural_equal
from ditalg.scalars import PrimeField, Poly, QQ
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
            assert rep_equal(via_bimodule, via_functor), (lam_int, t)


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
            target, _ = step.spec.apply(step.functor.source)
            assert structural_equal(target, step.functor.target), step.note
            replays += 1
    assert replays > 60


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
    (exk, F2, 3), (exl, F2, 3), (exr, F2, 3),
    (stellar_case2, F3, 2),     # the pivot w1 ends at the rational point p
    (_loop_first, F2, 3),       # the first solid arrow is a loop
], ids=["exk-F2-3", "exl-F2-3", "exr-F2-3", "stellar_case2-F3-2", "loop-first-F2-3"])
def test_rank_normal_form_loses_no_class(build, F, d):
    dit = build(F)
    certify(dit)
    classes = brute_force_indecomposables(dit, d)
    oracle = _full_enumeration(dit, d)
    assert len(classes) == len(oracle.classes)
    assert all(oracle.find(M) is not None for M in classes)


def test_referee_tries_one_candidate_per_pivot_rank(monkeypatch):
    # the pivot runs over rank normal forms only: 401 candidates on
    # exk/F3/4, where the full product has 8,198
    from ditalg import modcat

    calls = [0]
    validate = modcat.Rep.validate

    def counting_validate(self):
        calls[0] += 1
        return validate(self)

    monkeypatch.setattr(modcat.Rep, "validate", counting_validate)
    assert len(brute_force_indecomposables(exk(F3), 4)) == 15
    assert calls[0] <= 500


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


@pytest.mark.parametrize("error", ["CertificationError", "AdmissibleError"])
def test_a_failed_step_ends_in_a_named_obstruction(monkeypatch, error):
    from ditalg import admissible, interlace
    from ditalg.reduce import StepSpec

    def failing(self, dit, name=""):
        raise getattr(admissible if error == "AdmissibleError" else interlace, error)("boom")

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
