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


def _fixpoint_levels(dit, dashed):
    """The least levels of one arrow kind by rescanning the same-kind
    delta-dependencies until every arrow is levelled: the reference for the
    worklist pass in `interlace._dependency_levels`."""
    b = dit.bigraph
    deps = {a.name: {n for w in dit.delta.of_arrow(a.name).terms for n in w.arrows
                     if b.arrow(n).dashed == dashed}
            for a in (b.dashed_arrows() if dashed else b.solid_arrows())}
    level = {}
    while len(level) < len(deps):
        ready = [n for n in deps if n not in level and deps[n].issubset(level)]
        if not ready:
            return None
        for n in ready:
            level[n] = 1 + max((level[m] for m in deps[n]), default=0)
    return tuple(frozenset(n for n, lv in level.items() if lv <= t)
                 for t in range(1, max(level.values(), default=0) + 1))


def test_worklist_levels_equal_the_fixpoint_on_the_exk_q6_plan():
    from ditalg import interlace
    from ditalg.interlace import CertificationError, Dit, IdealData
    from ditalg.tensor import Differential, Elem, Layer

    d = exk(QQ)
    plan, _ = reduce_to_minimal(d, 6)
    for dit in [d] + [s.functor.target for s in plan.steps]:
        assert interlace._dependency_levels(dit) == \
            (_fixpoint_levels(dit, False), _fixpoint_levels(dit, True))
    # a cycle a -> b -> a among the solid loops has no levels
    b = Bigraph(F3, [("1", Factor.trivial())], solid=[("a", "1", "1"), ("b", "1", "1")],
                dashed=[("v", "1", "1")])
    layer = Layer(b)
    v = Elem.arrow(b, "v")
    cyc = Dit(layer, Differential(layer, {"a": v * Elem.arrow(b, "b"),
                                          "b": v * Elem.arrow(b, "a")}), IdealData())
    assert interlace._dependency_levels(cyc) is None is _fixpoint_levels(cyc, False)
    with pytest.raises(CertificationError, match="cycle"):
        cyc.levels


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


@pytest.mark.parametrize("build, F, d, cap", [(exk, F3, 4, 250), (exl, F2, 4, 20)],
                         ids=["exk-F3-4", "exl-F2-4"])
def test_referee_builds_no_end_algebra_for_a_coordinate_split(monkeypatch, build, F, d, cap):
    # one End algebra per valid candidate made 401 on exk/F3/4 and 139 on
    # exl/F2/4; skipping the candidates that split leaves 247 and 15
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


def test_referee_tries_one_candidate_per_pivot_rank():
    # the pivot runs over rank normal forms only: 401 candidates on
    # exk/F3/4, where the full product has 8,198
    from ditalg.pipeline import _referee_candidates

    assert len(brute_force_indecomposables(exk(F3), 4)) == 15
    assert sum(1 for _ in _referee_candidates(exk(F3), 4)) <= 500


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
    # when the trace still multiplied by a coordinate one; 2,160 and 4,763 now
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
    assert all(rep_equal(a, b) for a, b in zip(report.brute_residue, expected))


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
    # when the loop took one arrow per step, 48 with batches
    plan, _ = reduce_to_minimal(exk(QQ), 6)
    assert len(plan.steps) <= 48
    assert any(len(s.spec.data["solid"]) > 1 for s in plan.steps
               if s.spec.kind == "regularization")
