import random

import pytest

from ditalg import interlace
from ditalg.bigraph import Bigraph, BigraphError, Factor
from ditalg.fixtures import ex1, ex2, exa, exi, exk, exl, exl2, parabolic, stellar_case2
from ditalg.interlace import (
    CertificationError, Dit, IdealData, certify, check_balanced,
    check_interlaced, check_triangular_ideal, check_triangular_layer,
    generated_ideal, ideal_levels, kernel_lemma_dimension_check, lift_differential,
    membership_in_ideal_window, _reduce_mod_J, quotient,
)
from ditalg.modcat import Rep, hom_dim, hom_via_quotient
from ditalg.pipeline import reduce_to_minimal
from ditalg.presentation import parse_presentation
from ditalg.scalars import PrimeField, QQ
from ditalg.scalars.linalg import Mat
from ditalg.tensor import Differential, Elem, Layer

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_zero_ideal_trivially_certifies():
    d = ex1(F5)
    flags = certify(d)
    assert flags["directed"] and flags["triangular_layer"]
    assert flags["triangular_ideal"] and flags["interlaced"] and flags["roiter"]


def test_ex2_certifies():
    d = ex2(F5)
    flags = certify(d)
    assert all(flags[k] for k in ("directed", "triangular_layer", "triangular_ideal",
                                  "interlaced", "roiter"))


def test_exi_balanced_and_triangular():
    d = exi(F5)
    assert check_balanced(d)            # delta = 0
    assert check_triangular_ideal(d)    # delta kills b a: one level
    ba = Elem.arrow(d.bigraph, "b") * Elem.arrow(d.bigraph, "a")
    assert ideal_levels(d) == ([[ba]], [])
    assert check_interlaced(d)


def test_non_balanced_detected():
    # delta(p) = q*v with q not in I: I = <p> is not balanced
    b = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("p", "1", "3"), ("q", "2", "3")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    delta = Differential(layer, {"p": Elem.arrow(b, "q") * Elem.arrow(b, "v")})
    d = Dit(layer, delta, IdealData([Elem.arrow(b, "p")]))
    assert not check_balanced(d)


def test_generated_ideal_zero():
    d = ex1(F5)
    gi = generated_ideal(d)
    assert not gi.degree0_span and not gi.degree1_span


def test_generated_ideal_exi():
    d = exi(F5)
    gi = generated_ideal(d)
    assert ("1", "3") in gi.degree0_span
    # no degree-1 part: u does not compose with b*a on either side
    assert not gi.degree1_span


def test_generated_ideal_balanced_value():
    # delta(p) = q v with p, q in I: I_V contains q*v
    b = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("p", "1", "3"), ("q", "2", "3")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    qv = Elem.arrow(b, "q") * Elem.arrow(b, "v")
    delta = Differential(layer, {"p": qv})
    d = Dit(layer, delta, IdealData([Elem.arrow(b, "p"), Elem.arrow(b, "q")]))
    assert check_balanced(d)
    gi = generated_ideal(d)
    assert ("1", "3") in gi.degree1_span
    from ditalg.tensor import in_span
    assert in_span(gi.degree1_span[("1", "3")], qv)


def test_reduce_mod_ideal_window():
    d = exi(F5)
    b = d.bigraph
    gi = generated_ideal(d)
    ba = Elem.arrow(b, "b") * Elem.arrow(b, "a")
    assert _reduce_mod_J(gi, ba, 0).is_zero()
    a = Elem.arrow(b, "a")
    assert _reduce_mod_J(gi, a, 0) == a


def test_quotient_identity_when_ideal_zero():
    d = ex2(F5)
    q = quotient(d)
    assert q.reduced_delta["a"] == Elem.arrow(d.bigraph, "v")
    assert not q.dashed_kernel


def test_quotient_exi():
    d = exi(F5)
    q = quotient(d)
    # A-bar: the path b*a dies
    b = d.bigraph
    ba = Elem.arrow(b, "b") * Elem.arrow(b, "a")
    assert q.reduce0(ba).is_zero()
    assert q.reduce0(Elem.arrow(b, "a")) == Elem.arrow(b, "a")


def test_kernel_lemma_on_fixtures():
    for fix in (exi, exl):
        d = fix(F5)
        b = d.bigraph
        gi = generated_ideal(d)
        for i in b.point_order:
            for j in b.point_order:
                assert kernel_lemma_dimension_check(d, i, j, length_cap=4, gi=gi)


def test_kernel_lemma_needs_a_directed_bigraph():
    # exa certifies (its loop has delta = 0), but its window is not finite
    d = exa(F3)
    assert certify(d)["roiter"]
    with pytest.raises(BigraphError):
        kernel_lemma_dimension_check(d, "1", "1", length_cap=3)


def test_lift_trivial_differential():
    d = exl(F5)
    flags = certify(d)
    assert flags["interlaced"] and flags["triangular_ideal"] and flags["roiter"]
    # delta = 0 lift
    assert all(v.is_zero() for v in d.delta.values.values())
    gi = generated_ideal(d)
    assert ("1", "4") in gi.degree1_span  # m*h*g spans J cap V there


def test_lift_with_degree2_value():
    d = exl2(F5)
    b = d.bigraph
    dv = d.delta.of_arrow("v")
    assert dv == Elem.arrow(b, "u2") * Elem.arrow(b, "u")
    assert certify(d)["interlaced"]
    # delta^2(T) lands in J on every generator
    gi = generated_ideal(d)
    for name in b.arrows:
        sq = d.delta.square(Elem.arrow(b, name))
        deg = (2 if b.arrow(name).dashed else 1) + 1
        assert _reduce_mod_J(gi, sq, deg).is_zero()


def test_lift_rejects_bad_input():
    # delta-dot(a) = s with I = <b a> is inconsistent: delta(I) does not die
    b = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "2", "3")],
                dashed=[("s", "1", "2")])
    ba = Elem.arrow(b, "b") * Elem.arrow(b, "a")
    with pytest.raises(CertificationError):
        lift_differential(b, [ba], {"a": Elem.arrow(b, "s")})


def test_triangular_ideal_rejects_unbalanced_without_filtration():
    b = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("p", "1", "3"), ("q", "2", "3")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    delta = Differential(layer, {"p": Elem.arrow(b, "q") * Elem.arrow(b, "v")})
    d = Dit(layer, delta, IdealData([Elem.arrow(b, "p")]))
    assert not check_triangular_ideal(d)


def _loop_then_path(delta_b: bool) -> Dit:
    # a loop ell at 1 listed before a: 1 -> 2 and b: 2 -> 3, I = <b a>; with
    # delta_b a dashed w: 2 -> 3 and delta(b) = w, else delta = 0
    b = Bigraph(F3, [("1", Factor.trivial()), ("2", Factor.trivial()), ("3", Factor.trivial())],
                solid=[("ell", "1", "1"), ("a", "1", "2"), ("b", "2", "3")],
                dashed=[("w", "2", "3")] if delta_b else [])
    layer = Layer(b)
    delta = Differential(layer, {"b": Elem.arrow(b, "w")} if delta_b else {})
    return Dit(layer, delta, IdealData([Elem.arrow(b, "b") * Elem.arrow(b, "a")]))


def test_triangular_ideal_of_a_non_directed_bigraph_is_one_level():
    # the one component b a is levelled since delta(b a) = 0, and left over
    # once delta(b a) = w a is not zero, as nothing lies below it
    d = _loop_then_path(delta_b=False)
    assert not d.bigraph.is_directed()
    certs = certify(d)
    assert certs["triangular_ideal"] and certs["roiter"]
    assert ideal_levels(d) == ([d.ideal_components()], [])
    d = _loop_then_path(delta_b=True)
    assert ideal_levels(d) == ([], d.ideal_components())
    assert not certify(d)["triangular_ideal"]


def _loop_path_and_arm(with_loop: bool = True) -> Dit:
    # points 1-4, solid a: 1 -> 2, b: 2 -> 3, c: 1 -> 4 and (with_loop) a
    # loop ell at 1, dashed v: 3 -> 4, delta(c) = v b a and I = <b a, c>
    b = Bigraph(F3, [(p, Factor.trivial()) for p in "1234"],
                solid=[("a", "1", "2"), ("b", "2", "3"), ("c", "1", "4")]
                + ([("ell", "1", "1")] if with_loop else []),
                dashed=[("v", "3", "4")])
    layer = Layer(b)
    a, bb, c, v = (Elem.arrow(b, n) for n in "abcv")
    delta = Differential(layer, {"c": v * bb * a})
    return Dit(layer, delta, IdealData([bb * a, c]))


def test_triangular_ideal_of_a_non_directed_bigraph_has_two_levels():
    # delta(c) = v (b a) lies in the window around b a, so c sits one level
    # above b a; the unused loop ell changes nothing
    for with_loop in (True, False):
        d = _loop_path_and_arm(with_loop)
        assert d.bigraph.is_directed() is not with_loop
        b = d.bigraph
        ba, c = Elem.arrow(b, "b") * Elem.arrow(b, "a"), Elem.arrow(b, "c")
        assert ideal_levels(d) == ([[ba], [c]], [])
        certs = certify(d)
        assert certs["triangular_ideal"] and certs["balanced"] and certs["roiter"]


def _stellar_case2_localization() -> Dit:
    # the target of the first step of the stellar_case2 F3 plan at d = 3
    return reduce_to_minimal(stellar_case2(F3), 3).steps[0].functor.target


@pytest.mark.parametrize("make", [_loop_path_and_arm, _stellar_case2_localization])
def test_ideal_levels_are_least(make):
    # each component at level k > 1 fails the window condition against the
    # levels below k - 1, and every component at level 1 is killed by delta
    d = make()
    levels, left = ideal_levels(d)
    assert len(levels) > 1 and not left
    assert sum(map(len, levels)) == len(d.ideal_components())
    for k, level in enumerate(levels):
        below = [c for lv in levels[:k - 1] for c in lv]
        for c in level:
            dc = d.delta.apply(c)
            if k == 0:
                assert dc.is_zero()
            else:
                assert not dc.is_zero()
                assert not (below and membership_in_ideal_window(d, dc, 1, middle=below))


def test_triangular_layer_from_heights():
    d = ex2(F5)
    assert check_triangular_layer(d)
    assert all(d.levels)


def test_lift_differential_certifies_once(monkeypatch):
    # building exl through lift_differential runs each check once
    calls = {"check_balanced": 0, "check_interlaced": 0}
    for name in calls:
        real = getattr(interlace, name)

        def counted(dit, name=name, real=real):
            calls[name] += 1
            return real(dit)
        monkeypatch.setattr(interlace, name, counted)
    exl(F3)
    assert calls == {"check_balanced": 1, "check_interlaced": 1}


def test_triangular_ideal_implies_balanced():
    # every certified triangular ideal passes the balanced check
    for fix in (exi, exl, exl2):
        d = fix(F5)
        assert check_triangular_ideal(d)
        assert check_balanced(d)


def _cyclic_bigraph_dit(first_letter: str) -> Dit:
    # solid a, b: 1 -> 2 and c: 2 -> 1 (not directed), dashed v: 1 -> 2,
    # delta(a) = x c v with x = first_letter, one-level default layer
    b = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "1", "2"), ("c", "2", "1")],
                dashed=[("v", "1", "2")])
    layer = Layer(b)
    da = Elem.arrow(b, first_letter) * Elem.arrow(b, "c") * Elem.arrow(b, "v")
    return Dit(layer, Differential(layer, {"a": da}), IdealData())


def test_triangular_layer_is_exact_on_acyclic_dependencies():
    d = _cyclic_bigraph_dit("b")
    assert not d.bigraph.is_directed()
    assert check_triangular_layer(d)
    assert d.levels[0] == (("b", "c"), ("a",))


def test_triangular_layer_rejects_cyclic_dependencies():
    d = _cyclic_bigraph_dit("a")
    assert not check_triangular_layer(d)
    assert certify(d)["triangular_layer"] is False
    with pytest.raises(CertificationError):
        d.levels
    assert interlace.dependency_cycle(d) == ["a"]
    assert interlace.dependency_cycle(_cyclic_bigraph_dit("b")) is None


def test_dependency_cycle_follows_unlevelled_dependencies():
    # delta(a) = b c v and delta(b) = a c v: c is levelled, a and b wait on
    # each other
    b = Bigraph(F5, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "1", "2"), ("c", "2", "1")],
                dashed=[("v", "1", "2")])
    layer = Layer(b)
    cv = Elem.arrow(b, "c") * Elem.arrow(b, "v")
    d = Dit(layer, Differential(layer, {"a": Elem.arrow(b, "b") * cv,
                                        "b": Elem.arrow(b, "a") * cv}), IdealData())
    assert not check_triangular_layer(d)
    assert interlace.dependency_cycle(d) == ["a", "b"]


def test_quotient_builds_generated_ideal_once(monkeypatch):
    built = []

    def counting(dit):
        built.append(dit)
        return generated_ideal(dit)

    monkeypatch.setattr(interlace, "generated_ideal", counting)
    q = quotient(exl2(F5))
    assert len(built) == 1
    b = q.dit.bigraph
    assert q.reduce0(Elem.arrow(b, "b") * Elem.arrow(b, "a")).is_zero()
    assert len(built) == 1


def test_generated_ideal_reads_the_certified_flags(monkeypatch):
    # a certified dit is not checked again; an uncertified one still is
    runs = []
    for name in ("check_balanced", "check_interlaced"):
        check = getattr(interlace, name)
        monkeypatch.setattr(interlace, name,
                            lambda dit, check=check, name=name: runs.append(name) or check(dit))
    d = exl2(F5)
    generated_ideal(d)
    assert runs[0] == "check_balanced"
    flags = certify(d)
    assert flags["balanced"] is not None and flags["interlaced"]
    runs.clear()
    gi = generated_ideal(d)
    quotient(d)
    assert runs == [] and gi.degree0_span


def test_kernel_lemma_takes_a_prebuilt_ideal(monkeypatch):
    # given J, the check builds no J of its own, and answers as without it
    d = exl(F5)
    gi = generated_ideal(d)
    built = []

    def counting(dit):
        built.append(dit)
        return generated_ideal(dit)

    monkeypatch.setattr(interlace, "generated_ideal", counting)
    pairs = [(i, j) for i in d.bigraph.point_order for j in d.bigraph.point_order]
    with_gi = [kernel_lemma_dimension_check(d, i, j, length_cap=4, gi=gi) for i, j in pairs]
    assert built == []
    assert with_gi == [kernel_lemma_dimension_check(d, i, j, length_cap=4) for i, j in pairs]
    assert built


def test_ideal_window_span_enumerates_each_window_once(monkeypatch):
    # each window e_j [T]_deg e_i is enumerated once, whatever the
    # generators, splits and word lengths, and generated_ideal shares the
    # windows across its ideal_window_span calls
    d = exl(F5)
    calls = []
    span, basis = interlace.ideal_window_span, interlace.graded_component_basis

    def counting_span(*args, **kwargs):
        calls.append([])
        return span(*args, **kwargs)

    def counting_basis(b, source, target, degree, *args, **kwargs):
        calls[-1].append((source, target, degree))
        return basis(b, source, target, degree, *args, **kwargs)

    monkeypatch.setattr(interlace, "ideal_window_span", counting_span)
    monkeypatch.setattr(interlace, "graded_component_basis", counting_basis)
    gi = generated_ideal(d)
    assert gi.degree0_span and gi.degree1_span
    # 14 enumerations in 32 calls; one per call made 93, and one per word
    # length 1,440
    every = [w for windows in calls for w in windows]
    assert len(every) == len(set(every)) == 14


def test_without_leaves_out_points_their_arrows_and_named_arrows():
    rat = Factor.rational([])
    b = Bigraph(F3, [("1", Factor.trivial()), ("2", rat), ("3", Factor.trivial())],
                solid=[("c", "1", "3"), ("a", "1", "2"), ("l", "2", "2"), ("b", "2", "3")],
                dashed=[("w", "3", "1"), ("u", "1", "3"), ("v", "2", "1")])

    def names(arrows):
        return [a.name for a in arrows]

    sub = b.without(points=["2"], arrows=["w"])
    assert sub.point_order == ["1", "3"] and sub.field is b.field
    assert sub.factor("1") is b.factor("1") and sub.factor("3") is b.factor("3")
    assert names(sub.solid_arrows()) == ["c"] and names(sub.dashed_arrows()) == ["u"]
    arrows_only = b.without(arrows=["a", "v"])
    assert arrows_only.point_order == b.point_order and arrows_only.factor("2") is rat
    assert names(arrows_only.solid_arrows()) == ["c", "l", "b"]
    assert names(arrows_only.dashed_arrows()) == ["w", "u"]
    same = b.without()
    assert same.point_order == b.point_order and same.points == b.points
    assert all(same.factor(p) is b.factor(p) for p in b.point_order)
    assert same.arrows == b.arrows
    assert same.solid_arrows() == b.solid_arrows() and same.dashed_arrows() == b.dashed_arrows()


@pytest.mark.parametrize("F", [PrimeField(2), F3, QQ], ids=["F2", "F3", "Q"])
def test_parabolic_delta_squares_to_zero_and_certifies_roiter(F):
    # P4: delta^2 vanishes on every generator, and every certificate passes
    d = parabolic(F, 4)
    b = d.bigraph
    assert len(b.solid_arrows()) == len(b.dashed_arrows()) == 6
    assert not d.delta.of_arrow("a_14").is_zero()
    for name in b.arrows:
        assert d.delta.square(Elem.arrow(b, name)).is_zero(), name
    flags = certify(d)
    assert all(flags.values()) and flags["roiter"]


def _q_to_p(ideal):
    """Trivial point q, rational point p = k[x], solid a: q -> p, dashed
    v: q -> p, delta(a) = v, over F3."""
    return parse_presentation({
        "field": "F3",
        "points": [{"name": "q", "factor": "trivial"},
                   {"name": "p", "factor": "rational", "inverted": []}],
        "solid_arrows": [{"name": "a", "source": "q", "target": "p"}],
        "dashed_arrows": [{"name": "v", "source": "q", "target": "p"}],
        "differential": {"a": [["1", "v", "1"]]},
        "ideal": ideal})


def test_hom_through_a_quotient_with_a_dashed_kernel():
    # I = <(x-1) e_p>: the W1-supported part of I*V + V*I is nonzero, so
    # the quotient's V-bar rows are built; on modules annihilated by I
    # (x acts as 1 at p) they are zero rows, and the dimensions must agree
    d = _q_to_p([[["(x-1)*e_p"]]])
    assert certify(d)["roiter"]
    qp = quotient(d)
    assert qp.dashed_kernel
    assert all(w.arrows == ("v",) for e in qp.dashed_kernel for w in e.terms)
    F = d.field
    rng = random.Random(5)

    def module():
        dims = {"q": rng.randrange(3), "p": rng.randrange(3)}
        entries = [[F.random(rng) for _ in range(dims["q"])] for _ in range(dims["p"])]
        M = Rep(d, dims, arrow_ops={"a": Mat(F, dims["p"], dims["q"], entries)},
                point_ops={"p": Mat.identity_of(F, dims["p"])})
        assert M.validate() is None
        return M

    for _ in range(40):
        M, N = module(), module()
        assert len(hom_via_quotient(d, M, N, qp=qp)) == hom_dim(d, M, N), (M, N)
