import pytest

from ditalg import interlace
from ditalg.bigraph import Bigraph, BigraphError, Factor
from ditalg.fixtures import ex1, ex2, exa, exi, exk, exl, exl2
from ditalg.interlace import (
    CertificationError, Dit, IdealData, certify, check_balanced,
    check_interlaced, check_triangular_ideal, check_triangular_layer,
    generated_ideal, kernel_lemma_dimension_check, lift_differential,
    pair_height_filtration, quotient,
    reduce_mod_ideal_window,
)
from ditalg.scalars import PrimeField
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
    assert check_triangular_ideal(d)    # via the pair-height construction
    assert d.ideal.filtration           # filtration recorded
    assert check_interlaced(d)


def test_pair_height_filtration_spans_ideal():
    d = exi(F5)
    filt = pair_height_filtration(d)
    assert filt
    top = filt[-1]
    ba = Elem.arrow(d.bigraph, "b") * Elem.arrow(d.bigraph, "a")
    from ditalg.tensor import in_span
    assert in_span(top, ba)


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
    ba = Elem.arrow(b, "b") * Elem.arrow(b, "a")
    assert reduce_mod_ideal_window(d, ba, 0).is_zero()
    a = Elem.arrow(b, "a")
    assert reduce_mod_ideal_window(d, a, 0) == a


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
        for i in b.point_order:
            for j in b.point_order:
                assert kernel_lemma_dimension_check(d, i, j, length_cap=4)


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
    for name in b.arrows:
        sq = d.delta.square(Elem.arrow(b, name))
        deg = (2 if b.arrow(name).dashed else 1) + 1
        assert reduce_mod_ideal_window(d, sq, deg).is_zero()


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
    # with no filtration supplied, the one level {b a} passes since
    # delta(b a) = 0, and fails once delta(b a) = w a is not zero
    d = _loop_then_path(delta_b=False)
    assert not d.bigraph.is_directed()
    certs = certify(d)
    assert certs["triangular_ideal"] and certs["roiter"]
    assert d.ideal.filtration == [d.ideal_components()]
    assert not certify(_loop_then_path(delta_b=True))["triangular_ideal"]


def test_triangular_layer_from_heights():
    d = ex2(F5)
    assert check_triangular_layer(d)
    assert all(d.levels)


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
    assert d.levels[0] == (frozenset({"b", "c"}), frozenset({"a", "b", "c"}))


def test_triangular_layer_rejects_cyclic_dependencies():
    d = _cyclic_bigraph_dit("a")
    assert not check_triangular_layer(d)
    assert not d.certificates["triangular_layer"]
    with pytest.raises(CertificationError):
        d.levels


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
