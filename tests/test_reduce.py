import functools
import itertools

import pytest

from ditalg.admissible import AdmissibleError, build_admissible, reduce_admissible
from ditalg.bigraph import Bigraph, Factor
from ditalg.fixtures import ex1, ex2, exi, exk, exa, exq, exr, exx
from ditalg.interlace import certify
from ditalg.modcat import (
    Rep, compose, decompose, direct_sum, hom, hom_dim, identity_morphism,
    in_hom, iso_test, simple_at, zero_morphism,
)
from ditalg.reduce import (
    ReductionError, absorb, change_solid_basis, compose_functors, delete_idempotents,
    deletion_image_characterization, detach_source, factor_out, is_source_point, regularize,
    structural_equal,
)
from ditalg.presentation import parse_presentation
from ditalg.scalars import Poly, PrimeField
from ditalg.scalars.linalg import Mat

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def all_reps_small(dit, max_dim, F):
    """Brute-force enumeration of all valid reps with per-point dims <= max_dim."""
    b = dit.bigraph
    pts = b.point_order
    out = []
    for dims in itertools.product(range(max_dim + 1), repeat=len(pts)):
        dimmap = dict(zip(pts, dims))
        arrows = [a for a in b.solid_arrows()]
        shapes = [(dimmap[a.target], dimmap[a.source]) for a in arrows]
        entry_counts = [r * c for r, c in shapes]
        total = sum(entry_counts)
        if total > 6:
            continue
        for vals in itertools.product(range(F.char), repeat=total):
            rep = Rep(dit, dict(dimmap))
            off = 0
            for a, (r, c), cnt in zip(arrows, shapes, entry_counts):
                rep.arrow_ops[a.name] = Mat(F, r, c,
                                            [[F.from_int(vals[off + i * c + j])
                                              for j in range(c)] for i in range(r)])
                off += cnt
            if rep.validate() is None:
                out.append(rep)
    return out


def classes_up_to_iso(dit, reps):
    classes = []
    for r in reps:
        if r.is_zero():
            continue
        if not any(iso_test(dit, r, c) for c in classes):
            classes.append(r)
    return classes


# -- deletion -------------------------------------------------------------------

def test_deletion_identity():
    d = ex1(F5)
    certify(d)
    nd, f = delete_idempotents(d, ["1", "2"])
    assert set(nd.bigraph.points) == {"1", "2"}
    s1 = simple_at(nd, "1")
    M = f(s1)
    assert M.dim_vector() == (1, 0)


def test_deletion_kills_point():
    d = ex1(F5)
    certify(d)
    nd, f = delete_idempotents(d, ["1"])
    assert set(nd.bigraph.points) == {"1"}
    assert not nd.bigraph.arrows
    M = f(simple_at(nd, "1"))
    assert M.dims == {"1": 1, "2": 0}
    assert deletion_image_characterization(f, M)
    bad = simple_at(d, "2")
    assert not deletion_image_characterization(f, bad)


def test_deletion_exi_kills_ideal():
    d = exi(F5)
    certify(d)
    nd, f = delete_idempotents(d, ["1", "3"])
    assert not nd.ideal.generators  # b*a dies with point 2
    assert set(a.name for a in nd.bigraph.arrows.values()) == {"u"}


def test_deletion_full_faithful_hom_dims():
    d = exi(F2)
    certify(d)
    nd, f = delete_idempotents(d, ["2", "3"])
    reps = classes_up_to_iso(nd, all_reps_small(nd, 1, F2))
    for N1 in reps:
        for N2 in reps:
            assert hom_dim(nd, N1, N2) == hom_dim(d, f(N1), f(N2))


# -- regularization ----------------------------------------------------------------

def test_regularize_identityish_empty_selection():
    d = ex2(F5)
    certify(d)
    with pytest.raises(Exception):
        regularize(d, ["v"])  # dashed selection rejected


def test_regularize_ex2():
    from ditalg.modcat import is_indecomposable

    d = ex2(F3)
    certify(d)
    nd, f = regularize(d, ["a"])
    assert not nd.bigraph.arrows  # minimal k x k
    # classify both sides at dim <= 2 and compare: indecomposables are S1, S2
    tgt_classes = [r for r in classes_up_to_iso(nd, all_reps_small(nd, 1, F3))
                   if is_indecomposable(nd, r)]
    assert len(tgt_classes) == 2
    src_classes = [r for r in classes_up_to_iso(d, all_reps_small(d, 1, F3))
                   if is_indecomposable(d, r)]
    assert len(src_classes) == 2
    images = [f(r) for r in tgt_classes]
    for img in images:
        assert any(iso_test(d, img, c) for c in src_classes)
    # pairwise distinct images (preserves isoclasses)
    assert not iso_test(d, images[0], images[1])


def test_regularize_guard_without_delta():
    d = ex1(F5)  # delta(a) = 0: not regularizable
    certify(d)
    with pytest.raises(ReductionError):
        regularize(d, ["a"])


def _one_image_dit():
    # a, b: 1 -> 2 solid, v1, v2: 1 -> 2 dashed, delta(a) = delta(b) = v1 + v2
    from ditalg.interlace import Dit, IdealData
    from ditalg.tensor import Differential, Elem, Layer

    b = Bigraph(F3, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "1", "2")],
                dashed=[("v1", "1", "2"), ("v2", "1", "2")])
    layer = Layer(b)
    v = Elem.arrow(b, "v1") + Elem.arrow(b, "v2")
    d = Dit(layer, Differential(layer, {"a": v, "b": v}), IdealData())
    certify(d)
    return d


def test_regularize_rejects_a_cyclic_pivot_system():
    # a takes the pivot v1 and b the pivot v2, but each image holds the other
    # pivot: the dashed base change is not triangular (delta(a) = delta(b), so
    # delta does not embed span(a, b) at all); a alone regularizes and kills
    # delta(b)
    d = _one_image_dit()
    with pytest.raises(ReductionError, match="could not triangularize"):
        regularize(d, ["a", "b"])
    nd, _ = regularize(d, ["a"])
    assert set(nd.bigraph.arrows) == {"b", "v2"}
    assert nd.delta.of_arrow("b").is_zero()


def test_regularize_hom_equality_exr():
    d = exr(F3)
    certify(d)
    nd, f = regularize(d, ["a"])
    reps = classes_up_to_iso(nd, all_reps_small(nd, 1, F3))
    for N1 in reps:
        for N2 in reps:
            assert hom_dim(nd, N1, N2) == hom_dim(d, f(N1), f(N2))


# -- factor out ---------------------------------------------------------------------

def test_factor_out_exq():
    d = exq(F3)
    certify(d)
    nd, f = factor_out(d, ["p"])
    assert not nd.ideal.generators  # W0' generates I: target ideal zero
    assert "p" not in nd.bigraph.arrows
    reps = classes_up_to_iso(nd, all_reps_small(nd, 1, F3))
    for N1 in reps:
        for N2 in reps:
            assert hom_dim(nd, N1, N2) == hom_dim(d, f(N1), f(N2))


def test_factor_out_guard():
    d = exq(F3)
    certify(d)
    with pytest.raises(ReductionError):
        factor_out(d, ["q"])  # q is not inside the ideal


# -- absorption ---------------------------------------------------------------------

def test_absorb_exa():
    d = exa(F5)
    certify(d)
    nd, f = absorb(d, "ell")
    fac = nd.bigraph.factor("1")
    assert not fac.is_trivial and not fac.inverted
    # a target module: point 1 rational with x-action
    N = Rep(nd, {"z0": 1, "1": 2})
    N.point_ops["1"] = Mat(F5, 2, 2, [[1, 1], [0, 1]])
    N.arrow_ops["c"] = Mat(F5, 2, 1, [[1], [0]])
    M = f(N)
    assert M.arrow_ops["ell"] == N.point_ops["1"]
    assert M.validate() is None


def test_absorb_guard_nonzero_delta():
    d = ex2(F5)
    certify(d)
    with pytest.raises(ReductionError):
        absorb(d, "a")  # not a loop


@pytest.mark.parametrize("case, message", [
    ("delta", r"needs delta\(loop\) = 0"), ("rational", "must currently be trivial"),
    ("ideal", "loop occurs in an ideal generator")])
def test_absorb_guards(case, message):
    # absorption refuses a loop with a nonzero differential, a loop at a
    # point that is rational already, and a loop inside an ideal generator
    from ditalg.interlace import Dit, IdealData
    from ditalg.tensor import Differential, Elem, Layer

    fac = Factor.rational([]) if case == "rational" else Factor.trivial()
    b = Bigraph(F3, [("1", fac)], solid=[("ell", "1", "1")], dashed=[("w", "1", "1")])
    layer = Layer(b)
    ell = Elem.arrow(b, "ell")
    d = Dit(layer, Differential(layer, {"ell": Elem.arrow(b, "w")} if case == "delta" else {}),
            IdealData([ell * ell] if case == "ideal" else []))
    with pytest.raises(ReductionError, match=message):
        absorb(d, "ell")


# -- base change of a solid arm ------------------------------------------------------

def _kronecker_arm(coeffs):
    """new arrows u_i = c_i0 a + c_i1 b on the Kronecker arm 1 -> 2."""
    return [(nm, [Poly.const(F3, F3.from_int(c)) for c in row])
            for nm, row in zip(("u", "v"), coeffs)]


def test_change_solid_basis_hom_dims():
    d = exk(F3)
    certify(d)
    nd, f = change_solid_basis(d, "1", "2", _kronecker_arm([(1, 2), (1, 1)]))
    assert f.kind == "basechange"
    assert sorted(a.name for a in nd.bigraph.solid_arrows()) == ["u", "v"]
    reps = classes_up_to_iso(nd, all_reps_small(nd, 1, F3))
    assert len(reps) > 4
    for N in reps:
        # u acts as a + 2b and v as a + b on the source module
        M = f(N)
        assert M.arrow_ops["a"] + M.arrow_ops["b"].scale(F3.from_int(2)) == N.arrow_ops["u"]
        assert M.arrow_ops["a"] + M.arrow_ops["b"] == N.arrow_ops["v"]
    for N1 in reps:
        for N2 in reps:
            assert hom_dim(nd, N1, N2) == hom_dim(d, f(N1), f(N2))


def test_change_solid_basis_rejects_singular_matrix():
    d = exk(F3)
    certify(d)
    with pytest.raises(ReductionError):
        change_solid_basis(d, "1", "2", _kronecker_arm([(1, 1), (2, 2)]))
    # both ends of the arm are trivial points: no decoration can carry an x
    x, zero, one = Poly.x(F3), Poly.zero(F3), Poly.one(F3)
    with pytest.raises(ReductionError, match="constant"):
        change_solid_basis(d, "1", "2", [("u", [x, zero]), ("v", [zero, one])])


# -- admissible reduction ------------------------------------------------------------

def a2_indecomposables(b_dit, F):
    s1 = simple_at(b_dit, "1")
    s2 = simple_at(b_dit, "2")
    p1 = Rep(b_dit, {"1": 1, "2": 1})
    p1.arrow_ops["a"] = Mat(F, 1, 1, [[F.one]])
    return s1, s2, p1


def test_build_admissible_regular_only():
    # B = R, X = sum of simple R-representations: S = R, P = 0
    d = exk(F3)
    certify(d)
    adm = build_admissible(d, [], regular=[("r1", "1", []), ("r2", "2", [])])
    assert adm.c_x == 2
    assert not adm.p_basis


def test_build_admissible_ex1():
    d = ex1(F3)
    certify(d)
    from ditalg.admissible import _sub_bigraph_dit

    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    s1, s2, p1 = a2_indecomposables(b_dit, F3)
    adm = build_admissible(d, ["a"], findim=[("s1", s1), ("s2", s2), ("p1", p1)])
    assert adm.c_x == 4  # dims 1 + 1 + 2
    assert len(adm.p_basis) == 2  # p: P1 -> S1 and q: S2 -> P1
    kinds = sorted((pb.dom.label, pb.cod.label) for pb in adm.p_basis)
    assert kinds == [("p1", "s1"), ("s2", "p1")]


def test_reduce_admissible_ex1_minimal_target():
    d = ex1(F3)
    certify(d)
    from ditalg.admissible import _sub_bigraph_dit

    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    s1, s2, p1 = a2_indecomposables(b_dit, F3)
    adm = build_admissible(d, ["a"], findim=[("s1", s1), ("s2", s2), ("p1", p1)])
    nd, f = reduce_admissible(d, adm)
    assert not nd.bigraph.solid_arrows()   # W0'' = 0: minimal
    assert len(nd.bigraph.dashed_arrows()) == 2
    # images of the three simples are S1, S2, P1
    si = {lbl: simple_at(nd, lbl) for lbl in ("s1", "s2", "p1")}
    img = {lbl: f(r) for lbl, r in si.items()}
    assert img["s1"].dim_vector() == (1, 0)
    assert img["s2"].dim_vector() == (0, 1)
    assert img["p1"].dim_vector() == (1, 1)
    assert not img["p1"].arrow_ops["a"].is_zero()
    # full + faithful: hom dims agree on all pairs
    for l1 in si:
        for l2 in si:
            assert hom_dim(nd, si[l1], si[l2]) == hom_dim(d, img[l1], img[l2]), (l1, l2)


def test_admissible_identities_ex1():
    # acceptance 9 core: delta^X squared transports sigma of delta squared (= 0)
    d = ex1(F3)
    certify(d)
    from ditalg.admissible import _sub_bigraph_dit

    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    s1, s2, p1 = a2_indecomposables(b_dit, F3)
    adm = build_admissible(d, ["a"], findim=[("s1", s1), ("s2", s2), ("p1", p1)])
    nd, f = reduce_admissible(d, adm)
    from ditalg.tensor import Elem

    for name in nd.bigraph.arrows:
        sq = nd.delta.square(Elem.arrow(nd.bigraph, name))
        assert sq.is_zero()  # sigma(delta^2) = 0 here since delta = 0 upstream


def test_admissible_dim_scale():
    d = ex1(F3)
    certify(d)
    from ditalg.admissible import _sub_bigraph_dit

    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    s1, s2, p1 = a2_indecomposables(b_dit, F3)
    adm = build_admissible(d, ["a"], findim=[("s1", s1), ("s2", s2), ("p1", p1)])
    nd, f = reduce_admissible(d, adm)
    import random

    rng = random.Random(0)
    for _ in range(20):
        dims = {p: rng.randrange(0, 3) for p in nd.bigraph.point_order}
        N = Rep(nd, dims)
        M = f(N)
        assert M.total_dim() <= adm.c_x * N.total_dim()


# -- detachment ------------------------------------------------------------------------

def test_detach_ex1():
    d = ex1(F5)
    certify(d)
    assert is_source_point(d, "1")
    nd, res = detach_source(d, "1")
    assert not nd.bigraph.arrows  # ke1 x (point-2 dit)
    assert "1" in nd.bigraph.points
    assert structural_equal(delete_idempotents(d, ["2"])[0], delete_idempotents(nd, ["2"])[0])


def test_detach_guard_incoming():
    d = ex1(F5)
    certify(d)
    assert not is_source_point(d, "2")
    with pytest.raises(ReductionError):
        detach_source(d, "2")


def test_detach_res_restriction():
    d = exi(F5)
    certify(d)
    nd, res = detach_source(d, "1")
    M = Rep(d, {"1": 1, "2": 1, "3": 1})
    M.arrow_ops["a"] = Mat(F5, 1, 1, [[1]])
    M.arrow_ops["b"] = Mat(F5, 1, 1, [[0]])
    R = res(M)
    assert R.dims == {"1": 1, "2": 1, "3": 1}
    assert R.arrow_ops["b"] == M.arrow_ops["b"]
    assert "a" not in R.arrow_ops


def test_compose_functors_rejects_a_detachment():
    # Res maps Mod(source) to Mod(target), the opposite of every other step,
    # so a composite would feed it a module of the wrong ditalgebra
    d = exi(F5)
    certify(d)
    nd, res = detach_source(d, "1")
    _, deletion = delete_idempotents(nd, ["2", "3"])
    for steps, index in (([res, deletion], 0), ([deletion, res], 1)):
        with pytest.raises(ReductionError, match=f"cannot compose detachment step {index}"):
            compose_functors(steps)
    assert compose_functors([deletion]) is deletion


def test_induced_reduction_ex2_regularization_quotient():
    # killing a and v by hand reproduces the regularization quotient, and the
    # functor is observably full (hom dimensions agree on small pairs)
    from ditalg.bigraph import Bigraph, Factor
    from ditalg.reduce import induced_reduction
    from ditalg.tensor import Elem

    d = ex2(F3)
    certify(d)
    tgt = Bigraph(F3, [("1", Factor.trivial()), ("2", Factor.trivial())])
    images = {"a": Elem.zero(tgt), "v": Elem.zero(tgt)}
    nd, f = induced_reduction(d, tgt, images, name="EX2-quot")
    assert not nd.bigraph.arrows
    via_reg, freg = regularize(d, ["a"])

    assert structural_equal(nd, via_reg)
    for N1 in classes_up_to_iso(nd, all_reps_small(nd, 1, F3)):
        for N2 in classes_up_to_iso(nd, all_reps_small(nd, 1, F3)):
            assert hom_dim(nd, N1, N2) == hom_dim(d, f(N1), f(N2))


def test_induced_reduction_identity():
    from ditalg.reduce import induced_reduction
    from ditalg.tensor import Elem

    d = ex2(F3)
    certify(d)
    nd, f = induced_reduction(d, d.bigraph, {})
    from ditalg.reduce import structural_equal

    assert structural_equal(nd, d)
    s1 = simple_at(nd, "1")
    assert f(s1).dim_vector() == (1, 0)


def _two_solid_arrows_dit():
    # a, b: 1 -> 2 solid with delta(a) = v and delta(b) = 0
    from ditalg.bigraph import Bigraph, Factor
    from ditalg.tensor import Differential, Elem, Layer
    from ditalg.interlace import Dit, IdealData

    b = Bigraph(F3, [("1", Factor.trivial()), ("2", Factor.trivial())],
                solid=[("a", "1", "2"), ("b", "1", "2")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {"a": Elem.arrow(b, "v")}), IdealData())
    certify(d)
    return d


def test_induced_reduction_rejects_broken_square():
    # b goes to the fixed letter a, but delta(b) = 0 while delta'(a) = v
    from ditalg.bigraph import Bigraph, Factor
    from ditalg.reduce import induced_reduction, ReductionError
    from ditalg.tensor import Elem

    d = _two_solid_arrows_dit()
    tgt = Bigraph(F3, [("1", Factor.trivial()), ("2", Factor.trivial())],
                  solid=[("a", "1", "2")], dashed=[("v", "1", "2")])
    with pytest.raises(ReductionError, match="commuting square fails at generator b"):
        induced_reduction(d, tgt, {"b": Elem.arrow(tgt, "a")})


def test_induced_reduction_checks_a_changed_letter_the_target_keeps():
    # b stays a target arrow but is sent to a + b, so it is no fixed letter:
    # delta(b) = 0 while delta'(a + b) = v
    from ditalg.reduce import induced_reduction, ReductionError
    from ditalg.tensor import Elem

    d = _two_solid_arrows_dit()
    tgt = d.bigraph
    with pytest.raises(ReductionError, match="commuting square fails at generator b"):
        induced_reduction(d, tgt, {"b": Elem.arrow(tgt, "a") + Elem.arrow(tgt, "b")})


def test_induced_reduction_rejects_an_unlifted_new_arrow():
    # c is neither a source generator nor lifted: delta'(c) is undefined
    from ditalg.bigraph import Bigraph, Factor
    from ditalg.reduce import induced_reduction, ReductionError

    d = _two_solid_arrows_dit()
    tgt = Bigraph(F3, [("1", Factor.trivial()), ("2", Factor.trivial())],
                  solid=[("a", "1", "2"), ("c", "1", "2")], dashed=[("v", "1", "2")])
    with pytest.raises(ReductionError, match="target arrow c is neither lifted"):
        induced_reduction(d, tgt, {})


def test_generic_module_through_a_deletion():
    # F = deletion: Z = F(Gamma) is Gamma placed at the surviving points, with
    # specializations matching the functor applied to Jordan blocks
    from ditalg.bigraph import Bigraph, Factor
    from ditalg.bimodule import generic_regular, specialize_jordan
    from ditalg.tensor import Differential, Layer
    from ditalg.interlace import Dit, IdealData
    from ditalg.scalars import Poly
    from ditalg.modcat import jordan_at, iso_test

    F = F3
    b = Bigraph(F, [("t", Factor.trivial()), ("g", Factor.rational([Poly.from_ints(F, [0, 1])]))])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData(), name="mini")
    certify(d)
    nd, f = delete_idempotents(d, ["g"])
    Z = f.apply_rep(generic_regular(nd, "g"))
    assert Z.total_dim() == 1
    for lam in (1, 2):
        spec = specialize_jordan(Z, F.from_int(lam))
        via = f(jordan_at(nd, "g", F.from_int(lam), 1))
        assert spec.dim_vector() == via.dim_vector()
        assert iso_test(d, spec, via)


def test_specialize_jordan_inverts_denominators():
    # an entry 1/x goes to J^-1 at the Jordan block J = J_2(1)
    from ditalg.bimodule import specialize_jordan
    from ditalg.tensor import Differential, Layer
    from ditalg.interlace import Dit, IdealData
    from ditalg.modcat import Rep
    from ditalg.scalars import LocalizedRing, LocElt, Poly

    F = F3
    x = Poly.x(F)
    b = Bigraph(F, [("t", Factor.trivial()), ("g", Factor.rational([x]))],
                solid=[("a", "t", "g")])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData(), name="arm")
    gamma = LocalizedRing(F, [x])
    Z = Rep(d, {"t": 1, "g": 1},
            arrow_ops={"a": Mat(gamma, 1, 1, [[LocElt(gamma, Poly.one(F), 1)]])},
            point_ops={"g": Mat(gamma, 1, 1, [[LocElt(gamma, x, 0)]])}, ring=gamma)
    S = specialize_jordan(Z, F.one, 2)
    J = Mat(F, 2, 2, [[F.one, F.one], [F.zero, F.one]])
    assert S.dims == {"t": 2, "g": 2}
    assert S.point_ops["g"] == J
    assert S.arrow_ops["a"] == J.inverse()


def test_decompose_repeated_summand():
    d = ex1(F2)
    certify(d)
    from ditalg.modcat import direct_sum, simple_at as sat

    p1 = Rep(d, {"1": 1, "2": 1})
    p1.arrow_ops["a"] = Mat(F2, 1, 1, [[F2.one]])
    M = direct_sum([p1, sat(d, "1"), p1])
    parts1 = sorted(p.dim_vector() for p in decompose(d, M))
    parts2 = sorted(p.dim_vector() for p in decompose(d, M))
    assert parts1 == parts2 == [(1, 0), (1, 1), (1, 1)]


def test_regular_only_admissible_is_identity_like():
    # B = R with X = the regular representation: the reduced presentation is
    # the original one up to point relabeling, and the functor is identity-like
    d = exk(F3)
    certify(d)
    adm = build_admissible(d, [], regular=[("1", "1", ()), ("2", "2", ())])
    nd, f = reduce_admissible(d, adm)
    assert set(nd.bigraph.points) == {"1", "2"}
    assert len(nd.bigraph.solid_arrows()) == 2
    for n in (simple_at(nd, "1"), simple_at(nd, "2")):
        img = f(n)
        assert img.total_dim() == n.total_dim()
    N = Rep(nd, {"1": 1, "2": 1})
    N.arrow_ops[nd.bigraph.solid_arrows()[0].name] = Mat(F3, 1, 1, [[F3.one]])
    img = f(N)
    assert img.dim_vector() == (1, 1)


def exi_step_summands(F):
    """exi over F with B = <b> and X = S2 + S3 + P(b) + the regular factor
    at 1: the admissible step of the ideal-filtration tests."""
    from ditalg.admissible import _sub_bigraph_dit

    d = exi(F)
    certify(d)
    b_dit = _sub_bigraph_dit(d, ["b"])
    certify(b_dit)
    pb = Rep(b_dit, {"1": 0, "2": 1, "3": 1})
    pb.arrow_ops["b"] = Mat(F, 1, 1, [[F.one]])
    return d, [("s2", simple_at(b_dit, "2")), ("s3", simple_at(b_dit, "3")), ("pb", pb)]


def exi_step_spec(F):
    from ditalg.reduce import StepSpec, rep_spec

    d, findim = exi_step_summands(F)
    return d, StepSpec("admissible", {
        "b_arrows": ["b"], "findim": [(lbl, rep_spec(r)) for lbl, r in findim],
        "regular": [("1", "1", ())], "check": False})


def test_admissible_ideal_filtration_certifies():
    # the reduced ideal a[pb.2.0;1] is killed by the reduced delta, so its
    # derived filtration has one level and the triangularity check passes
    from ditalg.interlace import check_triangular_ideal, ideal_levels

    d, spec = exi_step_spec(F2)
    nd, f = spec.apply(d)
    assert nd.ideal.generators
    levels, left = ideal_levels(nd)
    assert [[str(e) for e in level] for level in levels] == [["a[pb.2.0;1]"]]
    assert not left
    assert check_triangular_ideal(nd)


def test_admissible_step_hosts_its_summands_once(monkeypatch):
    # every findim summand of a replayed admissible step is hosted on the one
    # B presentation that build_admissible makes
    import ditalg.admissible as admissible

    d, spec = exi_step_spec(F2)
    calls = []
    real = admissible._sub_bigraph_dit
    monkeypatch.setattr(admissible, "_sub_bigraph_dit",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    spec.apply(d)
    assert len(calls) == 1


def test_admissible_radical_must_act_nilpotently():
    # P = rad End(X) passes; an x-action of P with x . p = x does not
    from ditalg.admissible import _check_nilpotent, _sub_bigraph_dit

    d = ex1(F3)
    certify(d)
    b_dit = _sub_bigraph_dit(d, ["a"])
    s1, s2, p1 = a2_indecomposables(b_dit, F3)
    adm = build_admissible(d, ["a"], findim=[("s1", s1), ("s2", s2), ("p1", p1)])
    assert adm.p_basis
    n_x = len(adm.x_basis)
    adm.x_p_action[0][0] = [F3.one if i == 0 else F3.zero for i in range(n_x)]
    with pytest.raises(AdmissibleError, match="not nilpotent"):
        _check_nilpotent(adm)


# -- the incremental pushforward ----------------------------------------------------

def _count_products(monkeypatch):
    """A counter of Elem.__mul__ calls from here on."""
    from ditalg.tensor import Elem

    calls = [0]
    mul = Elem.__mul__

    def counting_mul(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Elem, "__mul__", counting_mul)
    return calls


def _deletion_step(steps):
    """An explicit deletion step, as a plan step: the target with the most
    points among `steps` loses its heaviest point (the first on a tie).  A
    plan at d >= 1 takes no deletion step of its own, since no step builds a
    point beyond the bound."""
    from ditalg.pipeline import PlanStep
    from ditalg.reduce import StepSpec

    src = max((s.functor.target for s in steps), key=lambda t: len(t.bigraph.point_order))
    heavy = max(src.bigraph.point_order, key=lambda p: src.point_weights[p])
    spec = StepSpec("deletion", {"kept": [p for p in src.bigraph.point_order if p != heavy]})
    _, functor = spec.apply(src)
    return PlanStep(spec, functor, f"delete {heavy}")


def _full_map(phi):
    """phi with no letter renamed and no decoration passing: every letter
    of every word multiplied out through its image."""
    from ditalg.reduce import LetterMap

    return LetterMap(phi.src, phi.target, phi.vectors, phi.labels, phi.letter, phi.decoration,
                     {}, frozenset())


def _recording_pushforward(monkeypatch):
    """(dit, tgt, changed, lifts, phi) of each `_pushforward` call from here on."""
    from ditalg import reduce

    calls = []
    real = reduce._pushforward

    def recording(dit, phi, changed, name, lifts=None):
        new_dit = real(dit, phi, changed, name, lifts)
        calls.append((dit, phi.target, changed, lifts or {}, phi))
        return new_dit

    monkeypatch.setattr(reduce, "_pushforward", recording)
    return calls


def test_verbatim_copy_equals_the_full_push(monkeypatch):
    # on every pushforward of these plans (and of stellar_case2's steps before
    # its obstruction), renaming the all-fixed words to themselves gives the
    # same terms in the same order as multiplying every word out through phi;
    # between them the plans reach every kind of step that goes through the
    # pushforward
    from ditalg.fixtures import exl, stellar_case1, stellar_case2
    from ditalg.pipeline import Obstruction, reduce_to_minimal
    from ditalg.scalars import QQ

    calls = _recording_pushforward(monkeypatch)
    steps = []
    for dit, d in ((exk(QQ), 6), (exk(F3), 4), (exl(F2), 4), (stellar_case1(F3), 3),
                   (stellar_case2(F3), 2)):
        result = reduce_to_minimal(dit, d)
        steps += result.steps if isinstance(result, Obstruction) else result[0].steps
    steps.append(_deletion_step(steps))
    kinds = {s.functor.kind for s in steps}
    assert {"deletion", "regularization", "factor_out", "absorption", "basechange"} <= kinds
    copied = 0
    for dit, tgt, changed, lifts, phi in calls:
        full = _full_map(phi)
        copied += len(phi.renaming)
        for e in [*dit.delta.values.values(), *dit.ideal.generators]:
            assert list(phi.push(e)[0].terms.items()) == list(full.push(e)[0].terms.items())
    assert copied


def _reference_push(src, tgt, images, elem):
    """phi(elem) word by word, multiplying by the image of every letter and
    by every decoration, the unit ones too, with no fixed letters."""
    from ditalg.tensor import UNIT, Elem, Word

    F = tgt.field
    out = Elem.zero(tgt)
    for w, c in elem.terms.items():
        pts = w.path(src)
        if pts[0] not in tgt.points or (tgt.factor(pts[0]).is_trivial
                                        and w.coeffs[0] != UNIT):
            continue
        cur = Elem(tgt, {Word(pts[0], (), (w.coeffs[0],)): F.one})
        for i, name in enumerate(w.arrows):
            img = images.get(name)
            if img is None or img.is_zero() or pts[i + 1] not in tgt.points:
                break
            cur = Elem(tgt, {Word(pts[i + 1], (), (w.coeffs[i + 1],)): F.one}) * (img * cur)
        else:
            out = out + cur.scale(c)
    return out


def test_push_equals_the_reference_that_multiplies_every_decoration(monkeypatch):
    # on every pushforward of these plans, phi (which does not multiply by a
    # unit decoration after a letter), with and without its renamed letters,
    # gives the terms, in order, of the push that multiplies by every
    # decoration; stellar_case1 pushes words with a decoration after a
    # letter that is not fixed
    from ditalg import reduce
    from ditalg.fixtures import stellar_case1
    from ditalg.pipeline import reduce_to_minimal
    from ditalg.scalars import QQ
    from ditalg.tensor import UNIT

    calls = _recording_pushforward(monkeypatch)
    for dit, d in ((exk(QQ), 6), (exk(F3), 4), (stellar_case1(F3), 3)):
        reduce_to_minimal(dit, d)
    decorated = pushed = 0
    for dit, tgt, changed, lifts, phi in calls:
        b = dit.bigraph
        images = {s: reduce._image(tgt, changed, s) for s in b.arrows}
        full = _full_map(phi)
        for e in [*dit.delta.values.values(), *dit.ideal.generators,
                  *(dit.delta.apply(v) for v in lifts.values())]:
            want = list(_reference_push(b, tgt, images, e).terms.items())
            assert list(full.push(e)[0].terms.items()) == want
            assert list(phi.push(e)[0].terms.items()) == want
            decorated += sum(k != UNIT for w in e.terms
                             for a, k in zip(w.arrows, w.coeffs[1:]) if a not in phi.renaming)
            pushed += 1
    assert pushed and decorated


def test_a_fixed_letter_after_a_multiplied_prefix_keeps_its_decoration():
    # x b x a with a changed and b fixed between unchanged rational points:
    # b and the x after it are appended to each word of phi(x a), which is
    # the push that multiplies every letter and decoration
    from ditalg import reduce
    from ditalg.tensor import UNIT, Elem, Word

    pts = [("1", Factor.trivial()), ("2", Factor.rational([])), ("3", Factor.rational([]))]
    b = Bigraph(F3, pts, solid=[("a", "1", "2"), ("b", "2", "3")])
    changed = {"a": Elem.arrow(b, "a", F3.from_int(2))}
    phi = reduce._point_map(b, b, changed, {})
    assert list(phi.renaming) == ["b"]
    e = Elem.from_word(b, Word("1", ("a", "b"), (UNIT, (1, 0), (1, 0))))
    want = _reference_push(b, b, {s: reduce._image(b, changed, s) for s in b.arrows}, e)
    assert want == e.scale(F3.from_int(2))
    assert list(phi.push(e)[0].terms.items()) == list(want.terms.items())


def _plan_steps():
    """The steps of the exk Q/6, exk F3/4, exl F2/4 and stellar_case1 F3/3
    plans, and those of stellar_case2 F3/2 before its obstruction, which
    include base changes, followed by one `_deletion_step`."""
    from ditalg.fixtures import exl, stellar_case1, stellar_case2
    from ditalg.pipeline import Obstruction, reduce_to_minimal
    from ditalg.scalars import QQ

    out = []
    for dit, d in ((exk(QQ), 6), (exk(F3), 4), (exl(F2), 4), (stellar_case1(F3), 3),
                   (stellar_case2(F3), 2)):
        result = reduce_to_minimal(dit, d)
        out += result.steps if isinstance(result, Obstruction) else result[0].steps
    return out + [_deletion_step(out)]


def _zero_then_overwrite(dit, N, arrow_ops, point_ops, dims=None):
    """The source-side module built the way the step functors once built it:
    every matrix zero first, then overwritten by the given ones."""
    M = Rep(dit, dict(N.dims) if dims is None else dims, ring=N.ring)
    M.arrow_ops.update(arrow_ops)
    M.point_ops.update(point_ops)
    return M


def _full_induced(dit, tgt, changed, N):
    """phi^* N with every image sent through `elem_action`, zero or not."""
    b = dit.bigraph
    dims = {p: N.dims[p] if p in tgt.points else 0 for p in b.point_order}
    arrow_ops = {}
    for a in b.solid_arrows():
        if a.name in changed:
            arrow_ops[a.name] = N.elem_action(changed[a.name], a.source, a.target)
        elif a.name in tgt.arrows:
            arrow_ops[a.name] = N.arrow_ops[a.name]
    point_ops = {p: N.point_ops[p] for p in b.point_order
                 if p in tgt.points and not b.factor(p).is_trivial}
    return _zero_then_overwrite(dit, N, arrow_ops, point_ops, dims)


def _full_absorption(dit, loop, N):
    """N's matrices reinterpreted, the loop's as the x-action at its point."""
    b = dit.bigraph
    point = b.arrow(loop).source
    return _zero_then_overwrite(
        dit, N, {a.name: N.point_ops[point] if a.name == loop else N.arrow_ops[a.name]
                 for a in b.solid_arrows()},
        {p: N.point_ops[p] for p in b.point_order if not b.factor(p).is_trivial})


def _full_admissible(dit, adm, tgt, N):
    """F^X(N) with every sigma entry of every letter sent through
    `elem_action`, whatever N's dimensions at its row and column blocks."""
    from ditalg.admissible import sigma_map

    b = dit.bigraph
    x_at = {p: [x for x in adm.x_basis if x.point == p] for p in b.point_order}
    names = {(a.name, u.index, v.index): f"{a.name}[{u.label};{v.label}]"
             for a in b.arrows.values() if a.name not in adm.b_arrows
             for v in x_at[a.source] for u in x_at[a.target]}
    sigma = sigma_map(adm, tgt, names, x_at)
    offs = {p: list(itertools.accumulate([0] + [N.dims[x.summand.label] for x in x_at[p]]))
            for p in b.point_order}

    def full(mat, src, dst):
        out = Mat(N.ring, offs[dst][-1], offs[src][-1])
        for ri, u in enumerate(x_at[dst]):
            for ci, v in enumerate(x_at[src]):
                e = mat.get(u.index, {}).get(v.index)
                if e is not None:
                    blk = N.elem_action(e, v.summand.label, u.summand.label)
                    for i, row in enumerate(blk.data):
                        out.data[offs[dst][ri] + i][offs[src][ci]:offs[src][ci + 1]] = row
        return out

    return _zero_then_overwrite(
        dit, N, {a.name: full(sigma.letter(a.name), a.source, a.target)
                 for a in b.solid_arrows()},
        {p: full(sigma.decoration(p, (1, 0)), p, p)
         for p in b.point_order if not b.factor(p).is_trivial},
        {p: offs[p][-1] for p in b.point_order})


def _step_inputs(tgt):
    """The simple at each trivial point and the generic module at each
    rational point of `tgt`, and one module that is zero-dimensional at the
    first point and one-dimensional at every other, with every arrow matrix
    [1] and x acting by a scalar at which no inverted polynomial vanishes
    (dimension zero at a rational point with no such scalar).  `apply_rep`
    never checks the ideal, so this last module need not be valid."""
    from ditalg.bimodule import generic_regular

    b, F = tgt.bigraph, tgt.field
    out = [simple_at(tgt, p) if b.factor(p).is_trivial else generic_regular(tgt, p)
           for p in b.point_order]
    dims, point_ops = {}, {}
    for p in b.point_order[1:]:
        inverted = b.factor(p).inverted
        if inverted is None:
            dims[p] = 1
            continue
        lam = next((c for c in map(F.from_int, range(8))
                    if all(h.eval(c) for h in inverted)), None)
        if lam is not None:
            dims[p] = 1
            point_ops[p] = Mat(F, 1, 1, [[lam]])
    ones = {a.name: Mat(F, dims.get(a.target, 0), dims.get(a.source, 0),
                        [[F.one]] if dims.get(a.target) and dims.get(a.source) else None)
            for a in b.solid_arrows()}
    out.append(Rep(tgt, dims, ones, point_ops))
    return out


def test_step_functors_equal_the_full_assembly(monkeypatch):
    # each step functor builds its matrices once, and F^X acts only at the
    # sigma entries whose row and column blocks N occupies; on every step of
    # these plans the images equal those of the full zero-then-overwrite
    # assembly, which sends every sigma entry and every image through
    # elem_action, with the same matrices under the same keys in the same order
    from ditalg import admissible, reduce

    # the full assembly of each step, keyed by the step's target presentation
    made = {}
    real_push, real_admissible = reduce._pushforward, admissible.reduce_admissible

    def pushforward(dit, phi, changed, name, lifts=None):
        new_dit = real_push(dit, phi, changed, name, lifts)
        made[id(new_dit)] = new_dit, lambda N: _full_induced(dit, phi.target, changed, N)
        return new_dit

    def reduce_adm(dit, adm, name=""):
        new_dit, functor = real_admissible(dit, adm, name)
        made[id(new_dit)] = new_dit, lambda N: _full_admissible(
            dit, adm, new_dit.bigraph, N)
        return new_dit, functor

    monkeypatch.setattr(reduce, "_pushforward", pushforward)
    monkeypatch.setattr(admissible, "reduce_admissible", reduce_adm)
    steps = _plan_steps()
    calls = {True: 0, False: 0}    # elem_action calls by the functors, by the reference
    side = [True]
    real_action = Rep.elem_action

    def counting(self, *args):
        calls[side[0]] += 1
        return real_action(self, *args)

    monkeypatch.setattr(Rep, "elem_action", counting)
    kinds = set()
    for step in steps:
        f = step.functor
        if f.kind == "absorption":
            full = functools.partial(_full_absorption, f.source, step.spec.data["loop"])
        else:
            assert made[id(f.target)][0] is f.target
            full = made[id(f.target)][1]
        kinds.add(f.kind)
        for N in _step_inputs(f.target):
            side[0] = True
            M = f.apply_rep(N)
            side[0] = False
            R = full(N)
            assert M.dims == R.dims
            assert list(M.arrow_ops.items()) == list(R.arrow_ops.items())
            assert list(M.point_ops.items()) == list(R.point_ops.items())
    assert {"deletion", "regularization", "factor_out", "absorption", "admissible",
            "basechange"} <= kinds
    assert 0 < calls[True] < calls[False]   # the functors skip empty blocks


def test_copied_delta_values_are_the_pushed_values(monkeypatch):
    # a pushforward copies a delta value whole, with no validation, when the
    # target arrow keeps its name, endpoints and kind and phi renames every
    # word of the value; on every pushforward of these plans such a value is
    # the value multiplied out through phi, and validating every value anew
    # accepts them all and gives the same values
    from ditalg import reduce
    from ditalg.tensor import Differential, Layer

    calls = []
    real_push, real_diff = reduce._pushforward, reduce.Differential

    def recording_diff(layer, values, _copied=frozenset()):
        calls[-1].append(frozenset(_copied))
        return real_diff(layer, values, _copied=_copied)

    def recording_push(dit, phi, changed, name, lifts=None):
        calls.append([dit, phi.target, lifts or {}])
        out = real_push(dit, phi, changed, name, lifts)
        calls[-1].extend((out, phi))
        return out

    monkeypatch.setattr(reduce, "Differential", recording_diff)
    monkeypatch.setattr(reduce, "_pushforward", recording_push)
    _plan_steps()
    copied_total = checked_total = 0
    for dit, tgt, lifts, copied, new_dit, phi in calls:
        b = dit.bigraph
        full = _full_map(phi)
        for t in copied:
            assert t not in lifts and b.arrows[t] == tgt.arrows[t]
            pushed = full.push(dit.delta.of_arrow(t))[0]
            assert list(new_dit.delta.of_arrow(t).terms.items()) == list(pushed.terms.items())
        full = Differential(Layer(tgt), new_dit.delta.values)
        assert full.values == new_dit.delta.values
        copied_total += len(copied)
        checked_total += len(tgt.arrows) - len(copied)
    assert copied_total and checked_total


@pytest.mark.parametrize("moved, message", [
    (("a", "1", "3", False), "bimodule constraint"),
    (("a", "1", "2", True), "homogeneous"),
])
def test_a_moved_arrow_keeps_its_delta_validated(monkeypatch, moved, message):
    # the target arrow a keeps its name but changes an endpoint or its kind,
    # while delta(a) = v uses only the fixed letter v: the value is not
    # copied, and validating its push rejects it
    from ditalg import reduce
    from ditalg.interlace import Dit, IdealData
    from ditalg.tensor import Differential, Elem, Layer

    pts = [(p, Factor.trivial()) for p in ("1", "2", "3")]
    b = Bigraph(F3, pts, solid=[("a", "1", "2")], dashed=[("v", "1", "2")])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {"a": Elem.arrow(b, "v")}), IdealData())
    name, s, t, dashed = moved
    tgt = Bigraph(F3, pts, solid=[] if dashed else [(name, s, t)],
                  dashed=[("v", "1", "2")] + ([(name, s, t)] if dashed else []))
    copied = []
    real = reduce.Differential

    def recording(layer, values, _copied=frozenset()):
        copied.append(set(_copied))
        return real(layer, values, _copied=_copied)

    monkeypatch.setattr(reduce, "Differential", recording)
    with pytest.raises(ValueError, match=message):
        reduce._pushforward(d, reduce._point_map(b, tgt, {}, {}), {}, "moved")
    assert copied == [{"v"}]


def test_an_image_off_its_generators_endpoints_is_rejected():
    # a keeps its name but moves to 1 -> 3 with delta(a) = 0, so its value
    # validates; phi(a) no longer ends where a does, and the push is refused
    from ditalg import reduce
    from ditalg.interlace import Dit, IdealData
    from ditalg.tensor import Differential, Elem, Layer

    pts = [(p, Factor.trivial()) for p in ("1", "2", "3")]
    b = Bigraph(F3, pts, solid=[("a", "1", "2")])
    layer = Layer(b)
    d = Dit(layer, Differential(layer, {}), IdealData())
    tgt = Bigraph(F3, pts, solid=[("a", "1", "3")])
    with pytest.raises(ReductionError, match="image of a does not run from 1 to 2"):
        reduce._pushforward(d, reduce._point_map(b, tgt, {}, {}), {}, "moved")


def test_absorb_copies_no_word_through_the_absorbed_point(monkeypatch):
    # the absorbed point changes its factor, so the letter c into it is not
    # fixed, and a word through it is multiplied out through phi
    from ditalg import reduce
    from ditalg.tensor import UNIT, Elem, Word

    maps = []
    point_map = reduce._point_map
    monkeypatch.setattr(reduce, "_point_map", lambda *a: maps.append(point_map(*a)) or maps[-1])
    d = exa(F5)
    certify(d)
    nd, _ = absorb(d, "ell")
    [phi] = maps
    assert phi.passing == {"z0"} and not phi.renaming
    products = _count_products(monkeypatch)
    b, tgt = d.bigraph, nd.bigraph
    assert phi.push(Elem.arrow(b, "c"))[0] == Elem.arrow(tgt, "c")
    assert products[0] == 0
    # ell c goes to x c, the image of ell times that of c
    assert phi.push(Elem.arrow(b, "ell") * Elem.arrow(b, "c"))[0] \
        == Elem.from_word(tgt, Word("z0", ("c",), (UNIT, (1, 0))))
    assert products[0] > 1


def test_deletion_keeping_every_point_multiplies_nothing(monkeypatch):
    d = exi(F3)
    certify(d)
    assert d.ideal.generators
    products = _count_products(monkeypatch)
    nd, _ = delete_idempotents(d, d.bigraph.point_order)
    assert products[0] == 0
    assert all(nd.delta.of_arrow(a).terms == d.delta.of_arrow(a).terms
               for a in d.bigraph.arrows)
    assert [g.terms for g in nd.ideal.generators] == [g.terms for g in d.ideal.generators]



def _presentation(dit):
    """Every delta value and ideal generator of dit, term for term."""
    return ([(n, list(v.terms.items())) for n, v in dit.delta.values.items()],
            [list(g.terms.items()) for g in dit.ideal.generators])


def test_deletion_and_regularization_leave_their_source_unchanged(monkeypatch):
    # the regularizations of the exk Q/6 plan and a deletion after it,
    # replayed on their source presentations, change no delta value or
    # ideal generator of any presentation of the plan; a value that a step
    # copies is the source value's terms dictionary itself, shared
    from ditalg import reduce
    from ditalg.pipeline import reduce_to_minimal
    from ditalg.scalars import QQ

    steps = reduce_to_minimal(exk(QQ), 6)[0].steps
    steps.append(_deletion_step(steps))
    dits = list({id(d): d for s in steps for d in (s.functor.source, s.functor.target)}.values())
    before = [_presentation(d) for d in dits]
    copied = []
    real = reduce.Differential

    def recording(layer, values, _copied=frozenset()):
        copied.append(set(_copied))
        return real(layer, values, _copied=_copied)

    monkeypatch.setattr(reduce, "Differential", recording)
    replayed, shared = set(), 0
    for step in steps:
        if step.spec.kind in ("deletion", "regularization"):
            src = step.functor.source
            new_dit, _ = step.spec.apply(src)
            for t in copied[-1]:
                assert new_dit.delta.of_arrow(t).terms is src.delta.of_arrow(t).terms
            replayed.add(step.spec.kind)
            shared += len(copied[-1])
    assert [_presentation(d) for d in dits] == before
    assert replayed == {"deletion", "regularization"} and shared


def test_each_word_is_tested_once_and_each_step_builds_one_point_map(monkeypatch):
    # classify(exk, Q, 6) tested words for renaming 22,174 times, up to three
    # times per word in a pushforward, and built 72 point maps: two for each
    # of its 35 regularizations, one for its absorption and one for the
    # deletion that lifts its plan over the source point; a push tests each
    # word once, and regularize hands the map it solved with to the
    # pushforward
    from ditalg import reduce
    from ditalg.pipeline import classify
    from ditalg.scalars import QQ

    calls = {"_renames": 0, "_point_map": 0}
    renames, point_map = reduce.LetterMap._renames, reduce._point_map

    def counting_renames(self, w):
        calls["_renames"] += 1
        return renames(self, w)

    def counting_point_map(*args):
        calls["_point_map"] += 1
        return point_map(*args)

    monkeypatch.setattr(reduce.LetterMap, "_renames", counting_renames)
    monkeypatch.setattr(reduce, "_point_map", counting_point_map)
    classify(exk(QQ), 6)
    assert calls == {"_renames": 16953, "_point_map": 37}

def _old_radical_blocks(b_dit, summands):
    """The radical of End(Z), Z the direct sum of the summands, by
    `algebra_radical` on Z's own End algebra, as coordinate vectors of that
    algebra; and each radical element's (dom, cod) block, embedded back in Z."""
    from ditalg.modcat import EndAlgebra, algebra_radical

    F, pts = b_dit.field, b_dit.bigraph.point_order
    Z = direct_sum([s.rep for s in summands])
    E = EndAlgebra(b_dit, Z)
    offs = {p: list(itertools.accumulate([0] + [s.rep.dims[p] for s in summands]))
            for p in pts}

    def embed(f, si, sj):
        out = zero_morphism(Z, Z)
        for p in pts:
            for r, row in enumerate(f.f0[p].data):
                for c, v in enumerate(row):
                    out.f0[p].data[offs[p][sj] + r][offs[p][si] + c] = v
        return out

    def block(f, si, sj):
        return {p: f.f0[p].submatrix(offs[p][sj], offs[p][sj + 1],
                                     offs[p][si], offs[p][si + 1]) for p in pts}

    return E, algebra_radical(F, E.table, E.dim), embed, block


def test_radical_blocks_equal_the_radical_of_the_direct_sum(monkeypatch):
    # P is built one (dom, cod) block at a time from Hom spaces and the
    # radicals of the summands' own End algebras; on every admissible step
    # of these plans (stellar_case1's has torsion steps) it spans the
    # radical of End of the direct sum, with the same dimension per block
    from ditalg import admissible
    from ditalg.fixtures import exl, stellar_case1
    from ditalg.pipeline import reduce_to_minimal
    from ditalg.scalars import QQ, linalg

    calls = []
    real = admissible._radical_basis

    def recording(b_dit, summands, ends=()):
        out = real(b_dit, summands, ends)
        calls.append((b_dit, summands, out))
        return out

    monkeypatch.setattr(admissible, "_radical_basis", recording)
    for dit, d in ((exk(F3), 4), (exk(QQ), 6), (exl(F2), 4), (stellar_case1(F3), 3)):
        reduce_to_minimal(dit, d)
    assert any(s.rep.point_ops for _, summands, _ in calls for s in summands)
    seen = set()
    for b_dit, summands, p_basis in calls:
        if not summands:
            assert not p_basis
            continue
        F = b_dit.field
        E, rad, embed, block = _old_radical_blocks(b_dit, summands)
        pos = {id(s): i for i, s in enumerate(summands)}
        new = [E.coordinates(embed(pb.pair, pos[id(pb.dom)], pos[id(pb.cod)]))
               for pb in p_basis]
        assert linalg.rank(F, new) == len(new) == len(rad)
        assert linalg.rank(F, new + rad) == len(rad)
        rad_maps = [E.from_coordinates(v) for v in rad]
        for si, sj in itertools.product(range(len(summands)), repeat=2):
            pieces = [[c for p in b_dit.bigraph.point_order
                       for row in block(f, si, sj)[p].data for c in row]
                      for f in rad_maps]
            count = sum(1 for pb in p_basis
                        if pos[id(pb.dom)] == si and pos[id(pb.cod)] == sj)
            assert linalg.rank(F, pieces) == count
            if count:
                seen.add(si == sj)
        assert [(pos[id(pb.dom)], pos[id(pb.cod)]) for pb in p_basis] == sorted(
            (pos[id(pb.dom)], pos[id(pb.cod)]) for pb in p_basis)
    assert seen == {False, True}       # off-diagonal and diagonal blocks both met


def test_checked_admissible_builds_each_summand_end_once(monkeypatch):
    # the check decides each summand's End algebra local; the diagonal
    # blocks of P reuse those, so no End algebra is built twice
    from ditalg import modcat
    from ditalg.admissible import _sub_bigraph_dit

    d = ex1(F3)
    certify(d)
    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    findim = list(zip(("s1", "s2", "p1"), a2_indecomposables(b_dit, F3)))
    built = [0]
    init = modcat.EndAlgebra.__init__

    def counting(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(modcat.EndAlgebra, "__init__", counting)
    for check in (True, False):
        built[0] = 0
        adm = build_admissible(d, ["a"], findim=findim, check=check)
        assert built[0] == 3
        assert sorted((pb.dom.label, pb.cod.label) for pb in adm.p_basis) == \
            [("p1", "s1"), ("s2", "p1")]


# points 1 (trivial), 2 (k[x]_x) and 3 (trivial); solid a: 1 -> 2 and
# b: 2 -> 3, dashed v: 1 -> 2, delta(a) = v
def _structure(**changes):
    data = {"field": "F3",
            "points": [{"name": "1", "factor": "trivial"},
                       {"name": "2", "factor": "rational", "inverted": ["x"]},
                       {"name": "3", "factor": "trivial"}],
            "solid_arrows": [{"name": "a", "source": "1", "target": "2"},
                             {"name": "b", "source": "2", "target": "3"}],
            "dashed_arrows": [{"name": "v", "source": "1", "target": "2"}],
            "differential": {"a": [["1", "v", "1"]]},
            "ideal": []}
    data.update(changes)
    return parse_presentation(data)


_BA = [["1", "b", "1", "a", "1"]]
_STRUCTURE_CHANGES = {
    "point_order": {"points": [{"name": "2", "factor": "rational", "inverted": ["x"]},
                               {"name": "1", "factor": "trivial"},
                               {"name": "3", "factor": "trivial"}]},
    "factor_kind": {"points": [{"name": "1", "factor": "trivial"},
                               {"name": "2", "factor": "trivial"},
                               {"name": "3", "factor": "trivial"}]},
    "inverted_set": {"points": [{"name": "1", "factor": "trivial"},
                                {"name": "2", "factor": "rational", "inverted": ["x+1"]},
                                {"name": "3", "factor": "trivial"}]},
    "arrow_set": {"dashed_arrows": [{"name": "v", "source": "1", "target": "2"},
                                    {"name": "w", "source": "1", "target": "3"}]},
    "arrow_endpoints": {"solid_arrows": [{"name": "a", "source": "1", "target": "2"},
                                         {"name": "b", "source": "1", "target": "3"}]},
    "arrow_kind": {"solid_arrows": [{"name": "a", "source": "1", "target": "2"}],
                   "dashed_arrows": [{"name": "v", "source": "1", "target": "2"},
                                     {"name": "b", "source": "2", "target": "3"}]},
    "delta_value": {"differential": {"a": [["2", "v", "1"]]}},
    "ideal_span": {"ideal": [_BA]},
}


@pytest.mark.parametrize("change", sorted(_STRUCTURE_CHANGES))
def test_structural_equal_sees_each_difference(change):
    base, other = _structure(), _structure(**_STRUCTURE_CHANGES[change])
    assert structural_equal(base, _structure())
    assert not structural_equal(base, other)
    # both directions: for the ideal, one generator missing on either side
    assert not structural_equal(other, base)


def test_structural_equal_compares_ideal_spans_not_generators():
    scaled = [["2", "b", "1", "a", "1"]]
    assert structural_equal(_structure(ideal=[_BA]), _structure(ideal=[scaled, _BA]))
    assert not structural_equal(_structure(ideal=[_BA]),
                                _structure(ideal=[[["1", "b", "x", "a", "1"]]]))
