"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic; the only tolerances are the stated runtime
bounds.  Brute-force oracles are computed independently inside this module.
"""

import itertools
import random
import time

import pytest

from ditalg.admissible import build_admissible, reduce_admissible
from ditalg.bigraph import Bigraph, Factor
from ditalg.fixtures import ex1, ex2, exi, exk, exl, exa, exq, exr, exx
from ditalg.interlace import certify, kernel_lemma_dimension_check
from ditalg.modcat import (
    MorphismPair, Rep, compose, decompose, hom, hom_dim, hom_via_quotient,
    identity_morphism, in_hom, is_indecomposable, is_isomorphism, iso_test,
    morphism_scale, morphism_sum, simple_at, transport_structure, zero_morphism,
)
from ditalg.pipeline import Obstruction, brute_force_indecomposables, classify
from ditalg.presentation import save_presentation
from ditalg.reduce import (
    StepSpec, absorb, delete_idempotents, deletion_image_characterization,
    detach_source, factor_out, regularize, rep_equal, rep_spec, structural_equal,
)
from ditalg.scalars import (
    LocalizedRing, ModulePresentation, Poly, PrimeField,
    in_localized_span, independent_over_localization, localize_to_free,
)
from ditalg.scalars.linalg import Mat
from ditalg.tensor import Elem, graded_component_basis

F2 = PrimeField(2)
F3 = PrimeField(3)
F101 = PrimeField(101)

FIXTURES_F101 = [("EX1", ex1), ("EX2", ex2), ("EX-I", exi), ("EXK", exk)]


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def _random_homogeneous(b, rng, F):
    words = []
    for src in b.point_order:
        for tgt in b.point_order:
            for deg in (0, 1):
                words += graded_component_basis(b, src, tgt, deg, 3, 1)
    w = rng.choice(words)
    return Elem.from_word(b, w, F.from_int(rng.randrange(1, 101)))


def test_criterion_1_leibniz():
    """1000 randomized homogeneous pairs satisfy the graded Leibniz rule."""
    t0 = time.monotonic()
    rng = random.Random(20240608)
    total = 0
    for name, fix in FIXTURES_F101:
        d = fix(F101)
        b = d.bigraph
        for _ in range(250):
            u = _random_homogeneous(b, rng, F101)
            v = _random_homogeneous(b, rng, F101)
            du = u.degrees()[0] if u.degrees() else 0
            sign = F101.one if du % 2 == 0 else F101.neg(F101.one)
            lhs = d.delta.apply(u * v)
            rhs = d.delta.apply(u) * v + (u * d.delta.apply(v)).scale(sign)
            assert lhs == rhs, (name, str(u), str(v))
            total += 1
    elapsed = time.monotonic() - t0
    report("1 (Leibniz suite)", total == 1000 and elapsed < 5.0,
           f"{total} pairs in {elapsed:.2f}s")


def _module_pool(dit, rng, count=4):
    """Small valid modules over a fixture, deterministic."""
    b = dit.bigraph
    F = dit.field
    pool = []
    guard = 0
    while len(pool) < count and guard < 200:
        guard += 1
        dims = {p: rng.randrange(0, 3) for p in b.point_order}
        if sum(dims.values()) == 0:
            continue
        rep = Rep(dit, dims)
        for a in b.solid_arrows():
            r, c = dims[a.target], dims[a.source]
            rep.arrow_ops[a.name] = Mat(F, r, c,
                                        [[F.random(rng) for _ in range(c)] for _ in range(r)])
        if rep.validate() is None:
            pool.append(rep)
    return pool


def _random_hom_element(dit, M, N, rng):
    basis = hom(dit, M, N)
    out = zero_morphism(M, N)
    for f in basis:
        out = morphism_sum(out, morphism_scale(f, dit.field.random(rng)))
    return out


def test_criterion_2_category_axioms():
    """500 randomized composable triples per fixture: associativity, identity,
    and independent U-membership of composites."""
    rng = random.Random(7)
    for name, fix in FIXTURES_F101:
        d = fix(F101)
        certify(d)
        pool = _module_pool(d, rng, count=4)
        count = 0
        while count < 500:
            M, N, L, K = (rng.choice(pool) for _ in range(4))
            f = _random_hom_element(d, M, N, rng)
            g = _random_hom_element(d, N, L, rng)
            h = _random_hom_element(d, L, K, rng)
            gf = compose(d, g, f, M, N, L)
            assert in_hom(d, M, L, gf), name
            lhs = compose(d, h, gf, M, L, K)
            rhs = compose(d, compose(d, h, g, N, L, K), f, M, N, K)
            assert lhs == rhs, name
            assert compose(d, f, identity_morphism(M), M, M, N) == f
            assert compose(d, identity_morphism(N), f, M, N, N) == f
            count += 1
    report("2 (category axioms)", True, "500 triples x 4 fixtures, exact")


def _all_modules_up_to_iso(dit, max_total, F):
    b = dit.bigraph
    pts = b.point_order
    # the simple at each point (x acting by 0 at a rational point): the
    # dimension vector and dim Hom to and from each simple are isomorphism
    # invariants, so they bucket candidates before the exact iso test
    simples = [Rep(dit, {p: 1}) for p in pts]
    buckets = {}
    for dims in itertools.product(range(max_total + 1), repeat=len(pts)):
        if not 0 < sum(dims) <= max_total:
            continue
        dimmap = dict(zip(pts, dims))
        arrows = [a for a in b.solid_arrows()]
        shapes = [(dimmap[a.target], dimmap[a.source]) for a in arrows]
        total = sum(r * c for r, c in shapes)
        if F.char ** total > 4096:
            continue
        for vals in itertools.product(range(F.char), repeat=total):
            rep = Rep(dit, dict(dimmap))
            off = 0
            for a, (r, c) in zip(arrows, shapes):
                rep.arrow_ops[a.name] = Mat(F, r, c,
                                            [[F.from_int(vals[off + i * c + j])
                                              for j in range(c)] for i in range(r)])
                off += r * c
            if rep.validate() is not None:
                continue
            key = (rep.dim_vector(),) + tuple(
                (hom_dim(dit, S, rep), hom_dim(dit, rep, S)) for S in simples)
            bucket = buckets.setdefault(key, [])
            if not any(iso_test(dit, rep, c) for c in bucket):
                bucket.append(rep)
    return [rep for bucket in buckets.values() for rep in bucket]


@pytest.mark.parametrize("fixture,F,max_total", [(ex2, F2, 2), (exr, F3, 3)])
def test_all_modules_up_to_iso_pairwise_noniso(fixture, F, max_total):
    # the oracle once bucketed by arrow ranks, which are not invariants once
    # delta is nonzero, and listed isomorphic modules twice on these cases
    d = fixture(F)
    certify(d)
    classes = _all_modules_up_to_iso(d, max_total, F)
    for i, M in enumerate(classes):
        for N in classes[i + 1:]:
            assert not iso_test(d, M, N), (M.dims, N.dims)


def test_criterion_3_psi_equivalence():
    """Hom dimensions agree between the interlaced presentation and the
    quotient-ditalgebra presentation on all pairs of total dim <= 4."""
    checked = 0
    for name, fix in (("EX-I", exi), ("EXL", exl)):
        d = fix(F2)
        certify(d)
        from ditalg.interlace import quotient

        qp = quotient(d)
        classes = _all_modules_up_to_iso(d, 4, F2)
        for M in classes:
            for N in classes:
                via_interlaced = hom_dim(d, M, N)
                via_quotient = len(hom_via_quotient(d, M, N, qp=qp))
                assert via_interlaced == via_quotient, (name, M.dims, N.dims)
                checked += 1
    report("3 (Psi equivalence)", checked > 0, f"{checked} pairs, exact equality")


def test_criterion_4_iso_criterion():
    """200 randomized bijective-f0 morphisms per fixture invert exactly."""
    rng = random.Random(13)
    for name, fix in FIXTURES_F101:
        d = fix(F101)
        certify(d)
        pool = _module_pool(d, rng, count=3)
        for _ in range(200):
            N = rng.choice(pool)
            f0 = {}
            ok = True
            for p, n in N.dims.items():
                m = Mat(F101, n, n, [[F101.random(rng) for _ in range(n)] for _ in range(n)])
                if n and F101.is_zero(m.det()):
                    ok = False
                    break
                f0[p] = m
            if not ok:
                continue
            f1 = {a.name: Mat(F101, N.dims[a.target], N.dims[a.source],
                              [[F101.random(rng) for _ in range(N.dims[a.source])]
                               for _ in range(N.dims[a.target])])
                  for a in d.bigraph.dashed_arrows()}
            M = transport_structure(d, N, f0, f1)
            f = MorphismPair(f0, f1)
            assert in_hom(d, M, N, f), name
            g = is_isomorphism(d, f, M, N)
            assert g is not None, name
            assert compose(d, g, f, M, N, M) == identity_morphism(M)
            assert compose(d, f, g, N, M, N) == identity_morphism(N)
    report("4 (Roiter iso criterion)", True, "200 inverses x 4 fixtures, exact")


def _hom_dim_equality(dit, nd, functor, max_total, F):
    classes = _all_modules_up_to_iso(nd, max_total, F)
    pairs = 0
    for N1 in classes:
        for N2 in classes:
            if hom_dim(nd, N1, N2) != hom_dim(dit, functor(N1), functor(N2)):
                return False, pairs
            pairs += 1
    return True, pairs


def test_criterion_5_reduction_functors():
    """Fullness + faithfulness as hom-dimension equality for each functor
    kind, plus the deletion image characterization in both directions."""
    total_pairs = 0
    # F^d on EX-I
    d = exi(F2)
    certify(d)
    nd, fd = delete_idempotents(d, ["1", "3"])
    ok, pairs = _hom_dim_equality(d, nd, fd, 3, F2)
    assert ok
    total_pairs += pairs
    # image characterization, both directions
    for N in _all_modules_up_to_iso(nd, 2, F2):
        assert deletion_image_characterization(fd, fd(N))
    for M in _all_modules_up_to_iso(d, 2, F2):
        annihilated = M.dims["2"] == 0
        if annihilated:
            N = Rep(nd, {p: M.dims[p] for p in nd.bigraph.point_order})
            for a in nd.bigraph.solid_arrows():
                N.arrow_ops[a.name] = M.arrow_ops[a.name]
            assert rep_equal(fd(N), M)
        else:
            assert not deletion_image_characterization(fd, M)
    # F^r on EXR
    d = exr(F3)
    certify(d)
    nd, fr = regularize(d, ["a"])
    ok, pairs = _hom_dim_equality(d, nd, fr, 3, F3)
    assert ok
    total_pairs += pairs
    # F^q on EXQ
    d = exq(F3)
    certify(d)
    nd, fq = factor_out(d, ["p"])
    ok, pairs = _hom_dim_equality(d, nd, fq, 3, F3)
    assert ok
    total_pairs += pairs
    # F^a on EXA (rational target point: enumerate by hand)
    d = exa(F3)
    certify(d)
    nd, fa = absorb(d, "ell")
    classes = []
    for dims in itertools.product(range(3), repeat=2):
        if not 0 < sum(dims) <= 3:
            continue
        for entries in itertools.product(range(3), repeat=dims[0] * dims[1] + dims[1] ** 2):
            rep = Rep(nd, {"z0": dims[0], "1": dims[1]})
            off = 0
            r, c = dims[1], dims[0]
            rep.arrow_ops["c"] = Mat(F3, r, c, [[F3.from_int(entries[off + i * c + j])
                                                 for j in range(c)] for i in range(r)])
            off += r * c
            rep.point_ops["1"] = Mat(F3, dims[1], dims[1],
                                     [[F3.from_int(entries[off + i * dims[1] + j])
                                       for j in range(dims[1])] for i in range(dims[1])])
            if rep.validate() is not None:
                continue
            if not any(iso_test(nd, rep, cl) for cl in classes
                       if cl.dim_vector() == rep.dim_vector()):
                classes.append(rep)
    for N1 in classes:
        for N2 in classes:
            assert hom_dim(nd, N1, N2) == hom_dim(d, fa(N1), fa(N2))
            total_pairs += 1
    # F^X on EXX
    d = exx(F2)
    certify(d)
    from ditalg.admissible import _sub_bigraph_dit

    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    s1, s2 = simple_at(b_dit, "1"), simple_at(b_dit, "2")
    p1 = Rep(b_dit, {"z0": 0, "1": 1, "2": 1})
    p1.arrow_ops["a"] = Mat(F2, 1, 1, [[F2.one]])
    adm = build_admissible(d, ["a"], findim=[("s1", s1), ("s2", s2), ("p1", p1)],
                           regular=[("rz", "z0", ())])
    nd, fx = reduce_admissible(d, adm)
    ok, pairs = _hom_dim_equality(d, nd, fx, 3, F2)
    assert ok
    total_pairs += pairs
    report("5 (reduction functor suite)", True, f"{total_pairs} hom pairs compared")


def _rebind(rep, dit):
    out = Rep(dit, dict(rep.dims))
    for a, m in rep.arrow_ops.items():
        out.arrow_ops[a] = m
    for p, m in rep.point_ops.items():
        out.point_ops[p] = m
    return out


def _commutation(dit, source_point, spec, lift_spec):
    certify(dit)
    full_spec = spec.lifted_over_source(source_point) if lift_spec else spec
    dz, Fz = full_spec.apply(dit)
    ddet, Res_src = detach_source(dit, source_point)
    dzdet, Res_z = detach_source(dz, source_point)
    ddetz, Fdetz = full_spec.apply(ddet)
    assert structural_equal(dzdet, ddetz)
    count = 0
    for N in _all_modules_up_to_iso(dz, 3, dit.field):
        lhs = Res_src.apply_rep(Fz.apply_rep(N))
        rhs = Fdetz.apply_rep(_rebind(Res_z.apply_rep(N), ddetz))
        assert rep_equal(lhs, rhs)
        count += 1
    return count


def test_criterion_6_commutation():
    """Section-8 commutation for z in {d, r, q, a, X}."""
    checked = 0
    checked += _commutation(exi(F2), "1", StepSpec("deletion", {"kept": ["1", "3"]}), False)
    checked += _commutation(exr(F3), "z0", StepSpec("regularization", {"solid": ["a"]}), False)
    checked += _commutation(exq(F3), "z0", StepSpec("factor_out", {"solid": ["p"]}), False)
    # absorption fixture has a loop: enumerate by hand is avoided; reuse
    # modules of total dim <= 2 via the generic enumerator on the reduced side
    d = exa(F2)
    certify(d)
    spec = StepSpec("absorption", {"loop": "ell"})
    dz, Fz = spec.apply(d)
    ddet, Res_src = detach_source(d, "z0")
    dzdet, Res_z = detach_source(dz, "z0")
    ddetz, Fdetz = spec.apply(ddet)
    assert structural_equal(dzdet, ddetz)
    for d0 in range(2):
        for d1 in range(1, 3):
            for entries in itertools.product(range(2), repeat=d0 * d1 + d1 * d1):
                N = Rep(dz, {"z0": d0, "1": d1})
                off = 0
                N.arrow_ops["c"] = Mat(F2, d1, d0, [[F2.from_int(entries[off + i * d0 + j])
                                                     for j in range(d0)] for i in range(d1)])
                off += d0 * d1
                N.point_ops["1"] = Mat(F2, d1, d1,
                                       [[F2.from_int(entries[off + i * d1 + j])
                                         for j in range(d1)] for i in range(d1)])
                if N.validate() is not None:
                    continue
                lhs = Res_src.apply_rep(Fz.apply_rep(N))
                rhs = Fdetz.apply_rep(_rebind(Res_z.apply_rep(N), ddetz))
                assert rep_equal(lhs, rhs)
                checked += 1
    # X-kind
    d = exx(F2)
    certify(d)
    from ditalg.admissible import _sub_bigraph_dit

    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    s1, s2 = simple_at(b_dit, "1"), simple_at(b_dit, "2")
    p1 = Rep(b_dit, {"z0": 0, "1": 1, "2": 1})
    p1.arrow_ops["a"] = Mat(F2, 1, 1, [[F2.one]])
    spec = StepSpec("admissible", {
        "b_arrows": ["a"],
        "findim": [("s1", rep_spec(s1)), ("s2", rep_spec(s2)), ("p1", rep_spec(p1))],
        "regular": [], "check": False})
    checked += _commutation(d, "z0", spec, True)
    report("6 (section-8 commutation)", checked > 0, f"{checked} module instances")


def test_criterion_7_classification_ex1():
    t0 = time.monotonic()
    d = ex1(F2)
    certify(d)
    rep = classify(d, 3, 100)
    assert not isinstance(rep, Obstruction)
    oracle = brute_force_indecomposables(d, 3)
    # per-point dims <= 3 exhaustive oracle finds exactly 3 classes
    assert len(oracle) == 3 and len(rep.indecomposables) == 3
    for o in oracle:
        assert any(iso_test(d, o, c) for c in rep.indecomposables
                   if c.dim_vector() == o.dim_vector())
    elapsed = time.monotonic() - t0
    report("7 (classification oracle EX1)", elapsed < 60.0,
           f"3 indecomposables, {elapsed:.2f}s")


def test_criterion_8_classification_exk():
    t0 = time.monotonic()
    d = exk(F3)
    certify(d)
    rep = classify(d, 2, 150)
    assert not isinstance(rep, Obstruction)
    # simples present
    dims = sorted(r.dim_vector() for r in rep.indecomposables)
    assert (1, 0) in dims and (0, 1) in dims
    # one parametrizing bimodule over Gamma = k[x]
    assert len(rep.families) == 1
    fam = rep.families[0]
    assert fam.inverted == ()
    specs = [img for _, img in fam.sample_images]
    assert [img.dim_vector() for img in specs] == [(1, 1)] * 3
    for i in range(3):
        assert is_indecomposable(d, specs[i])
        for j in range(i + 1, 3):
            assert not iso_test(d, specs[i], specs[j])
    # exactly one exceptional dim-(1,1) module
    excep11 = [r for r in rep.exceptional if r.dim_vector() == (1, 1)]
    assert len(excep11) == 1
    # brute force: 4 classes of dim (1,1) total (3 family + 1 exceptional)
    oracle = brute_force_indecomposables(d, 2)
    oracle11 = [o for o in oracle if o.dim_vector() == (1, 1)]
    assert len(oracle11) == 4
    covered = specs + excep11
    for o in oracle11:
        assert any(iso_test(d, o, c) for c in covered)
    assert rep.brute_residue == []
    elapsed = time.monotonic() - t0
    report("8 (classification oracle EXK)", elapsed < 120.0,
           f"family + exceptional match brute force, {elapsed:.2f}s")


def test_criterion_9_admissible_identities():
    d = ex1(F3)
    certify(d)
    from ditalg.admissible import _sub_bigraph_dit

    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    s1, s2 = simple_at(b_dit, "1"), simple_at(b_dit, "2")
    p1 = Rep(b_dit, {"1": 1, "2": 1})
    p1.arrow_ops["a"] = Mat(F3, 1, 1, [[F3.one]])
    # build_admissible(check=True) verifies mu coassociativity exactly
    adm = build_admissible(d, ["a"], findim=[("s1", s1), ("s2", s2), ("p1", p1)],
                           check=True)
    # dual-base identities: coordinate duality and sum_i x_i nu_i(x_j) = x_j
    F = F3
    for xi in adm.x_basis:
        for pj in adm.p_basis:
            vec = adm.x_p_action[xi.index][pj.index]
            # x_i p_j expands over the x-basis with matching summand support
            for k, c in enumerate(vec):
                if not F.is_zero(c):
                    assert adm.x_basis[k].summand is pj.cod
    # (delta^X)^2(sigma(w)) = sigma(delta^2(w)) = 0 on every generator
    nd, fx = reduce_admissible(d, adm)
    for name in nd.bigraph.arrows:
        sq = nd.delta.square(Elem.arrow(nd.bigraph, name))
        assert sq.is_zero(), name
    # c_X bound on 100 random modules
    rng = random.Random(3)
    for _ in range(100):
        dims = {p: rng.randrange(0, 4) for p in nd.bigraph.point_order}
        N = Rep(nd, dims)
        assert fx(N).total_dim() <= adm.c_x * N.total_dim()
    report("9 (admissible identities)", True,
           f"c_X = {adm.c_x}, mu coassociative, delta-square transport exact")


def test_criterion_10_localization_lemma():
    rng = random.Random(1009)
    F = F101
    R = LocalizedRing(F, ())
    runs = 0
    for _ in range(50):
        rank = rng.randrange(1, 4)
        nrel = rng.randrange(0, 3)
        rel_cols = [[Poly.from_ints(F, [rng.randrange(-4, 5) for _ in range(rng.randrange(4))])
                     for _ in range(rank)] for _ in range(nrel)]
        filt = []
        for _ in range(2):
            layer = [[Poly.from_ints(F, [rng.randrange(-4, 5) for _ in range(rng.randrange(3))])
                      for _ in range(rank)] for _ in range(rng.randrange(0, 3))]
            filt.append(layer)
        pres = ModulePresentation.make(R, rank, rel_cols)
        res = localize_to_free(pres, filt)
        h = res.h
        flat_rel = rel_cols
        prev_rank = 0
        for basis in res.layer_bases:
            # independence certifies freeness on the given basis
            assert independent_over_localization(F, basis, flat_rel, rank)
            # nested: earlier bases are literal prefixes
            assert len(basis) >= prev_rank
            prev_rank = len(basis)
        for lo, hi in zip(res.layer_bases, res.layer_bases[1:]):
            assert hi[:len(lo)] == lo  # free summand witnessed by extension
        runs += 1
    report("10 (localization lemma)", runs == 50, "50 random presentations, exact")
