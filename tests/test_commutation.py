"""Source-detachment commutation: for each reduction kind z the detached
reduction agrees with the reduced detachment, structurally and on modules."""

import itertools

import pytest

from ditalg.fixtures import exa, exi, exq, exr, exx
from ditalg.interlace import certify
from ditalg.modcat import Rep, simple_at
from ditalg.reduce import (
    StepSpec, delete_idempotents, detach_source, rep_spec, structural_equal,
)
from ditalg.scalars import Poly, PrimeField
from ditalg.scalars.linalg import Mat

F2 = PrimeField(2)
F3 = PrimeField(3)


def small_reps(dit, per_point=1, cap_entries=6):
    b = dit.bigraph
    F = dit.field
    pts = b.point_order
    out = []
    for dims in itertools.product(range(per_point + 1), repeat=len(pts)):
        dimmap = dict(zip(pts, dims))
        arrows = [a for a in b.solid_arrows()]
        rational = [p for p in pts if not b.factor(p).is_trivial]
        shapes = [(dimmap[a.target], dimmap[a.source]) for a in arrows]
        rshapes = [(dimmap[p], dimmap[p]) for p in rational]
        counts = [r * c for r, c in shapes + rshapes]
        total = sum(counts)
        if total > cap_entries:
            continue
        for vals in itertools.product(range(F.char), repeat=total):
            rep = Rep(dit, dict(dimmap))
            off = 0
            for a, (r, c) in zip(arrows, shapes):
                rep.arrow_ops[a.name] = Mat(F, r, c,
                                            [[F.from_int(vals[off + i * c + j])
                                              for j in range(c)] for i in range(r)])
                off += r * c
            for p, (r, c) in zip(rational, rshapes):
                rep.point_ops[p] = Mat(F, r, c,
                                       [[F.from_int(vals[off + i * c + j])
                                         for j in range(c)] for i in range(r)])
                off += r * c
            if rep.validate() is None:
                out.append(rep)
    return out


def rebind(rep: Rep, dit) -> Rep:
    out = Rep(dit, dict(rep.dims))
    for a, m in rep.arrow_ops.items():
        out.arrow_ops[a] = m
    for p, m in rep.point_ops.items():
        out.point_ops[p] = m
    return out


def run_commutation(dit, source_point, spec, lift_spec=False):
    certify(dit)
    full_spec = spec.lifted_over_source(source_point) if lift_spec else spec
    dz, Fz = full_spec.apply(dit)
    ddet, Res_src = detach_source(dit, source_point)
    dzdet, Res_z = detach_source(dz, source_point)
    ddetz, Fdetz = full_spec.apply(ddet)
    assert structural_equal(dzdet, ddetz), "structural commutation fails"
    count = 0
    for N in small_reps(dz):
        if N.total_dim() > 3:
            continue
        lhs = Res_src.apply_rep(Fz.apply_rep(N))
        rhs = Fdetz.apply_rep(rebind(Res_z.apply_rep(N), ddetz))
        assert lhs == rhs, "functor commutation fails"
        count += 1
    assert count > 0
    return dz, ddet


def test_commutation_deletion():
    d = exi(F2)
    run_commutation(d, "1", StepSpec("deletion", {"kept": ["1", "3"]}))


def test_commutation_regularization():
    d = exr(F3)
    run_commutation(d, "z0", StepSpec("regularization", {"solid": ["a"]}))


def test_commutation_factor_out():
    d = exq(F3)
    run_commutation(d, "z0", StepSpec("factor_out", {"solid": ["p"]}))


def test_commutation_basechange():
    # u = p + 2q, w = p + q on the arm 1 -> 2, away from the source z0
    d = exq(F3)
    run_commutation(d, "z0", StepSpec("basechange", {
        "source": "1", "target": "2",
        "arrows": [("u", [Poly.const(F3, 1), Poly.const(F3, 2)]),
                   ("w", [Poly.const(F3, 1), Poly.const(F3, 1)])]}))


def test_commutation_absorption():
    d = exa(F2)
    run_commutation(d, "z0", StepSpec("absorption", {"loop": "ell"}))


def test_commutation_admissible():
    d = exx(F2)
    certify(d)
    from ditalg.admissible import _sub_bigraph_dit

    b_dit = _sub_bigraph_dit(d, ["a"])
    certify(b_dit)
    s1 = simple_at(b_dit, "1")
    s2 = simple_at(b_dit, "2")
    p1 = Rep(b_dit, {"z0": 0, "1": 1, "2": 1})
    p1.arrow_ops["a"] = Mat(F2, 1, 1, [[F2.one]])
    spec = StepSpec("admissible", {
        "b_arrows": ["a"],
        "findim": [("s1", rep_spec(s1)), ("s2", rep_spec(s2)), ("p1", rep_spec(p1))],
        "regular": [],
        "check": False,
    })
    run_commutation(d, "z0", spec, lift_spec=True)


def test_product_decomposition_all_fixtures():
    for fix, src in ((exi, "1"), (exr, "z0"), (exq, "z0"), (exx, "z0")):
        d = fix(F2 if fix is not exq else F3)
        certify(d)
        det, _ = detach_source(d, src)
        # ke0 x (the deleted dit): e0 has no arrows, and deleting it from
        # either presentation gives the same one
        b = det.bigraph
        assert src in b.points and not b.arrows_from(src) and not b.arrows_into(src)
        rest = [p for p in d.bigraph.point_order if p != src]
        assert structural_equal(delete_idempotents(d, rest)[0],
                                delete_idempotents(det, rest)[0])
