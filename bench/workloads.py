"""The three workloads: set-up, per-pass task lists and answer checks.

A task is `(label, run, check)`: `run()` is the timed call into the package,
`check(result)` compares its answer with a reference (see `reference.py`)
and returns None or the reason it is wrong.

* `referee`: `ditalg classify` in-process through `ditalg.cli.main` on saved
  presentation files, with the brute-force referee on: `exk`/F3/d=4 and
  `exl`/F2/d=4. The same two tasks every pass.
* `reduce-q`: `ditalg classify` on `exk`/Q/d=6, where no referee runs. One
  task per pass.
* `modcat-distinct`: seeded random module-category tasks over F_101, fresh
  inputs in every pass: twisted direct sums of known indecomposables
  (decompose, iso_test true and false) and hom-dimension equality across
  five reduction functors.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from reference import (
    Arith, EXL_CLASSES, check_kronecker_q, kronecker_classes_fq, kronecker_key, thin_key,
)


def _parse_module(ar, mod):
    dims = dict(mod["dims"])
    arrows = {a: [[ar.parse(v) for v in row] for row in m] for a, m in mod["arrows"].items()}
    return dims, arrows


def _rep_data(rep):
    return dict(rep.dims), {a: m.data for a, m in rep.arrow_ops.items()}


class ClassifyWorkload:
    """`ditalg classify` through the CLI on saved presentation files."""

    def __init__(self, cases):
        self.cases = cases           # (fixture, field, dim, expect)

    def setup(self, seed, workdir):
        from ditalg import certify, fixtures
        from ditalg.presentation import save_presentation
        from ditalg.scalars import field_from_name

        self.tasks = []
        for fixture, field, dim, expect in self.cases:
            dit = getattr(fixtures, fixture)(field_from_name(field))
            certify(dit)
            label = f"{fixture}/{field}/d={dim}"
            path = os.path.join(workdir, f"{fixture}_{field}.json")
            out = os.path.join(workdir, f"{fixture}_{field}_report.json")
            save_presentation(dit, path)
            argv = ["classify", path, "--dim", str(dim), "--out", out]
            self.tasks.append((label, self._runner(argv),
                               self._checker(out, field, dim, expect)))

    @staticmethod
    def _runner(argv):
        from ditalg.cli import main

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return main(argv)
        return run

    @staticmethod
    def _checker(out, field, dim, expect):
        def check(rc):
            if rc != 0:
                return f"exit code {rc}"
            with open(out, encoding="utf8") as fh:
                report = json.load(fh)
            os.remove(out)
            ar = Arith(0 if field == "Q" else int(field[1:]))
            listed = report["indecomposables"]
            residue = report.get("exhaustive_residue", [])
            mods = [_parse_module(ar, m) for m in listed + residue]
            return expect(ar, mods, dim)
        return check

    def pass_tasks(self, index):
        return self.tasks


def _distinct(keys, want=None):
    if None in keys:
        return "a listed module is decomposable or of unknown shape"
    if len(set(keys)) != len(keys):
        return "isomorphic classes listed twice"
    if want is not None and set(keys) != want:
        return f"classes {sorted(map(str, set(keys) ^ want))} differ from the reference"
    return None


def expect_kronecker_fq(ar, mods, dim):
    keys = [kronecker_key(ar, d, a) for d, a in mods]
    return _distinct(keys, kronecker_classes_fq(ar.p, dim))


def expect_kronecker_q(points):
    def expect(ar, mods, dim):
        keys = [kronecker_key(ar, d, a) for d, a in mods]
        return _distinct(keys) or check_kronecker_q(keys, dim, points)
    return expect


def expect_exl(ar, mods, dim):
    return _distinct([thin_key(d, a) for d, a in mods], EXL_CLASSES)


# -- modcat-distinct ----------------------------------------------------------------


# no summand repeats: on some twists of P1 + P1, modcat's locality test calls
# the sum indecomposable (bench/README.md, "Known defect")
KRONECKER_SLOTS = [
    # (summands, index of the regular summand the false case perturbs)
    ([("P", 1), ("I", 1), ("R", 2)], 2),
    ([("P", 0), ("P", 2), ("R", 1), ("R", 1)], 2),
    ([("I", 0), ("R", 3)], 1),
    ([("P", 1), ("P", 2), ("R", 1)], 2),
]
# interval modules of 1 -> 2 -> 3 (hg = 0) and the simple at 4; the false case
# splits the first two-point interval into its two simples
EXL_SLOTS = [
    ["G", "G", "H", "S4"],
    ["H", "G", "H", "S1", "S3"],
    ["G", "S2", "S4", "S4"],
]
FUNCTOR_DIMS = 2           # every point of a functor's target gets this dim
# hom tasks per functor and pass: enough that the pooled median task latency
# falls inside one functor's group rather than between task kinds
HOM_TASKS = 4


class ModcatWorkload:
    P = 101

    def setup(self, seed, workdir):
        from ditalg import certify, fixtures
        from ditalg.scalars import PrimeField

        self.seed = seed
        self.F = F = PrimeField(self.P)
        self.ar = Arith(self.P)
        self.exk = fixtures.exk(F)
        self.exl = fixtures.exl(F)
        certify(self.exk)
        certify(self.exl)
        self.functors = self._functors(F)
        self._passes = {0: self._generate(0)}

    def _functors(self, F):
        from ditalg import certify, fixtures
        from ditalg.admissible import build_admissible, reduce_admissible
        from ditalg.bigraph import Bigraph
        from ditalg.interlace import Dit, IdealData
        from ditalg.modcat import Rep, simple_at
        from ditalg.reduce import absorb, delete_idempotents, factor_out, regularize
        from ditalg.scalars.linalg import Mat
        from ditalg.tensor import Differential, Layer

        out = []
        d = fixtures.exi(F)
        certify(d)
        out.append(("deletion", d) + delete_idempotents(d, ["1", "3"]))
        d = fixtures.exr(F)
        certify(d)
        out.append(("regularization", d) + regularize(d, ["a"]))
        d = fixtures.exq(F)
        certify(d)
        out.append(("factor_out", d) + factor_out(d, ["p"]))
        d = fixtures.exa(F)
        certify(d)
        out.append(("absorption", d) + absorb(d, "ell"))
        d = fixtures.exx(F)
        certify(d)
        b = d.bigraph
        sub = Bigraph(F, [(p, b.factor(p)) for p in b.point_order], solid=[("a", "1", "2")])
        layer = Layer(sub)
        b_dit = Dit(layer, Differential(layer, {}), IdealData(), name="EXX|B")
        certify(b_dit)
        p1 = Rep(b_dit, {"z0": 0, "1": 1, "2": 1})
        p1.arrow_ops["a"] = Mat(F, 1, 1, [[F.one]])
        adm = build_admissible(d, ["a"],
                               findim=[("s1", simple_at(b_dit, "1")),
                                       ("s2", simple_at(b_dit, "2")), ("p1", p1)],
                               regular=[("rz", "z0", ())])
        out.append(("admissible", d) + reduce_admissible(d, adm))
        return out

    # -- input generation ----------------------------------------------------------

    def _mat(self, rng, r, c):
        from ditalg.scalars.linalg import Mat

        return Mat(self.F, r, c, [[rng.randrange(self.P) for _ in range(c)]
                                  for _ in range(r)])

    def _invertible(self, rng, n):
        while True:
            m = self._mat(rng, n, n)
            if m.inverse() is not None:
                return m

    def _twist(self, rng, dit, S):
        from ditalg.modcat import transport_structure

        b = dit.bigraph
        f0 = {p: self._invertible(rng, S.dims[p]) for p in b.point_order}
        f1 = {a.name: self._mat(rng, S.dims[a.target], S.dims[a.source])
              for a in b.dashed_arrows()}
        return transport_structure(dit, S, f0, f1)

    def _kronecker(self, kind, n, lam=None):
        from ditalg.modcat import Rep
        from ditalg.scalars.linalg import Mat

        F = self.F
        if kind == "P":
            dims, r, c = {"1": n, "2": n + 1}, n + 1, n
            a = [[int(i == j) for j in range(c)] for i in range(r)]
            b = [[int(i == j + 1) for j in range(c)] for i in range(r)]
        elif kind == "I":
            dims, r, c = {"1": n + 1, "2": n}, n, n + 1
            a = [[int(i == j) for j in range(c)] for i in range(r)]
            b = [[int(j == i + 1) for j in range(c)] for i in range(r)]
        else:
            dims, r, c = {"1": n, "2": n}, n, n
            a = [[int(i == j) for j in range(c)] for i in range(r)]
            b = [[lam if i == j else int(j == i + 1) for j in range(c)] for i in range(r)]
        return Rep(self.exk, dims, {"a": Mat(F, r, c, a), "b": Mat(F, r, c, b)})

    def _interval(self, kind, rng):
        from ditalg.modcat import Rep
        from ditalg.scalars.linalg import Mat

        support = {"S1": "1", "S2": "2", "S3": "3", "S4": "4", "G": "12", "H": "23"}[kind]
        dims = {p: int(p in support) for p in "1234"}
        rep = Rep(self.exl, dims)
        if kind in ("G", "H"):
            arrow = "g" if kind == "G" else "h"
            rep.arrow_ops[arrow] = Mat(self.F, 1, 1, [[rng.randrange(1, self.P)]])
        return rep

    def _sum_task(self, rng, dit, summands, perturbed, key):
        """decompose(T1) against the known summands, iso_test(T2, S) true and
        iso_test(T3, S') false; T1, T2, T3 are independent twists of S."""
        from ditalg.modcat import decompose, direct_sum, iso_test

        S = direct_sum(summands)
        S_false = direct_sum(perturbed)
        T1, T2, T3 = (self._twist(rng, dit, S) for _ in range(3))
        want = sorted(map(str, (key(_rep_data(m)) for m in summands)))

        def run():
            return (decompose(dit, T1), iso_test(dit, T2, S), iso_test(dit, T3, S_false))

        def check(result):
            parts, same, differ = result
            got = sorted(map(str, (key(_rep_data(m)) for m in parts)))
            if got != want:
                return f"decompose gave {got}, expected {want}"
            if not same:
                return "iso_test missed an isomorphism"
            if differ:
                return "iso_test claimed a false isomorphism"
            return None
        return run, check

    def _kronecker_task(self, rng, slot):
        spec, pert = slot
        lams = rng.sample(range(self.P), sum(k == "R" for k, _ in spec) + 1)
        summands, perturbed = [], []
        for i, (kind, n) in enumerate(spec):
            lam = lams.pop() if kind == "R" else None
            summands.append(self._kronecker(kind, n, lam))
            perturbed.append(self._kronecker(kind, n, lams[0] if i == pert else lam))
        return self._sum_task(rng, self.exk, summands, perturbed,
                              lambda m: kronecker_key(self.ar, *m))

    def _exl_task(self, rng, slot):
        summands = [self._interval(k, rng) for k in slot]
        i = next(i for i, k in enumerate(slot) if k in ("G", "H"))
        split = ["S1", "S2"] if slot[i] == "G" else ["S2", "S3"]
        perturbed = [self._interval(k, rng) for k in slot[:i] + split + slot[i + 1:]]
        return self._sum_task(rng, self.exl, summands, perturbed,
                              lambda m: thin_key(*m))

    def _random_module(self, rng, dit):
        from ditalg.modcat import Rep

        b = dit.bigraph
        dims = {p: FUNCTOR_DIMS for p in b.point_order}
        while True:
            rep = Rep(dit, dict(dims))
            for a in b.solid_arrows():
                rep.arrow_ops[a.name] = self._mat(rng, dims[a.target], dims[a.source])
            for p in b.point_order:
                if not b.factor(p).is_trivial:
                    rep.point_ops[p] = self._mat(rng, dims[p], dims[p])
            if rep.validate() is None:
                return rep

    def _hom_task(self, rng, functor_entry):
        from ditalg.modcat import hom_dim

        _, src, tgt, functor = functor_entry
        N1, N2 = self._random_module(rng, tgt), self._random_module(rng, tgt)

        def run():
            return hom_dim(tgt, N1, N2), hom_dim(src, functor(N1), functor(N2))

        def check(result):
            if result[0] != result[1]:
                return f"hom dimension {result[0]} became {result[1]}"
            return None
        return run, check

    def _generate(self, index):
        rng = random.Random(f"{self.seed}:{index}")
        tasks = []
        for i, slot in enumerate(KRONECKER_SLOTS):
            tasks.append((f"exk-sum-{i}",) + self._kronecker_task(rng, slot))
        for i, slot in enumerate(EXL_SLOTS):
            tasks.append((f"exl-sum-{i}",) + self._exl_task(rng, slot))
        for entry in self.functors:
            for j in range(HOM_TASKS):
                tasks.append((f"hom-{entry[0]}-{j}",) + self._hom_task(rng, entry))
        return tasks

    def pass_tasks(self, index):
        if index not in self._passes:
            self._passes = {index: self._generate(index)}
        return self._passes[index]


WORKLOADS = {
    "referee": lambda: ClassifyWorkload([
        ("exk", "F3", 4, expect_kronecker_fq),
        ("exl", "F2", 4, expect_exl),
    ]),
    "reduce-q": lambda: ClassifyWorkload([
        ("exk", "Q", 6, expect_kronecker_q(points=4)),
    ]),
    "modcat-distinct": ModcatWorkload,
}
