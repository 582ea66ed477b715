"""End-to-end demo: reduce the double-arrow quiver over F_3 and classify its
modules of total dimension <= 2, cross-checking the emitted one-parameter
family against the functor images."""

from ditalg import certify, classify, iso_test, jordan_at, reduce_to_minimal
from ditalg.bimodule import generic_regular, specialize_jordan
from ditalg.fixtures import exk
from ditalg.pipeline import Obstruction, brute_force_indecomposables
from ditalg.scalars import PrimeField


def main():
    F = PrimeField(3)
    dit = exk(F)
    print(f"input: {dit!r} over {F!r}")
    flags = certify(dit)
    print("certificates:", ", ".join(k for k, v in flags.items() if v))

    plan, minimal = reduce_to_minimal(dit, d=2, budget=150)
    print(f"\nreduction plan ({plan.budget_used} steps):")
    for line in plan.log():
        print("  " + line[:100])
    print("\nminimal presentation:")
    for p in minimal.bigraph.point_order:
        print(f"  point {p}: {minimal.bigraph.factor(p)} "
              f"(weight {minimal.point_weights.get(p, 1)})")

    report = classify(dit, d=2, budget=150)
    if isinstance(report, Obstruction):
        print("obstruction:", report.reason)
        return
    print("\nclassification at d = 2:")
    for line in report.summary():
        print("  " + line)

    comp = plan.composite()
    for fam in report.families:
        Z = comp.apply_rep(generic_regular(minimal, fam.point))
        print(f"\nfamily check at {fam.point}: Z has rank {Z.total_dim()}")
        for lam_int in range(3):
            lam = F.from_int(lam_int)
            via_bimodule = specialize_jordan(Z, lam)
            via_functor = comp.apply_rep(jordan_at(minimal, fam.point, lam, 1))
            ok = iso_test(dit, via_bimodule, via_functor)
            print(f"  Z (x) Gamma/(x-{lam_int})  ~  F(J_1({lam_int})): "
                  f"{'ok' if ok else 'MISMATCH'}")

    oracle = brute_force_indecomposables(dit, 2)
    covered = report.indecomposables
    missing = [o for o in oracle
               if not any(iso_test(dit, o, c) for c in covered
                          if c.dim_vector() == o.dim_vector())]
    print(f"\nbrute-force referee: {len(oracle)} classes, "
          f"{len(oracle) - len(missing)} covered, {len(missing)} missing")


if __name__ == "__main__":
    main()
