"""Parametrizing bimodules and wildness certificates.

A one-parameter family is a `Rep` whose ring is Gamma = k[x]_h: it is pushed
through reduction functors by their own `apply_rep` and specialized by the
ring map Gamma -> k[J] at a Jordan block.  Wildness certificates over the free
2-generator algebra get a partial verification: its checks are exact
module-category decisions on both sides, but on finitely many samples they
are only necessary conditions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .bigraph import Bigraph, Factor
from .interlace import Dit, IdealData
from .modcat import Rep, is_indecomposable, iso_test
from .scalars import Field, LocElt, LocalizedRing, Poly
from .scalars.linalg import Mat, block_matrix
from .tensor import Differential, Elem, Layer


class BimoduleError(ValueError):
    pass


def specialize_jordan(Z: Rep, eigen, size: int = 1) -> Rep:
    """Z (x)_Gamma Gamma/(x - eigen)^size over the ground field.

    Every entry goes through the ring map Gamma -> k[x]/(x - eigen)^size =
    k[J], J the Jordan block J_size(eigen): it becomes the upper triangular
    Toeplitz block of its Taylor coefficients at eigen, so ranks scale by
    size.  size = 1 evaluates at x = eigen."""
    F = Z.field
    modulus = (Poly.x(F) - Poly.const(F, eigen)) ** size
    g, h_inv, _ = Z.ring.h.xgcd(modulus)
    if not g.is_one():
        raise BimoduleError("Jordan eigenvalue meets the inverted locus")
    recentre = Poly.x(F) + Poly.const(F, eigen)

    def block(e: LocElt) -> Mat:
        taylor = ((e.num * h_inv ** e.den_exp) % modulus).compose(recentre)
        return Mat(F, size, size, [[taylor.coeff(j - i) if j >= i else F.zero
                                    for j in range(size)] for i in range(size)])

    def entrywise(m: Mat) -> Mat:
        return block_matrix(F, [[block(e) for e in row] for row in m.data],
                            [size] * m.rows, [size] * m.cols)

    out = Rep(Z.dit, {p: n * size for p, n in Z.dims.items()},
              {a: entrywise(m) for a, m in Z.arrow_ops.items()},
              {p: entrywise(m) for p, m in Z.point_ops.items()})
    err = out.validate()
    if err:
        raise BimoduleError(f"Jordan specialization invalid: {err}")
    return out


def generic_regular(dit: Dit, point: str) -> Rep:
    """The rank-one generic module at a rational point: Gamma itself with x
    acting as multiplication by x.  A reduction functor's `apply_rep` carries
    it to the parametrizing bimodule Z = F(Gamma)."""
    b = dit.bigraph
    fac = b.factor(point)
    if fac.is_trivial:
        raise BimoduleError("generic module needs a rational point")
    gamma = LocalizedRing(b.field, tuple(fac.inverted or ()))
    dims = {p: (1 if p == point else 0) for p in b.point_order}
    x = Mat(gamma, 1, 1, [[LocElt(gamma, Poly.x(b.field), 0)]])
    return Rep(dit, dims, point_ops={point: x}, ring=gamma)


# -- wild certificates -------------------------------------------------------


def free_algebra_kxy(F: Field) -> Dit:
    """k<x,y> as a ditalgebra: one point "0", solid loops x and y, zero
    differential and no ideal.  Its modules are the pairs (k^n, X, Y), and
    an `Elem` over its bigraph is an element of k<x,y>."""
    b = Bigraph(F, [("0", Factor.trivial())], solid=[("x", "0", "0"), ("y", "0", "0")])
    layer = Layer(b)
    return Dit(layer, Differential(layer, {}), IdealData(), name="KXY")


@dataclass
class WildCertificate:
    """Z: an (A/I)-k<x,y>-bimodule, free of finite rank on the right; per
    point a rank and left action matrices whose entries are elements of
    k<x,y>: `Elem`s over the bigraph of `free_algebra_kxy`.

    A product acts with its right factor first, as words do:
    `Elem.arrow(b, "x") * Elem.arrow(b, "y")` acts on N = (k^n, X, Y) as
    X*Y."""

    dit: Dit
    ranks: Dict[str, int]
    arrow_ops: Dict[str, List[List[Elem]]]

    def tensor(self, X: Mat, Y: Mat) -> Rep:
        """Z (x) N for the k<x,y>-module N = (k^n, X, Y): each arrow's
        matrix is the block matrix of its entries acting on N; an arrow
        without entries acts as zero."""
        F = self.dit.field
        n = X.rows
        N = Rep(free_algebra_kxy(F), {"0": n}, {"x": X, "y": Y})
        b = self.dit.bigraph
        dims = {p: self.ranks.get(p, 0) * n for p in b.point_order}
        out = Rep(self.dit, dims)
        for a in b.solid_arrows():
            entries = self.arrow_ops.get(a.name)
            if entries:
                out.arrow_ops[a.name] = block_matrix(
                    F, [[N.elem_action(e, "0", "0") for e in row] for row in entries],
                    [n] * self.ranks.get(a.target, 0), [n] * self.ranks.get(a.source, 0))
        return out


def verify_wild_certificate(dit: Dit, cert: WildCertificate,
                            samples: Sequence[Tuple[Mat, Mat]]) -> dict:
    """Necessary-condition checks: nonzero right rank, and on every sample
    pair the tensor functor preserves indecomposability and non-isomorphy.
    A sample (X, Y) is decided as a module over `free_algebra_kxy`."""
    kxy = free_algebra_kxy(dit.field)
    report = {"rank_ok": sum(cert.ranks.values()) > 0, "violations": []}
    images = []
    for (X, Y) in samples:
        M = cert.tensor(X, Y)
        if M.validate() is not None:
            report["violations"].append("image violates the ideal")
            continue
        images.append((Rep(kxy, {"0": X.rows}, {"x": X, "y": Y}), M))
    for idx, (N, M) in enumerate(images):
        if is_indecomposable(kxy, N) and not M.is_zero():
            if not is_indecomposable(dit, M):
                report["violations"].append(f"sample {idx}: indecomposability lost")
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            (N1, M1), (N2, M2) = images[i], images[j]
            if M1.dim_vector() == M2.dim_vector() and not iso_test(kxy, N1, N2):
                if iso_test(dit, M1, M2):
                    report["violations"].append(f"samples {i},{j}: isoclasses merged")
    report["ok"] = report["rank_ok"] and not report["violations"]
    return report

