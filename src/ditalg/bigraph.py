"""Elementary bigraphs: points with minimal-algebra factors, solid and dashed
arrows, directedness, and the two height maps driving triangularity."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import Field, LocalizedRing, Poly


@dataclass(frozen=True)
class Factor:
    """Point factor: k itself, or k[x] localized at the inverted polynomials."""

    inverted: Optional[Tuple[Poly, ...]] = None  # None means the trivial factor k

    @property
    def is_trivial(self) -> bool:
        return self.inverted is None

    @staticmethod
    def trivial() -> "Factor":
        return Factor(None)

    @staticmethod
    def rational(inverted: Sequence[Poly] = ()) -> "Factor":
        """k[x] localized at the monic forms of `inverted`, each once, in
        first-seen order."""
        return Factor(tuple(dict.fromkeys(p.monic() for p in inverted)))

    def ring(self, base_field: Field) -> Optional[LocalizedRing]:
        if self.is_trivial:
            return None
        return LocalizedRing(base_field, self.inverted)

    def __str__(self) -> str:
        if self.is_trivial:
            return "k"
        if not self.inverted:
            return "k[x]"
        return "k[x]_{" + ",".join(str(p) for p in self.inverted) + "}"


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    dashed: bool

    def __str__(self):
        mark = "-->" if not self.dashed else "..>"
        return f"{self.name}: {self.source} {mark} {self.target}"


class BigraphError(ValueError):
    pass


class Bigraph:
    """Point set with factor assignment plus named solid/dashed arrows."""

    def __init__(self, field: Field, points: Sequence[Tuple[str, Factor]],
                 solid: Sequence[Tuple[str, str, str]] = (),
                 dashed: Sequence[Tuple[str, str, str]] = ()):
        self.field = field
        self.points: Dict[str, Factor] = {}
        self.point_order: List[str] = []
        for name, fac in points:
            if name in self.points:
                raise BigraphError(f"duplicate point {name!r}")
            self.points[name] = fac
            self.point_order.append(name)
        # points never change after construction, so each ring is built once
        self._rings = {name: fac.ring(field) for name, fac in self.points.items()}
        self.arrows: Dict[str, Arrow] = {}
        for name, s, t in solid:
            self._add_arrow(name, s, t, dashed=False)
        for name, s, t in dashed:
            self._add_arrow(name, s, t, dashed=True)
        # arrows never change after construction either
        self._solid = tuple(a for a in self.arrows.values() if not a.dashed)
        self._dashed = tuple(a for a in self.arrows.values() if a.dashed)

    def _add_arrow(self, name, s, t, dashed):
        if name in self.arrows:
            raise BigraphError(f"duplicate arrow name {name!r}")
        for p in (s, t):
            if p not in self.points:
                raise BigraphError(f"arrow {name!r} uses unknown point {p!r}")
        self.arrows[name] = Arrow(name, s, t, dashed)

    # -- views -----------------------------------------------------------

    def solid_arrows(self) -> Tuple[Arrow, ...]:
        return self._solid

    def dashed_arrows(self) -> Tuple[Arrow, ...]:
        return self._dashed

    def arrow(self, name: str) -> Arrow:
        return self.arrows[name]

    def factor(self, point: str) -> Factor:
        return self.points[point]

    def factor_ring(self, point: str) -> Optional[LocalizedRing]:
        return self._rings[point]

    def arrows_from(self, point: str) -> List[Arrow]:
        return [a for a in self.arrows.values() if a.source == point]

    def arrows_into(self, point: str) -> List[Arrow]:
        return [a for a in self.arrows.values() if a.target == point]

    # -- directedness ------------------------------------------------------

    def topological_order(self) -> Optional[List[str]]:
        """Kahn topological sort over all arrows; None when a cycle exists.

        Ties are broken by declaration order so the enumeration is canonical;
        sources always come first.
        """
        indeg = {p: 0 for p in self.point_order}
        for a in self.arrows.values():
            if a.source != a.target:
                indeg[a.target] += 1
            else:
                return None  # a loop is a cycle
        order = []
        ready = [p for p in self.point_order if indeg[p] == 0]
        while ready:
            p = ready.pop(0)
            order.append(p)
            for a in self.arrows.values():
                if a.source == p:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0 and a.target not in order and a.target not in ready:
                        ready.append(a.target)
            ready.sort(key=self.point_order.index)
        if len(order) != len(self.point_order):
            return None
        return order

    def is_directed(self) -> bool:
        return self.topological_order() is not None

    def find_cycle(self) -> Optional[List[str]]:
        """A witness oriented cycle (arrow names), or None."""
        color = {p: 0 for p in self.points}
        stack: List[str] = []

        def dfs(p):
            color[p] = 1
            for a in self.arrows.values():
                if a.source != p:
                    continue
                if color[a.target] == 1:
                    return stack + [a.name]
                if color[a.target] == 0:
                    stack.append(a.name)
                    found = dfs(a.target)
                    if found:
                        return found
                    stack.pop()
            color[p] = 2
            return None

        for p in self.point_order:
            if color[p] == 0:
                cyc = dfs(p)
                if cyc:
                    return cyc
        return None


def check_directed(b: Bigraph) -> bool:
    return b.is_directed()


@dataclass
class HeightMap:
    point_height: Dict[str, int]
    pair_height: Dict[Tuple[str, str], int]


def height_maps(b: Bigraph) -> HeightMap:
    """Point heights from predecessors and pair heights for the product order
    (i, j) <= (i', j') iff i' <= i and j <= j'; rejects non-directed input."""
    order = b.topological_order()
    if order is None:
        raise BigraphError("bigraph is not directed")
    preds: Dict[str, set] = {p: set() for p in b.points}
    for a in b.arrows.values():
        preds[a.target].add(a.source)
    h: Dict[str, int] = {}
    for p in order:
        if not preds[p]:
            h[p] = 0
        else:
            h[p] = max(h[q] for q in preds[p]) + 1

    # reachability order: i <= j iff path i ~> j
    reach: Dict[str, set] = {p: {p} for p in b.points}
    for p in reversed(order):
        for a in b.arrows_from(p):
            reach[p] |= reach[a.target]

    def le(i, j):
        return j in reach[i]

    pairs = [(i, j) for i in b.point_order for j in b.point_order]

    def pair_le(u, v):
        # (i,j) <= (i',j') iff i' <= i and j <= j'
        (i, j), (ip, jp) = u, v
        return le(ip, i) and le(j, jp)

    hp: Dict[Tuple[str, str], int] = {}
    remaining = list(pairs)
    while remaining:
        progressed = False
        for u in list(remaining):
            below = [v for v in pairs if v != u and pair_le(v, u)]
            if all(v in hp for v in below):
                hp[u] = max([hp[v] for v in below], default=-1) + 1
                remaining.remove(u)
                progressed = True
        if not progressed:
            raise BigraphError("pair order is not well founded (cycle)")
    return HeightMap(point_height=h, pair_height=hp)
