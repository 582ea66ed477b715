"""Elementary bigraphs: points with minimal-algebra factors, solid and dashed
arrows, and directedness."""

from __future__ import annotations

from dataclasses import dataclass
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

    def without(self, points: Sequence[str] = (), arrows: Sequence[str] = ()) -> "Bigraph":
        """The sub-bigraph with the given points, every arrow that touches
        one of them, and the given arrows left out.  The remaining points,
        solid arrows and dashed arrows keep their order and their `Factor`
        objects."""
        gone_p, gone_a = set(points), set(arrows)

        def kept(arrs):
            return [(a.name, a.source, a.target) for a in arrs if a.name not in gone_a
                    and a.source not in gone_p and a.target not in gone_p]

        return Bigraph(self.field, [(p, self.points[p]) for p in self.point_order
                                    if p not in gone_p],
                       solid=kept(self._solid), dashed=kept(self._dashed))

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

        Of the points ready at each step the first declared comes next, so
        the order is canonical.  A source may follow a point that is not
        one: points s1, x, s2 with s1 -> x give [s1, x, s2].
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
        """A witness oriented cycle (arrow names, each arrow's target the
        next one's source and the last one's target the first one's
        source), or None."""
        color = {p: 0 for p in self.points}
        stack: List[str] = []

        def dfs(p):
            color[p] = 1
            for a in self.arrows.values():
                if a.source != p:
                    continue
                if color[a.target] == 1:
                    # the cycle starts after the arrow that entered a.target
                    # on the DFS path, or at the root
                    start = next((k + 1 for k, name in enumerate(stack)
                                  if self.arrows[name].target == a.target), 0)
                    return stack[start:] + [a.name]
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

