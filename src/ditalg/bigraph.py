"""Elementary bigraphs: points with minimal-algebra factors, solid and dashed
arrows, and directedness.

Acyclicity is decided by one levelling pass, `longest_path_levels`, which
places the nodes of a dependency graph in rounds, and a cycle is named by
one walk, `unlevelled_cycle`, that follows unlevelled dependencies until it
closes.
`Bigraph.is_directed` and `find_cycle` run them on the point graph;
`interlace` runs them on the delta-dependency graph of the layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
        solid arrows and dashed arrows keep their order and share the
        source's `Factor`, ring and frozen `Arrow` objects, which this
        bigraph already validated and built."""
        gone_p, gone_a = set(points), set(arrows)
        out = Bigraph(self.field, [])
        out.point_order = [p for p in self.point_order if p not in gone_p]
        out.points = {p: self.points[p] for p in out.point_order}
        out._rings = {p: self._rings[p] for p in out.point_order}
        out.arrows = {n: a for n, a in self.arrows.items() if n not in gone_a
                      and a.source not in gone_p and a.target not in gone_p}
        out._solid = tuple(a for a in self._solid if a.name in out.arrows)
        out._dashed = tuple(a for a in self._dashed if a.name in out.arrows)
        return out

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

    def _point_deps(self) -> Dict[str, List[str]]:
        # every arrow p -> q makes q depend on p: loops and dashed arrows too
        deps: Dict[str, List[str]] = {p: [] for p in self.point_order}
        for a in self.arrows.values():
            deps[a.target].append(a.source)
        return deps

    def point_levels(self) -> Dict[str, int]:
        """The longest-path level of each point that lies neither on nor
        above a cycle (`longest_path_levels`): 1 with no arrow into it,
        else one above the highest source of an arrow into it."""
        return longest_path_levels(self._point_deps())

    def is_directed(self) -> bool:
        return len(self.point_levels()) == len(self.points)

    def find_cycle(self) -> Optional[List[str]]:
        """A witness oriented cycle (arrow names, each arrow's target the
        next one's source and the last one's target the first one's
        source), or None.  `unlevelled_cycle` walks it backwards, from each
        point to the source of an arrow into it; of parallel arrows the
        first declared is named."""
        pts = unlevelled_cycle(self._point_deps())
        if pts is None:
            return None
        fwd = pts[:1] + pts[:0:-1]   # an arrow runs pts[i + 1] -> pts[i]
        return [next(a.name for a in self.arrows_into(t) if a.source == s)
                for s, t in zip(fwd, fwd[1:] + fwd[:1])]


def longest_path_levels(deps: Mapping[str, Collection[str]]) -> Dict[str, int]:
    """The longest-path level of each node of the graph with an edge m -> n
    for each m in deps[n], by rounds: round k places every node not yet
    placed whose dependencies all lie among the nodes of rounds 1..k-1, so a
    node sits one level above the highest of its dependencies (1 with none).
    The nodes no round places are those on or above a cycle.  Each round is
    one subset test per unplaced node, so the cost is O(nodes x depth), each
    test at set speed.  The depth stays small on reduction plans: at most
    10 on `classify(exk(Q), 6)`, and at most 23 on `classify(parabolic(F2,
    5), 3)`, whose graphs reach 1,162 nodes."""
    level: Dict[str, int] = {}
    placed: Set[str] = set()
    rest = list(deps.items())
    k = 0
    while rest:
        now = [n for n, ds in rest if placed.issuperset(ds)]
        if not now:
            break
        k += 1
        level.update(dict.fromkeys(now, k))
        placed.update(now)
        rest = [(n, ds) for n, ds in rest if n not in placed]
    return level


def unlevelled_cycle(deps: Mapping[str, Collection[str]]) -> Optional[List[str]]:
    """One cycle [n1, ..., nk] of the graph of `longest_path_levels`, each
    n(i+1) in deps[ni] and n1 in deps[nk]; None when every node is levelled.
    A node left unlevelled has an unlevelled dependency, so following the
    least such dependency from the first unlevelled node must come back to
    a node already on the path."""
    level = longest_path_levels(deps)
    n = next((n for n in deps if n not in level), None)
    if n is None:
        return None
    path: List[str] = []
    while n not in path:
        path.append(n)
        n = min(m for m in deps[n] if m not in level)
    return path[path.index(n):]
