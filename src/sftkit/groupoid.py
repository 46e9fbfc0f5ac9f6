"""Exact arithmetic in the tail-equivalence groupoid of a shift of finite
type, on its eventually periodic points.

Elements are triples (x, n, x') with sigma^i(x) = sigma^j(x') and
n = i - j; the stored witnesses (i, j) are the componentwise least such
pair, which makes equality and all checks structural.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import groupoid_cocycle_eval
from .cylinders import CylinderFunction
from .errors import (
    DegreeImpossible,
    FloorOutOfRange,
    InvalidElement,
    NotComposable,
    NotInSource,
    NotTailEquivalent,
    CocycleInconsistent,
)
from .points import EvPerPoint
from .presentation import Presentation, Word, rotations, word


def tail_equivalent(x: EvPerPoint, y: EvPerPoint) -> bool:
    """Same eventual cycle up to rotation."""
    return x.cycle in rotations(y.cycle)


def _min_witnesses(x: EvPerPoint, y: EvPerPoint, n: int):
    """Least (i, j) with i - j = n and sigma^i x = sigma^j y, or None.

    The predicate is monotone in j and eventually constant once both tails
    are inside their cycles, so scanning up to that threshold decides it.
    """
    lp = x.least_period()
    j0 = max(0, -n)
    limit = max(j0, len(y.prefix), len(x.prefix) - n) + lp
    for j in range(j0, limit + 1):
        if x.shift(n + j) == y.shift(j):
            return n + j, j
    return None


@dataclass(frozen=True)
class GroupoidElement:
    range_pt: EvPerPoint
    degree: int
    source_pt: EvPerPoint
    witnesses: tuple  # least (i, j) with the witness identity

    def verify(self) -> bool:
        i, j = self.witnesses
        return (i >= 0 and j >= 0 and i - j == self.degree
                and self.range_pt.shift(i) == self.source_pt.shift(j))

    def __str__(self):
        return f"({self.range_pt}, {self.degree}, {self.source_pt})"


def make_element(x: EvPerPoint, n: int, y: EvPerPoint) -> GroupoidElement:
    if x.presentation != y.presentation:
        raise NotTailEquivalent("points live on different presentations")
    if not tail_equivalent(x, y):
        raise NotTailEquivalent(f"{x} and {y} have different eventual cycles")
    w = _min_witnesses(x, y, n)
    if w is None:
        raise DegreeImpossible(
            f"degree {n} admits no witnesses for ({x}, {y})")
    return GroupoidElement(x, n, y, w)


def unit(x: EvPerPoint) -> GroupoidElement:
    return GroupoidElement(x, 0, x, (0, 0))


def compose(e1: GroupoidElement, e2: GroupoidElement) -> GroupoidElement:
    if e1.source_pt != e2.range_pt:
        raise NotComposable(f"s({e1}) != r({e2})")
    return make_element(e1.range_pt, e1.degree + e2.degree, e2.source_pt)


def invert(e: GroupoidElement) -> GroupoidElement:
    i, j = e.witnesses
    return GroupoidElement(e.source_pt, -e.degree, e.range_pt, (j, i))


@dataclass(frozen=True)
class CylinderBisection:
    """The basic bisection {(u t, |u|-|v|, v t)}; needs matching followers."""

    presentation: Presentation
    range_word: Word
    source_word: Word

    @staticmethod
    def make(P: Presentation, u, v) -> "CylinderBisection":
        u, v = word(u), word(v)
        P.check_admissible(u)
        P.check_admissible(v)
        fu = P.follower_set(u[-1]) if u else frozenset(P.labels)
        fv = P.follower_set(v[-1]) if v else frozenset(P.labels)
        if fu != fv:
            raise InvalidElement(
                f"follower sets of {u!r} and {v!r} differ")
        return CylinderBisection(P, u, v)

    def degree(self) -> int:
        return len(self.range_word) - len(self.source_word)

    def apply(self, x: EvPerPoint):
        """(alpha_A(x), degree) for x in the source cylinder."""
        v = self.source_word
        if not x.starts_with(v):
            raise NotInSource(f"{x} not in Z({v!r})")
        t = x.shift(len(v))
        u = self.range_word
        img = EvPerPoint.make(self.presentation, u + t.prefix, t.cycle)
        return img, self.degree()

    def element_at(self, x: EvPerPoint) -> GroupoidElement:
        img, c = self.apply(x)
        return make_element(img, c, x)

    def __str__(self):
        join = self.presentation.label_separator.join
        return (f"{join(map(str, self.range_word))}~"
                f"{join(map(str, self.source_word))}")


def phi_from_oe_data(h, k: CylinderFunction, l: CylinderFunction,
                     eta: GroupoidElement) -> GroupoidElement:
    """Image of eta under the groupoid map induced by (h, k, l).

    The degree is the value of the groupoid cocycle of l - k at eta; a
    degree that admits no witnesses between the h-images signals that
    (k, l) is not a genuine cocycle pair for h.
    """
    d = groupoid_cocycle_eval(l - k, eta)
    try:
        return make_element(h(eta.range_pt), d, h(eta.source_pt))
    except (NotTailEquivalent, DegreeImpossible) as e:
        raise CocycleInconsistent(
            f"(k,l) is not an h-cocycle pair at {eta}: {e}")


@dataclass(frozen=True)
class TowerGroupoidElement:
    base: GroupoidElement
    floor_range: int
    floor_source: int

    def __str__(self):
        return f"({self.base}, {self.floor_range}, {self.floor_source})"


def make_tower_element(eta: GroupoidElement, i: int, j: int,
                       f: CylinderFunction) -> TowerGroupoidElement:
    if not (0 <= i < f(eta.range_pt)):
        raise FloorOutOfRange(f"range floor {i} not below {f(eta.range_pt)}")
    if not (0 <= j < f(eta.source_pt)):
        raise FloorOutOfRange(f"source floor {j} not below {f(eta.source_pt)}")
    return TowerGroupoidElement(eta, i, j)


def tower_compose(t1: TowerGroupoidElement, t2: TowerGroupoidElement,
                  f: CylinderFunction) -> TowerGroupoidElement:
    if t1.base.source_pt != t2.base.range_pt or t1.floor_source != t2.floor_range:
        raise NotComposable("tower elements do not compose")
    return make_tower_element(compose(t1.base, t2.base),
                              t1.floor_range, t2.floor_source, f)


def tower_invert(t: TowerGroupoidElement, f: CylinderFunction) -> TowerGroupoidElement:
    return make_tower_element(invert(t.base), t.floor_source, t.floor_range, f)


def tower_iso(theta: TowerGroupoidElement, tower) -> GroupoidElement:
    """Image of a tower-groupoid element in the groupoid of the tower shift.

    With canonical witnesses (l, k) of the base element, the image is
    (iota(x, i), i - j + sum_{h<=l} f(sigma^h x) - sum_{h<=k} f(sigma^h y),
    iota(y, j)): the degree adds the cocycle of f o sigma at the base
    element.
    """
    f = tower.floors
    eta, i, j = theta.base, theta.floor_range, theta.floor_source
    if not (0 <= i < f(eta.range_pt) and 0 <= j < f(eta.source_pt)):
        raise FloorOutOfRange(str(theta))
    deg = i - j + groupoid_cocycle_eval(f.pullback(), eta)
    return make_element(tower.iota(eta.range_pt, i), deg,
                        tower.iota(eta.source_pt, j))
