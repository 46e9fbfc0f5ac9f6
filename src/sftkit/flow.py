"""Two-sided constructions around flow equivalence: discrete towers with
their cross sections, Bowen-Franks style invariants of I - A in exact
integer arithmetic, and the state-splitting graph moves used to generate
test pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cylinders import CylinderFunction
from .errors import (
    InvalidPartition,
    NotInCrossSection,
    VerificationFailed,
    ZeroFloorValue,
)
from .points import EvPerPoint
from .presentation import Presentation, higher_block
from . import maps


@dataclass(frozen=True)
class TowerSpec:
    base: Presentation
    floors: CylinderFunction

    def __post_init__(self):
        if self.floors.min_value() < 1:
            raise ZeroFloorValue("floor function must be >= 1 everywhere")


class Tower:
    """The tower shift over a base presentation.

    Vertex v with m floors becomes the chain (v,m-1) -> ... -> (v,0); a
    base edge u -> v turns into (u,0) -> (v, f(v)-1).  The cross section is
    the set of points starting at floor zero, and iota realizes the
    conjugacy between the base and the induced first-return system.
    """

    def __init__(self, spec: TowerSpec):
        base, f = spec.base, spec.floors
        if f.depth > 1:
            # the higher-block vertices are the blocks themselves
            base, _ = higher_block(base, f.depth)
            f = CylinderFunction(base, 1,
                                 {(v,): f.value_on(v) for v in base.labels})
        else:
            f = f.refine(1)
        self.base = base
        self.floors = f
        labels = []
        for v in base.labels:
            for i in range(f.value_on((v,))):
                labels.append((v, i))
        edges = []
        for v in base.labels:
            for i in range(1, f.value_on((v,))):
                edges.append(((v, i), (v, i - 1)))
        for a, b in base.edges:
            edges.append(((a, 0), (b, f.value_on((b,)) - 1)))
        self.presentation = Presentation(labels, edges)

    # -- the iota point maps -------------------------------------------------

    def _block(self, v):
        top = self.floors.value_on((v,)) - 1
        return tuple((v, i) for i in range(top, -1, -1))

    def iota(self, x: EvPerPoint, floor: int = 0) -> EvPerPoint:
        """The tower point over x starting at the given floor of x_0: the
        point made of full blocks, shifted past the floors above it."""
        if x.presentation != self.base:
            raise ValueError("point does not live on the tower base")
        m0 = self.floors(x)
        if not (0 <= floor < m0):
            raise ZeroFloorValue(f"floor {floor} out of range for {x}")
        pre = sum(map(self._block, x.prefix), ())
        cyc = sum(map(self._block, x.cycle), ())
        img = EvPerPoint.make(self.presentation, pre, cyc)
        return img.shift(m0 - 1 - floor)

    def decode(self, p: EvPerPoint):
        """Inverse of iota: (base point, floor) of a tower point.

        Every block ends on floor 0, so the base symbols are the floor-0
        symbols of p, read in order.
        """
        if p.presentation != self.presentation:
            raise ValueError("point does not live on the tower shift")
        x = EvPerPoint.make(self.base,
                            tuple(v for v, i in p.prefix if i == 0),
                            tuple(v for v, i in p.cycle if i == 0))
        return x, p.symbol(0)[1]

    # -- cross section ------------------------------------------------------

    def in_cross_section(self, p: EvPerPoint) -> bool:
        return p.presentation == self.presentation and p.symbol(0)[1] == 0

    def first_return(self, p: EvPerPoint):
        """(sigma_{X_0}(p), return time) for p in the cross section."""
        if not self.in_cross_section(p):
            raise NotInCrossSection(str(p))
        x, _ = self.decode(p)
        rt = self.floors(x.shift(1))
        q = p.shift(rt)
        if not self.in_cross_section(q):
            raise VerificationFailed(
                f"{q}, {rt} steps after {p}, is not in the cross section")
        return q, rt


# ---------------------------------------------------------------------------
# invariants: Smith normal form and determinant of I - A over the integers
# ---------------------------------------------------------------------------

def smith_normal_form(mat):
    """Diagonal of the Smith normal form of an integer matrix.

    Row/column reduction with exact integer arithmetic; the returned
    diagonal is non-negative with each entry dividing the next.
    """
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag = []
    t = 0
    while t < min(rows, cols):
        # find a pivot of least absolute value
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        dirty = False
        for i in range(t + 1, rows):
            q = a[i][t] // a[t][t]
            if q:
                for j in range(t, cols):
                    a[i][j] -= q * a[t][j]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // a[t][t]
            if q:
                for i in range(t, rows):
                    a[i][j] -= q * a[i][t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue  # smaller remainders appeared; pick a new pivot
        # pivot must divide the whole remaining block
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(t, cols):
                a[t][j] += a[bad][j]
            continue
        diag.append(abs(a[t][t]))
        t += 1
    diag.extend([0] * (min(rows, cols) - len(diag)))
    return diag


def determinant(mat):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class InvariantReport:
    snf_diagonal: tuple
    det: int

    @property
    def reduced_diagonal(self):
        """Invariant factors with the unit entries dropped; this is what is
        actually invariant across presentations of different sizes."""
        return tuple(d for d in self.snf_diagonal if d != 1)

    def __eq__(self, other):
        if not isinstance(other, InvariantReport):
            return NotImplemented
        return (self.reduced_diagonal == other.reduced_diagonal
                and self.det == other.det)

    def __hash__(self):
        return hash((self.reduced_diagonal, self.det))

    def __str__(self):
        diag = " ".join(map(str, self.snf_diagonal))
        return f"snf: {diag} / det: {self.det}"


def bowen_franks(P: Presentation) -> InvariantReport:
    """Smith normal form diagonal and determinant of I - A."""
    A = P.adjacency()
    n = len(A)
    mat = [[(1 if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
    diag = smith_normal_form(mat)
    det = determinant(mat)
    if det != 0:
        prod = 1
        for d in diag:
            prod *= d
        if prod != abs(det):
            raise VerificationFailed(
                f"Smith diagonal product {prod} is not |det| = {abs(det)}")
    return InvariantReport(tuple(diag), det)


# ---------------------------------------------------------------------------
# graph moves
# ---------------------------------------------------------------------------

def _check_partition(P, vertex, parts, neighbor_kind):
    if vertex not in P.labels:
        raise InvalidPartition(f"{vertex!r} is not a vertex")
    if parts is None:
        raise InvalidPartition(
            f"a split of {vertex!r} needs parts of its {neighbor_kind}-neighbors")
    nbrs = set(P.out_neighbors(vertex) if neighbor_kind == "out"
               else P.in_neighbors(vertex))
    parts = [tuple(p) for p in parts]
    flat = [s for p in parts for s in p]
    if (len(flat) != len(set(flat)) or set(flat) != nbrs
            or any(not p for p in parts)):
        raise InvalidPartition(
            f"parts must split the {neighbor_kind}-neighbors of {vertex!r} "
            f"into non-empty classes")
    return parts


def out_split(P: Presentation, vertex, parts) -> Presentation:
    """Split a vertex along a partition of its out-neighbors.

    Each copy keeps one class of out-edges; every in-edge of the vertex is
    duplicated onto all copies.  The two-sided (and here also the
    one-sided) shift is unchanged up to conjugacy.
    """
    return _split(P, vertex, _check_partition(P, vertex, parts, "out"))


def in_split(P: Presentation, vertex, parts) -> Presentation:
    """Split a vertex along a partition of its in-neighbors; dual move: the
    transpose of the out-split of the transposed graph."""
    parts = _check_partition(P, vertex, parts, "in")
    return _transpose(_split(_transpose(P), vertex, parts))


def _transpose(P: Presentation) -> Presentation:
    return Presentation(P.labels, [(b, a) for a, b in P.edges])


def _split(P: Presentation, vertex, parts) -> Presentation:
    """The out-split of a checked partition."""
    copies = [(vertex, t) for t in range(len(parts))]
    labels = [v for v in P.labels if v != vertex] + copies

    def targets(b):
        if b == vertex:
            return copies
        return [b]

    edges = []
    for a, b in P.edges:
        if a != vertex:
            for bb in targets(b):
                edges.append((a, bb))
    for t, part in enumerate(parts):
        for b in part:
            for bb in targets(b):
                edges.append(((vertex, t), bb))
    return Presentation(labels, edges)


def graph_move(P: Presentation, move: str, vertex, parts=None) -> Presentation:
    if move == "out_split":
        return out_split(P, vertex, parts)
    if move == "in_split":
        return in_split(P, vertex, parts)
    raise ValueError(f"unknown move {move!r}")


def out_split_conjugacy(P: Presentation, vertex, parts):
    """(split presentation, conjugacy X_P -> X_split).

    The resolving direction reads one symbol ahead to pick the copy; the
    collapsing inverse is a one-block map.  Both directions are legitimate
    one-sided conjugacies, unlike in-splits whose resolving map needs
    memory.
    """
    Q = out_split(P, vertex, parts)
    parts = [tuple(p) for p in parts]
    cls = {b: t for t, part in enumerate(parts) for b in part}
    copies = {(vertex, t) for t in range(len(parts))}

    fwd = {(a, b): ((vertex, cls[b]) if a == vertex else a)
           for a, b in P.language(2)}
    bwd = {(q,): (vertex if q in copies else q) for q in Q.labels}
    return Q, maps.sliding_block_conjugacy(P, Q, fwd, bwd)
