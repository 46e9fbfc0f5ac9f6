"""Positivity of cohomology classes via node potentials.

A class [f] is positive exactly when every periodic orbit sum of f is
non-negative.  On the weighted transition graph of f this is negative-cycle
feasibility, so a shortest-path potential kappa yields the witness pair
(n, b) with  f = n + b - b o sigma,  n >= 0,  b = -kappa on blocks.  The
same Bellman-Ford decides positivity on cycles, on rescaled weights.

A graph is kept as index lists: arc k runs from nodes[src[k]] to
nodes[dst[k]] with weight[k] and tags[k].  Bellman-Ford, the certificate,
the cycle check and the coboundary system all read those lists; Arc named
tuples are built only on request (W.arcs, W.arc(k)) and for the arcs of a
negative-cycle witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .cylinders import CylinderFunction
from .errors import InvalidElement, NotPositiveClass, VerificationFailed
from .presentation import Presentation


class Arc(NamedTuple):
    """A weighted arc.  A named tuple: it compares equal to the plain tuple
    of its fields.  A graph builds one only on request, since it keeps its
    arcs as index lists."""
    source: object
    target: object
    weight: int
    tag: object = None


class WeightedTransitionGraph:
    """Finite weighted digraph; nodes and arcs may carry arbitrary tags.

    The nodes are distinct.  Arc k runs from nodes[src[k]] to nodes[dst[k]]
    with weight[k] and tags[k] (None for an arc given without a tag)."""

    def __init__(self, nodes, arcs):
        nodes = list(nodes)
        index = {v: i for i, v in enumerate(nodes)}
        if len(index) != len(nodes):
            raise ValueError("duplicate node")
        src, dst, weight, tags = [], [], [], []
        for a in arcs:
            a = a if isinstance(a, Arc) else Arc(*a)
            if a.source not in index or a.target not in index:
                raise ValueError(f"arc {a} uses unknown node")
            src.append(index[a.source])
            dst.append(index[a.target])
            weight.append(a.weight)
            tags.append(a.tag)
        self.nodes, self.src, self.dst = nodes, src, dst
        self.weight, self.tags = weight, tags

    @classmethod
    def _proven(cls, nodes, src, dst, weight, tags) -> "WeightedTransitionGraph":
        """A graph whose index lists are right by construction:
        transition_graph's arcs run from the node w[:m] to the node w[1:] of
        an admissible (m+1)-word w, and both are admissible m-words.
        positive_on_cycles reuses such lists with rescaled weights."""
        W = object.__new__(cls)
        W.nodes, W.src, W.dst, W.weight, W.tags = nodes, src, dst, weight, tags
        return W

    def arc(self, k: int) -> Arc:
        return Arc(self.nodes[self.src[k]], self.nodes[self.dst[k]],
                   self.weight[k], self.tags[k])

    @cached_property
    def arcs(self) -> list:
        return [self.arc(k) for k in range(len(self.src))]

    def __repr__(self):
        return f"WeightedTransitionGraph({len(self.nodes)} nodes, {len(self.src)} arcs)"


@dataclass(frozen=True)
class Potential:
    kappa: dict

    def slacks(self, W: WeightedTransitionGraph) -> list:
        """The slack  weight + kappa(source) - kappa(target)  of every arc
        of W, in arc order."""
        kappa = [self.kappa[v] for v in W.nodes]
        return [wt + kappa[s] - kappa[t]
                for s, t, wt in zip(W.src, W.dst, W.weight)]

    def is_valid_for(self, W: WeightedTransitionGraph) -> bool:
        return all(r >= 0 for r in self.slacks(W))


@dataclass(frozen=True)
class NegativeCycleWitness:
    cycle: tuple  # consecutive arcs forming a closed path
    total: int

    def verify(self) -> bool:
        arcs = self.cycle
        if not arcs:
            return False
        closed = all(arcs[i].target == arcs[(i + 1) % len(arcs)].source
                     for i in range(len(arcs)))
        return closed and sum(a.weight for a in arcs) == self.total < 0

    def __str__(self):
        path = " ".join(str(a.tag if a.tag is not None else (a.source, a.target))
                        for a in self.cycle)
        return f"negative cycle (sum {self.total}): {path}"


@dataclass(frozen=True)
class PositivityCertificate:
    witness_b: CylinderFunction
    nonneg: CylinderFunction  # the n of f = n + b - b o sigma

    def verify(self, f: CylinderFunction) -> bool:
        n, b = self.nonneg, self.witness_b
        return n.is_nonnegative() and (n + b.coboundary()) == f

    def lifted(self, lower=0):
        """The pair (n, b) with b shifted by a constant so that b >= lower
        pointwise; a constant shift does not disturb the identity.

        `lower` may be an int or a CylinderFunction."""
        n, b = self.nonneg, self.witness_b
        gap = -(b - lower).min_value()
        if gap > 0:
            b = b + gap
        return n, b


def transition_graph(P: Presentation, f: CylinderFunction) -> WeightedTransitionGraph:
    """Nodes are the m-blocks, arcs the (m+1)-blocks weighted by f, where
    m = max(depth(f) - 1, 1).

    The arcs are the one-symbol extensions w = u + (b,) of each node u, in
    node order and b in out-neighbour order: the order of P.words(m + 1).
    Arc w runs from u to u[1:] + (b,), and its weight is f on w's first
    width(f) <= m + 1 symbols."""
    if f.presentation != P:
        raise ValueError("operands live on different presentations")
    m = max(f.depth - 1, 1)
    nodes = P.words(m)
    index = {v: i for i, v in enumerate(nodes)}
    table, width = f.table, f.width()
    out = [P.out_neighbors(u[-1]) for u in nodes]
    tags = [u + (b,) for u, bs in zip(nodes, out) for b in bs]
    src = [i for i, bs in enumerate(out) for _ in bs]
    dst = [index[w[1:]] for w in tags]
    weight = [table[w[:width]] for w in tags]
    return WeightedTransitionGraph._proven(nodes, src, dst, weight, tags)


def find_potential(W: WeightedTransitionGraph):
    """A potential with  weight + kappa(source) - kappa(target) >= 0  on
    every arc, or a negative-cycle witness; exactly one of the two.

    Bellman-Ford from a virtual source with zero arcs to every node; the
    distances are the potential.  After every round that changed a
    distance, the predecessor links are walked from every node, each walk
    marking the nodes it visits with its root, in O(|nodes|).  A walk that
    comes back to a node it marked itself closes a cycle of the predecessor
    graph, and the search stops there.

    Any predecessor cycle is negative.  When pred[v] = (u, v) is set, dist[v]
    becomes dist[u] + weight, and afterwards dist[u] can only drop, so every
    predecessor arc has  weight <= dist[v] - dist[u].  Just before the last
    arc of a cycle was set, it relaxed:  weight < dist[v] - dist[u].  Summed
    over the cycle, the right-hand sides telescope to 0, so the total is
    negative.  The witness is still verified by substitution.

    At most |nodes| + 1 rounds run; only a graph without nodes needs the
    last.  Without a negative cycle the distances are final after
    |nodes| - 1 rounds, so round |nodes| at the latest changes nothing and
    the potential is returned.  With one, the predecessor graph has a cycle
    after round |nodes|: were it acyclic, each dist[v] would be at least
    the weight of v's predecessor path, a simple path of fewer than |nodes|
    arcs, and at most the least weight of a walk of at most |nodes| arcs
    into v.  Walks of |nodes| arcs would then gain nothing over shorter
    ones, which holds only when no cycle is negative.
    """
    n = len(W.nodes)
    arcs = list(zip(range(len(W.src)), W.src, W.dst, W.weight))
    dist = [0] * n
    pred = [-1] * n  # the index of the arc that set dist[v], or -1
    for _ in range(n + 1):
        changed = False
        for k, s, t, wt in arcs:
            d = dist[s] + wt
            if d < dist[t]:
                dist[t] = d
                pred[t] = k
                changed = True
        if not changed:
            return Potential(dict(zip(W.nodes, dist)))
        cycle = _predecessor_cycle(pred, W.src)
        if cycle is not None:
            cycle = tuple(W.arc(k) for k in cycle)
            witness = NegativeCycleWitness(cycle, sum(a.weight for a in cycle))
            if not witness.verify():
                raise VerificationFailed(
                    "negative-cycle reconstruction failed")
            return witness
    raise VerificationFailed("Bellman-Ford found neither a potential nor a "
                             "negative cycle")


def _predecessor_cycle(pred, src):
    """The arc indices of a cycle of the predecessor graph, in walk order,
    or None."""
    root_of = [-1] * len(pred)
    for root in range(len(pred)):
        v = root
        while root_of[v] < 0:
            root_of[v] = root
            k = pred[v]
            if k < 0:
                break
            v = src[k]
        else:
            if root_of[v] == root:
                cycle = []
                u = v
                while True:
                    k = pred[u]
                    cycle.append(k)
                    u = src[k]
                    if u == v:
                        break
                cycle.reverse()
                return cycle
    return None


def class_is_positive(P: Presentation, f: CylinderFunction):
    """PositivityCertificate for [f] in the positive cone, or a
    NegativeCycleWitness showing it is not.

    The sign convention b = -kappa on m-blocks makes the certificate's
    identity read  f = n + b - b o sigma  with n >= 0 exactly: on the arc
    w from u to v, n(w) = f(w) + kappa(u) - kappa(v) is the arc's slack.
    The nodes are P.words(m) and the arcs follow P.words(m + 1), so b and
    n are read off the lists in that order.
    """
    W = transition_graph(P, f)
    m = max(f.depth - 1, 1)
    res = find_potential(W)
    if isinstance(res, NegativeCycleWitness):
        return res
    n = res.slacks(W)
    if min(n) < 0:
        raise VerificationFailed("potential failed to produce n >= 0")
    return PositivityCertificate(
        CylinderFunction.on_words(P, m, [-res.kappa[v] for v in W.nodes]),
        CylinderFunction.on_words(P, m + 1, n))


def positive_on_cycles(P: Presentation, f: CylinderFunction) -> bool:
    """Whether every periodic orbit of f sums to at least 1.

    Periodic orbits are the closed walks of f's transition graph W, and a
    closed walk splits into simple cycles, so it is enough that every
    simple cycle sums to at least 1.  With N = |nodes of W|, this holds
    exactly when W with every weight w rescaled to N*w - 1 has no negative
    cycle.  A simple cycle has L <= N arcs; with f-sum S, its rescaled sum
    N*S - L is at least N - L >= 0 when S >= 1, and at most -L < 0 when
    S <= 0.
    """
    W = transition_graph(P, f)
    N = len(W.nodes)
    scaled = WeightedTransitionGraph._proven(
        W.nodes, W.src, W.dst, [N * w - 1 for w in W.weight], W.tags)
    return not isinstance(find_potential(scaled), NegativeCycleWitness)


def decompose_positive(P: Presentation, f: CylinderFunction, lower=0):
    """The certificate pair (n, b) with b lifted above a lower bound, as
    PositivityCertificate.lifted gives it.

    Raises NotPositiveClass when [f] is not positive.
    """
    res = class_is_positive(P, f)
    if isinstance(res, NegativeCycleWitness):
        raise NotPositiveClass(res)
    return res.lifted(lower)


def groupoid_cocycle_eval(g: CylinderFunction, eta) -> int:
    """Value at eta of the groupoid cocycle induced by g.

    For eta = (x, r - s, y) with sigma^r x = sigma^s y the value is
    sum_{i<r} g(sigma^i x) - sum_{j<s} g(sigma^j y); independence of the
    witness pair follows from the witness identity and is re-checked here.
    """
    r, s = eta.witnesses
    x, y = eta.range_pt, eta.source_pt
    if x.shift(r) != y.shift(s):
        raise InvalidElement("witnesses do not verify")
    return (sum(g(x.shift(i)) for i in range(r))
            - sum(g(y.shift(j)) for j in range(s)))


def solve_coboundary(P: Presentation, f: CylinderFunction, max_depth: int):
    """A g with  f = g - g o sigma  of depth <= max_depth, or None.

    One difference system decides it.  With D = max(depth(f) - 1, 0) and
    width = max(D, 1), the equations g(w[:width]) - g(w[1:]) = f(w) over the
    (width + 1)-words w are assigned along a spanning forest of the width
    graph, and every arc is then checked: the system has a solution exactly
    when this assignment is one.

    No deeper system can succeed where this one fails.  Let g' solve the
    equations at a depth D' >= width, and let u, v be D'-words that share
    their first width symbols.  Walk both back along one common predecessor
    path p of D' - width steps, which exists because the graph has no
    sources.  The first D' symbols of p u and p v agree, so g' takes one
    value on them, and each of the D' - width values of f on the way reads
    at most width + 1 symbols, all inside that common prefix.  Summing the
    equations along the walks gives g'(u) = g'(v).  Every solution
    therefore descends to depth width, so no ladder of depths is needed,
    and the vanishing cycle sums that every solvable f has need no
    separate check.

    A solution at depth 0 must be constant; a non-constant one of the
    width-1 system is returned at depth 1 when max_depth allows it.
    """
    if f.presentation != P:
        raise ValueError("operands live on different presentations")
    D = max(f.depth - 1, 0)
    if D > max_depth:
        return None
    # the width graph is f's transition graph: its arcs are the
    # (width + 1)-words w from w[:width] to w[1:], weighted by f(w)
    W = transition_graph(P, f)
    n = len(W.nodes)
    neighbors = [[] for _ in range(n)]
    for s, t, val in zip(W.src, W.dst, W.weight):
        neighbors[s].append((t, -val))   # g(dst) = g(src) - f(w)
        neighbors[t].append((s, val))    # g(src) = g(dst) + f(w)

    g = [None] * n
    for root in range(n):
        if g[root] is not None:
            continue
        g[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u, delta in neighbors[v]:
                if g[u] is None:
                    g[u] = g[v] + delta
                    stack.append(u)
    for s, t, val in zip(W.src, W.dst, W.weight):
        if g[s] - g[t] != val:
            return None
    if D == 0 and len(set(g)) > 1:
        D = 1
    return CylinderFunction.on_words(P, D, g) if D <= max_depth else None
