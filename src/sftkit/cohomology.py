"""Positivity of cohomology classes via node potentials.

A class [f] is positive exactly when every periodic orbit sum of f is
non-negative.  On the weighted transition graph of f this is negative-cycle
feasibility, so a shortest-path potential kappa yields the witness pair
(n, b) with  f = n + b - b o sigma,  n >= 0,  b = -kappa on blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .cylinders import CylinderFunction
from .errors import InvalidElement, NotPositiveClass, VerificationFailed
from .presentation import Presentation


class Arc(NamedTuple):
    """A weighted arc.  A named tuple: it compares equal to the plain tuple
    of its fields, and building one per block of a transition graph is
    cheap."""
    source: object
    target: object
    weight: int
    tag: object = None


class WeightedTransitionGraph:
    """Finite weighted digraph; nodes and arcs may carry arbitrary tags."""

    def __init__(self, nodes, arcs):
        self.nodes = list(nodes)
        self.arcs = [a if isinstance(a, Arc) else Arc(*a) for a in arcs]
        node_set = set(self.nodes)
        for a in self.arcs:
            if a.source not in node_set or a.target not in node_set:
                raise ValueError(f"arc {a} uses unknown node")

    @classmethod
    def _proven(cls, nodes, arcs) -> "WeightedTransitionGraph":
        """A graph whose arcs are Arcs between the given nodes by
        construction: transition_graph's arcs run from w[:m] to w[1:] of an
        admissible (m+1)-word w, and both are admissible m-words."""
        W = object.__new__(cls)
        W.nodes, W.arcs = nodes, arcs
        return W

    def __repr__(self):
        return f"WeightedTransitionGraph({len(self.nodes)} nodes, {len(self.arcs)} arcs)"


@dataclass(frozen=True)
class Potential:
    kappa: dict

    def slack(self, arc: Arc) -> int:
        return arc.weight + self.kappa[arc.source] - self.kappa[arc.target]

    def is_valid_for(self, W: WeightedTransitionGraph) -> bool:
        return all(self.slack(a) >= 0 for a in W.arcs)


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
        if isinstance(lower, int):
            lower = CylinderFunction.constant(b.presentation, lower)
        gap = (lower - b).max_value()
        if gap > 0:
            b = b + gap
        return n, b


def transition_graph(P: Presentation, f: CylinderFunction) -> WeightedTransitionGraph:
    """Nodes are the m-blocks, arcs the (m+1)-blocks weighted by f, where
    m = max(depth(f) - 1, 1)."""
    if f.presentation != P:
        raise ValueError("operands live on different presentations")
    m = max(f.depth - 1, 1)
    weight = f.refine(m + 1).table
    arcs = [Arc(w[:m], w[1:], weight[w], w) for w in P.words(m + 1)]
    return WeightedTransitionGraph._proven(P.words(m), arcs)


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
    dist = {v: 0 for v in W.nodes}
    pred = {v: None for v in W.nodes}
    for _ in range(len(W.nodes) + 1):
        changed = False
        for a in W.arcs:
            s, t, wt, _ = a
            d = dist[s] + wt
            if d < dist[t]:
                dist[t] = d
                pred[t] = a
                changed = True
        if not changed:
            return Potential(dict(dist))
        cycle = _predecessor_cycle(pred)
        if cycle is not None:
            witness = NegativeCycleWitness(cycle, sum(a.weight for a in cycle))
            if not witness.verify():
                raise VerificationFailed(
                    "negative-cycle reconstruction failed")
            return witness
    raise VerificationFailed("Bellman-Ford found neither a potential nor a "
                             "negative cycle")


def _predecessor_cycle(pred):
    """The arcs of a cycle of the predecessor graph, in walk order, or None."""
    root_of = {}
    for root in pred:
        v = root
        while v not in root_of:
            root_of[v] = root
            arc = pred[v]
            if arc is None:
                break
            v = arc.source
        else:
            if root_of[v] == root:
                cycle = []
                u = v
                while True:
                    arc = pred[u]
                    cycle.append(arc)
                    u = arc.source
                    if u == v:
                        break
                cycle.reverse()
                return tuple(cycle)
    return None


def class_is_positive(P: Presentation, f: CylinderFunction):
    """PositivityCertificate for [f] in the positive cone, or a
    NegativeCycleWitness showing it is not.

    The sign convention b = -kappa on m-blocks makes the certificate's
    identity read  f = n + b - b o sigma  with n >= 0 exactly.
    """
    W = transition_graph(P, f)
    m = max(f.depth - 1, 1)
    res = find_potential(W)
    if isinstance(res, NegativeCycleWitness):
        return res
    b = CylinderFunction(P, m, {w: -res.kappa[w] for w in W.nodes})
    n = f.refine(m + 1) - b + b.pullback()
    if not n.is_nonnegative():
        raise VerificationFailed("potential failed to produce n >= 0")
    return PositivityCertificate(b, n)


def positive_on_cycles(P: Presentation, f: CylinderFunction) -> bool:
    """Whether every periodic orbit of f sums to at least 1.

    Periodic orbits are the closed walks of the transition graph.  With a
    potential, the reduced arc weights are >= 0 and keep every cycle sum,
    so a cycle sums to 0 exactly when all its arcs have reduced weight 0:
    f is positive on cycles when there is no negative cycle and the
    zero-reduced-weight arcs form an acyclic subgraph.  For f >= 0 the
    potential is 0 and these are the zero-weight arcs of f.
    """
    W = transition_graph(P, f)
    res = find_potential(W)
    if isinstance(res, NegativeCycleWitness):
        return False
    succ = {v: [] for v in W.nodes}
    indeg = dict.fromkeys(W.nodes, 0)
    for a in W.arcs:
        if res.slack(a) == 0:
            succ[a.source].append(a.target)
            indeg[a.target] += 1
    # Kahn's algorithm: every node is removed iff the subgraph is acyclic
    ready = [v for v in W.nodes if indeg[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return removed == len(W.nodes)


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
    width = max(D, 1)
    nodes = P.words(width)
    # keyed by the arcs, the (width + 1)-words w from w[:width] to w[1:]
    arcs = f.refine(width + 1).table
    neighbors = {v: [] for v in nodes}
    for w, val in arcs.items():
        src, dst = w[:width], w[1:]
        neighbors[src].append((dst, -val))   # g(dst) = g(src) - f(w)
        neighbors[dst].append((src, val))    # g(src) = g(dst) + f(w)

    g = {}
    for root in nodes:
        if root in g:
            continue
        g[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u, delta in neighbors[v]:
                val = g[v] + delta
                if u in g:
                    if g[u] != val:
                        return None
                else:
                    g[u] = val
                    stack.append(u)
    for w, val in arcs.items():
        if g[w[:width]] - g[w[1:]] != val:
            return None
    table = {v: g[v] for v in nodes}
    if D == 0 and len(set(table.values())) > 1:
        D = 1
    return CylinderFunction(P, D, table) if D <= max_depth else None
